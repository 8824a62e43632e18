"""Exact and asymptotic average weight spectra of regular LDPC ensembles over GF(q)."""

from .bounds import (
    MarginReport,
    MinDistanceBoundReport,
    kappa,
    min_distance_bound,
    smallx_inequality_margin,
    zero_column_filtered_bound,
)
from .errors import CapacityError, DomainError, ParameterError
from .gf import FieldSpec, build_field
from .growth import (
    Landmarks,
    delta,
    entropy_q,
    gv_threshold,
    landmarks,
    omega,
    omega_family,
    rho,
    x1_right_endpoint,
    xi,
    zeta,
)
from .sim import (
    CodeSample,
    SimReport,
    WeightEnumeration,
    enumerate_weights,
    exhaustive_ensemble,
    monte_carlo,
    sample_code,
)
from .spectrum import (
    EnsembleParams,
    ScalingReport,
    SpectrumTable,
    avg_weight_at,
    avg_weight_d2,
    avg_weight_distribution,
    check_coeffs,
    log_fraction,
    single_check_coeffs,
    small_weight_order,
    small_weight_scaling,
)

__version__ = "0.1.0"
