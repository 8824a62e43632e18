"""Analytic bounds derived from the growth rate.

Two kinds live here: a small-weight upper bound on the growth rate with an
explicit constant, and the resulting polynomially-decaying bound on the
probability that a sampled code has small minimum distance.  The latter
states decay orders only: the implied constants are not part of the
contract and are documented as unspecified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import growth
from .errors import DomainError, ParameterError
from .gf import check_order
from .spectrum import EnsembleParams, small_weight_order


def kappa(q: int, c: int, d: int) -> float:
    """Constant of the small-weight bound: ln(q-1) + (c/2) ln(d-1) + 3c."""
    check_order(q)
    growth._check_c(c)
    growth._check_d(d, 2)
    return math.log(q - 1.0) + (c / 2.0) * math.log(d - 1.0) + 3.0 * c


@dataclass(frozen=True)
class MarginReport:
    """Pointwise margins of the small-weight inequality on a grid.

    margin[i] = bound(x[i]) - omega(x[i]) with
    bound(x) = (c/2 - 1) x ln x + kappa x; all margins must be positive on
    (0, 1/q**2).
    """

    q: int
    c: int
    d: int
    x: tuple[float, ...]
    omega: tuple[float, ...]
    bound: tuple[float, ...]
    margin: tuple[float, ...]
    min_margin: float


def smallx_inequality_margin(q: int, c: int, d: int, x_grid) -> MarginReport:
    """Evaluate bound - omega on a grid strictly inside (0, 1/q**2).

    omega is resolved at every positive weight, so every supported q has a
    grid; the margins test the bound at each grid point.
    """
    # kappa checks q, c and d, so 1/q**2 is formed for a field order only
    k = kappa(q, c, d)
    xs = np.ascontiguousarray(x_grid, np.float64)
    if xs.size == 0:
        raise ParameterError("empty grid")
    upper = 1.0 / q**2
    if not (xs.min() > 0.0 and xs.max() < upper):
        raise DomainError(f"grid must lie strictly inside (0, {upper})")
    om = growth.omega_family(q, (c,), d, xs)[0]
    bound = (c / 2.0 - 1.0) * xs * np.log(xs) + k * xs
    margin = bound - om
    return MarginReport(
        q=q,
        c=c,
        d=d,
        x=tuple(float(v) for v in xs),
        omega=tuple(float(v) for v in om),
        bound=tuple(float(v) for v in bound),
        margin=tuple(float(v) for v in margin),
        min_margin=float(margin.min()),
    )


@dataclass(frozen=True)
class MinDistanceBoundReport:
    """Decay orders of P{dmin <= n*alpha} for one ensemble and block length.

    The probability is bounded by a sum of two terms.  The polynomial term
    has order n**exponent_term, the order of E[A(l0 + Delta)], where
    l0 + Delta is the smallest weight from l0 on whose average does not
    vanish at every n; spectrum.small_weight_order gives both.  In the
    regime d >= c >= 3 that makes Delta = 1 exactly when q = 2 and c*l0 is
    odd, and exponent_term = -ceil((c-2)(l0+Delta)/2).  The exponential
    term has order n**1.5 * exp(n*omega(alpha)) and vanishes when alpha is
    below the typical-distance threshold.  The implied constants of both
    orders are not specified by this bound; only the orders are
    meaningful, and exp_term reports the n-dependent factor.  filtered
    marks the variant conditioned on no-all-zero-column codes, which
    starts at l0 = 2.
    """

    params: EnsembleParams
    l0: int
    alpha: float
    Delta: int
    exponent_term: int
    exp_term: float
    filtered: bool = False


def min_distance_bound(params: EnsembleParams, l0: int, alpha: float) -> MinDistanceBoundReport:
    """Bound the probability of minimum distance in [l0, n*alpha].

    Needs d >= c >= 3 (positive-rate expander regime with decaying
    small-weight mass), l0 >= 1, and alpha inside (0, 1 - 1/q).
    """
    q, c, d = params.q, params.c, params.d
    if c < 3:
        raise ParameterError(f"the bound needs variable degree c >= 3, got {c}")
    if d < c:
        raise ParameterError(f"the bound needs d >= c, got d = {d} < c = {c}")
    if l0 < 1:
        raise ParameterError(f"l0 must be at least 1, got {l0}")
    if not 0.0 < alpha < (q - 1.0) / q:
        raise ParameterError(f"alpha must lie in (0, {(q - 1.0) / q}), got {alpha}")
    delta_inc = 0
    while (exponent := small_weight_order(q, c, d, l0 + delta_inc)) is None:
        delta_inc += 1
    om = growth.omega(q, c, d, alpha).omega
    try:
        exp_term = params.n**1.5 * math.exp(params.n * om)
    except OverflowError:
        exp_term = math.inf
    return MinDistanceBoundReport(
        params=params,
        l0=l0,
        alpha=alpha,
        Delta=delta_inc,
        exponent_term=exponent,
        exp_term=exp_term,
    )


def zero_column_filtered_bound(params: EnsembleParams, alpha: float) -> MinDistanceBoundReport:
    """The minimum-distance bound conditioned on drawing no all-zero column.

    Conditioning keeps an asymptotically constant fraction of the ensemble
    and forces dmin >= 2, so the polynomial term starts at weight 2 and
    decays like n**(2-c).  This instantiates the bound for the one concrete
    filter implemented by the simulator; other filters are an extension
    point, not implemented.
    """
    return replace(min_distance_bound(params, 2, alpha), filtered=True)
