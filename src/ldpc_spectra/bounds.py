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
from fractions import Fraction

import numpy as np

from . import growth
from .errors import DomainError, ParameterError
from .gf import check_order
from .spectrum import EnsembleParams


def kappa(q: int, c: int, d: int) -> float:
    """Constant of the small-weight bound: ln(q-1) + (c/2) ln(d-1) + 3c."""
    check_order(q)
    growth._check_c(c)
    if d < 2:
        raise ParameterError(f"check degree must be at least 2, got {d}")
    return math.log(q - 1.0) + (c / 2.0) * math.log(d - 1.0) + 3.0 * c


def growth_rate_values(q: int, c: int, d: int, xs) -> np.ndarray:
    """omega on an array of weights, routing d = 2 through its closed form.

    The cycle-code growth rate is (1 - c/2) H_q(x); higher check degrees go
    through the variational evaluator.
    """
    xs = np.ascontiguousarray(xs, np.float64)
    if d < 2:
        raise ParameterError(f"check degree must be at least 2, got {d}")
    if d == 2:
        check_order(q)
        growth._check_c(c)
        if xs.size and not (xs.min() >= 0.0 and xs.max() <= 1.0):
            raise DomainError("weights must lie in [0, 1]")
        return (1.0 - c / 2.0) * growth._entropy_vec(xs, q)
    om, _ = growth.omega_curve(q, c, d, xs)
    return om


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
    xs = np.ascontiguousarray(x_grid, np.float64)
    if xs.size == 0:
        raise ParameterError("empty grid")
    upper = 1.0 / q**2
    if not (xs.min() > 0.0 and xs.max() < upper):
        raise DomainError(f"grid must lie strictly inside (0, {upper})")
    om = growth_rate_values(q, c, d, xs)
    k = kappa(q, c, d)
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

    The probability is bounded by a sum of two terms:
    a polynomial term of order n**exponent_term with
    exponent_term = -ceil((c-2)(l0+Delta)/2), where Delta = 1 exactly when
    q = 2 and c*l0 is odd (the next even-mass weight takes over), plus an
    exponential term of order n**1.5 * exp(n*omega(alpha)), vanishing
    when alpha is below the typical-distance threshold.  The implied
    constants of both orders are not specified by this bound; only the
    orders are meaningful, and exp_term reports the n-dependent factor.
    filtered marks the variant conditioned on no-all-zero-column codes,
    which starts at l0 = 2.
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
    delta_inc = 1 if (q == 2 and (c * l0) % 2 == 1) else 0
    exponent = -math.ceil((c - 2) * (l0 + delta_inc) / 2)
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


def taylor_check(d: int, x_grid) -> float:
    """Minimum slack of (1-x)**d <= 1 - d x + d(d-1) x**2 / 2 on a grid in [0, 1].

    Returns min over the grid of the right side minus the left side; the
    quadratic truncation of the binomial series dominates on [0, 1] for
    every d >= 1, so the result is nonnegative up to rounding.
    """
    if d < 1:
        raise ParameterError(f"d must be at least 1, got {d}")
    xs = np.ascontiguousarray(x_grid, np.float64)
    if xs.size == 0:
        raise ParameterError("empty grid")
    if not (xs.min() >= 0.0 and xs.max() <= 1.0):
        raise DomainError("grid must lie in [0, 1]")
    # grid floats are exact binary rationals, so the slack is computed
    # exactly; float rounding would otherwise report spurious tiny
    # negatives for d = 2 where the slack is identically zero
    best = None
    for xf in xs.tolist():
        x = Fraction(xf)
        slack = 1 - d * x + Fraction(d * (d - 1), 2) * x * x - (1 - x) ** d
        if best is None or slack < best:
            best = slack
    return float(best)
