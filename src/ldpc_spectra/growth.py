"""Asymptotic growth rate of the average weight spectrum and its landmarks.

For a (c, d)-regular ensemble over GF(q) the normalized log of the average
weight distribution converges to

    omega(x) = H_q(x) + (c/d) * (delta(x) - ln q),

where H_q is the q-ary entropy with natural logs and delta(x) is the
infimum over a tilt parameter of a single-check exponent:

    delta(x) = inf_{xhat in (0,1)}  d * D(x || xhat) + rho(xhat),
    rho(xhat) = ln(1 + (q-1) * zhat**d),      zhat = 1 - q*xhat/(q-1).

The infimum is attained where a strictly increasing rational map zeta of
the tilt equals z = 1 - q*x/(q-1).  Bisection inverts x -> tilt for the
curves; the landmarks are single roots in the tilt t, whose weight
x(t) = (q-1)(1 - zeta(t))/q, omega and slope are closed forms in t
(Burshtein & Miller 2004; Di, Richardson & Urbanke 2006).  Extended reals
are first class: delta and omega are -inf on the unreachable weight range
of q = 2 with odd d, and one-sided endpoint slopes are +/-inf where they
diverge.

All logs are natural; x is the normalized weight in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, ParameterError
from .gf import check_order
from .kernels import BISECT_MAXIT, BISECT_TOL, powi
# Width of the bands around x = 0 and x = x1 inside which evaluation
# returns the analytic endpoint/limit values instead of solving.
ENDPOINT_BAND = 1e-8

INF = float("inf")


def _check_d(d: int, minimum: int = 3) -> None:
    if d < minimum:
        raise ParameterError(f"check degree must be at least {minimum}, got {d}")


def _check_c(c: int) -> None:
    if c < 1:
        raise ParameterError(f"variable degree must be at least 1, got {c}")


def _check_x(x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"normalized weight must lie in [0, 1], got {x}")


# ---------------------------------------------------------------------------
# Scalar building blocks
# ---------------------------------------------------------------------------


def entropy_q(x: float, q: int) -> float:
    """q-ary entropy with natural logs: H_q(0) = 0, H_q(1 - 1/q) = ln q."""
    check_order(q)
    _check_x(x)
    out = x * math.log(q - 1.0) if q > 2 else 0.0
    if 0.0 < x < 1.0:
        out += -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)
    return out


def divergence(x: float, y: float) -> float:
    """Binary KL divergence D(x || y) in nats; +inf when y is a mismatched endpoint."""
    _check_x(x)
    _check_x(y)
    out = 0.0
    if x > 0.0:
        if y == 0.0:
            return INF
        out += x * math.log(x / y)
    if x < 1.0:
        if y == 1.0:
            return INF
        out += (1.0 - x) * math.log((1.0 - x) / (1.0 - y))
    return out


def rho(q: int, d: int, x: float) -> float:
    """Single-check log moment at tilt x: ln(1 + (q-1) z**d), z = 1 - qx/(q-1).

    Continuous and finite on [0, 1] except for q = 2 with odd d, where the
    argument vanishes at x = 1 and the value is -inf.
    """
    check_order(q)
    if d < 1:
        raise ParameterError(f"check degree must be at least 1, got {d}")
    _check_x(x)
    z = 1.0 - q * x / (q - 1.0)
    arg = 1.0 + (q - 1.0) * powi(z, d)
    if arg <= 0.0:
        return -INF
    return math.log(arg)


def zeta(q: int, d: int, zhat: float) -> float:
    """Strictly increasing stationarity map of the tilt parameter.

    zeta(zhat) = (zhat + zhat**(d-1) + (q-2) zhat**d) / (1 + (q-1) zhat**d)
    on [-1/(q-1), 1], fixing 0 and 1.  For q = 2 and odd d the formula is
    0/0 at zhat = -1; the continuous extension 2/d - 1 is returned there.
    """
    check_order(q)
    _check_d(d, 2)
    lo = -1.0 / (q - 1.0)
    if not lo - 1e-12 <= zhat <= 1.0 + 1e-12:
        raise DomainError(f"tilt {zhat} outside [{lo}, 1]")
    return float(kernels.zeta(q, d, np.float64(zhat)))


def z_left_endpoint(q: int, d: int) -> float:
    """Smallest reachable value of zeta: 2/d - 1 for q = 2 with odd d, else -1/(q-1)."""
    check_order(q)
    _check_d(d, 2)
    if q == 2 and d % 2 == 1:
        return 2.0 / d - 1.0
    return -1.0 / (q - 1.0)


def x1_right_endpoint(q: int, d: int) -> float:
    """Right edge of the reachable weight range: 1 - 1/d for q = 2 with odd d, else 1."""
    check_order(q)
    _check_d(d, 2)
    if q == 2 and d % 2 == 1:
        return 1.0 - 1.0 / d
    return 1.0


def solve_zhat1(q: int, d: int, z: float) -> float:
    """Invert zeta: the unique tilt zhat1 in [-1/(q-1), 1] with zeta(zhat1) = z.

    Raises DomainError when z lies below the left endpoint of zeta's range
    (no tilt reaches it).  An interior root is clamped into the open
    bracket by BISECT_TOL/2 so downstream logs stay finite.
    """
    check_order(q)
    _check_d(d)
    z1 = z_left_endpoint(q, d)
    if z > 1.0 + 1e-12 or z < z1 - 1e-12:
        raise DomainError(f"no tilt solves zeta = {z}; range is [{z1}, 1]")
    if z >= 1.0:
        return 1.0
    if z == 0.0:
        return 0.0
    if z <= z1:
        return -1.0 / (q - 1.0)
    return float(_solve_zhat_grid(q, d, np.array([z], np.float64))[0])


def _solve_zhat_grid(q: int, d: int, z: np.ndarray) -> np.ndarray:
    lo = -1.0 / (q - 1.0)
    roots = kernels.solve_zhat_batch(q, d, z)
    return np.clip(roots, lo + BISECT_TOL / 2, 1.0 - BISECT_TOL / 2)


def delta_two_arg(q: int, d: int, x: float, xhat: float) -> float:
    """The tilted single-check objective d * D(x || xhat) + rho(q, d, xhat).

    delta(x) is the infimum of this over xhat in (0, 1); evaluating on a
    grid of xhat values gives an independent upper envelope for tests.
    """
    check_order(q)
    _check_d(d)
    _check_x(x)
    if not 0.0 < xhat < 1.0:
        raise DomainError(f"tilt weight must lie in (0, 1), got {xhat}")
    return d * divergence(x, xhat) + rho(q, d, xhat)


# ---------------------------------------------------------------------------
# Vectorized evaluation core
# ---------------------------------------------------------------------------


def _xlogx(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    m = x > 0.0
    out[m] = x[m] * np.log(x[m])
    return out


def _entropy_vec(x: np.ndarray, q: int) -> np.ndarray:
    out = -_xlogx(x) - _xlogx(1.0 - x)
    if q > 2:
        out = out + x * math.log(q - 1.0)
    return out


def _divergence_vec(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # y strictly interior; x may touch 0 or 1.
    out = _xlogx(x) + _xlogx(1.0 - x)
    out -= x * np.log(y) + (1.0 - x) * np.log(1.0 - y)
    return out


# Closed forms at a tilt t stationary for the weight x.  The curves pass
# tilts solved from x, the landmarks pass x = x(t).


def _tilt_weight(q: int, d: int, t):
    return (q - 1.0) * (1.0 - kernels.zeta(q, d, t)) / q


def _tilt_delta(q: int, d: int, x: np.ndarray, t: np.ndarray):
    qm1 = q - 1.0
    xhat = (qm1 / q) * (1.0 - t)
    return d * _divergence_vec(x, xhat) + np.log(1.0 + qm1 * powi(t, d)), xhat


def _tilt_omega(q: int, c: int, d: int, x: np.ndarray, dval: np.ndarray) -> np.ndarray:
    return _entropy_vec(x, q) + (c / d) * (dval - math.log(q))


def _tilt_domega(q: int, c: int, d: int, t):
    qm1 = q - 1.0
    td1 = powi(t, d - 1)
    return np.log((1.0 + qm1 * t) / (1.0 - t)) + (c - 1) * np.log(
        (1.0 - td1) / (1.0 + qm1 * td1)
    )


def _region_masks(q: int, d: int, x: np.ndarray):
    x1 = x1_right_endpoint(q, d)
    near0 = x < ENDPOINT_BAND
    near1 = np.abs(x - x1) <= ENDPOINT_BAND
    beyond = (x > x1 + ENDPOINT_BAND) & ~near1
    interior = ~(near0 | near1 | beyond)
    return near0, near1, beyond, interior


def _delta_grid(q: int, d: int, x: np.ndarray):
    """Vector delta evaluation: returns (value, zhat1, xhat1, z) arrays."""
    qm1 = q - 1.0
    z = 1.0 - q * x / qm1
    value = np.empty_like(x)
    zh = np.empty_like(x)
    xh = np.empty_like(x)
    near0, near1, beyond, interior = _region_masks(q, d, x)

    value[near0] = math.log(q)
    zh[near0] = 1.0
    xh[near0] = 0.0

    if q == 2 and d % 2 == 1:
        x1_value = math.log(2 * d) - d * entropy_q(1.0 / d, 2)
        value[near1] = x1_value
        zh[near1] = -1.0
        xh[near1] = 1.0
        value[beyond] = -INF
        zh[beyond] = -1.0
        xh[beyond] = 1.0
    else:
        value[near1] = rho(q, d, 1.0)
        zh[near1] = -1.0 / qm1
        xh[near1] = 1.0

    if interior.any():
        zi = _solve_zhat_grid(q, d, z[interior])
        value[interior], xh[interior] = _tilt_delta(q, d, x[interior], zi)
        zh[interior] = zi
    return value, zh, xh, z


def _domega_limit_zero(q: int, c: int, d: int) -> float:
    if c == 1:
        return INF
    if c == 2:
        return math.log(d - 1.0)
    return -INF


def _domega_limit_x1(q: int, c: int, d: int) -> float:
    if q == 2 and d % 2 == 0:
        if c == 1:
            return -INF
        if c == 2:
            return -math.log(d - 1.0)
        return INF
    return -INF


def _omega_grid(q: int, c: int, d: int, x: np.ndarray):
    """Vector omega evaluation: returns (omega, domega) arrays."""
    dval, zh, _, _ = _delta_grid(q, d, x)
    om = _tilt_omega(q, c, d, x, dval)
    dom = np.empty_like(x)
    near0, near1, beyond, interior = _region_masks(q, d, x)
    dom[near0] = _domega_limit_zero(q, c, d)
    dom[near1] = _domega_limit_x1(q, c, d)
    dom[beyond] = math.nan
    if interior.any():
        dom[interior] = _tilt_domega(q, c, d, zh[interior])
    return om, dom


# ---------------------------------------------------------------------------
# Public scalar API
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaEval:
    """A delta evaluation with its minimizing tilt.

    zhat1/xhat1 are the stationary tilt in both coordinates; at the domain
    endpoints they carry the analytic limits.  value is -inf on the
    unreachable range (q = 2, odd d, x beyond 1 - 1/d).
    """

    x: float
    z: float
    zhat1: float
    xhat1: float
    value: float


@dataclass(frozen=True)
class GrowthPoint:
    """Growth rate and its derivative at one normalized weight."""

    x: float
    omega: float
    domega: float


def delta(q: int, d: int, x: float) -> DeltaEval:
    """Evaluate the inner infimum delta(x) with its minimizer.

    Within 1e-8 of x = 0 or of the right endpoint x1 the analytic
    endpoint/limit values are returned directly.
    """
    check_order(q)
    _check_d(d)
    _check_x(x)
    xs = np.array([x], np.float64)
    value, zh, xh, z = _delta_grid(q, d, xs)
    return DeltaEval(x=x, z=float(z[0]), zhat1=float(zh[0]), xhat1=float(xh[0]), value=float(value[0]))


def omega(q: int, c: int, d: int, x: float) -> GrowthPoint:
    """Growth rate omega(x) = H_q(x) + (c/d) (delta(x) - ln q), with derivative."""
    check_order(q)
    _check_c(c)
    _check_d(d)
    _check_x(x)
    xs = np.array([x], np.float64)
    om, dom = _omega_grid(q, c, d, xs)
    return GrowthPoint(x=x, omega=float(om[0]), domega=float(dom[0]))


def domega(q: int, c: int, d: int, x: float) -> float:
    """Derivative of the growth rate in the tilt form.

    d omega/dx = ln[(1 + (q-1) zhat1)/(1 - zhat1)]
               + (c-1) ln[(1 - zhat1**(d-1))/(1 + (q-1) zhat1**(d-1))].

    At x = 0 and x = x1 the one-sided limits are returned (extended reals);
    beyond x1, where omega is identically -inf, the result is nan.
    """
    return omega(q, c, d, x).domega


def domega_alt(q: int, c: int, d: int, x: float) -> float:
    """Derivative of the growth rate in the weight form (equal to domega).

    d omega/dx = ln[(x/(1-x))**(c-1) * ((1-xhat1)/xhat1)**c] + ln(q-1).
    Only defined for x strictly inside (0, x1).
    """
    _check_c(c)
    x1 = x1_right_endpoint(q, d)
    if not ENDPOINT_BAND <= x <= x1 - ENDPOINT_BAND:
        raise DomainError(f"weight-form derivative needs x inside ({ENDPOINT_BAND}, {x1 - ENDPOINT_BAND})")
    xh = delta(q, d, x).xhat1
    return (
        (c - 1) * math.log(x / (1.0 - x))
        + c * math.log((1.0 - xh) / xh)
        + math.log(q - 1.0)
    )


def omega_curve(q: int, c: int, d: int, xs):
    """Vectorized omega and its derivative over an array of weights in [0, 1]."""
    check_order(q)
    _check_c(c)
    _check_d(d)
    xs = np.ascontiguousarray(xs, np.float64)
    if xs.size and (xs.min() < 0.0 or xs.max() > 1.0):
        raise DomainError("weights must lie in [0, 1]")
    return _omega_grid(q, c, d, xs)


def delta_curve(q: int, d: int, xs):
    """Vectorized delta over an array of weights: (value, zhat1, xhat1) arrays."""
    check_order(q)
    _check_d(d)
    xs = np.ascontiguousarray(xs, np.float64)
    if xs.size and (xs.min() < 0.0 or xs.max() > 1.0):
        raise DomainError("weights must lie in [0, 1]")
    value, zh, xh, _ = _delta_grid(q, d, xs)
    return value, zh, xh


# ---------------------------------------------------------------------------
# Curvature polynomial and landmarks
# ---------------------------------------------------------------------------


def xi_coefficients(q: int, c: int, d: int) -> list[int]:
    """Integer coefficients (degree 0 upward) of the curvature sign polynomial.

    xi(t) = sum_{i=0}^{d-3} t**i - [(c-1)(d-1) - 1] (t**(d-2) + (q-1) t**(d-1))
          + (q-1) sum_{i=d}^{2d-3} t**i.

    The sign of the second derivative of omega at x is the opposite of the
    sign of xi at the stationary tilt zhat1(x): the tilt decreases in x and
    the remaining factors are positive.  xi(0) = 1, xi(1) = -q(c-2)(d-1).
    """
    check_order(q)
    _check_c(c)
    _check_d(d)
    k = (c - 1) * (d - 1) - 1
    coef = [0] * (2 * d - 2)
    for i in range(d - 2):
        coef[i] = 1
    coef[d - 2] = -k
    coef[d - 1] = -(q - 1) * k
    for i in range(d, 2 * d - 2):
        coef[i] = q - 1
    return coef


def xi(q: int, c: int, d: int, zhat: float) -> float:
    """Evaluate the curvature sign polynomial at a tilt value."""
    return _horner(xi_coefficients(q, c, d), zhat)


def _horner(coef: list[int], t: float) -> float:
    out = 0.0
    for a in reversed(coef):
        out = out * t + a
    return out


@dataclass(frozen=True)
class Landmarks:
    """Distinguished weights of the growth rate curve for one ensemble.

    x1 is the right edge of the reachable range.  For c >= 3: x3 is the
    unique stationary weight of omega in (0, 1 - 1/q), x0 the zero of omega
    in (x3, 1 - 1/q] (the normalized typical minimum distance), and x2 the
    inflection weight where convexity flips, located through the positive
    root zhat2 of the curvature polynomial.  zhat2_neg is the extra
    negative root present for q = 2 with even d (curvature flip mirrored
    beyond 1 - 1/q).  Fields are None in regimes where the landmark does
    not exist (c <= 2 concave cases and the c = d boundary is x0 = 1-1/q).
    """

    q: int
    c: int
    d: int
    x1: float
    x0: float | None
    x2: float | None
    x3: float | None
    zhat2: float | None
    zhat2_neg: float | None


def _bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise DomainError(f"bisection bracket [{lo}, {hi}] does not change sign")
    for _ in range(BISECT_MAXIT):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def landmarks(q: int, c: int, d: int) -> Landmarks:
    """Locate the landmark weights of omega for one ensemble.

    Each landmark is one bisection root in the tilt t, run to the floating
    point floor, with weight x(t) = (q-1)(1 - zeta(t))/q falling from
    1 - 1/q to 0 over t in [0, 1]: zhat2 is a root of xi, t3 of omega'(t)
    on (0, 1), and t0 of omega(t) on (0, t3).
    """
    check_order(q)
    _check_c(c)
    _check_d(d)
    if c > d:
        raise ParameterError(f"variable degree c = {c} exceeds check degree d = {d}")
    x1 = x1_right_endpoint(q, d)
    zhat2 = None
    zhat2_neg = None
    x2 = None
    x3 = None
    x0 = None

    coef = xi_coefficients(q, c, d)
    poly = lambda t: _horner(coef, t)
    wants_x2 = c >= 3 or (c == 2 and q >= 3)
    if wants_x2:
        if c >= 3:
            zhat2 = _bisect(poly, 1e-12, 1.0 - 1e-12)
        else:
            lo, hi = 1e-12, 1.0 - 1e-6
            if (poly(lo) < 0.0) != (poly(hi) < 0.0):
                zhat2 = _bisect(poly, lo, hi)
            else:
                # xi(1) = 0 exactly when c = 2: the flip degenerates to the edge.
                zhat2 = 1.0
        x2 = float(_tilt_weight(q, d, zhat2))

    if q == 2 and d % 2 == 0 and c >= 3:
        zhat2_neg = _bisect(poly, -1.0 + 1e-12, -1e-12)

    if c >= 3:
        # omega'(t) > 0 on (0, t3), -> -inf as t -> 1, and 0 at the peak t = 0.
        t3 = _bisect(lambda t: _tilt_domega(q, c, d, t), 1e-6, 1.0 - 1e-12)
        x3 = float(_tilt_weight(q, d, t3))
        if c == d:
            x0 = (q - 1.0) / q
        else:
            # omega(0) = (1 - c/d) ln q > 0 and omega(t3) < 0.
            def omega_at(t: float) -> float:
                ts = np.array([t])
                xs = _tilt_weight(q, d, ts)
                return _tilt_omega(q, c, d, xs, _tilt_delta(q, d, xs, ts)[0])[0]

            x0 = float(_tilt_weight(q, d, _bisect(omega_at, 0.0, t3)))

    return Landmarks(
        q=q, c=c, d=d, x1=x1, x0=x0, x2=x2, x3=x3, zhat2=zhat2, zhat2_neg=zhat2_neg
    )


def domega_floor(q: int, c: int, d: int, x: float) -> float:
    """domega at an interior x in (0, 1 - 1/q), its tilt solved to the floor.

    domega's tilt solve stops at bracket width BISECT_TOL, which near a root
    of the slope leaves an error of about |d domega/dt| * BISECT_TOL: enough
    to swamp the residual at the landmark x3 for large d (4.8e-10 at
    (2, 3, 48)).  Here the tilt is bisected to the floating point floor.
    """
    z = 1.0 - q * x / (q - 1.0)
    t = _bisect(lambda t: kernels.zeta(q, d, t) - z, 0.0, 1.0)
    return float(_tilt_domega(q, c, d, t))


def gv_threshold(q: int, r: float) -> float:
    """Gilbert-Varshamov weight: the x in (0, 1 - 1/q] with H_q(x) = r ln q.

    r is the redundancy fraction (1 - rate); r = 1 returns 1 - 1/q exactly.
    """
    check_order(q)
    if not 0.0 < r <= 1.0:
        raise ParameterError(f"redundancy fraction must lie in (0, 1], got {r}")
    if r == 1.0:
        return (q - 1.0) / q
    target = r * math.log(q)
    return _bisect(
        lambda t: entropy_q(t, q) - target, 1e-300, (q - 1.0) / q
    )


__all__ = [
    "BISECT_MAXIT",
    "BISECT_TOL",
    "DeltaEval",
    "ENDPOINT_BAND",
    "GrowthPoint",
    "Landmarks",
    "delta",
    "delta_curve",
    "delta_two_arg",
    "divergence",
    "domega",
    "domega_alt",
    "domega_floor",
    "entropy_q",
    "gv_threshold",
    "landmarks",
    "omega",
    "omega_curve",
    "rho",
    "solve_zhat1",
    "x1_right_endpoint",
    "xi",
    "xi_coefficients",
    "z_left_endpoint",
    "zeta",
]
