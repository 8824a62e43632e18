"""Asymptotic growth rate of the average weight spectrum and its landmarks.

For a (c, d)-regular ensemble over GF(q) the normalized log of the average
weight distribution converges to

    omega(x) = H_q(x) + (c/d) * (delta(x) - ln q),

where H_q is the q-ary entropy with natural logs and delta(x) is the
infimum over a tilt parameter of a single-check exponent:

    delta(x) = inf_{xhat in (0,1)}  d * D(x || xhat) + rho(xhat),
    rho(xhat) = ln(1 + (q-1) * zhat**d),      zhat = 1 - q*xhat/(q-1).

The infimum is attained where a strictly increasing rational map zeta of
the tilt zhat equals z = 1 - q*x/(q-1).  The tilt is carried as its gap
s = 1 - zhat, which solves

    1 - zeta(1 - s) = s**2 * S / (1 + (q-1) t**d) = q*x/(q-1),
    t = 1 - s,  S = sum_{k<d-1} t**k,

with no digit of x lost, so omega is resolved down to x = 1e-300 and only
x = 0 itself takes its limit values.  gap_map is the left side as a map of
s, and solve_gap_batch inverts it, x -> gap, by a batched bisection for the
curves; the landmarks are single roots in the gap, whose weight
x(s) = (q-1)(1 - zeta(1 - s))/q, omega and slope are closed forms in s
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

from .errors import DomainError, ParameterError
from .gf import check_order

# Width of the band around the right endpoint x1 inside which evaluation
# returns the analytic endpoint/limit values instead of solving.
ENDPOINT_BAND = 1e-8

INF = float("inf")

# Relative bracket width of the gap solve, and the iteration cap of the
# scalar bisections run to the floating point floor.
BISECT_TOL = 1e-12
BISECT_MAXIT = 200


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
# The tilt map in the gap s = 1 - t, and its batched inverse
# ---------------------------------------------------------------------------


def tilt_powers(d, s, near):
    """(t**(d-1), 1 - t**(d-1), t**d) at the tilt t = 1 - s, floats or arrays.

    near: through log1p and expm1 of s itself, for gaps s <= 1, so that no
    digit of a small gap is lost.  Otherwise plain powers of t, for any gap
    in [0, q/(q-1)], exact to rounding where (d-1) s is not small; |t| is
    raised, since numpy's power is slow on negative bases.
    """
    t = 1.0 - s
    if near:
        lt = (d - 1) * np.log1p(-s)
        p = np.exp(lt)
        return p, -np.expm1(lt), p * t
    p = np.abs(t) ** (d - 1)
    if d % 2 == 0:
        p = np.copysign(p, t)
    return p, 1.0 - p, p * t


def gap_map(q, d, s, near):
    """1 - zeta(1 - s) = s (1 - t**(d-1)) / (1 + (q-1) t**d), t = 1 - s."""
    _, m, pd = tilt_powers(d, s, near)
    return s * m / (1.0 + (q - 1.0) * pd)


def _sides(near: np.ndarray, form) -> np.ndarray:
    """form(mask, side) on the elements where near holds (side True) and
    on the rest (side False), in one array; an empty side is skipped.
    """
    out = np.empty(near.shape)
    for mask, side in ((near, True), (~near, False)):
        if mask.any():
            out[mask] = form(mask, side)
    return out


def solve_gap_batch(q, d, w):
    """Solve 1 - zeta(1 - s) = w[i] elementwise for the gap s by bisection.

    w = q x / (q-1) > 0 carries every digit of the weight x.  The gap map
    over s**2 lies in [1/q, d-1] for s <= 1, so w < 1 has its root in
    [sqrt(w/(d-1)), min(1, sqrt(q w))]; w >= 1 has it in [1, q/(q-1)].
    Every element is halved the same fixed number of times, enough for a
    relative width BISECT_TOL from the widest bracket, so each root is
    independent of the rest of the batch.
    """
    w = np.ascontiguousarray(w, np.float64)
    steps = math.ceil(math.log2(math.sqrt(q * (d - 1.0)) / BISECT_TOL))
    # log1p(-1) = -inf at s = 1 gives the exact powers of t = 0
    with np.errstate(divide="ignore"):
        return _sides(w < 1.0, lambda k, near: _halve(q, d, near, w[k], steps))


def _halve(q, d, near, w, steps):
    """Bisect gap_map(s) = w from the bracket of solve_gap_batch by steps
    halvings of its width.
    """
    lo = np.sqrt(w / (d - 1.0)) if near else np.ones_like(w)
    width = (np.minimum(np.sqrt(q * w), 1.0) if near else q / (q - 1.0)) - lo
    for _ in range(steps):
        width = 0.5 * width
        mid = lo + width
        lo = np.where(gap_map(q, d, mid, near) < w, mid, lo)
    return lo + 0.5 * width


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
    arg = 1.0 + (q - 1.0) * z**d
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
    if q == 2 and d % 2 == 1 and zhat == -1.0:
        return 2.0 / d - 1.0
    s = 1.0 - zhat
    return float(1.0 - gap_map(q, d, s, s < 1.0 / d))


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
    (no tilt reaches it).  An interior root is 1 - s for the gap s solved
    from 1 - z.
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
    return 1.0 - float(solve_gap_batch(q, d, np.array([1.0 - z]))[0])


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


def _entropy_open(x, q: int):
    """H_q on (0, 1), floats or arrays; log1p keeps the ~x of -(1-x) ln(1-x)."""
    return x * (math.log(q - 1.0) - np.log(x)) - (1.0 - x) * np.log1p(-x)


def _entropy_vec(x: np.ndarray, q: int) -> np.ndarray:
    out = x * math.log(q - 1.0)
    inner = (x > 0.0) & (x < 1.0)
    out[inner] = _entropy_open(x[inner], q)
    return out


# Closed forms at a gap s = 1 - t stationary for the weight x.  The curves
# pass gaps solved from x, the landmarks pass x = x(s).  Each takes floats
# or arrays whose gaps all lie on one side of 1/d: near (s < 1/d), where
# t**(d-1) is within a factor e of 1 and its digits come from log1p of s,
# or far.


def _excess_coefficients(q: int, d: int) -> list[float]:
    """Coefficients in u = d s, degree 0 upward, of the exact polynomial

        N = (1 + (q-1) t**d)/q - (1 - xhat)**d
          = sum_{k>=2} C(d, k) (-s)**k a (1 - a**(k-1)),   a = (q-1)/q.

    Built by the term ratio of C(d, k)/d**k <= 1/k!, and cut where for
    u < 1 a term falls below the float floor against the first, since
    a (1 - a**(k-1)) <= (k-1) a (1-a).
    """
    a = (q - 1.0) / q
    ratio = first = 0.5 * (d - 1.0) / d
    coef = [0.0, 0.0]
    for k in range(2, d + 1):
        if (k - 1) * ratio < 2.0**-53 * first:
            break
        coef.append((-1) ** k * ratio * -a * math.expm1((k - 1) * math.log1p(-1.0 / q)))
        ratio *= (d - k) / ((k + 1.0) * d)
    return coef


def _gain(q: int, d: int, x, s, near: bool, coef: list[float]):
    """delta(x) - ln q at the gap s stationary for the weight x.

    d [x ln(x/xhat) + (1-x) ln(1-x) + x ln(1-xhat)] + E, xhat = (q-1) s/q,
    where E = rho - ln q - d ln(1 - xhat) = O(s**2).  Near, E is
    log1p(N / (1 - xhat)**d) with N of _excess_coefficients, so no O(s)
    terms cancel; far, E is taken directly.
    """
    xh = (q - 1.0) / q * s
    if near:
        excess = np.log1p(_horner(coef, d * s) * np.exp(-d * np.log1p(-xh)))
    else:
        td = tilt_powers(d, s, near)[2]
        excess = np.log((1.0 + (q - 1.0) * td) / q) - d * np.log1p(-xh)
    return d * (x * np.log(x / xh) + (1.0 - x) * np.log1p(-x) + x * np.log1p(-xh)) + excess


def _slope(q: int, c: int, d: int, s, near: bool):
    """omega'(x) = ln[(1 + (q-1) t)/s] + (c-1) ln[(1 - t**(d-1))/(1 + (q-1) t**(d-1))]."""
    p, m, _ = tilt_powers(d, s, near)
    return (math.log(q) + np.log1p(-(q - 1.0) / q * s) - np.log(s)
            + (c - 1) * (np.log(m) - np.log1p((q - 1.0) * p)))


def _region_masks(q: int, d: int, x: np.ndarray):
    x1 = x1_right_endpoint(q, d)
    near1 = np.abs(x - x1) <= ENDPOINT_BAND
    beyond = (x > x1 + ENDPOINT_BAND) & ~near1
    interior = (x > 0.0) & ~(near1 | beyond)
    return near1, beyond, interior


def _delta_grid(q: int, d: int, x: np.ndarray):
    """Vector delta evaluation: (delta - ln q, zhat1, xhat1, s) arrays and
    the (near1, beyond, interior) region masks of x.

    s is the solved gap 1 - zhat1 at interior weights and 0 elsewhere.
    """
    qm1 = q - 1.0
    gain = np.zeros_like(x)
    s = np.zeros_like(x)
    zh = np.ones_like(x)
    xh = np.zeros_like(x)
    near1, beyond, interior = _region_masks(q, d, x)

    if q == 2 and d % 2 == 1:
        gain[near1] = math.log(2 * d) - d * entropy_q(1.0 / d, 2) - math.log(2)
        gain[beyond] = -INF
        zh[near1 | beyond] = -1.0
    else:
        gain[near1] = rho(q, d, 1.0) - math.log(q)
        zh[near1] = -1.0 / qm1
    xh[near1 | beyond] = 1.0

    if interior.any():
        xi = x[interior]
        si = solve_gap_batch(q, d, q * xi / qm1)
        coef = _excess_coefficients(q, d)
        gain[interior] = _sides(si < 1.0 / d, lambda k, near: _gain(q, d, xi[k], si[k], near, coef))
        s[interior] = si
        zh[interior] = 1.0 - si
        xh[interior] = qm1 / q * si
    return gain, zh, xh, s, (near1, beyond, interior)


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
    gain, _, _, s, (near1, beyond, interior) = _delta_grid(q, d, x)
    om = _entropy_vec(x, q) + (c / d) * gain
    dom = np.empty_like(x)
    dom[x == 0.0] = _domega_limit_zero(q, c, d)
    dom[near1] = _domega_limit_x1(q, c, d)
    dom[beyond] = math.nan
    if interior.any():
        si = s[interior]
        dom[interior] = _sides(si < 1.0 / d, lambda k, near: _slope(q, c, d, si[k], near))
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

    At x = 0 and within ENDPOINT_BAND of the right endpoint x1 the analytic
    endpoint/limit values are returned directly; every other x is solved.
    """
    check_order(q)
    _check_d(d)
    _check_x(x)
    gain, zh, xh, *_ = _delta_grid(q, d, np.array([x], np.float64))
    return DeltaEval(x=x, z=1.0 - q * x / (q - 1.0), zhat1=float(zh[0]), xhat1=float(xh[0]),
                     value=float(gain[0] + math.log(q)))


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
    Only defined for x strictly inside (0, x1), short of the band at x1.
    """
    _check_c(c)
    x1 = x1_right_endpoint(q, d)
    if not 0.0 < x <= x1 - ENDPOINT_BAND:
        raise DomainError(f"weight-form derivative needs x inside (0, {x1 - ENDPOINT_BAND}]")
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
    if xs.size and not (xs.min() >= 0.0 and xs.max() <= 1.0):
        raise DomainError("weights must lie in [0, 1]")
    return _omega_grid(q, c, d, xs)


def delta_curve(q: int, d: int, xs):
    """Vectorized delta over an array of weights: (value, zhat1, xhat1) arrays."""
    check_order(q)
    _check_d(d)
    xs = np.ascontiguousarray(xs, np.float64)
    if xs.size and not (xs.min() >= 0.0 and xs.max() <= 1.0):
        raise DomainError("weights must lie in [0, 1]")
    gain, zh, xh, *_ = _delta_grid(q, d, xs)
    return gain + math.log(q), zh, xh


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

    Each landmark is one bisection root, run to the floating point floor
    on Python floats, with weight x(s) = (q-1)(1 - zeta(1 - s))/q rising
    from 0 to 1 - 1/q over the gap s in [0, 1]: zhat2 is a root of xi in the
    tilt, s3 of omega'(s) on (0, 1), and s0 of omega(s) on (s3, 1).
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
    weight = lambda s: float((q - 1.0) / q * gap_map(q, d, s, s < 1.0 / d))
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
        x2 = weight(1.0 - zhat2)

    if q == 2 and d % 2 == 0 and c >= 3:
        zhat2_neg = _bisect(poly, -1.0 + 1e-12, -1e-12)

    if c >= 3:
        # omega'(s) -> -inf as s -> 0, > 0 on (s3, 1), and 0 at the peak s = 1.
        s3 = _bisect(lambda s: _slope(q, c, d, s, s < 1.0 / d), 1e-300, 1.0 - 1e-6)
        x3 = weight(s3)
        if c == d:
            x0 = (q - 1.0) / q
        else:
            # omega(s3) < 0 and omega(1) = (1 - c/d) ln q > 0.
            excess = _excess_coefficients(q, d)

            def omega_at(s: float) -> float:
                x = weight(s)
                return _entropy_open(x, q) + (c / d) * _gain(q, d, x, s, s < 1.0 / d, excess)

            x0 = weight(_bisect(omega_at, s3, 1.0))

    return Landmarks(
        q=q, c=c, d=d, x1=x1, x0=x0, x2=x2, x3=x3, zhat2=zhat2, zhat2_neg=zhat2_neg
    )


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
