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
x = 0 itself takes its limit values.  The gap is the only coordinate in
which anything is solved.  gap_map is the left side as a map of s, and
solve_gap_batch inverts it, x -> gap, by a batched bracketed Newton
iteration for the curves, one solve for every c since the gap depends on
q, d and x alone; the landmarks are single roots in the gap, whose weight
x(s) = (q-1)(1 - zeta(1 - s))/q, omega, slope and curvature sign xi are
closed forms in s (Burshtein & Miller 2004; Di, Richardson & Urbanke 2006).
Extended reals are first class: delta and omega are -inf on the
unreachable weight range of q = 2 with odd d, and one-sided endpoint
slopes are +/-inf where they diverge.

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

# Relative step at which the gap solve stops, and the iteration cap of the
# scalar bisections run to the floating point floor.
BISECT_TOL = 1e-12
BISECT_MAXIT = 200


def _check_d(d: int, minimum: int = 3) -> None:
    if d < minimum:
        raise ParameterError(f"check degree must be at least {minimum}, got {d}")


def _check_c(c: int) -> None:
    if c < 1:
        raise ParameterError(f"variable degree must be at least 1, got {c}")


# ---------------------------------------------------------------------------
# The tilt map in the gap s = 1 - t, and its batched inverse
# ---------------------------------------------------------------------------


def tilt_powers(q, d, s, near):
    """(t**(d-1), 1 - t**(d-1), 1 + (q-1) t**d) at the tilt t = 1 - s,
    floats or arrays.

    near: through log1p and expm1 of s itself, for gaps s <= 1, so that no
    digit of a small gap is lost.  Otherwise plain powers of t, for any gap
    in [0, q/(q-1)], exact to rounding where (d-1) s is not small; |t| is
    raised, since numpy's power is slow on negative bases.  For q = 2 with
    odd d, where t**(d-1) -> 1 and 1 + t**d -> 0 as t -> -1, both
    differences from 1 go through expm1 of ln|t| instead.
    """
    t = 1.0 - s
    if near:
        lt = (d - 1) * np.log1p(-s)
        p = np.exp(lt)
        return p, -np.expm1(lt), 1.0 + (q - 1.0) * (p * t)
    if q == 2 and d % 2 == 1:
        with np.errstate(divide="ignore"):
            la = np.log(np.abs(t))
        lt = (d - 1) * la
        p = np.exp(lt)
        return p, -np.expm1(lt), np.where(t < 0.0, -np.expm1(lt + la), 1.0 + p * t)
    p = np.abs(t) ** (d - 1)
    if d % 2 == 0:
        p = np.copysign(p, t)
    return p, 1.0 - p, 1.0 + (q - 1.0) * (p * t)


def gap_map(q, d, s, near):
    """1 - zeta(1 - s) = s (1 - t**(d-1)) / (1 + (q-1) t**d), t = 1 - s."""
    _, m, den = tilt_powers(q, d, s, near)
    return s * m / den


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
    """Solve 1 - zeta(1 - s) = w[i] elementwise for the gap s by bracketed Newton.

    w = q x / (q-1) > 0 carries every digit of the weight x.  The gap map
    over s**2 lies in [1/q, d-1] for s <= 1, so w < 1 has its root in
    [sqrt(w/(d-1)), min(1, sqrt(q w))]; w >= 1 has it in [1, q/(q-1)].
    Newton runs on ln gap_map(s) - ln w in u = ln s, and every evaluation
    narrows the bracket.  A step that leaves the bracket, or is more than
    half the step before it, is replaced by the bracket's midpoint.  Each
    element stops on its own once its step falls to BISECT_TOL relative, so
    its root is independent of the rest of the batch, and it takes at most
    as many iterations as halving the widest bracket to that width would.
    """
    w = np.ascontiguousarray(w, np.float64)
    cap = math.ceil(math.log2(math.sqrt(q * (d - 1.0)) / BISECT_TOL))
    # log1p(-1) = -inf at s = 1 gives the exact powers of t = 0
    with np.errstate(divide="ignore"):
        return _sides(w < 1.0, lambda k, near: _newton(q, d, near, w[k], cap))


def _newton(q, d, near, w, cap):
    """Bracketed Newton for gap_map(s) = w on one side of the bracket of
    solve_gap_batch, at most cap iterations per element.
    """
    if near:
        lo = np.sqrt(w / (d - 1.0))
        hi = np.minimum(np.sqrt(q * w), 1.0)
        s = np.clip(np.sqrt(q * w / (d - 1.0)), lo, hi)
    else:
        lo = s = np.ones_like(w)
        hi = np.full_like(w, q / (q - 1.0))
    last = np.full_like(w, INF)
    out = np.empty_like(w)
    idx = np.arange(w.size)
    for _ in range(cap):
        p, m, den = tilt_powers(q, d, s, near)
        f = np.log(s * m / (den * w))
        # d ln gap_map / d ln s, with t**(d-2) = p/t taken as 0 at t = 0
        t = 1.0 - s
        slope = 1.0 + s * p * ((d - 1.0) / (m * np.where(t == 0.0, 1.0, t)) + d * (q - 1.0) / den)
        below = f < 0.0
        lo = np.where(below, s, lo)
        hi = np.where(below, hi, s)
        new = s * np.exp(-f / slope)
        step = np.abs(new - s)
        newton = ((lo < new) & (new < hi) & (2.0 * step <= last)) | (step == 0.0)
        new = np.where(newton, new, 0.5 * (lo + hi))
        last = np.abs(new - s)
        done = last <= BISECT_TOL * s
        if done.any():
            out[idx[done]] = new[done]
            keep = ~done
            if not keep.any():
                return out
            idx, new, lo, hi, w, last = idx[keep], new[keep], lo[keep], hi[keep], w[keep], last[keep]
        s = new
    out[idx] = s
    return out


# ---------------------------------------------------------------------------
# Scalar building blocks
# ---------------------------------------------------------------------------


def rho(q: int, d: int, x: float) -> float:
    """Single-check log moment at tilt x: ln(1 + (q-1) z**d), z = 1 - qx/(q-1).

    Continuous and finite on [0, 1] except for q = 2 with odd d, where the
    argument vanishes at x = 1 and the value is -inf.
    """
    check_order(q)
    _check_d(d, 1)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"normalized weight must lie in [0, 1], got {x}")
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


def x1_right_endpoint(q: int, d: int) -> float:
    """Right edge of the reachable weight range: 1 - 1/d for q = 2 with odd d, else 1."""
    check_order(q)
    _check_d(d, 2)
    if q == 2 and d % 2 == 1:
        return 1.0 - 1.0 / d
    return 1.0


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


def _horner(coef: list[float], u):
    out = 0.0
    for a in reversed(coef):
        out = out * u + a
    return out


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
        excess = np.log(tilt_powers(q, d, s, near)[2] / q) - d * np.log1p(-xh)
    return d * (x * np.log(x / xh) + (1.0 - x) * np.log1p(-x) + x * np.log1p(-xh)) + excess


def _slope(q: int, c: int, d: int, s, near: bool):
    """omega'(x) = ln[(1 + (q-1) t)/s] + (c-1) ln[(1 - t**(d-1))/(1 + (q-1) t**(d-1))]."""
    p, m, _ = tilt_powers(q, d, s, near)
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
        # ln(2d) - d H_2(1/d) - ln 2 with H_2(u) = -u ln u - (1-u) ln(1-u) in
        # plain logs: _entropy_open's log1p differs in the last digit for
        # most odd d >= 7, and this value is printed at x1
        u = 1.0 / d
        gain[near1] = (math.log(2 * d) + d * (u * math.log(u) + (1.0 - u) * math.log(1.0 - u))
                       - math.log(2))
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


def _cycle_slope(q: int, c: int, x: np.ndarray):
    """Slope (1 - c/2) [ln(q-1) + ln((1-x)/x)] of the cycle-code growth
    rate (d = 2): 0 everywhere for c = 2, and for other c the limits
    (1 - c/2) * (+inf) at x = 0 and (1 - c/2) * (-inf) at x = 1.
    """
    if c == 2:
        return np.zeros_like(x)
    with np.errstate(divide="ignore"):
        return (1.0 - c / 2.0) * (math.log(q - 1.0) + np.log1p(-x) - np.log(x))


def _slope_grid(q: int, c: int, d: int, x: np.ndarray, s: np.ndarray, regions):
    near1, beyond, interior = regions
    dom = np.empty_like(x)
    dom[x == 0.0] = _domega_limit_zero(q, c, d)
    dom[near1] = _domega_limit_x1(q, c, d)
    dom[beyond] = math.nan
    if interior.any():
        si = s[interior]
        dom[interior] = _sides(si < 1.0 / d, lambda k, near: _slope(q, c, d, si[k], near))
    return dom


def _omega_grid(q: int, cs, d: int, x: np.ndarray, slope: bool):
    """omega over the weights x for each variable degree in cs, from one
    delta solve: a list of (omega, slope) pairs, the slope None unless asked.

    For the cycle codes, d = 2, omega is (1 - c/2) H_q(x).
    """
    h = _entropy_vec(x, q)
    if d == 2:
        return [((1.0 - c / 2.0) * h, _cycle_slope(q, c, x) if slope else None) for c in cs]
    gain, _, _, s, regions = _delta_grid(q, d, x)
    return [(h + (c / d) * gain, _slope_grid(q, c, d, x, s, regions) if slope else None)
            for c in cs]


# ---------------------------------------------------------------------------
# Public API: one function per quantity, for a weight or an array of weights
# ---------------------------------------------------------------------------


def _weights(x) -> np.ndarray:
    """x as a float64 array, a single weight as one element; DomainError
    unless every weight lies in [0, 1], which a NaN does not.
    """
    xs = np.ascontiguousarray(x, np.float64)
    if xs.size and not (xs.min() >= 0.0 and xs.max() <= 1.0):
        raise DomainError("weights must lie in [0, 1]")
    return xs


def _like(x, *arrays):
    """The arrays as Python floats if x is a single weight, else as they are."""
    if np.ndim(x) == 0:
        return tuple(float(a[0]) for a in arrays)
    return arrays


def entropy_q(x, q: int):
    """q-ary entropy with natural logs: H_q(0) = 0, H_q(1 - 1/q) = ln q.

    A float for a single weight x, an array for an array of weights.
    """
    check_order(q)
    return _like(x, _entropy_vec(_weights(x), q))[0]


def delta(q: int, d: int, x):
    """The inner infimum delta(x) with its minimizer: (delta, zhat1, xhat1),
    floats for a single weight x, arrays for an array of weights.

    zhat1/xhat1 are the stationary tilt in both coordinates.  At x = 0 and
    within ENDPOINT_BAND of the right endpoint x1 the analytic endpoint/limit
    values are returned directly; every other x is solved.  delta is -inf on
    the unreachable range (q = 2, odd d, x beyond 1 - 1/d).
    """
    check_order(q)
    _check_d(d)
    gain, zh, xh, *_ = _delta_grid(q, d, _weights(x))
    return _like(x, gain + math.log(q), zh, xh)


def _omega_weights(q: int, cs, d: int, xs) -> np.ndarray:
    check_order(q)
    for c in cs:
        _check_c(c)
    _check_d(d, 2)
    return _weights(xs)


def omega(q: int, c: int, d: int, x):
    """Growth rate omega(x) = H_q(x) + (c/d) (delta(x) - ln q) and its slope
    omega'(x): floats for a single weight x, arrays for an array of weights.

    For the cycle codes, d = 2, omega is the closed form (1 - c/2) H_q(x).
    The slope is, in the tilt,

        d omega/dx = ln[(1 + (q-1) zhat1)/(1 - zhat1)]
                   + (c-1) ln[(1 - zhat1**(d-1))/(1 + (q-1) zhat1**(d-1))].

    At x = 0 and x = x1 it takes its one-sided limits (extended reals);
    beyond x1, where omega is identically -inf, it is nan.
    """
    return _like(x, *_omega_grid(q, (c,), d, _omega_weights(q, (c,), d, x), True)[0])


def omega_family(q: int, cs, d: int, xs):
    """omega alone over an array of weights in [0, 1], one array for each
    variable degree in the sequence cs, all from one solve of the gap,
    which depends on q, d and x only.
    """
    return [om for om, _ in _omega_grid(q, cs, d, _omega_weights(q, cs, d, xs), False)]


# ---------------------------------------------------------------------------
# Curvature sign function and landmarks
# ---------------------------------------------------------------------------


def xi(q: int, c: int, d: int, s: float) -> float:
    """Curvature sign function at the tilt gap s = 1 - t.

    xi = (1 - t**(d-2)) (1 + (q-1) t**d) / s - k t**(d-2) (1 + (q-1) t),
    k = (c-1)(d-1) - 1, closes the geometric sums of the integer polynomial

        sum_{i=0}^{d-3} t**i - k (t**(d-2) + (q-1) t**(d-1))
          + (q-1) sum_{i=d}^{2d-3} t**i

    of degree 2d - 3.  The powers come from tilt_powers, through log1p of
    s itself for s < 1, so a root near t = 1 keeps its digits.  The sign of
    the second derivative of omega at x is the opposite of the sign of xi at
    the stationary gap s(x): the gap increases in x and the remaining
    factors are positive.  xi(1) = 1, and xi(0) is the limit
    -q(c-2)(d-1).
    """
    check_order(q)
    _check_c(c)
    _check_d(d)
    if s == 0.0:
        return float(-q * (c - 2) * (d - 1))
    p, m, _ = tilt_powers(q, d - 1, s, s < 1.0)
    t = 1.0 - s
    k = (c - 1) * (d - 1) - 1
    return float(m * (1.0 + (q - 1.0) * (p * t * t)) / s - k * p * (1.0 + (q - 1.0) * t))


@dataclass(frozen=True)
class Landmarks:
    """Distinguished weights of the growth rate curve for one ensemble.

    x1 is the right edge of the reachable range.  For c >= 3: x3 is the
    unique stationary weight of omega in (0, 1 - 1/q), x0 the zero of omega
    in (x3, 1 - 1/q] (the normalized typical minimum distance), and x2 the
    inflection weight where convexity flips, at the root s2 in [0, 1) of the
    curvature sign function xi in the gap, zhat2 = 1 - s2 in the tilt.
    zhat2_neg = -zhat2 is the tilt of the extra root of xi at s in (1, 2),
    present for q = 2 with even d (curvature flip mirrored beyond 1 - 1/q).
    Fields are None in regimes where the landmark does not exist (c <= 2
    concave cases and the c = d boundary is x0 = 1-1/q).
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
    s2: float | None


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
    from 0 to 1 - 1/q over the gap s in [0, 1]: s2 is a root of xi(s) on
    (0, 1), s3 of omega'(s) on (0, 1), and s0 of omega(s) on (s3, 1).
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

    curvature = lambda s: xi(q, c, d, s)
    weight = lambda s: float((q - 1.0) / q * gap_map(q, d, s, s < 1.0 / d))
    s2 = None
    if c >= 3:
        # xi(s -> 0) = -q(c-2)(d-1) < 0 and xi(1) = 1
        s2 = _bisect(curvature, 1e-300, 1.0)
    elif c == 2 and q >= 3:
        lo, hi = 1e-6, 1.0 - 1e-12
        if (curvature(lo) < 0.0) != (curvature(hi) < 0.0):
            s2 = _bisect(curvature, lo, hi)
        else:
            # xi(s -> 0) = 0 when c = 2: the flip degenerates to the edge.
            s2 = 0.0
    if s2 is not None:
        zhat2 = 1.0 - s2
        x2 = weight(s2)

    if q == 2 and d % 2 == 0 and c >= 3:
        # xi(-t) (1 + t) = xi(t) (1 - t) when q = 2 and d is even
        zhat2_neg = -zhat2

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
        q=q, c=c, d=d, x1=x1, x0=x0, x2=x2, x3=x3, zhat2=zhat2, zhat2_neg=zhat2_neg, s2=s2
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
    return _bisect(lambda t: _entropy_open(t, q) - target, 1e-300, (q - 1.0) / q)


__all__ = [
    "BISECT_MAXIT",
    "BISECT_TOL",
    "ENDPOINT_BAND",
    "Landmarks",
    "delta",
    "entropy_q",
    "gv_threshold",
    "landmarks",
    "omega",
    "omega_family",
    "rho",
    "x1_right_endpoint",
    "xi",
    "zeta",
]
