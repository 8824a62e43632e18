"""Independent formulas the tests compare the package against.

These are scalar evaluations of the paper's quantities by a route the
package does not take: the tilted two-argument objective whose infimum is
delta, the weight form of the growth rate's derivative, the Stirling-gap
upper bound on (1/n) ln E[A(l)], the Taylor slack behind the
small-weight bound, the parity matrices of every ensemble
configuration, the weight-1 words of a code read off its zero columns,
and the exact spectrum assembled as unreduced integer pairs that Fraction
reduces.  No subcommand needs them, so they live here.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import islice, permutations, product

import numpy as np

from ldpc_spectra import DomainError, ParameterError
from ldpc_spectra.gf import build_field, check_order
from ldpc_spectra.growth import (
    ENDPOINT_BAND,
    INF,
    _check_c,
    _check_d,
    omega,
    rho,
    solve_gap_batch,
    x1_right_endpoint,
)
from ldpc_spectra.sim import assemble_parity


def _check_x(x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"normalized weight must lie in [0, 1], got {x}")

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


def delta_two_arg(q: int, d: int, x: float, xhat: float) -> float:
    """The tilted single-check objective d * D(x || xhat) + rho(q, d, xhat).

    delta(x) is the infimum of this over xhat in (0, 1); evaluating on a
    grid of xhat values gives an independent upper envelope.
    """
    check_order(q)
    _check_d(d)
    _check_x(x)
    if not 0.0 < xhat < 1.0:
        raise DomainError(f"tilt weight must lie in (0, 1), got {xhat}")
    return d * divergence(x, xhat) + rho(q, d, xhat)


def domega_alt(q: int, c: int, d: int, x: float) -> float:
    """Derivative of the growth rate in the weight form (equal to omega's slope).

    d omega/dx = ln[(x/(1-x))**(c-1) * ((1-xhat1)/xhat1)**c] + ln(q-1),
    xhat1 = (q-1) s/q at the gap s solved for x.  Check degrees d >= 2 are
    served; x must lie strictly inside (0, x1), short of the band at x1.
    """
    _check_c(c)
    x1 = x1_right_endpoint(q, d)
    if not 0.0 < x <= x1 - ENDPOINT_BAND:
        raise DomainError(f"weight-form derivative needs x inside (0, {x1 - ENDPOINT_BAND}]")
    xh = (q - 1.0) / q * float(solve_gap_batch(q, d, np.array([q * x / (q - 1.0)]))[0])
    return (
        (c - 1) * math.log(x / (1.0 - x))
        + c * math.log((1.0 - xh) / xh)
        + math.log(q - 1.0)
    )


def beta(n: int, l: int) -> float:
    """Gap between the binary entropy at l/n and the normalized log-binomial.

    beta(n, l) = H2(l/n) - ln(C(n, l)) / n, always nonnegative, and at most
    ln(l*(n-l)/n) / (2n) + (ln(2*pi)/2 + 1/6) / n for 0 < l < n.
    """
    if n < 1:
        raise ParameterError(f"n must be at least 1, got {n}")
    if not 0 <= l <= n:
        raise ParameterError(f"l = {l} outside [0, {n}]")
    x = l / n
    h2 = 0.0
    if 0.0 < x < 1.0:
        h2 = -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)
    return h2 - math.log(math.comb(n, l)) / n


def log_avg_upper_bound(params, l: int) -> float:
    """Upper bound on (1/n) ln E[A(l)] from the growth rate plus Stirling gaps.

    The bound is omega(l/n) + c * beta(c*n, c*l); it dominates the exact
    normalized log for every finite n.  Needs d >= 2.
    """
    if not 0 <= l <= params.n:
        raise ParameterError(f"weight {l} outside [0, {params.n}]")
    om, _ = omega(params.q, params.c, params.d, l / params.n)
    return om + params.c * beta(params.c * params.n, params.c * l)


def fraction_average(params, coeffs) -> list[Fraction]:
    """E[A(l)] for l = 0..n, each an unreduced pair that Fraction reduces.

    One walk over l updates C(n, l), C(c*n, c*l) and (q-1)**((c-1)*l) by
    exact integer steps, and Fraction(num, den) runs one full-size gcd per
    weight.  coeffs holds the check-side coefficients a(0..c*n).
    """
    q, c, n = params.q, params.c, params.n
    cn = c * n
    step = (q - 1) ** (c - 1)
    binom_n = binom_cn = power = 1
    out = []
    for l in range(n + 1):
        if l:
            binom_n = binom_n * (n - l + 1) // l
            binom_cn = binom_cn * math.perm(cn - c * l + c, c) // math.perm(c * l, c)
            power *= step
        out.append(Fraction(binom_n * coeffs[c * l], binom_cn * power))
    return out


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


def configuration_multiplicities(params) -> Counter:
    """How many ensemble configurations give each parity matrix (its bytes).

    Walks all (c*n)! socket permutations and all (q-1)**(c*n) nonzero
    multiplier assignments, and assembles the matrices of 1024
    configurations at a time with sim.assemble_parity.  The count grows
    factorially, so this serves tiny ensembles only.
    """
    field = build_field(params.q)
    cn = params.num_sockets
    configs = (
        (perm, mult)
        for perm in permutations(range(cn))
        for mult in product(range(1, params.q), repeat=cn)
    )
    shared = Counter()
    while batch := list(islice(configs, 1024)):
        perms, mults = (np.array(part, np.int64) for part in zip(*batch))
        parity = assemble_parity(params, field, perms, mults)
        shared.update(map(bytes, parity.reshape(len(parity), -1)))
    return shared


def has_zero_column(parity: np.ndarray) -> np.ndarray:
    """One flag per matrix of a (batch, m, n) stack: True when some column
    is all zero, that is, when some variable is attached to no effective
    check constraint and the code has a word of weight 1.
    """
    return (parity == 0).all(axis=1).any(axis=1)
