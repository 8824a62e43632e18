"""Exact ensemble-average weight spectra of (c, d)-regular codes over GF(q).

The ensemble averages admit closed rational forms: the number of weight-l
words in a random code, averaged over all socket permutations and nonzero
edge multipliers, equals

    E[A(l)] = C(n, l) * a(c*l) / (C(c*n, c*l) * (q-1)**((c-1)*l))

where a(m) is the coefficient of x**m in the generating polynomial of the
check-side weight counts, itself the N-th power (N = c*n/d checks) of a
fixed degree-d polynomial whose coefficients count single-check solutions
by weight.  The coefficients come from Miller's recurrence for powers of a
power series, O(c*n*d) big-integer steps.  One walk over l carries
C(n, l) / C(c*n, c*l) in lowest terms by word-sized steps, and each
a(c*l) sheds the power of q-1 it is known to hold, so every E[A(l)] comes
out in lowest terms after one gcd: a full table costs O(c*n*d) steps plus
n+1 gcds.  Everything here is exact integer and Fraction arithmetic.

For q = 2 and even d the table is its own mirror, E[A(l)] = E[A(n-l)]:
over GF(2) the check polynomial sum_i C(d, i) x**i over even i is
palindromic for even d, so a(m) = a(c*n - m), and C(n, l) / C(c*n, c*l)
is unchanged by l -> n-l.  (Every parity row then has even weight, as
parallel edges cancel in pairs, so the all-ones word lies in every code
of the ensemble.)  Those tables are computed for l <= n/2 only and
mirrored.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError, ParameterError
from .gf import check_order

# Default cap on the block length of a full exact spectrum request: the
# largest multiple of 1000 at which (q, c, d) = (4, 3, 6) takes no longer
# than (2, 3, 6) at n = 2000 took with the former N-fold convolution.
# Measured with in-process `spectrum` runs on a 2-core host, best of 3:
# (2, 3, 6) n = 2000 took 4.3 s before; (4, 3, 6) takes 1.5 s at n = 3000,
# 3.0 s at n = 4000 and 5.3 s at n = 5000, most of it the one gcd per
# weight and the digit strings.  The mirrored q = 2, even-d tables take
# about half their former time, but the rule reads (4, 3, 6), which does
# not mirror, so the cap stays where that rule put it.
DEFAULT_N_CAP = 4000


@dataclass(frozen=True)
class EnsembleParams:
    """Parameters of a (c, d)-regular ensemble over GF(q) at block length n.

    q is a prime power, every variable meets c checks, every check meets d
    variables, and d must divide c*n so the socket count splits into whole
    checks.
    """

    q: int
    c: int
    d: int
    n: int

    def __post_init__(self) -> None:
        check_order(self.q)
        if self.c < 1:
            raise ParameterError(f"c must be at least 1, got {self.c}")
        if self.d < 1:
            raise ParameterError(f"d must be at least 1, got {self.d}")
        if self.n < 1:
            raise ParameterError(f"n must be at least 1, got {self.n}")
        if (self.c * self.n) % self.d != 0:
            raise ParameterError(
                f"d = {self.d} must divide c*n = {self.c * self.n}; "
                f"this block length does not admit whole checks"
            )

    @property
    def num_checks(self) -> int:
        return self.c * self.n // self.d

    @property
    def num_sockets(self) -> int:
        return self.c * self.n


@dataclass(frozen=True)
class SpectrumTable:
    """Exact average weight distribution E[A(l)] for l = 0..n."""

    params: EnsembleParams
    values: tuple[Fraction, ...]


def single_check_coeffs(q: int, d: int) -> list[int]:
    """Weight enumerator coefficients of one degree-d check over GF(q).

    Entry i counts the solutions of a single parity check with exactly i of
    its d positions nonzero, divided by the (q-1)**i multiplier symmetry:
    the count is C(d, i) * b(i) with b(i) = ((q-1)**i + (-1)**i (q-1)) / q,
    which is always an integer.  b(0) = 1, b(1) = 0, b(2) = q - 1.
    """
    check_order(q)
    if d < 1:
        raise ParameterError(f"d must be at least 1, got {d}")
    out = []
    binom = 1
    for i in range(d + 1):
        num = (q - 1) ** i + (-1) ** i * (q - 1)
        if num % q != 0:
            raise AssertionError(f"non-integral check coefficient at q={q}, i={i}")
        out.append(binom * (num // q))
        binom = binom * (d - i) // (i + 1)
    return out


def _check_row_length(M: int) -> None:
    """Refuse coefficients a(0..M) too many for a list, before any is built."""
    if M >= sys.maxsize:
        raise CapacityError(
            f"coefficients a(0..{M}) exceed the longest list; c*n or c*l is too large"
        )


def check_coeffs(q: int, d: int, N: int, M: int) -> tuple[int, ...]:
    """Coefficients a(0..M) of x**m in the N-check generating polynomial.

    The polynomial is F = P**N for the single-check polynomial P, and
    P(0) = 1, so P*F' = N*P'*F gives J.C.P. Miller's recurrence for powers
    of a power series (Knuth, TAOCP Vol. 2, 4.7):

        m*a[m] = sum_{i=1..min(d, m)} (N*i - (m-i)) * p[i] * a[m-i]

    with a[0] = 1 and a[m] = 0 for m > N*d.  That is O(M*d) big-integer
    steps, each division by m exact (checked), in O(M) memory.

    Parameters
    ----------
    q, d : int
        Field order (prime power) and check degree.
    N : int
        Number of checks, at least 0.
    M : int
        Highest coefficient index retained.

    Raises
    ------
    CapacityError
        If M + 1 coefficients are too many for a list, before any is built.
    """
    if N < 0:
        raise ParameterError(f"N must be nonnegative, got {N}")
    if M < 0:
        raise ParameterError(f"M must be nonnegative, got {M}")
    _check_row_length(M)
    terms = [(i, p) for i, p in enumerate(single_check_coeffs(q, d)) if i and p]
    row = [0] * (M + 1)
    row[0] = 1
    for m in range(1, min(M, N * d) + 1):
        acc = 0
        for i, p in terms:
            if i > m:
                break
            acc += (N * i - m + i) * p * row[m - i]
        row[m], rem = divmod(acc, m)
        if rem:
            raise AssertionError(f"inexact power recurrence at q={q}, d={d}, N={N}, m={m}")
    return tuple(row)


def _radical(m: int) -> int:
    """The product of the distinct primes of m >= 1, by trial division."""
    rad, f = 1, 2
    while f * f <= m:
        if m % f == 0:
            rad *= f
            while m % f == 0:
                m //= f
        f += 1
    return rad * m  # what is left of m is 1 or a prime


_ZERO = Fraction(0)


def _average_values(params: EnsembleParams, coeffs, first: int, last: int):
    """Yield E[A(l)] for l = first..last, each a Fraction in lowest terms.

    One walk over l carries C(n, l) / C(c*n, c*l) in lowest terms: its
    part made of the primes of q-1 as a small fraction pn/pd, and the rest
    as two coprime integers top/bottom free of those primes.  A step
    multiplies by the word-sized ratio
    perm(c*l - 1, c - 1) / perm(c*n - c*l + c - 1, c - 1), reduced by gcds
    of word-sized numbers against the big ones.  A weight whose
    coefficient is zero leaves its step to the next weight, so for q = 2
    or d = 2 the walk reduces at every other weight.

    a(c*l) is divisible by (q-1)**ceil(c*l/d): each check that meets a
    weight-l word in i >= 1 edges contributes b(i) = (q-1) * ((q-1)**(i-1)
    + (-1)**i) / q with gcd(q, q-1) = 1, and the word meets at least
    ceil(c*l/d) checks.  That power divides out exactly, and gcds with a
    fixed power of q-1 strip the rest of the primes of q-1.  What is left
    of a(c*l) is then coprime to every power of those primes, so one gcd
    with bottom finishes the term, coprime by construction.
    """
    q, c, d, n = params.q, params.c, params.d, params.n
    cn = c * n
    q1 = q - 1
    rad = _radical(q1)
    # each prime of q-1 divides chunk to a higher power than the product
    # of two steps' numbers, so gcd(x, chunk) is the whole (q-1)-smooth
    # part of such a product
    chunk = q1 ** (cn ** (2 * c - 2)).bit_length()
    # a Fraction whose terms are coprime by construction is built without
    # the gcd that Fraction(num, den) runs
    new_fraction = object.__new__
    gcd, perm = math.gcd, math.perm
    top = bottom = pn = pd = up = down = 1
    passed = False
    for l in range(last + 1):
        cl = c * l
        rest = coeffs[cl]
        if l:
            up *= perm(cl - 1, c - 1)
            down *= perm(cn - cl + c - 1, c - 1)
            # a zero weight leaves its step to the next weight, which then
            # reduces both
            passed = not rest and not passed
            if not passed:
                if rad > 1:
                    g = gcd(up, chunk)
                    h = gcd(down, chunk)
                    up //= g
                    down //= h
                    pn *= g
                    pd *= h
                    g = gcd(pn, pd)
                    pn //= g
                    pd //= g
                g = gcd(up, down)
                up //= g
                down //= g
                g = gcd(up, bottom)
                h = gcd(down, top)
                top = top // h * (up // g)
                bottom = bottom // g * (down // h)
                up = down = 1
        if l < first:
            continue
        if not rest:
            yield _ZERO
            continue
        num, den = pn, pd
        if rad > 1:
            known = -(-cl // d)
            rest, rem = divmod(rest, q1**known)
            if rem:
                raise AssertionError(f"(q-1)**{known} does not divide a({cl}) at {params}")
            g = gcd(rest, chunk)
            while g > 1:
                rest //= g
                num *= g
                # a prime of q-1 whose power in chunk divides rest may divide it again
                g = gcd(rest, chunk) if (chunk // g) % rad else 1
            scale = cl - l - known
            if scale > 0:
                den *= q1**scale
            else:
                num *= q1**-scale
            g = gcd(num, den)
            num //= g
            den //= g
        g = gcd(rest, bottom)
        value = new_fraction(Fraction)
        value._numerator = top * (rest // g) * num
        value._denominator = bottom // g * den
        yield value


def _mirrored(params: EnsembleParams) -> bool:
    """Whether E[A(l)] = E[A(n-l)] at every weight: q = 2 with even d."""
    return params.q == 2 and params.d % 2 == 0


def avg_weight_distribution(params: EnsembleParams, n_cap: int = DEFAULT_N_CAP) -> SpectrumTable:
    """Exact E[A(l)] for every weight l = 0..n.

    For q = 2 and even d the coefficients and the walk stop at l = n//2,
    and the weights above n/2 take their mirror's value, E[A(l)] =
    E[A(n-l)], as the same Fraction object: over GF(2) an even-degree
    check polynomial is palindromic, so a(m) = a(c*n - m), and
    C(n, l) / C(c*n, c*l) is symmetric in l -> n-l.

    Raises
    ------
    CapacityError
        If n exceeds n_cap; the table takes O(c*n*d) big-integer steps on
        numbers of O(c*n*log q) bits, plus one gcd per weight.
    """
    n = params.n
    if n > n_cap:
        raise CapacityError(
            f"block length {n} exceeds the cap {n_cap}; "
            f"raise n_cap explicitly to proceed"
        )
    # a table whose full row would be refused is refused, mirrored or not
    _check_row_length(params.num_sockets)
    last = n // 2 if _mirrored(params) else n
    coeffs = check_coeffs(params.q, params.d, params.num_checks, params.c * last)
    values = tuple(_average_values(params, coeffs, 0, last))
    if last < n:
        values += values[n - last - 1::-1]
    return SpectrumTable(params=params, values=values)


def avg_weight_at(params: EnsembleParams, l: int) -> Fraction:
    """Exact E[A(l)] for a single weight, with the coefficient row truncated at c*l."""
    if not 0 <= l <= params.n:
        raise ParameterError(f"weight {l} outside [0, {params.n}]")
    coeffs = check_coeffs(params.q, params.d, params.num_checks, params.c * l)
    (value,) = _average_values(params, coeffs, l, l)
    return value


def avg_weight_d2(params: EnsembleParams) -> SpectrumTable:
    """Closed-form E[A(l)] for cycle-code ensembles (d = 2).

    E[A(l)] = C(n, l) * C(c*n/2, c*l/2) / ((q-1)**(c*l/2 - l) * C(c*n, c*l))
    when c*l is even, and 0 otherwise.
    """
    if params.d != 2:
        raise ParameterError(f"closed form applies to d = 2 only, got d = {params.d}")
    q, c, n = params.q, params.c, params.n
    values = []
    for l in range(n + 1):
        cl = c * l
        if cl % 2 != 0:
            values.append(Fraction(0))
            continue
        numerator = math.comb(n, l) * math.comb(c * n // 2, cl // 2)
        denominator = (q - 1) ** (cl // 2 - l) * math.comb(c * n, cl)
        values.append(Fraction(numerator, denominator))
    return SpectrumTable(params=params, values=tuple(values))


def log_fraction(value: Fraction) -> float:
    """Natural log of a positive rational, stable for huge numerators."""
    if value <= 0:
        raise ParameterError("logarithm of a nonpositive rational")
    return math.log(value.numerator) - math.log(value.denominator)


def _leading_order(c: int, l: int) -> int:
    """l - ceil(c*l/2), the order of every weight l that does not vanish."""
    return l - (c * l + 1) // 2


def small_weight_order(q: int, c: int, d: int, l: int) -> int | None:
    """The order k of E[A(l)] = Theta(n**k) at a fixed weight l >= 1, or None
    where E[A(l)] = 0 at every block length n.

    The single-check polynomial P has P - 1 starting at x**2 (b(1) = 0), so
    a(c*l) is a sum over k <= c*l/2 of C(N, k) times the coefficient of
    x**(c*l) in (P - 1)**k, N = c*n/d, and the largest such k with a
    nonzero coefficient sets the order l + k - c*l.  For q = 2, and for
    d = 2, P - 1 has even powers only, so an odd c*l is never reached; for
    d = 1, P = 1.  Otherwise the x**2 term, and for odd c*l one x**3 term,
    reach every c*l >= 2, and the order is l - ceil(c*l/2); the
    coefficients of P count solutions, so no terms cancel.
    """
    if l < 1:
        raise ParameterError(f"weight must be at least 1, got {l}")
    cl = c * l
    if d < 2 or cl < 2 or (cl % 2 and (q == 2 or d == 2)):
        return None
    return _leading_order(c, l)


@dataclass(frozen=True)
class ScalingReport:
    """Log-log scaling of E[A(l)] at fixed small weight l across block lengths.

    exact_zero is set, and slope is None, where small_weight_order finds
    that E[A(l)] vanishes at every block length; otherwise slope is the
    least-squares slope of ln E[A(l)] against ln n.  values holds the
    exact per-n averages either way.  predicted_exponent is
    l - ceil(c*l/2), the order small_weight_order gives every weight that
    does not vanish.
    """

    q: int
    c: int
    d: int
    l: int
    n_list: tuple[int, ...]
    values: tuple[Fraction, ...]
    exact_zero: bool
    slope: float | None
    predicted_exponent: int


def small_weight_scaling(q: int, c: int, d: int, l: int, n_list) -> ScalingReport:
    """Fit the polynomial decay of E[A(l)] in n at fixed weight l.

    Where the average does not vanish it scales like n**(l - ceil(c*l/2));
    the report carries that predicted exponent and the fitted slope over
    the supplied block lengths, of which at least 3 distinct ones must have
    a nonzero average.
    """
    n_list = tuple(int(n) for n in n_list)
    order = small_weight_order(q, c, d, l)
    params_list = [EnsembleParams(q=q, c=c, d=d, n=n) for n in n_list]
    for p in params_list:
        if l > p.n:
            raise ParameterError(f"weight {l} exceeds block length {p.n}")
    values = tuple(avg_weight_at(p, l) for p in params_list)
    slope = None
    if order is None:
        if any(values):
            raise AssertionError("a vanishing weight produced a nonzero average")
    else:
        usable = [(math.log(n), log_fraction(v)) for n, v in zip(n_list, values) if v > 0]
        distinct = len({x for x, _ in usable})
        if distinct < 3:
            raise ParameterError(
                f"need at least 3 block lengths with nonzero averages, got {distinct}"
            )
        xs = [u[0] for u in usable]
        ys = [u[1] for u in usable]
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        sxx = sum((x - xbar) ** 2 for x in xs)
        sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
        slope = sxy / sxx
    return ScalingReport(
        q=q, c=c, d=d, l=l, n_list=n_list, values=values,
        exact_zero=slope is None, slope=slope, predicted_exponent=_leading_order(c, l),
    )
