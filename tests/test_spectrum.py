"""Exact average weight distribution tests.

The recurrence pipeline is checked against an independent oracle that
expands the check-node generating polynomial by repeated convolution of
exact rationals, against the former per-check integer convolution, and
against the math.comb form of the ensemble average.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from ldpc_spectra import (
    CapacityError,
    EnsembleParams,
    ParameterError,
    avg_weight_at,
    avg_weight_d2,
    avg_weight_distribution,
    check_coeffs,
    log_fraction,
    min_distance_bound,
    single_check_coeffs,
    small_weight_order,
    small_weight_scaling,
)
from oracles import beta, fraction_average, log_avg_upper_bound

STIRLING_CONST = math.log(2 * math.pi) / 2 + 1 / 6


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def oracle_coeffs(q, d, big_n, max_m):
    # [((1+(q-1)x)^d + (q-1)(1-x)^d) / q] ** big_n, coefficient list
    plus = [Fraction(math.comb(d, i) * (q - 1) ** i) for i in range(d + 1)]
    minus = [Fraction(math.comb(d, i) * (q - 1) * (-1) ** i) for i in range(d + 1)]
    base = [(a + b) / q for a, b in zip(plus, minus)]
    full = [Fraction(1)]
    for _ in range(big_n):
        full = poly_mul(full, base)
    return [full[m] if m < len(full) else Fraction(0) for m in range(max_m + 1)]


def oracle_average(q, c, d, n):
    g = oracle_coeffs(q, d, c * n // d, c * n)
    vals = []
    for l in range(n + 1):
        num = Fraction(math.comb(n, l)) * g[c * l]
        den = Fraction(math.comb(c * n, c * l)) * (q - 1) ** ((c - 1) * l)
        vals.append(num / den)
    return vals


def convolution_coeffs(q, d, big_n, max_m):
    # The former check_coeffs: one truncated convolution with the
    # single-check polynomial per check, O(N*M*d) big-integer operations.
    terms = [(i, b) for i, b in enumerate(single_check_coeffs(q, d)) if b != 0]
    row = [0] * (max_m + 1)
    row[0] = 1
    for _ in range(big_n):
        new = [0] * (max_m + 1)
        for m in range(max_m + 1):
            acc = 0
            for i, b in terms:
                if i > m:
                    break
                prev = row[m - i]
                if prev:
                    acc += b * prev
            new[m] = acc
        row = new
    return row


def comb_average(params, coeffs, l):
    # E[A(l)] with every binomial and power computed afresh by math.comb.
    q, c, n = params.q, params.c, params.n
    numerator = math.comb(n, l) * coeffs[c * l]
    denominator = math.comb(c * n, c * l) * (q - 1) ** ((c - 1) * l)
    return Fraction(numerator, denominator)


def test_single_check_coeffs_share_the_field_order_rule():
    # every other entry point caps q at 2**16; so does the single check
    for q in (6, 131072):
        with pytest.raises(ParameterError) as info:
            single_check_coeffs(q, 3)
        assert str(info.value) == f"q must be a prime power in [2, 65536], got {q}"


def test_params_validation():
    EnsembleParams(q=2, c=3, d=6, n=12)
    with pytest.raises(ParameterError):
        EnsembleParams(q=6, c=3, d=6, n=12)     # not a prime power
    with pytest.raises(ParameterError):
        EnsembleParams(q=2, c=3, d=5, n=12)     # d does not divide cn
    with pytest.raises(ParameterError):
        EnsembleParams(q=2, c=0, d=2, n=4)
    with pytest.raises(ParameterError):
        EnsembleParams(q=2, c=2, d=2, n=0)


def test_single_check_coefficients():
    assert single_check_coeffs(2, 4) == [1, 0, 6, 0, 1]
    assert single_check_coeffs(2, 5) == [1, 0, 10, 0, 5, 0]
    assert single_check_coeffs(3, 3) == [1, 0, 6, 2]
    assert single_check_coeffs(5, 2) == [1, 0, 4]
    # independent formula: C(d,i) * ((q-1)^i + (-1)^i (q-1)) / q
    for q in (2, 3, 4, 5, 7):
        for d in range(1, 8):
            got = single_check_coeffs(q, d)
            for i in range(d + 1):
                b = Fraction((q - 1) ** i + (-1) ** i * (q - 1), q)
                assert b.denominator == 1
                assert got[i] == math.comb(d, i) * int(b)


def test_check_coeffs_match_polynomial_oracle():
    for q in (2, 3, 4, 5):
        for d in range(1, 7):
            for big_n in range(5):
                max_m = min(big_n * d, 14)
                got = check_coeffs(q, d, big_n, max_m)
                want = oracle_coeffs(q, d, big_n, max_m)
                assert [Fraction(v) for v in got] == want, (q, d, big_n)


def test_check_coeffs_match_convolution():
    # A truncated convolution gives the prefix of the full one, so one
    # reference row per (q, d, N) serves every M.
    for q in (2, 3, 4, 5, 7, 8, 16, 256):
        for d in range(1, 9):
            for big_n in (0, 1, 2, 5, 13, 60):
                full = big_n * d
                want = convolution_coeffs(q, d, big_n, full + 4)
                for max_m in {0, 3, max(full - 1, 0), full, full + 4}:
                    got = check_coeffs(q, d, big_n, max_m)
                    assert list(got) == want[: max_m + 1], (q, d, big_n, max_m)


def test_weight_two_closed_form():
    # N checks of degree d contribute N * C(d,2) * (q-1) pairs
    for q in (2, 3, 5):
        for d in range(2, 8):
            for big_n in (1, 7, 40):
                got = check_coeffs(q, d, big_n, 2)
                assert got[2] == big_n * math.comb(d, 2) * (q - 1)


def test_average_distribution_examples():
    params = EnsembleParams(q=2, c=2, d=4, n=2)
    assert list(avg_weight_distribution(params).values) == [1, 2, 1]
    params = EnsembleParams(q=3, c=1, d=3, n=3)
    assert list(avg_weight_distribution(params).values) == [1, 0, 6, 2]
    params = EnsembleParams(q=2, c=3, d=6, n=12)
    table = avg_weight_distribution(params)
    assert table.values[0] == 1
    assert table.values[2] == Fraction(78, 31)
    assert all(table.values[l] == 0 for l in (1, 3, 5, 7, 9, 11))


def test_average_matches_oracle_grid():
    for q, c, d, n in [
        (2, 2, 4, 4), (2, 3, 6, 6), (3, 2, 3, 6), (4, 2, 4, 8), (5, 1, 3, 9),
    ]:
        params = EnsembleParams(q=q, c=c, d=d, n=n)
        got = list(avg_weight_distribution(params).values)
        assert got == oracle_average(q, c, d, n)


def test_total_mass_lower_bound():
    # expected codebook size is at least q**(n - cn/d)
    for q, c, d, n in [(2, 3, 6, 12), (3, 2, 4, 8), (4, 2, 2, 5)]:
        params = EnsembleParams(q=q, c=c, d=d, n=n)
        total = sum(avg_weight_distribution(params).values)
        assert total >= q ** (n - c * n // d)


def unmirrored(params):
    """E[A(l)] for l = 0..n assembled over the full row a(0..c*n), unmirrored."""
    coeffs = check_coeffs(params.q, params.d, params.num_checks, params.num_sockets)
    return fraction_average(params, coeffs)


def test_spectrum_symmetry_binary_even_d():
    # the served table is mirrored, so the symmetry is read off the
    # independent assembly over the full coefficient row
    for c, n in ((3, 12), (4, 12)):
        params = EnsembleParams(q=2, c=c, d=6, n=n)
        vals = unmirrored(params)
        assert all(vals[l] == vals[n - l] for l in range(n + 1))
        assert avg_weight_distribution(params).values == tuple(vals)


def mirror_grid():
    # q = 2 and even d, every c <= 6, block lengths odd and even, n = 1 among them
    for d in (2, 4, 6, 8):
        for c in range(1, 7):
            step = d // math.gcd(c, d)
            for n in sorted({step, 2 * step, 3 * step, 7 * step, 7, 12, 61}):
                if n % step == 0:
                    yield EnsembleParams(q=2, c=c, d=d, n=n)


def test_mirrored_half_equals_full_row():
    # the q = 2, even-d table walks l <= n/2 and mirrors; the reference
    # assembles every weight from the full row.  One q = 2 odd-d and one
    # q > 2 ensemble take the unmirrored path and must equal it as well.
    grid = [*mirror_grid(), EnsembleParams(q=2, c=3, d=5, n=20),
            EnsembleParams(q=4, c=3, d=6, n=14)]
    assert {(p.c, p.d, p.n) for p in grid} >= {(2, 2, 7), (4, 4, 7), (4, 4, 1)}
    for params in grid:
        n = params.n
        table = avg_weight_distribution(params).values
        assert table == tuple(unmirrored(params)), params
        if params.q == 2 and params.d % 2 == 0:
            # a mirrored weight holds its twin's object, whose cells cli reuses
            assert all(table[l] is table[n - l] for l in range(n + 1)), params


def test_avg_weight_at_matches_mirrored_half():
    # a single weight above n/2 walks its own row c*l; the table serves it
    # as the mirror of n-l
    for params in (EnsembleParams(q=2, c=3, d=6, n=600), EnsembleParams(q=2, c=4, d=8, n=202)):
        n = params.n
        table = avg_weight_distribution(params).values
        for l in (n - 1, n - 5, -(-n // 2)):
            assert avg_weight_at(params, l) == table[l], (params, l)


def test_degree_one_checks_pin_everything():
    params = EnsembleParams(q=3, c=2, d=1, n=4)
    vals = avg_weight_distribution(params).values
    assert vals[0] == 1
    assert all(v == 0 for v in vals[1:])


def test_avg_weight_at_consistent_with_table():
    # c = 1, d = 1 and q = 256 next to a generic ensemble, and q - 1 with
    # two (q = 7) and three (q = 31, 256) distinct primes
    for q, c, d, n in [(3, 2, 3, 9), (5, 1, 4, 24), (3, 2, 1, 12), (256, 3, 6, 40),
                       (7, 3, 6, 12), (31, 2, 3, 12), (256, 12, 12, 12)]:
        params = EnsembleParams(q=q, c=c, d=d, n=n)
        table = avg_weight_distribution(params)
        for l in range(n + 1):
            assert avg_weight_at(params, l) == table.values[l], (q, c, d, n, l)


# q - 1 with zero, one, two and three distinct primes: 1, 3, 8, 6, 30, 255
REDUCTION_ORDERS = (2, 4, 9, 7, 31, 256)


def reduction_grid():
    for q in REDUCTION_ORDERS:
        for d in (1, 2, 3, 6, 12):
            for c in sorted({1, 2, 3, d}):
                step = d // math.gcd(c, d)
                for n in sorted({step, 2 * step, 12}):
                    yield EnsembleParams(q=q, c=c, d=d, n=n)


def test_reduced_values_equal_fraction_oracle():
    # each value is built in lowest terms without Fraction's own gcd, so
    # its terms, sign and hash are checked against Fraction(num, den).  At
    # (7, 2, 6, 54), l = 7, a(c*l) holds a prime of q-1 to a higher power
    # than the chunk it is stripped by, so the strip runs twice.
    for params in [*reduction_grid(), EnsembleParams(q=7, c=2, d=6, n=54)]:
        coeffs = check_coeffs(params.q, params.d, params.num_checks, params.num_sockets)
        want = fraction_average(params, coeffs)
        got = avg_weight_distribution(params).values
        assert len(got) == len(want), params
        for value, expected in zip(got, want):
            num, den = value.numerator, value.denominator
            assert (num, den) == (expected.numerator, expected.denominator), params
            assert den > 0 and math.gcd(num, den) == 1, params
            assert num or den == 1, params
            assert hash(value) == hash(expected), params


def test_incremental_assembly_matches_comb_formula():
    for q, c, d, n in [
        (2, 3, 6, 600), (4, 3, 6, 600), (3, 3, 2, 200), (5, 1, 3, 9), (3, 2, 1, 4),
    ]:
        params = EnsembleParams(q=q, c=c, d=d, n=n)
        coeffs = check_coeffs(q, d, params.num_checks, params.num_sockets)
        want = [comb_average(params, coeffs, l) for l in range(n + 1)]
        assert list(avg_weight_distribution(params).values) == want, (q, c, d, n)


def test_d2_closed_form_equals_recurrence():
    for q in (2, 3, 4):
        for c in (2, 3, 4):
            for n in range(1, 13):
                if (c * n) % 2:
                    continue
                params = EnsembleParams(q=q, c=c, d=2, n=n)
                assert avg_weight_d2(params).values == \
                    avg_weight_distribution(params).values


def test_d2_closed_form_equals_recurrence_long_blocks():
    for q, c in ((3, 3), (2, 4)):
        params = EnsembleParams(q=q, c=c, d=2, n=2000)
        assert avg_weight_d2(params).values == avg_weight_distribution(params).values


def test_d2_odd_product_weight_vanishes():
    params = EnsembleParams(q=3, c=3, d=2, n=4)
    vals = avg_weight_d2(params).values
    for l in range(5):
        if (3 * l) % 2:
            assert vals[l] == 0


def test_capacity_cap_enforced():
    params = EnsembleParams(q=2, c=3, d=6, n=100)
    with pytest.raises(CapacityError):
        avg_weight_distribution(params, n_cap=50)


def test_beta_endpoints_and_bounds():
    for n in range(2, 65):
        assert beta(n, 0) == 0.0
        assert beta(n, n) == 0.0
        for l in range(1, n):
            b = beta(n, l)
            upper = math.log(l * (n - l) / n) / (2 * n) + STIRLING_CONST / n
            assert 0.0 <= b <= upper, (n, l)


def test_log_upper_bound_dominates():
    for q, c, d, n in [(2, 3, 6, 12), (3, 3, 6, 12), (2, 3, 2, 8), (2, 2, 4, 10)]:
        params = EnsembleParams(q=q, c=c, d=d, n=n)
        vals = avg_weight_distribution(params).values
        for l in range(n + 1):
            if vals[l] == 0:
                continue
            assert log_fraction(vals[l]) / n <= log_avg_upper_bound(params, l) + 1e-12


def test_small_weight_scaling_slopes():
    rep = small_weight_scaling(2, 3, 6, 2, [24, 48, 96, 192])
    assert rep.predicted_exponent == -1
    assert not rep.exact_zero
    assert abs(rep.slope - rep.predicted_exponent) < 0.1
    rep = small_weight_scaling(3, 3, 6, 1, [24, 48, 96, 192])
    assert rep.predicted_exponent == -1
    assert abs(rep.slope - rep.predicted_exponent) < 0.1


def test_small_weight_scaling_degenerate_zero():
    # odd c*l over GF(2) kills the expectation at every block length
    rep = small_weight_scaling(2, 3, 6, 3, [24, 48, 96])
    assert rep.exact_zero
    assert rep.slope is None
    assert all(v == 0 for v in rep.values)
    rep = small_weight_scaling(3, 1, 3, 1, [12, 24, 36])
    assert rep.exact_zero


def test_small_weight_order_matches_exact_averages():
    # every weight the rule calls vanishing is exactly 0 at n = 600 and 6000,
    # and every other one decays between them at the rule's order
    for q, c, d, l in itertools.product((2, 3, 4, 5), range(1, 6), range(1, 7), range(1, 5)):
        lo, hi = (avg_weight_at(EnsembleParams(q=q, c=c, d=d, n=n), l) for n in (600, 6000))
        order = small_weight_order(q, c, d, l)
        if order is None:
            assert lo == hi == 0, (q, c, d, l)
        else:
            slope = (log_fraction(hi) - log_fraction(lo)) / math.log(10)
            assert abs(slope - order) < 0.1, (q, c, d, l, slope)
    # E[A(0)] = 1, so weight 0 is refused rather than called vanishing
    with pytest.raises(ParameterError, match="weight must be at least 1, got 0"):
        small_weight_order(2, 3, 6, 0)


def former_min_distance_orders(q, c, l0):
    # Delta and exponent_term as min_distance_bound wrote them out itself
    delta_inc = 1 if (q == 2 and (c * l0) % 2 == 1) else 0
    return delta_inc, -math.ceil((c - 2) * (l0 + delta_inc) / 2)


def test_min_distance_orders_equal_former_formula():
    for q, c, l0 in itertools.product((2, 3, 4), range(3, 7), range(1, 7)):
        for d in range(c, 9):
            rep = min_distance_bound(EnsembleParams(q=q, c=c, d=d, n=10 * d), l0, 0.01)
            assert (rep.Delta, rep.exponent_term) == former_min_distance_orders(q, c, l0), (
                q, c, d, l0)


def test_small_weight_scaling_needs_three_points():
    with pytest.raises(ParameterError):
        small_weight_scaling(2, 3, 6, 2, [24, 48])


def test_small_weight_scaling_needs_three_distinct_points():
    # repeated block lengths leave the fit without spread in ln n
    with pytest.raises(ParameterError):
        small_weight_scaling(2, 3, 6, 4, [24, 24, 24])
    with pytest.raises(ParameterError):
        small_weight_scaling(2, 3, 6, 4, [24, 48, 24])
    rep = small_weight_scaling(2, 3, 6, 4, [24, 48, 24, 96])
    assert rep.n_list == (24, 48, 24, 96)
