"""Field construction and arithmetic tests."""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from ldpc_spectra import DomainError, ParameterError, build_field, gf
from ldpc_spectra.gf import ORDER_LIMIT, TABLE_LIMIT, check_order

TABLED = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


# sha256 of the add, mul, neg and inv tables of every tabled order, in
# increasing order, recorded from the build that also served q > 256
TABLES_SHA256 = "326691bcc43e9fc645300b28d679da5e0e70a6ceec3e1584beab962be8465c45"


# The former scalar definitions, kept as the oracle for the tables: a sum
# or negation is built digit by digit, a product is the polynomial product
# modulo the field's modulus, and irreducibility is trial division.

def poly_mod(a, modulus, p):
    """The k coefficients of a modulo a monic modulus of degree k over GF(p),
    constant term first."""
    a = [x % p for x in a]
    deg = len(modulus) - 1
    for i in range(len(a) - 1, deg - 1, -1):
        lead = a[i]
        for j, mj in enumerate(modulus):
            a[i - deg + j] = (a[i - deg + j] - lead * mj) % p
    return a[:deg]


def former_mul(f, a, b):
    if f.k == 1:
        return (a * b) % f.p
    a, b = ([x // f.p**j % f.p for j in range(f.k)] for x in (a, b))
    prod = [0] * (2 * f.k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return sum(c * f.p**j for j, c in enumerate(poly_mod(prod, f.modulus, f.p)))


def trial_division_irreducible(poly, p):
    """No monic polynomial of degree 1 .. deg/2 divides poly over GF(p)."""
    return all(any(poly_mod(poly, (*tail, 1), p))
               for m in range(1, (len(poly) - 1) // 2 + 1)
               for tail in itertools.product(range(p), repeat=m))


def former_add(f, a, b):
    if f.k == 1:
        return (a + b) % f.p
    out = 0
    scale = 1
    while a or b:
        out += ((a + b) % f.p) * scale
        a //= f.p
        b //= f.p
        scale *= f.p
    return out


def former_neg(f, a):
    if f.k == 1:
        return (-a) % f.p
    out = 0
    scale = 1
    while a:
        out += ((-a) % f.p) * scale
        a //= f.p
        scale *= f.p
    return out


def former_tables(f):
    """The q-squared scalar build the dense tables used to come from."""
    q = f.q
    add = np.zeros((q, q), dtype=np.uint8)
    mul = np.zeros((q, q), dtype=np.uint8)
    neg = np.zeros(q, dtype=np.uint8)
    inv = np.zeros(q, dtype=np.uint8)
    for a in range(q):
        neg[a] = former_neg(f, a)
        for b in range(q):
            add[a, b] = former_add(f, a, b)
            mul[a, b] = former_mul(f, a, b)
    for a in range(1, q):
        inv[a] = int(np.nonzero(mul[a] == 1)[0][0])
    return add, mul, neg, inv


def prime_powers(limit):
    primes = [p for p in range(2, limit + 1) if all(p % f for f in range(2, p))]
    return sorted(p**k for p in primes for k in range(1, limit.bit_length()) if p**k <= limit)


def test_tables_equal_former_construction():
    orders = prime_powers(TABLE_LIMIT)
    assert len(orders) == 70
    digest = hashlib.sha256()
    for q in orders:
        f = build_field(q)
        got = (f.add_table, f.mul_table, f.neg_table, f.inv_table)
        for table, want in zip(got, former_tables(f)):
            assert table.dtype == np.uint8
            assert np.array_equal(table, want), q
            digest.update(table.tobytes())
    assert digest.hexdigest() == TABLES_SHA256


def test_field_rule_equals_trial_division():
    # every monic candidate of degree k >= 2 for the extension orders <= 256
    checked = 0
    for q in prime_powers(TABLE_LIMIT):
        p, k = check_order(q)
        if k == 1:
            continue
        for tail in itertools.product(range(p), repeat=k):
            modulus = (*tail, 1)
            assert gf._is_field(p, k, modulus) == trial_division_irreducible(modulus, p), modulus
            checked += 1
    assert checked == 1357


def test_build_field_refuses_untabled_orders(monkeypatch):
    # refused before the modulus search, the first step of building a field
    def no_search(p, k):
        raise AssertionError("modulus search reached")

    monkeypatch.setattr(gf, "_find_modulus", no_search)
    for q in (257, 512, 625, 65521, 65536):
        with pytest.raises(ParameterError) as info:
            build_field(q)
        assert str(info.value) == (
            f"field arithmetic needs a tabled order q <= {TABLE_LIMIT}, got q = {q}")


def test_build_field_basic_shape():
    for q in TABLED:
        f = build_field(q)
        assert f.q == q
        assert f.p ** f.k == q
        assert f.add_table.shape == (q, q)
        assert f.mul_table.shape == (q, q)
        assert f.neg_table.shape == (q,)
        assert f.inv_table.shape == (q,)


def test_known_moduli():
    # first monic irreducible in constant-first lexicographic order
    assert build_field(4).modulus == (1, 1, 1)      # x^2 + x + 1
    assert build_field(9).modulus == (1, 0, 1)      # x^2 + 1 over GF(3)
    assert build_field(8).modulus == (1, 0, 1, 1)   # x^3 + x^2 + 1


def test_prime_field_matches_modular_arithmetic():
    for q in (2, 3, 5, 7, 11, 13):
        f = build_field(q)
        assert f.modulus == (0, 1)  # the polynomial x
        for a in range(q):
            for b in range(q):
                assert f.add(a, b) == (a + b) % q
                assert f.mul(a, b) == (a * b) % q
            assert f.neg(a) == (-a) % q
            if a:
                assert f.mul(a, f.inv(a)) == 1


def test_field_axioms_exhaustive():
    # full associativity/commutativity/distributivity on every tabled field
    for q in TABLED:
        f = build_field(q)
        elems = range(q)
        for a, b in itertools.product(elems, repeat=2):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
        for a, b, c in itertools.product(elems, repeat=3):
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_identities_and_inverses():
    for q in TABLED:
        f = build_field(q)
        for a in range(q):
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.mul(a, 0) == 0
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1


def test_gf4_examples():
    f = build_field(4)
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1
    assert f.add(2, 3) == 1
    assert f.inv(2) == 3


def test_gf3_and_gf5_examples():
    f3 = build_field(3)
    assert f3.add(2, 2) == 1
    assert f3.mul(2, 2) == 1
    f5 = build_field(5)
    assert f5.inv(2) == 3
    assert f5.neg(2) == 3


def test_characteristic_addition_in_extension():
    # adding any element to itself p times gives zero
    for q in (4, 8, 9, 16):
        f = build_field(q)
        for a in range(q):
            acc = 0
            for _ in range(f.p):
                acc = f.add(acc, a)
            assert acc == 0


def test_inv_zero_rejected():
    f = build_field(7)
    with pytest.raises(DomainError):
        f.inv(0)


def test_element_range_checked():
    f = build_field(5)
    with pytest.raises(DomainError):
        f.add(5, 0)
    with pytest.raises(DomainError):
        f.mul(0, -1)


def test_invalid_orders_rejected():
    for q in (0, 1, 6, 10, 12, 100, 2**16 + 1, 2**17):
        with pytest.raises(ParameterError) as info:
            build_field(q)
        assert str(info.value) == f"q must be a prime power in [2, {ORDER_LIMIT}], got {q}"


def test_check_order_factors_supported_orders():
    assert check_order(2) == (2, 1)
    assert check_order(243) == (3, 5)
    assert check_order(65521) == (65521, 1)
    assert check_order(ORDER_LIMIT) == (2, 16)
    orders = prime_powers(TABLE_LIMIT)
    for q in range(2, TABLE_LIMIT + 1):
        if q in orders:
            p, k = check_order(q)
            assert p**k == q and all(p % f for f in range(2, p))
        else:
            with pytest.raises(ParameterError):
                check_order(q)


def test_build_field_cached():
    assert build_field(16) is build_field(16)
