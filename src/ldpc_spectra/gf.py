"""Arithmetic in finite fields of prime-power order.

Elements of GF(q) with q = p^k are encoded as canonical integers in
``[0, q)``: the integer ``sum(a_j * p**j)`` stands for the residue-class
polynomial ``sum(a_j * x**j)``.  Extension fields are built modulo a
deterministic irreducible polynomial so that the encoding is reproducible
across runs and platforms: the modulus is the lexicographically smallest
monic irreducible polynomial of degree k over GF(p), where candidates are
compared coefficient-by-coefficient starting from the constant term.

Every field carries dense uint8 operation tables, so build_field serves
orders up to TABLE_LIMIT = 256 and refuses larger ones.  The tables are
built from the base-p digits of the encodings: sums, negations and scalar
multiples digit-wise mod p (XOR in characteristic 2), x*a by shifting the
digits of a up one degree and reducing the top digit by the monic
modulus, a*b as the sum of b_i * (x**i * a), and 1/a read off the product
table.  check_order accepts orders up to ORDER_LIMIT = 2**16 for the
modules that need no field arithmetic (spectrum, growth, bounds).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, ParameterError

# Largest field order build_field serves: every field has dense q-by-q tables.
TABLE_LIMIT = 256
# Largest order check_order accepts, for the computations that need no field.
ORDER_LIMIT = 1 << 16


@lru_cache(maxsize=None)
def check_order(q: int) -> tuple[int, int]:
    """Return (p, k) with q == p**k and p prime, for a supported field order q.

    Raises ParameterError unless q is a prime power in [2, ORDER_LIMIT].  The
    range is tested first, so a huge q is refused without trial division.
    Only supported orders are cached (a refusal raises), at most 2**16 of them.
    """
    if 2 <= q <= ORDER_LIMIT:
        p = next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)
        k = 1
        while p**k < q:
            k += 1
        if p**k == q:
            return p, k
    raise ParameterError(f"q must be a prime power in [2, {ORDER_LIMIT}], got {q}")


@lru_cache(maxsize=None)
def _sum_tables(p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The (q, q) sums and the (p, q) multiples c*a of the encodings of GF(p**k).

    Both are digit-wise mod p on the base-p digits (constant term first),
    with XOR for the sums in characteristic 2.  In a prime field the
    encodings are their own single digits.
    """
    q = p**k
    if k == 1:
        # uint32 holds every sum and product, and divides faster than int64
        a = np.arange(q, dtype=np.uint32)
        add, scaled = np.add.outer(a, a) % p, np.multiply.outer(a, a) % p
        return add.astype(np.uint8), scaled.astype(np.uint8)
    weights = p ** np.arange(k)
    digits = np.arange(q)[:, None] // weights % p
    if p == 2:
        add = np.arange(q)[:, None] ^ np.arange(q)
    else:
        add = (digits[:, None] + digits) % p @ weights
    scaled = np.arange(p)[:, None, None] * digits % p @ weights
    return add.astype(np.uint8), scaled.astype(np.uint8)


@lru_cache(maxsize=1)
def _products(p: int, k: int, modulus: tuple[int, ...], rows: int) -> np.ndarray:
    """The encodings of a*b modulo the monic modulus, for a < rows and every b.

    x*a shifts the digits of a up one degree and takes away its top digit
    times the modulus.  Column b + c * p**i of the table (b < p**i) is then
    column b plus c * (x**i * a).  The last table is kept: for k <= 2 the
    modulus search tests its winner on all q rows, which _tables reuses.
    """
    add, scaled = _sum_tables(p, k)
    top = p ** (k - 1)
    low = sum(m * p**j for j, m in enumerate(modulus[:k]))  # x**k = -low
    shifted = np.arange(rows)  # x**i * a
    table = np.zeros((rows, 1), np.uint8)
    for _ in range(k):
        table = add[table[:, None, :], scaled[:, shifted].T[:, :, None]].reshape(rows, -1)
        shifted = add[shifted % top * p, scaled[(p - shifted // top) % p, low]]
    return table


def _is_field(p: int, k: int, modulus: tuple[int, ...]) -> bool:
    """Whether polynomials over GF(p) modulo the monic modulus form a field.

    A modulus that factors has a factor of degree at most k/2, whose product
    with the cofactor is 0; an irreducible one divides no product of two
    nonzero elements.  So it is irreducible exactly when no nonzero element
    of degree <= k/2, times any nonzero element, gives 0.
    """
    return bool(_products(p, k, modulus, p ** (k // 2 + 1))[1:, 1:].all())


def _find_modulus(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over GF(p).

    Candidates are ordered by their coefficient tuple (constant term first).
    For k == 1 this yields the polynomial x, under which reduction is plain
    arithmetic mod p.
    """
    for tail in itertools.product(range(p), repeat=k):
        # x divides every candidate of degree k > 1 with constant term 0
        if (k == 1 or tail[0]) and _is_field(p, k, (*tail, 1)):
            return (*tail, 1)
    raise AssertionError(f"no irreducible polynomial of degree {k} over GF({p})")


@dataclass(frozen=True, eq=False)
class FieldSpec:
    """A realized finite field GF(q), q = p^k <= 256, with its operation tables.

    Parameters
    ----------
    q : int
        Field order.
    p : int
        Characteristic (prime).
    k : int
        Extension degree, q == p**k.
    modulus : tuple of int
        Coefficients of the defining irreducible polynomial, constant term
        first, length k + 1, leading coefficient 1.  For k == 1 this is the
        polynomial x, i.e. (0, 1).
    add_table, mul_table, neg_table, inv_table : numpy uint8 arrays
        Dense operation tables from the base-p digits of the encodings: sums
        and negations digit-wise mod p, products of the digit polynomials
        modulo the modulus, and inverses read off the product table.
        ``inv_table[0]`` is a 0 sentinel; inversion of 0 raises instead.
    """

    q: int
    p: int
    k: int
    modulus: tuple[int, ...]
    add_table: np.ndarray = field(repr=False)
    mul_table: np.ndarray = field(repr=False)
    neg_table: np.ndarray = field(repr=False)
    inv_table: np.ndarray = field(repr=False)

    def _check(self, a: int) -> None:
        if not 0 <= a < self.q:
            raise DomainError(f"element {a} outside [0, {self.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return int(add_arrays(self, a, b))

    def neg(self, a: int) -> int:
        self._check(a)
        return int(self.neg_table[a])

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return int(mul_arrays(self, a, b))

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise DomainError("0 has no multiplicative inverse")
        return int(self.inv_table[a])


def _tables(p: int, k: int, modulus: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The dense uint8 (add, mul, neg, inv) tables of GF(p**k).

    -a is (p - 1) * a, and 1/a is the b whose product with a is 1; row 0 of
    the product table holds no 1, which leaves the 0 sentinel.
    """
    add, scaled = _sum_tables(p, k)
    mul = _products(p, k, modulus, p**k)
    return add, mul, scaled[p - 1], (mul == 1).argmax(axis=1).astype(np.uint8)


def add_arrays(spec: FieldSpec, a, b):
    """Field sums of canonical elements, numpy arrays (broadcast) or ints.

    In characteristic 2 the sum is the XOR of the encodings and in a prime
    field it is the residue mod p, so neither needs a table; other fields
    add through add_table.
    """
    if spec.k == 1 and spec.p > 2:
        return np.add(a, b, dtype=np.uint16) % spec.p
    if spec.p == 2:
        return a ^ b
    return spec.add_table[a, b]


def mul_arrays(spec: FieldSpec, a, b):
    """Field products of canonical elements, numpy arrays (broadcast) or ints.

    GF(2) products are ANDs and prime-field products residues mod p;
    extension fields multiply through mul_table.
    """
    if spec.q == 2:
        return a & b
    if spec.k == 1:
        return np.multiply(a, b, dtype=np.uint16) % spec.p
    return spec.mul_table[a, b]


@lru_cache(maxsize=None)
def build_field(q: int) -> FieldSpec:
    """Construct GF(q), with its operation tables, for a prime power q.

    Parameters
    ----------
    q : int
        Desired field order, 2 <= q <= 256, a prime power.

    Returns
    -------
    FieldSpec
        Immutable field description with dense operation tables.

    Raises
    ------
    ParameterError
        Unless q is a prime power in [2, 2**16] (see :func:`check_order`),
        and for every order past TABLE_LIMIT, before anything is built.
    """
    p, k = check_order(q)
    if q > TABLE_LIMIT:
        raise ParameterError(
            f"field arithmetic needs a tabled order q <= {TABLE_LIMIT}, got q = {q}"
        )
    modulus = _find_modulus(p, k)
    return FieldSpec(q, p, k, modulus, *_tables(p, k, modulus))
