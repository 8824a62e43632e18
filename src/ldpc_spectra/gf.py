"""Arithmetic in finite fields of prime-power order.

Elements of GF(q) with q = p^k are encoded as canonical integers in
``[0, q)``: the integer ``sum(a_j * p**j)`` stands for the residue-class
polynomial ``sum(a_j * x**j)``.  Extension fields are built modulo a
deterministic irreducible polynomial so that the encoding is reproducible
across runs and platforms: the modulus is the lexicographically smallest
monic irreducible polynomial of degree k over GF(p), where candidates are
compared coefficient-by-coefficient starting from the constant term.

Every field carries dense uint8 operation tables, so build_field serves
orders up to TABLE_LIMIT = 256 and refuses larger ones.  Sums and
negations broadcast the digit-wise definitions mod p on the base-p
encodings (XOR in characteristic 2); products and inverses come from the
exp/log tables of one generator of GF(q)*, whose powers are polynomial
products modulo the modulus.  check_order accepts orders up to
ORDER_LIMIT = 2**16 for the modules that need no field arithmetic
(spectrum, growth, bounds).
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


def _poly_trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: list[int], modulus: list[int], p: int) -> list[int]:
    # modulus is monic, so each step cancels the current leading term exactly.
    a = [x % p for x in a]
    deg_m = len(modulus) - 1
    for i in range(len(a) - 1, deg_m - 1, -1):
        lead = a[i]
        if lead:
            shift = i - deg_m
            for j, mj in enumerate(modulus):
                a[shift + j] = (a[shift + j] - lead * mj) % p
    return _poly_trim(a)


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division of a monic polynomial by all monic polynomials of degree <= deg/2."""
    deg = len(poly) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if poly[0] == 0:
        return False
    for m in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=m):
            divisor = list(tail) + [1]
            if _poly_mod(poly, divisor, p) == []:
                return False
    return True


def _find_modulus(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over GF(p).

    Candidates are ordered by their coefficient tuple (constant term first).
    For k == 1 this yields the polynomial x, under which reduction is plain
    arithmetic mod p.
    """
    for tail in itertools.product(range(p), repeat=k):
        candidate = list(tail) + [1]
        if _is_irreducible(candidate, p):
            return tuple(candidate)
    raise AssertionError(f"no irreducible polynomial of degree {k} over GF({p})")


def _int_to_poly(a: int, p: int) -> list[int]:
    out = []
    while a:
        out.append(a % p)
        a //= p
    return out


def _poly_to_int(coeffs: list[int], p: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * p + c
    return out


def _add_digits(p: int, k: int, a, b):
    """a + b in GF(p**k), digit-wise mod p: ints, or arrays whose type holds a + b."""
    if p == 2:
        return a ^ b
    out = 0
    for j in range(k):
        scale = p**j
        out = out + (a // scale + b // scale) % p * scale
    return out


def _neg_digits(p: int, k: int, a):
    """-a in GF(p**k), digit-wise mod p: a Python int or a numpy integer array."""
    if p == 2:
        return a
    out = 0
    for j in range(k):
        scale = p**j
        out = out + (p - a // scale % p) % p * scale
    return out


def _mul_raw(p: int, k: int, modulus: tuple[int, ...], a: int, b: int) -> int:
    """a*b in GF(p**k): the product of the polynomials a and b modulo modulus."""
    if k == 1:
        return (a * b) % p
    prod = _poly_mul(_int_to_poly(a, p), _int_to_poly(b, p), p)
    return _poly_to_int(_poly_mod(prod, list(modulus), p), p)


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
        Dense operation tables: sums and negations digit-wise, products and
        inverses from the exp/log tables of the first generator of GF(q)*.
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

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

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

    Sums and negations broadcast the digit-wise functions over every
    element.  With exp[i] = g**i for a generator g and log the inverse map,
    a*b = exp[(log a + log b) mod (q-1)] and 1/a = exp[-log a mod (q-1)]
    for nonzero a and b.
    """
    q = p**k
    # g is the first candidate whose powers take q - 1 steps to return to 1
    for g in range(1, q):
        powers = [1]
        while (power := _mul_raw(p, k, modulus, powers[-1], g)) != 1:
            powers.append(power)
        if len(powers) == q - 1:
            break
    exp = np.array(powers, np.uint8)
    log = np.zeros(q, np.intp)
    log[exp] = np.arange(q - 1)
    mul = np.zeros((q, q), np.uint8)
    mul[1:, 1:] = exp[(log[1:, None] + log[1:]) % (q - 1)]
    inv = np.zeros(q, np.uint8)
    inv[1:] = exp[-log[1:] % (q - 1)]
    elems = np.arange(q)
    add = _add_digits(p, k, elems[:, None], elems).astype(np.uint8)
    return add, mul, _neg_digits(p, k, elems).astype(np.uint8), inv


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
