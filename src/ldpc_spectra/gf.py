"""Arithmetic in finite fields of prime-power order.

Elements of GF(q) with q = p^k are encoded as canonical integers in
``[0, q)``: the integer ``sum(a_j * p**j)`` stands for the residue-class
polynomial ``sum(a_j * x**j)``.  Extension fields are built modulo a
deterministic irreducible polynomial so that the encoding is reproducible
across runs and platforms: the modulus is the lexicographically smallest
monic irreducible polynomial of degree k over GF(p), where candidates are
compared coefficient-by-coefficient starting from the constant term.

Fields of order up to 256 carry dense numpy lookup tables for the four
binary operations; larger fields (up to 2**16) fall back to direct
polynomial arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, ParameterError

# Largest field order for which dense q-by-q lookup tables are built.
TABLE_LIMIT = 256
# Largest supported field order.
ORDER_LIMIT = 1 << 16


def _factor_prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q == p**k and p prime, or None if q is not a prime power."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            return (q, 1)
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
    return None


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


@dataclass(frozen=True, eq=False)
class FieldSpec:
    """A realized finite field GF(q), q = p^k.

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
    add_table, mul_table, neg_table, inv_table : numpy arrays or None
        Dense operation tables, present exactly when q <= 256.
        ``inv_table[0]`` is a 0 sentinel; inversion of 0 raises instead.
    """

    q: int
    p: int
    k: int
    modulus: tuple[int, ...]
    add_table: np.ndarray | None = field(default=None, repr=False)
    mul_table: np.ndarray | None = field(default=None, repr=False)
    neg_table: np.ndarray | None = field(default=None, repr=False)
    inv_table: np.ndarray | None = field(default=None, repr=False)

    # -- scalar operations ------------------------------------------------

    def _check(self, a: int) -> None:
        if not 0 <= a < self.q:
            raise DomainError(f"element {a} outside [0, {self.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if self.add_table is not None:
            return int(self.add_table[a, b])
        return self._add_raw(a, b)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        self._check(a)
        if self.neg_table is not None:
            return int(self.neg_table[a])
        return self._neg_raw(a)

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if self.mul_table is not None:
            return int(self.mul_table[a, b])
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise DomainError("0 has no multiplicative inverse")
        if self.inv_table is not None:
            return int(self.inv_table[a])
        # a**(q-2) in the multiplicative group of order q-1
        out = 1
        base = a
        e = self.q - 2
        while e:
            if e & 1:
                out = self._mul_raw(out, base)
            base = self._mul_raw(base, base)
            e >>= 1
        return out

    # -- raw (table-free) arithmetic ---------------------------------------

    def _add_raw(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        out = 0
        scale = 1
        while a or b:
            out += ((a + b) % self.p) * scale
            a //= self.p
            b //= self.p
            scale *= self.p
        return out

    def _neg_raw(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        out = 0
        scale = 1
        while a:
            out += ((-a) % self.p) * scale
            a //= self.p
            scale *= self.p
        return out

    def _mul_raw(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        prod = _poly_mul(_int_to_poly(a, self.p), _int_to_poly(b, self.p), self.p)
        return _poly_to_int(_poly_mod(prod, list(self.modulus), self.p), self.p)


def _build_tables(spec: FieldSpec) -> FieldSpec:
    q = spec.q
    dtype = np.uint8 if q <= 256 else np.uint16
    add = np.zeros((q, q), dtype=dtype)
    mul = np.zeros((q, q), dtype=dtype)
    neg = np.zeros(q, dtype=dtype)
    inv = np.zeros(q, dtype=dtype)
    for a in range(q):
        neg[a] = spec._neg_raw(a)
        for b in range(q):
            add[a, b] = spec._add_raw(a, b)
            mul[a, b] = spec._mul_raw(a, b)
    for a in range(1, q):
        row = mul[a]
        inv[a] = int(np.nonzero(row == 1)[0][0])
    return FieldSpec(
        q=spec.q,
        p=spec.p,
        k=spec.k,
        modulus=spec.modulus,
        add_table=add,
        mul_table=mul,
        neg_table=neg,
        inv_table=inv,
    )


def require_tables(spec: FieldSpec, need: str) -> None:
    """Raise ParameterError unless spec carries dense operation tables.

    need opens the message, naming the operation and its verb, for example
    "enumeration requires".
    """
    if spec.add_table is None:
        raise ParameterError(
            f"{need} a tabled field (q <= {TABLE_LIMIT}), got q = {spec.q}"
        )


def add_arrays(spec: FieldSpec, a, b):
    """Field sums of numpy arrays of canonical elements, broadcast.

    In characteristic 2 the sum is the XOR of the encodings and in a prime
    field it is the residue mod p, so neither needs a table; other fields
    add through add_table.
    """
    if spec.p == 2:
        return a ^ b
    if spec.k == 1:
        return np.add(a, b, dtype=_wide(spec)) % spec.p
    return spec.add_table[a, b]


def mul_arrays(spec: FieldSpec, a, b):
    """Field products of numpy arrays of canonical elements, broadcast.

    GF(2) products are ANDs and prime-field products residues mod p;
    extension fields multiply through mul_table.
    """
    if spec.q == 2:
        return a & b
    if spec.k == 1:
        return np.multiply(a, b, dtype=_wide(spec)) % spec.p
    return spec.mul_table[a, b]


def _wide(spec: FieldSpec):
    """An unsigned type that holds the sum and product of two elements."""
    return np.uint16 if spec.q <= TABLE_LIMIT else np.uint64


@lru_cache(maxsize=None)
def build_field(q: int) -> FieldSpec:
    """Construct GF(q) for a prime power q.

    Parameters
    ----------
    q : int
        Desired field order, 2 <= q <= 65536, a prime power.

    Returns
    -------
    FieldSpec
        Immutable field description with operation tables when q <= 256.

    Raises
    ------
    ParameterError
        If q is below 2, above 2**16, or not a prime power.
    """
    if q < 2:
        raise ParameterError(f"field order must be at least 2, got {q}")
    if q > ORDER_LIMIT:
        raise ParameterError(f"field order {q} exceeds the supported cap {ORDER_LIMIT}")
    pk = _factor_prime_power(q)
    if pk is None:
        raise ParameterError(f"field order {q} is not a prime power")
    p, k = pk
    spec = FieldSpec(q=q, p=p, k=k, modulus=_find_modulus(p, k))
    if q <= TABLE_LIMIT:
        spec = _build_tables(spec)
    return spec


_OPS = ("add", "sub", "mul", "inv", "neg")


def field_arith(spec: FieldSpec, op: str, a: int, b: int | None = None) -> int:
    """Apply a named field operation to canonical elements.

    Parameters
    ----------
    spec : FieldSpec
        Field returned by :func:`build_field`.
    op : str
        One of 'add', 'sub', 'mul' (binary), 'inv', 'neg' (unary).
    a, b : int
        Operands in [0, q); b must be omitted for unary ops.

    Returns
    -------
    int
        Canonical result in [0, q).
    """
    if op not in _OPS:
        raise ParameterError(f"unknown field operation {op!r}")
    if op in ("add", "sub", "mul"):
        if b is None:
            raise ParameterError(f"operation {op!r} needs two operands")
        return getattr(spec, op)(a, b)
    if b is not None:
        raise ParameterError(f"operation {op!r} takes a single operand")
    return getattr(spec, op)(a)
