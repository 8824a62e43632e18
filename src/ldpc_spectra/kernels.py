"""Hot numerical kernels in numpy.

Two kernels live here because they dominate runtime: counting Hamming
weights over all linear combinations of a kernel basis, and batched
bisection for the tilt parameter used by the growth-rate evaluator.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# Kernel 1: weight counts of all linear combinations of a basis
# ---------------------------------------------------------------------------

# Words of the (high chunk) x (low span) sum table built per step; small
# chunks keep the temporary arrays, and so the peak memory, small.
_CHUNK_WORDS = 1 << 14


def _span(rows, add_table, mul_table):
    """All q**k linear combinations of the (k, n) rows, one word per row."""
    n = rows.shape[1]
    words = np.zeros((1, n), np.uint8)
    for row in rows:
        multiples = mul_table[:, row]
        words = add_table[multiples[:, None, :], words[None, :, :]].reshape(-1, n)
    return words


def count_weights(basis, q, add_table, mul_table):
    """Count Hamming weights over all q**dim linear combinations of basis rows.

    The basis is split into two halves whose spans, high and low, are built
    explicitly; every word is then one sum high[i] + low[j], and the sums
    are formed and counted a chunk of high words at a time.

    Parameters
    ----------
    basis : (dim, n) uint8 array
        Rows span the code; all combinations are enumerated, so rows should
        be linearly independent if each codeword is to be visited once.
    q : int
        Field order; tables must come from the matching FieldSpec.
    add_table, mul_table : numpy arrays
        Dense field operation tables.

    Returns
    -------
    (n + 1,) int64 array
        counts[w] = number of enumerated words of weight w; sums to q**dim.
    """
    basis = np.asarray(basis, np.uint8)
    dim, n = basis.shape
    half = dim // 2
    low = _span(basis[:half], add_table, mul_table)
    high = _span(basis[half:], add_table, mul_table)
    step = max(1, _CHUNK_WORDS // len(low))
    counts = np.zeros(n + 1, np.int64)
    for start in range(0, len(high), step):
        words = add_table[high[start:start + step, None, :], low[None, :, :]]
        weights = np.count_nonzero(words, axis=2)
        counts += np.bincount(weights.ravel(), minlength=n + 1)
    return counts


# ---------------------------------------------------------------------------
# Kernel 2: batched bisection for the tilt parameter
# ---------------------------------------------------------------------------
#
# The target function is the strictly increasing rational map
#   f(t) = (t + t**(d-1) + (q-2) t**d) / (1 + (q-1) t**d)
# on [-1/(q-1), 1].  For q = 2 and odd d it extends continuously to
# f(-1) = 2/d - 1.  Powers are computed by repeated multiplication, as in
# the scalar growth.zeta, so scalar and batched values match bit for bit.


def _zeta(q, d, t):
    tp = t.copy()
    for _ in range(d - 2):
        tp = tp * t
    td = tp * t
    num = t + tp + (q - 2.0) * td
    den = 1.0 + (q - 1.0) * td
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    if q == 2 and d % 2 == 1:
        out = np.where(t == -1.0, 2.0 / d - 1.0, out)
    return out


def solve_zhat_batch(q, d, z, lo, hi, tol, maxit):
    """Solve f(t) = z[i] elementwise on the bracket [lo, hi] by bisection.

    Stops per element when the bracket width reaches tol or the floating
    point floor, whichever comes first, capped at maxit iterations.
    """
    z = np.ascontiguousarray(z, np.float64)
    lo = np.full(z.shape, float(lo), np.float64)
    hi = np.full(z.shape, float(hi), np.float64)
    tol = float(tol)
    for _ in range(maxit):
        mid = 0.5 * (lo + hi)
        active = ~((mid == lo) | (mid == hi) | ((hi - lo) <= tol))
        if not active.any():
            break
        fv = _zeta(q, d, mid)
        below = (fv < z) & active
        lo = np.where(below, mid, lo)
        hi = np.where(~below & active, mid, hi)
    return 0.5 * (lo + hi)
