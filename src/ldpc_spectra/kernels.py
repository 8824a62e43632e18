"""Numpy weight counter for sim: Hamming weight counts over all linear
combinations of each basis of a (batch, dim, n) stack, bit-packed over
GF(2**k) and byte-per-symbol over odd characteristic.
"""

from __future__ import annotations

import numpy as np

# Words of the (high chunk) x (low span) sum table built per step; small
# chunks keep the temporary arrays, and so the peak memory, small.
_CHUNK_WORDS = 1 << 14


def count_weights(basis, q, add_table, mul_table):
    """Count Hamming weights over all q**dim linear combinations of basis rows.

    The combinations are split into two halves whose spans, high and low,
    are built explicitly; every word is then one sum high[i] + low[j], and
    the sums are formed and counted a chunk of at most _CHUNK_WORDS words
    at a time: a slice of one basis's high words, or whole spans of several
    bases of a stack, binned with per-basis offsets.  Over GF(2**k) the
    words are bit-packed and a sum is one XOR (see _count_packed); other
    fields compare byte symbols (see _count_bytes).

    Parameters
    ----------
    basis : (batch, dim, n) uint8 array
        A stack of bases of one dimension; one basis is a stack of one.
        Rows span a code; all combinations are enumerated, so rows should
        be linearly independent if each codeword is to be visited once.
    q : int
        Field order; tables must come from the matching FieldSpec.
    add_table, mul_table : numpy arrays
        Dense field operation tables.

    Returns
    -------
    (batch, n + 1) int64 array
        counts[b, w] = number of enumerated words of weight w of basis b;
        each row sums to q**dim.
    """
    if q & (q - 1) == 0:
        return _count_packed(basis, q.bit_length() - 1, mul_table)
    return _count_bytes(basis, add_table, mul_table)


def _chunks(batch, high, low):
    """(trials, step) of a chunk: step high words of each of trials bases,
    each against all low words, within _CHUNK_WORDS words.
    """
    step = min(high, max(1, _CHUNK_WORDS // low))
    trials = min(batch, max(1, _CHUNK_WORDS // (step * low)))
    return trials, step


def _binned(weights, n):
    """(t, n + 1) weight counts of the (t, high, low) per-basis weights."""
    t = len(weights)
    if t > 1:
        weights = weights + (np.arange(t) * (n + 1))[:, None, None]
    return np.bincount(weights.ravel(), minlength=t * (n + 1)).reshape(t, n + 1)


def _span(rows, add_table, mul_table):
    """All q**k linear combinations of the (batch, k, n) rows, (batch, q**k, n)."""
    batch, _, n = rows.shape
    words = np.zeros((batch, 1, n), np.uint8)
    for j in range(rows.shape[1]):
        multiples = mul_table[:, rows[:, j, :]].transpose(1, 0, 2)
        words = add_table[multiples[:, :, None, :], words[:, None, :, :]].reshape(batch, -1, n)
    return words


def _count_bytes(basis, add_table, mul_table):
    """count_weights on byte symbols; valid for any tabled field, and the
    path taken for odd characteristic.

    A sum high + low is zero exactly where high = -low, so a word's weight
    is the number of positions where high differs from the negated low
    word: one comparison per symbol, no table lookup.
    """
    batch, dim, n = basis.shape
    half = dim // 2
    q = len(add_table)
    neg = (add_table == 0).argmax(axis=1).astype(np.uint8)
    weight_type = np.uint8 if n < 256 else np.uint32
    trials, step = _chunks(batch, q ** (dim - half), q ** half)
    counts = np.zeros((batch, n + 1), np.int64)
    for first in range(0, batch, trials):
        part = basis[first:first + trials]
        neg_low = neg[_span(part[:, :half], add_table, mul_table)]
        high = _span(part[:, half:], add_table, mul_table)
        for start in range(0, high.shape[1], step):
            differ = high[:, start:start + step, None, :] != neg_low[:, None, :, :]
            counts[first:first + trials] += _binned(differ.sum(axis=3, dtype=weight_type), n)
    return counts


def _bit_planes(gens, k):
    """Pack (batch, g, n) symbols of GF(2**k) into (batch, words, g) uint64
    bit planes.

    Positions go m to a word, m = ceil(n / words) with k*m <= 64; bit
    b*m + j of word w is bit b of the symbol at position w*m + j.
    """
    batch, g, n = gens.shape
    nwords = -(-n // (64 // k))
    m = -(-n // nwords)
    symbols = np.zeros((batch, g, nwords * m), np.uint8)
    symbols[:, :, :n] = gens
    bits = np.zeros((batch, g, nwords, 64), np.uint8)
    planes = symbols.reshape(batch, g, nwords, 1, m) >> np.arange(k, dtype=np.uint8)[:, None]
    bits[..., :k * m] = (planes & 1).reshape(batch, g, nwords, k * m)
    words = np.packbits(bits, axis=3, bitorder="little").view("<u8")[..., 0]
    return np.ascontiguousarray(words.astype(np.uint64, copy=False).transpose(0, 2, 1)), m


def _xor_span(gens):
    """All 2**g XOR combinations of the (batch, words, g) generators, as
    (batch, words, 2**g).
    """
    span = np.zeros(gens.shape[:2] + (1,), np.uint64)
    for j in range(gens.shape[2]):
        span = np.concatenate((span, span ^ gens[:, :, j:j + 1]), axis=2)
    return span


def _count_packed(basis, k, mul_table):
    """count_weights over GF(2**k) on bit-packed words.

    Row r contributes the k GF(2) generators beta*r, beta = 2**i (the
    polynomial basis x**i); their XOR combinations are exactly the
    GF(q)-combinations of the rows, with the same multiplicities.  A
    position is nonzero when any of its k bit planes is set, so a word's
    weight is the popcount of the OR of its planes, folded onto plane 0.
    """
    batch, dim, n = basis.shape
    betas = 1 << np.arange(k)
    gens = mul_table[betas[:, None], basis[:, :, None, :]].reshape(batch, dim * k, n)
    words, m = _bit_planes(gens, k)
    half = words.shape[2] // 2
    folds = [np.uint64(m << s) for s in range((k - 1).bit_length())]
    plane0 = np.uint64((1 << m) - 1)
    weight_type = np.uint8 if n < 256 else np.uint32
    trials, step = _chunks(batch, 1 << (words.shape[2] - half), 1 << half)
    counts = np.zeros((batch, n + 1), np.int64)
    for first in range(0, batch, trials):
        low = _xor_span(words[first:first + trials, :, :half])
        high = _xor_span(words[first:first + trials, :, half:])
        for start in range(0, high.shape[2], step):
            weights = 0
            for w in range(high.shape[1]):
                sums = high[:, w, start:start + step, None] ^ low[:, w, None, :]
                for shift in folds:
                    sums |= sums >> shift
                if folds:
                    sums &= plane0
                weights = weights + np.bitwise_count(sums).astype(weight_type, copy=False)
            counts[first:first + trials] += _binned(weights, n)
    return counts

