"""Dense linear algebra over tabled finite fields.

Matrices are numpy arrays of canonical element integers over the tabled
fields of gf (q <= 256), which cover every field a code can realistically
be enumerated over.

rref and kernel_basis take a (batch, rows, cols) stack of matrices and
reduce all of them by one elimination loop; one matrix is a stack of one.
They hold one byte per entry and serve every field and width.

A GF(2) matrix of at most 64 columns also travels as bit rows: bit_rows
packs each row into one uint64 word, bit v for column v, and kernel_words
reduces a stack of such rows by XOR of whole words and returns each kernel
basis vector as one word, the generators kernels.count_words takes.  The
byte path stays for q > 2 and for more than 64 columns, and is the oracle
of the word path in the tests.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldSpec, add_arrays, mul_arrays


def rref(field: FieldSpec, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon forms over GF(q) of a (batch, rows, cols) stack.

    One step per pivot row r, for all matrices at once.  Rows r and below
    are zero up to the last pivot column, so each matrix's next pivot
    column is its first column with a nonzero entry in those rows, and its
    pivot the first such entry (argmax over a mask); the row is swapped up
    to r, scaled to a unit pivot and subtracted from every other row.  A
    matrix with no such column has reached its rank: its rows from r on are
    zero, so the step, run on its last column, leaves it as it is.

    Returns
    -------
    (reduced, pivots)
        reduced is a new stack in reduced echelon form; pivots is a
        (batch, rows) int array listing the pivot column of each nonzero
        row in order, padded with -1 after each matrix's rank.
    """
    m = np.array(stack, dtype=np.uint8, copy=True)
    batch, rows, cols = m.shape
    pivots = np.full((batch, rows), -1, np.intp)
    every = np.arange(batch)
    for r in range(rows):
        below = m[:, r:] != 0
        open_cols = below.any(axis=1)
        col = open_cols.argmax(axis=1)
        found = open_cols[every, col]
        if not found.all():
            if not found.any():
                break
            col[~found] = -1
        lead = below[every, :, col].argmax(axis=1) + r
        pivot_row = m[every, lead]
        m[every, lead] = m[:, r]
        if field.q > 2:
            # scale to a unit pivot; over GF(2) the pivot is 1 already
            pivot_row = mul_arrays(field, field.inv_table[pivot_row[every, col]][:, None], pivot_row)
        factors = field.neg_table[m[every, :, col]]
        factors[:, r] = 0
        m[:] = add_arrays(field, m, mul_arrays(field, factors[:, :, None], pivot_row[:, None, :]))
        m[:, r] = pivot_row
        pivots[:, r] = col
    return m, pivots


def kernel_basis(field: FieldSpec, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bases of the right kernels {x : matrix @ x = 0 over GF(q)} of a
    (batch, rows, cols) stack.

    Returns (bases, dims): bases is a (batch, max dim, cols) uint8 array and
    the first dims[b] = cols - rank rows of bases[b] are the basis of
    matrix b, the rest zero.  Each free column yields one basis vector with
    a 1 there and back-substituted pivot entries.
    """
    reduced, pivots = rref(field, stack)
    batch, rows, cols = reduced.shape
    every = np.arange(batch)[:, None, None]
    # column cols stands in for the missing pivot of a zero row
    is_pivot = np.zeros((batch, cols + 1), bool)
    is_pivot[every[:, 0], pivots] = True
    dims = cols - np.count_nonzero(pivots >= 0, axis=1)
    width = int(dims.max(initial=0))
    # free columns in increasing order, then the pivot columns
    free = np.argsort(is_pivot[:, :cols], axis=1, kind="stable")[:, :width]
    rows_of = np.arange(width)[None, :, None]
    bases = np.zeros((batch, width, cols + 1), np.uint8)
    entries = reduced[every, np.arange(rows)[None, :, None], free[:, None, :]]
    bases[every, rows_of, pivots[:, None, :]] = field.neg_table[entries.transpose(0, 2, 1)]
    bases[every, rows_of, free[:, :, None]] = 1
    bases = bases[:, :, :cols]
    bases[rows_of[..., 0] >= dims[:, None]] = 0
    return bases, dims


def bit_rows(stack: np.ndarray) -> np.ndarray:
    """(batch, rows) uint64 words of a (batch, rows, cols) GF(2) stack,
    cols <= 64: bit v of word i is entry (i, v).
    """
    return stack @ (np.uint64(1) << np.arange(stack.shape[-1], dtype=np.uint64))


def kernel_words(rows: np.ndarray, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Bases of the right kernels of a stack of GF(2) matrices held as
    (batch, rows) bit rows (see bit_rows), cols <= 64.

    Elimination runs on words, for all matrices at once.  Step r takes the
    lowest column set in any row from r on (x & -x of their OR), XORs the
    first such row, the lead, into every row that has the bit (the lead
    row itself drops to zero), and swaps the lead, as it was, up to r.  A
    matrix that has reached its rank has no such column; its step swaps
    and XORs nothing.  Each free column f then yields the basis word
    1 << f, OR'd with (bit f of reduced row i) << (pivot column of row i).

    Returns (bases, dims) as kernel_basis does, one uint64 word per basis
    vector: bases is (batch, max dim), and the first dims[b] words of
    bases[b] are the basis of matrix b in increasing free column, the rest
    zero.
    """
    m = np.array(rows, dtype=np.uint64, copy=True)
    batch, nrows = m.shape
    every = np.arange(batch)
    # the pivot bit of each row, 0 past the matrix's rank
    leads = np.zeros((batch, nrows), np.uint64)
    for r in range(nrows):
        open_cols = np.bitwise_or.reduce(m[:, r:], axis=1)
        bit = open_cols & -open_cols
        if not bit.any():
            break
        has = (m & bit[:, None]) != 0
        lead = has[:, r:].argmax(axis=1) + r
        pivot_row = m[every, lead]
        m ^= pivot_row[:, None] * has
        m[every, lead] = m[:, r]
        m[:, r] = pivot_row
        leads[:, r] = bit
    bits = np.unpackbits(m.astype("<u8", copy=False).view(np.uint8).reshape(batch, nrows, 8),
                         axis=2, bitorder="little")[:, :, :cols]
    shifts = np.arange(cols, dtype=np.uint64)
    # word f: 1 << f and the pivot bit of every row with bit f set
    words = (leads[:, None, :] @ bits)[:, 0] | (1 << shifts)
    pivot_cols = np.bitwise_or.reduce(leads, axis=1)
    dims = cols - np.bitwise_count(pivot_cols).astype(np.intp)
    width = int(dims.max(initial=0))
    # free columns in increasing order, then the pivot columns
    free = np.argsort((pivot_cols[:, None] >> shifts) & 1, axis=1, kind="stable")[:, :width]
    bases = np.take_along_axis(words, free, axis=1)
    bases[np.arange(width) >= dims[:, None]] = 0
    return bases, dims
