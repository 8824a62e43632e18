"""Dense linear algebra over tabled finite fields.

Matrices are numpy arrays of canonical element integers over the tabled
fields of gf (q <= 256), which cover every field a code can realistically
be enumerated over.

rref and kernel_basis take a (batch, rows, cols) stack of matrices and
reduce all of them by one elimination loop; one matrix is a stack of one.
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
