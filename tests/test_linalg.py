"""Row reduction and kernel extraction over tabled fields."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from ldpc_spectra import ParameterError, build_field
from ldpc_spectra.linalg import kernel_basis, rref


def matvec(field, matrix, vec):
    """matrix @ vec over GF(q) by table lookups, for checking kernel membership."""
    add_t = field.add_table
    mul_t = field.mul_table
    out = np.zeros(matrix.shape[0], np.uint8)
    for j in range(matrix.shape[1]):
        v = int(vec[j])
        if v:
            out = add_t[out, mul_t[matrix[:, j], v]]
    return out


def test_rref_structure_and_idempotence():
    rng = np.random.default_rng(5)
    for q in (2, 3, 4, 5, 8):
        field = build_field(q)
        for rows, cols in ((1, 1), (2, 4), (3, 5), (4, 4), (5, 3)):
            m = rng.integers(0, q, size=(rows, cols)).astype(np.uint8)
            reduced, pivots = rref(field, m[None])
            red = reduced[0]
            # pivot columns carry unit vectors
            for r, c in enumerate(pivots[0][pivots[0] >= 0]):
                col = red[:, c]
                assert col[r] == 1
                assert all(col[i] == 0 for i in range(rows) if i != r)
            again, pivots2 = rref(field, reduced)
            assert (again == reduced).all()
            assert (pivots2 == pivots).all()


def test_kernel_vectors_annihilated():
    rng = np.random.default_rng(17)
    for q in (2, 3, 4, 5, 8, 9):
        field = build_field(q)
        m = rng.integers(0, q, size=(4, 9)).astype(np.uint8)
        bases, dims = kernel_basis(field, m[None])
        basis = bases[0, :dims[0]]
        assert basis.shape[0] >= m.shape[1] - m.shape[0]
        for row in basis:
            assert not matvec(field, m, row).any()


def test_kernel_dimension_against_full_enumeration():
    # count solutions of H v = 0 by scanning the whole space
    rng = np.random.default_rng(23)
    for q, n in ((2, 6), (3, 4), (4, 4), (5, 3)):
        field = build_field(q)
        m = rng.integers(0, q, size=(2, n)).astype(np.uint8)
        bases, dims = kernel_basis(field, m[None])
        basis = bases[0, :dims[0]]
        members = 0
        for vec in itertools.product(range(q), repeat=n):
            arr = np.array(vec, dtype=np.uint8)
            if not matvec(field, m, arr).any():
                members += 1
        assert members == q ** basis.shape[0]


def test_kernel_of_identity_and_zero():
    field = build_field(3)
    eye = np.eye(3, dtype=np.uint8)
    bases, dims = kernel_basis(field, eye[None])
    assert bases.shape == (1, 0, 3) and dims.tolist() == [0]
    zero = np.zeros((2, 3), dtype=np.uint8)
    bases, dims = kernel_basis(field, zero[None])
    assert bases.shape == (1, 3, 3) and dims.tolist() == [3]


def test_untabled_field_rejected():
    field = build_field(257)
    with pytest.raises(ParameterError):
        rref(field, np.zeros((1, 1, 1), dtype=np.uint8))


def rref_oracle(field, matrix):
    # the former single-matrix elimination: column by column, first nonzero
    # row at or below the next pivot row, swap, scale, clear the column
    add_t, mul_t = field.add_table, field.mul_table
    neg_t, inv_t = field.neg_table, field.inv_table
    m = np.array(matrix, dtype=np.uint8, copy=True)
    rows, cols = m.shape
    pivots = []
    r = 0
    for col in range(cols):
        if r >= rows:
            break
        hit = np.nonzero(m[r:, col])[0]
        if hit.size == 0:
            continue
        lead = r + int(hit[0])
        if lead != r:
            m[[r, lead]] = m[[lead, r]]
        m[r] = mul_t[inv_t[m[r, col]], m[r]]
        others = np.nonzero(m[:, col])[0]
        others = others[others != r]
        if others.size:
            factors = neg_t[m[others, col]]
            m[others] = add_t[m[others], mul_t[factors[:, None], m[r][None, :]]]
        pivots.append(col)
        r += 1
    return m, pivots


def stack_cases(rng, field, rows, cols):
    # random, all-zero, full-rank (an identity block, columns shuffled) and
    # rank-deficient (a repeated and a scaled row) matrices of one shape
    q = field.q
    random = rng.integers(0, q, size=(rows, cols)).astype(np.uint8)
    zero = np.zeros((rows, cols), np.uint8)
    full = rng.integers(0, q, size=(rows, cols)).astype(np.uint8)
    full[:, :rows] = np.eye(rows, dtype=np.uint8)
    full = full[:, rng.permutation(cols)]
    deficient = rng.integers(0, q, size=(rows, cols)).astype(np.uint8)
    deficient[1] = deficient[0]
    deficient[2] = field.mul_table[q - 1, deficient[0]]
    return [random, zero, full, deficient]


def test_batched_rref_matches_single_matrix_oracle():
    rng = np.random.default_rng(41)
    for q in (2, 3, 4, 9):
        field = build_field(q)
        for rows, cols in ((3, 7), (4, 4), (5, 9)):
            for _ in range(4):
                stack = np.stack(stack_cases(rng, field, rows, cols) + list(
                    rng.integers(0, q, size=(6, rows, cols)).astype(np.uint8)))
                before = stack.copy()
                reduced, pivots = rref(field, stack)
                bases, dims = kernel_basis(field, stack)
                assert (stack == before).all()
                assert reduced.shape == stack.shape
                assert bases.shape == (len(stack), int(dims.max()), cols)
                for b, matrix in enumerate(stack):
                    want, want_pivots = rref_oracle(field, matrix)
                    rank = len(want_pivots)
                    assert (reduced[b] == want).all(), (q, b)
                    assert pivots[b, :rank].tolist() == want_pivots
                    assert (pivots[b, rank:] == -1).all()
                    single, single_pivots = rref(field, matrix[None])
                    assert (single[0] == want).all()
                    assert single_pivots[0].tolist() == want_pivots + [-1] * (rows - rank)
                    # kernel of the right dimension, every row annihilated,
                    # a unit entry at each free column, zero padding rows
                    assert dims[b] == cols - rank
                    basis = bases[b, :dims[b]]
                    for row in basis:
                        assert not matvec(field, matrix, row).any()
                    free = [c for c in range(cols) if c not in want_pivots]
                    assert (basis[:, free] == np.eye(len(free), dtype=np.uint8)).all()
                    assert not bases[b, dims[b]:].any()
                    one, one_dims = kernel_basis(field, matrix[None])
                    assert one_dims.tolist() == [dims[b]] and (one[0] == basis).all()


def test_batched_rref_of_a_stack_of_one():
    field = build_field(4)
    matrix = np.array([[1, 2, 3, 0], [2, 3, 1, 1]], dtype=np.uint8)
    reduced, pivots = rref(field, matrix[None])
    want, want_pivots = rref_oracle(field, matrix)
    assert (reduced[0] == want).all()
    assert pivots[0].tolist() == want_pivots
