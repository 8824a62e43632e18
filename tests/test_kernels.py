"""Kernel tests against slow oracles."""

from __future__ import annotations

import itertools

import numpy as np

from ldpc_spectra import build_field
from ldpc_spectra.kernels import _count_bytes, count_weights


def brute_counts(basis, q, field):
    # independent oracle: materialize every combination coefficient-wise
    n = basis.shape[1]
    counts = [0] * (n + 1)
    for combo in itertools.product(range(q), repeat=basis.shape[0]):
        word = [0] * n
        for coeff, row in zip(combo, basis):
            if coeff:
                for j in range(n):
                    word[j] = field.add(word[j], field.mul(coeff, int(row[j])))
        counts[sum(1 for w in word if w)] += 1
    return tuple(counts)


def digit_counts(basis, q, add_table, mul_table):
    # the former enumerator: decode each word index into its q-ary digits,
    # one chunk of indices at a time; fast enough where brute force is not
    dim, n = basis.shape
    total = q**dim
    counts = np.zeros(n + 1, np.int64)
    chunk = 1 << 14
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cw = np.zeros((idx.size, n), np.uint8)
        for j in range(dim):
            dig = (idx % q).astype(np.intp)
            idx = idx // q
            cols = np.nonzero(basis[j])[0]
            if cols.size:
                contrib = mul_table[dig[:, None], basis[j][None, cols]]
                cw[:, cols] = add_table[cw[:, cols], contrib]
        counts += np.bincount(np.count_nonzero(cw, axis=1), minlength=n + 1)
    return tuple(int(v) for v in counts)


def test_count_weights_matches_brute_force():
    rng = np.random.default_rng(11)
    shapes = ((0, 4), (1, 5), (2, 6), (3, 7), (4, 5), (5, 6))
    for q in (2, 3, 4, 5, 7, 8):
        field = build_field(q)
        for dim, n in shapes:
            if q**dim > 4096:
                continue
            basis = rng.integers(0, q, size=(dim, n)).astype(np.uint8)
            want = brute_counts(basis, q, field)
            got = count_weights(basis[None], q, field.add_table, field.mul_table)[0]
            assert tuple(int(v) for v in got) == want, (q, dim, n)


def test_count_weights_matches_digit_decoder():
    rng = np.random.default_rng(5)
    for q, dim, n in ((2, 14, 28), (2, 11, 20), (4, 7, 16), (256, 2, 6), (256, 3, 4)):
        field = build_field(q)
        basis = rng.integers(0, q, size=(dim, n)).astype(np.uint8)
        want = digit_counts(basis, q, field.add_table, field.mul_table)
        got = count_weights(basis[None], q, field.add_table, field.mul_table)[0]
        assert tuple(int(v) for v in got) == want, (q, dim, n)
        assert sum(want) == q**dim


def packed_cases(rng):
    # (q, basis): dim 0, odd dims, dependent rows, and words past 64 bits
    for q in (2, 4, 8, 16, 256):
        for dim, n in ((0, 5), (1, 7), (2, 4), (3, 6)):
            if q**dim <= 1 << 16:
                yield q, rng.integers(0, q, size=(dim, n)).astype(np.uint8)
        # a last row that is (q-1) * first row + the row before it
        rows = rng.integers(0, q, size=(2 if q <= 16 else 1, 6)).astype(np.uint8)
        field = build_field(q)
        combo = field.add_table[field.mul_table[q - 1, rows[0]], rows[-1]]
        yield q, np.vstack([rows, combo])
    for q, dim, n in ((2, 5, 130), (2, 11, 65), (4, 4, 40), (8, 3, 22), (256, 1, 9), (256, 2, 9)):
        yield q, rng.integers(0, q, size=(dim, n)).astype(np.uint8)


def test_packed_counts_match_byte_kernel_and_brute_force():
    rng = np.random.default_rng(23)
    for q, basis in packed_cases(rng):
        field = build_field(q)
        dim = basis.shape[0]
        got = tuple(int(v) for v in count_weights(
            basis[None], q, field.add_table, field.mul_table)[0])
        want = tuple(int(v) for v in _count_bytes(
            basis[None], field.add_table, field.mul_table)[0])
        assert got == want, (q, basis.shape)
        assert sum(got) == q**dim
        if q**dim <= 4096:
            assert got == brute_counts(basis, q, field), (q, basis.shape)
