"""Ensemble sampling, enumeration, and Monte Carlo aggregation tests."""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from ldpc_spectra import (
    CapacityError,
    EnsembleParams,
    ParameterError,
    avg_weight_distribution,
    build_field,
    enumerate_weights,
    exhaustive_ensemble,
    monte_carlo,
    sample_code,
)
from ldpc_spectra import _seeding, sim
from ldpc_spectra._seeding import StateWords
from ldpc_spectra.cli import _report_data
from ldpc_spectra.kernels import count_weights
from ldpc_spectra.linalg import kernel_basis
from ldpc_spectra.sim import SimReport, SpectrumStats, has_zero_column


def dmin_le_2(field, parity_matrix):
    """Whether the code has a word of weight 1 or 2, without enumeration.

    A weight-1 word exists iff some column is all zero; a weight-2 word
    exists iff two columns are proportional over the field.
    """
    h = np.asarray(parity_matrix, np.uint8)
    if has_zero_column(h[None])[0]:
        return True
    seen = set()
    for v in range(h.shape[1]):
        col = h[:, v]
        lead = int(col[np.nonzero(col)[0][0]])
        normalized = tuple(int(e) for e in field.mul_table[field.inv_table[lead], col])
        if normalized in seen:
            return True
        seen.add(normalized)
    return False


def rebuild_parity(params, field, permutation, multipliers):
    # independent reconstruction of the socket wiring
    c, d = params.c, params.d
    h = [[0] * params.n for _ in range(params.num_checks)]
    for socket in range(params.num_sockets):
        var = socket // c
        check_socket = int(permutation[socket])
        check = check_socket // d
        h[check][var] = field.add(h[check][var], int(multipliers[check_socket]))
    return h


def test_sample_code_degenerate_examples():
    params = EnsembleParams(q=2, c=2, d=4, n=2)
    for seed in (0, 1, 99):
        sample = sample_code(params, seed)
        assert sample.parity_matrix.tolist() == [[0, 0]]
    params = EnsembleParams(q=2, c=1, d=3, n=3)
    for seed in (0, 7):
        sample = sample_code(params, seed)
        assert sample.parity_matrix.tolist() == [[1, 1, 1]]


def test_sample_code_deterministic_and_structured():
    params = EnsembleParams(q=4, c=2, d=4, n=6)
    field = build_field(4)
    a = sample_code(params, 42, field=field)
    b = sample_code(params, 42, field=field)
    assert (a.permutation == b.permutation).all()
    assert (a.multipliers == b.multipliers).all()
    assert (a.parity_matrix == b.parity_matrix).all()
    assert sorted(a.permutation.tolist()) == list(range(params.num_sockets))
    assert (a.multipliers >= 1).all() and (a.multipliers < 4).all()
    assert a.parity_matrix.tolist() == rebuild_parity(
        params, field, a.permutation, a.multipliers)


def test_sample_code_varies_with_seed():
    params = EnsembleParams(q=3, c=2, d=3, n=6)
    perms = {tuple(sample_code(params, s).permutation.tolist()) for s in range(8)}
    assert len(perms) > 1


def seed_sequence_state(seed):
    """generate_state(4, np.uint64) of numpy's SeedSequence, as Python ints."""
    return np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()


def entropy_words(seed):
    parts = seed if isinstance(seed, tuple) else (seed,)
    return [w for part in parts for w in _seeding.int_words(part)]


# one-word and multi-word ints, word boundaries, the enumerate 4-tuples, and
# seeds of five or more words (past SeedSequence's pool of four)
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, (77, 0), (3, 2**32 - 1), (5, 2, 36, 0),
         (2**31 - 1, 8, 24, 999), 2**130 + 3, (2**96 + 1, 2**32 + 7), (1, 2, 3, 4, 5, 6))


def test_seed_hash_equals_seed_sequence():
    for seed in SEEDS:
        words = _seeding.seed_state(entropy_words(seed))
        assert words == seed_sequence_state(seed), seed
        halves = [half for w in words for half in (w & 0xFFFFFFFF, w >> 32)]
        assert halves == np.random.SeedSequence(seed).generate_state(8, np.uint32).tolist()
        # the same hash on arrays: every element hashes as its own seed
        columns = [np.full(3, w, np.uint64) for w in entropy_words(seed)]
        assert [col.tolist() for col in _seeding.seed_state(columns)] == \
            [[w] * 3 for w in words], seed
        seeded = np.random.PCG64(StateWords(np.array(words, np.uint64)))
        assert seeded.state == np.random.PCG64(np.random.SeedSequence(seed)).state, seed


def test_trial_states_equal_seed_sequence():
    for seed in (0, 7, 2**32 - 1, 2**64 + 5, 2**130 + 3):
        for trials in (range(0, 5), range(2**32 - 3, 2**32 + 3), range(2**64 - 2, 2**64 + 1)):
            got = _seeding.trial_states(seed, trials)
            assert got.dtype == np.uint64 and got.flags.c_contiguous
            assert got.tolist() == [seed_sequence_state((seed, t)) for t in trials], \
                (seed, trials)


def test_block_draws_equal_single_draws():
    for q, c, d, n in ((2, 3, 6, 12), (4, 2, 4, 6), (5, 3, 6, 8)):
        params = EnsembleParams(q=q, c=c, d=d, n=n)
        field = build_field(q)
        seed_seqs = [StateWords(words) for words in _seeding.trial_states(9, range(40, 70))]
        perms, mults = sim._draw(params, seed_seqs)
        for row, t in enumerate(range(40, 70)):
            sample = sample_code(params, (9, t), field=field)
            oracle_perm, oracle_mult = oracle_draw(params, (9, t))
            assert perms[row].tolist() == sample.permutation.tolist() == oracle_perm.tolist()
            assert mults[row].tolist() == sample.multipliers.tolist() == oracle_mult.tolist()


def test_monte_carlo_makes_no_seed_sequence(monkeypatch):
    params = EnsembleParams(q=4, c=2, d=4, n=6)
    want = _report_data(monte_carlo(params, trials=300, seed=2**40 + 3, workers=2))

    def refuse(*args, **kwargs):
        raise AssertionError("SeedSequence built")

    # every PCG64 is keyed by precomputed state words, so numpy builds no
    # SeedSequence inside PCG64 either
    seen = []
    pcg64 = np.random.PCG64

    def recording_pcg64(seed_seq):
        seen.append(type(seed_seq))
        return pcg64(seed_seq)

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    monkeypatch.setattr(np.random, "PCG64", recording_pcg64)
    assert _report_data(monte_carlo(params, trials=300, seed=2**40 + 3, workers=2)) == want
    assert len(seen) == 300 and set(seen) == {StateWords}


def test_state_words_answer_only_pcg64():
    words = _seeding.trial_states(3, range(2))
    with pytest.raises(ValueError, match="four state words"):
        StateWords(words)
    seq = StateWords(words[1])
    assert seq.generate_state(4, np.uint64) is seq.words
    for n_words, dtype in ((8, np.uint32), (4, np.uint32), (2, np.uint64)):
        with pytest.raises(ValueError, match="state words are four uint64"):
            seq.generate_state(n_words, dtype)


def test_sample_code_seed_errors_are_numpys():
    params = EnsembleParams(q=2, c=3, d=6, n=12)
    for seed, error, message in ((-1, ValueError, "expected non-negative integer"),
                                 ((3, -1), ValueError, "expected non-negative integer"),
                                 ((3, 1.5), TypeError, "seed must be integer"),
                                 (1.5, TypeError, "SeedSequence expects int or sequence")):
        with pytest.raises(error, match=message):
            sample_code(params, seed)


def test_enumerate_weights_examples():
    f2 = build_field(2)
    enum = enumerate_weights(f2, np.array([[1, 1, 1]], dtype=np.uint8))
    assert enum.counts == (1, 0, 3, 0)
    assert enum.dimension == 2
    assert enum.dmin == 2
    enum = enumerate_weights(f2, np.zeros((1, 2), dtype=np.uint8))
    assert enum.counts == (1, 2, 1)
    assert enum.dmin == 1
    enum = enumerate_weights(f2, np.eye(3, dtype=np.uint8))
    assert enum.counts == (1, 0, 0, 0)
    assert enum.dimension == 0
    assert enum.dmin == math.inf
    assert enum.is_zero_code


def test_enumerate_weights_against_full_space_scan():
    rng = np.random.default_rng(9)
    for q, rows, n in ((2, 3, 7), (3, 2, 5), (4, 2, 4)):
        field = build_field(q)
        h = rng.integers(0, q, size=(rows, n)).astype(np.uint8)
        enum = enumerate_weights(field, h)
        # oracle: scan every vector of the ambient space
        counts = [0] * (n + 1)
        for vec in itertools.product(range(q), repeat=n):
            syndrome_zero = True
            for row in h:
                acc = 0
                for hv, v in zip(row, vec):
                    acc = field.add(acc, field.mul(int(hv), v))
                if acc:
                    syndrome_zero = False
                    break
            if syndrome_zero:
                counts[sum(1 for v in vec if v)] += 1
        assert list(enum.counts) == counts, (q, rows, n)
        assert sum(enum.counts) == q ** enum.dimension
        assert enum.counts[0] == 1


def test_enumerate_weights_capacity():
    f2 = build_field(2)
    h = np.zeros((1, 30), dtype=np.uint8)
    with pytest.raises(CapacityError):
        enumerate_weights(f2, h, cap=2**20)


def test_dmin_le_2_detection():
    f2 = build_field(2)
    assert dmin_le_2(f2, np.array([[1, 1, 1]], dtype=np.uint8))       # equal cols
    assert dmin_le_2(f2, np.array([[1, 0], [0, 0]], dtype=np.uint8))  # zero col
    assert not dmin_le_2(f2, np.eye(3, dtype=np.uint8))
    f3 = build_field(3)
    prop = np.array([[1, 2], [2, 4 % 3]], dtype=np.uint8)             # col2 = 2*col1
    assert dmin_le_2(f3, prop)
    assert not dmin_le_2(f3, np.array([[1, 0], [0, 1]], dtype=np.uint8))


def test_dmin_le_2_matches_enumeration():
    rng = np.random.default_rng(31)
    for q in (2, 3, 4):
        field = build_field(q)
        for _ in range(25):
            h = rng.integers(0, q, size=(3, 6)).astype(np.uint8)
            enum = enumerate_weights(field, h)
            assert dmin_le_2(field, h) == (enum.dmin <= 2), h.tolist()


def test_monte_carlo_deterministic_ensemble():
    params = EnsembleParams(q=2, c=2, d=4, n=2)
    report = monte_carlo(params, trials=100, seed=5)
    assert report.overall.mean == (1.0, 2.0, 1.0)
    assert report.overall.stderr == (0.0, 0.0, 0.0)


def test_monte_carlo_matches_single_sample():
    # per-trial stream is seeded by (master seed, trial index)
    params = EnsembleParams(q=3, c=2, d=3, n=6)
    field = build_field(3)
    report = monte_carlo(params, trials=1, seed=77)
    sample = sample_code(params, (77, 0), field=field)
    enum = enumerate_weights(field, sample.parity_matrix)
    assert report.overall.counts_sum == enum.counts


def test_monte_carlo_worker_invariance():
    params = EnsembleParams(q=2, c=3, d=6, n=12)
    reports = [
        monte_carlo(params, trials=64, seed=3, l0=1, alpha=0.3, workers=w)
        for w in (1, 2, 5)
    ]
    payloads = [json.dumps(_report_data(r), sort_keys=True) for r in reports]
    assert payloads[0] == payloads[1] == payloads[2]


def test_monte_carlo_zero_column_filter():
    # c = 2 over GF(2) can cancel a variable's two edges inside one check
    params = EnsembleParams(q=2, c=2, d=4, n=8)
    report = monte_carlo(params, trials=300, seed=11, l0=1, alpha=0.4)
    assert report.filtered is not None
    assert report.filtered.trials < report.overall.trials
    assert report.filter_pass_rate == report.filtered.trials / 300
    # a zero column forces a weight-one codeword in the overall pool
    assert report.overall.mean[1] > 0
    no_filter = monte_carlo(params, trials=300, seed=11, l0=1, alpha=0.4,
                            filter_on=False)
    assert no_filter.filtered is None
    assert no_filter.filter_pass_rate is None
    assert no_filter.overall.counts_sum == report.overall.counts_sum


def test_monte_carlo_argument_validation():
    params = EnsembleParams(q=2, c=2, d=4, n=2)
    with pytest.raises(ParameterError):
        monte_carlo(params, trials=0, seed=0)
    with pytest.raises(ParameterError):
        monte_carlo(params, trials=4, seed=0, alpha=1.5)
    with pytest.raises(ParameterError):
        monte_carlo(params, trials=4, seed=0, l0=0)
    with pytest.raises(ParameterError):
        monte_carlo(params, trials=4, seed=0, workers=0)


def test_untabled_extension_field_rejected():
    # GF(512) has no operation tables, so its multipliers cannot be added
    params = EnsembleParams(q=512, c=3, d=6, n=12)
    with pytest.raises(ParameterError):
        sample_code(params, 0)
    with pytest.raises(ParameterError):
        monte_carlo(params, trials=2, seed=0)
    with pytest.raises(ParameterError):
        exhaustive_ensemble(EnsembleParams(q=512, c=1, d=1, n=1))


def test_small_weight_scarcity_decays():
    # fraction of sampled codes with dmin <= 2 shrinks with block length
    f2 = build_field(2)
    fractions = []
    for n in (24, 48, 96):
        params = EnsembleParams(q=2, c=3, d=6, n=n)
        hits = sum(
            dmin_le_2(f2, sample_code(params, (0, t), field=f2).parity_matrix)
            for t in range(400)
        )
        fractions.append(hits / 400)
    assert fractions[0] > fractions[1] > fractions[2]


def test_exhaustive_ensemble_tiny_cases():
    params = EnsembleParams(q=2, c=2, d=4, n=2)
    table = exhaustive_ensemble(params)
    assert list(table.values) == [1, 2, 1]
    params = EnsembleParams(q=3, c=1, d=3, n=3)
    table = exhaustive_ensemble(params)
    assert list(table.values) == [1, 0, 6, 2]
    assert all(isinstance(v, Fraction) for v in table.values)


def test_exhaustive_counts_each_distinct_matrix_once(monkeypatch):
    # oracle: enumerate the parity matrix of every configuration, shared or not
    for q, c, d, n in ((2, 2, 4, 2), (3, 1, 3, 3)):
        params = EnsembleParams(q=q, c=c, d=d, n=n)
        field = build_field(q)
        totals = [0] * (n + 1)
        configs = 0
        distinct = set()
        for perm in itertools.permutations(range(params.num_sockets)):
            for mult in itertools.product(range(1, q), repeat=params.num_sockets):
                h = np.array(rebuild_parity(params, field, perm, mult), np.uint8)
                distinct.add(h.tobytes())
                for l, v in enumerate(enumerate_weights(field, h).counts):
                    totals[l] += v
                configs += 1
        counted = []
        count_stack = sim._count_stack

        def recording(field_, parity, cap):
            counted.extend(h.tobytes() for h in parity)
            return count_stack(field_, parity, cap)

        monkeypatch.setattr(sim, "_count_stack", recording)
        table = exhaustive_ensemble(params)
        monkeypatch.undo()
        assert table.values == tuple(Fraction(t, configs) for t in totals), (q, c, d, n)
        assert sorted(counted) == sorted(distinct)
        assert len(distinct) < configs


def test_exhaustive_totals_stay_exact_past_int64(monkeypatch):
    # every configuration's code counted as 2**62 words of each weight: a
    # multiplicity times that passes int64, the average is still 2**62
    params = EnsembleParams(q=2, c=2, d=4, n=2)

    def huge(field_, parity, cap):
        return np.full((len(parity), params.n + 1), 2**62, np.int64), None

    monkeypatch.setattr(sim, "_count_stack", huge)
    assert exhaustive_ensemble(params).values == (2**62,) * (params.n + 1)


def test_exhaustive_matches_formula_beyond_acceptance_set():
    params = EnsembleParams(q=2, c=1, d=2, n=4)
    assert exhaustive_ensemble(params).values == \
        avg_weight_distribution(params).values


def test_exhaustive_capacity_guard():
    params = EnsembleParams(q=2, c=3, d=6, n=12)
    with pytest.raises(CapacityError):
        exhaustive_ensemble(params)


class InlineExecutor:
    """ThreadPoolExecutor stand-in: records max_workers, runs slices inline."""

    max_workers_seen = []

    def __init__(self, max_workers):
        self.max_workers_seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return [fn(item) for item in iterable]


def test_monte_carlo_thread_pool_capped(monkeypatch):
    params = EnsembleParams(q=2, c=3, d=6, n=12)
    baseline = _report_data(monte_carlo(params, trials=3, seed=5))
    monkeypatch.setattr(sim, "ThreadPoolExecutor", InlineExecutor)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 8)
    InlineExecutor.max_workers_seen = []
    report = monte_carlo(params, trials=3, seed=5, workers=10**6)
    assert InlineExecutor.max_workers_seen == [3]
    assert _report_data(report) == baseline
    monte_carlo(params, trials=20, seed=5, workers=10**6)
    assert InlineExecutor.max_workers_seen == [3, 8]
    # an unknown processor count runs the trials inline, without a pool
    monkeypatch.setattr(sim.os, "cpu_count", lambda: None)
    assert _report_data(monte_carlo(params, trials=3, seed=5, workers=4)) == baseline
    assert InlineExecutor.max_workers_seen == [3, 8]


# ---------------------------------------------------------------------------
# The former per-trial Monte Carlo pipeline, kept as the oracle of the
# batched one: one code at a time, drawn and wired independently of sim,
# reduced and counted as a single matrix, aggregated in Python integers.
# ---------------------------------------------------------------------------


def oracle_draw(params, seed):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    perm = rng.permutation(params.num_sockets)
    if params.q > 2:
        mult = rng.integers(1, params.q, size=params.num_sockets, dtype=np.int64)
    else:
        mult = np.ones(params.num_sockets, np.int64)
    return perm, mult


def oracle_aggregate(n, rows, l0, dmax):
    trials = len(rows)
    sums = [0] * (n + 1)
    sumsq = [0] * (n + 1)
    hits = 0
    for counts, dmin in rows:
        for l, v in enumerate(counts):
            sums[l] += v
            sumsq[l] += v * v
        if l0 <= dmin <= dmax:
            hits += 1
    if trials == 0:
        return SpectrumStats(0, tuple(sums), (), (), 0, None, None)
    mean = tuple(s / trials for s in sums)
    if trials >= 2:
        stderr = tuple(
            math.sqrt(float(Fraction(qq * trials - s * s, trials**2 * (trials - 1))))
            for s, qq in zip(sums, sumsq)
        )
    else:
        stderr = tuple(math.nan for _ in sums)
    p = hits / trials
    half = 1.96 * math.sqrt(p * (1.0 - p) / trials)
    return SpectrumStats(trials, tuple(sums), mean, stderr, hits, p, half)


def oracle_trials(params, trials, seed):
    """(counts, dmin, dimension, has_zero_column) of each trial, in order."""
    field = build_field(params.q)
    out = []
    for t in range(trials):
        h = np.array(rebuild_parity(params, field, *oracle_draw(params, (seed, t))), np.uint8)
        bases, dims = kernel_basis(field, h[None])
        counts = tuple(int(v) for v in count_weights(
            bases, params.q, field.add_table, field.mul_table)[0])
        dmin = next((w for w in range(1, params.n + 1) if counts[w]), math.inf)
        out.append((counts, dmin, int(dims[0]), bool(has_zero_column(h[None])[0])))
    return out


def oracle_report(params, trials, seed, l0, alpha, filter_on):
    rows = oracle_trials(params, trials, seed)
    dmax = math.floor(params.n * alpha)
    overall = oracle_aggregate(params.n, [(c, d) for c, d, _, _ in rows], l0, dmax)
    filtered = None
    if filter_on:
        kept = [(c, d) for c, d, _, zero in rows if not zero]
        filtered = oracle_aggregate(params.n, kept, max(l0, 2), dmax)
    report = SimReport(params, trials, seed, l0, alpha, filter_on, 1, overall, filtered)
    return json.dumps(_report_data(report), sort_keys=True), rows


def test_batched_monte_carlo_matches_per_trial_oracle(monkeypatch):
    # blocks of 7 codes: trial counts below, at and past a multiple of it
    monkeypatch.setattr(sim, "_BLOCK", 7)
    seen_zero_column = seen_rank_deficient = False
    for q in (2, 3, 4, 5, 8, 9):
        for c, d, n in ((1, 3, 6), (2, 4, 6), (3, 6, 6)):
            params = EnsembleParams(q=q, c=c, d=d, n=n)
            for trials, l0, alpha, filter_on in ((1, 1, 0.5, True), (23, 2, 0.4, True),
                                                 (14, 1, 0.7, False)):
                want, rows = oracle_report(params, trials, q * 100 + c, l0, alpha, filter_on)
                seen_zero_column |= any(zero for *_, zero in rows)
                seen_rank_deficient |= any(dim > n - params.num_checks for _, _, dim, _ in rows)
                for workers in (1, 2, 3):
                    report = monte_carlo(params, trials, seed=q * 100 + c, l0=l0,
                                         alpha=alpha, filter_on=filter_on, workers=workers)
                    got = json.dumps(_report_data(report), sort_keys=True)
                    assert got == want, (q, c, trials, workers)
    assert seen_zero_column and seen_rank_deficient


def test_block_size_follows_code_size():
    small = EnsembleParams(q=2, c=3, d=6, n=12)
    large = EnsembleParams(q=2, c=5, d=6, n=120)
    assert sim._block_size(small) == sim._BLOCK_CELLS // (6 * 12)
    assert sim._block_size(large) == sim._BLOCK_CELLS // (100 * 120)
    assert sim._block_size(EnsembleParams(q=2, c=1, d=2, n=2)) == sim._BLOCK


def test_tally_sums_stay_exact_past_int64():
    # 2.5e9**2 fits in int64 and twice it does not
    big = 2_500_000_000
    counts = np.array([
        [1, big, 3, 0],
        [1, big, 0, 5],
    ], np.int64)
    rows = [(tuple(int(v) for v in row), 1) for row in counts]
    tally = sim._Tally(3, 1, 1)
    tally.add(counts)
    assert tally.sums == [sum(int(v) for v in col) for col in counts.T]
    assert tally.sumsq == [sum(int(v) ** 2 for v in col) for col in counts.T]
    assert tally.sumsq[1] > 2**63
    assert tally.stats() == oracle_aggregate(3, rows, 1, 1)
    huge = sim._Tally(1, 1, 1)
    huge.add(np.array([[1, 2**40], [1, 2**40 - 1]], np.int64))
    assert huge.sumsq == [2, 2**80 + (2**40 - 1) ** 2]
    # block sums merge to the sums of one block
    halves = sim._Tally(3, 1, 1)
    halves.add(counts[:1])
    rest = sim._Tally(3, 1, 1)
    rest.add(counts[1:])
    halves.merge(rest)
    assert (halves.trials, halves.sums, halves.sumsq, halves.hits) == \
        (tally.trials, tally.sums, tally.sumsq, tally.hits)


def test_monte_carlo_capacity_refused_before_counting(monkeypatch):
    # (2,3,6,12) codes have dim 6 at full rank; a few draws lose rank
    params = EnsembleParams(q=2, c=3, d=6, n=12)
    rows = oracle_trials(params, 40, 1)
    first = next(t for t, (_, _, dim, _) in enumerate(rows) if dim > 6)
    assert first > 0
    calls = []

    def counted(*args):
        calls.append(args)
        return count_weights(*args)

    monkeypatch.setattr(sim.kernels, "count_weights", counted)
    with pytest.raises(CapacityError) as refused:
        monte_carlo(params, trials=40, seed=1, workers=1, enum_cap=2**6)
    dim = rows[first][2]
    assert str(refused.value) == (
        f"q**dim = 2**{dim} = {2**dim} codewords exceeds the cap {2**6}")
    assert calls == []
    # below the first refused trial the run goes through
    assert monte_carlo(params, trials=first, seed=1, enum_cap=2**6).trials == first
