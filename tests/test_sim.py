"""Ensemble sampling, enumeration, and Monte Carlo aggregation tests."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from ldpc_spectra import (
    CapacityError,
    DomainError,
    EnsembleParams,
    ParameterError,
    avg_weight_distribution,
    build_field,
    enumerate_weights,
    exhaustive_ensemble,
    monte_carlo,
    sample_code,
)
from ldpc_spectra import kernels, sim
from ldpc_spectra.cli import _report_data
from ldpc_spectra.kernels import count_weights, count_words
from ldpc_spectra.linalg import bit_rows, kernel_basis, kernel_words
from ldpc_spectra.sim import SimReport, SpectrumStats
from oracles import configuration_multiplicities, has_zero_column


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


# sha256 of the int64 permutation and multiplier bytes of sample_code,
# recorded before Monte Carlo drew its trials in blocks: the block draw it
# shares keeps single codes, and the enumerate benchmark's 4-tuple seeds,
# where they were; int and tuple seeds, even and odd socket counts
SAMPLE_CODE_PINS = {
    (2, 3, 6, 12, 7): "4d2ecc1ecae4a9fd406a621a17c4ff145a100465fd519f9a57688f336c001753",
    (2, 3, 6, 12, (1, 4, 16, 0)): "5e703f0a625e58f043ae3c4c4a34f305a721c99ddc98365001925964a07764bd",
    (3, 1, 3, 3, 7): "51dc5ebbc4f925d50a9a75c1348e688d6390d0f513d309991523557fa78955c0",
    (3, 1, 3, 3, (1, 4, 16, 0)): "6119bc8f78ea22296ceee6537767f802665d454f231c8d2feb1e7d9825bf9f53",
    (4, 3, 5, 5, 7): "3d71e5df91440dc0e70319774daf89bace435bc68b4495e24f3e869f2fab6c45",
    (4, 3, 5, 5, (1, 4, 16, 0)): "fa3c38e57d89c0cca809ce6ccb43d8bb50bf24e86e5a496476b8871af66f887b",
    (8, 2, 4, 8, 7): "c9b4f71e2b06c7c2120f463b57f93eefdb3a5812a0f2db104cd600626e32dc23",
    (8, 2, 4, 8, (1, 4, 16, 0)): "ef881b94f64d4993b42b39e43297cbe78e4cb288e62fb8c73f0b1d3d7e2f3fba",
}


def test_sample_code_pinned():
    for (q, c, d, n, seed), digest in SAMPLE_CODE_PINS.items():
        sample = sample_code(EnsembleParams(q=q, c=c, d=d, n=n), seed)
        drawn = (np.ascontiguousarray(sample.permutation, "<i8").tobytes()
                 + np.ascontiguousarray(sample.multipliers, "<i8").tobytes())
        assert hashlib.sha256(drawn).hexdigest() == digest, (q, c, d, n, seed)


def test_block_draws_equal_single_draws():
    for q, c, d, n in ((2, 3, 6, 12), (4, 2, 4, 6), (5, 3, 6, 8), (4, 3, 5, 5)):
        params = EnsembleParams(q=q, c=c, d=d, n=n)
        field = build_field(q)
        for seed in (9, (9, 3), (1, 4, 16, 0)):
            # a one-row block is the code sample_code draws
            (perm,), (mult,) = sim._draw(params, seed, 1)
            sample = sample_code(params, seed, field=field)
            [(oracle_perm, oracle_mult)] = oracle_block(params, seed, 1)
            assert perm.tolist() == sample.permutation.tolist() == oracle_perm.tolist()
            assert mult.tolist() == sample.multipliers.tolist() == oracle_mult.tolist()
        # a block of 30 rows: permutations in turn, then the multipliers
        perms, mults = sim._draw(params, (9, 2), 30)
        for row, (oracle_perm, oracle_mult) in enumerate(oracle_block(params, (9, 2), 30)):
            assert perms[row].tolist() == oracle_perm.tolist()
            assert mults[row].tolist() == oracle_mult.tolist()


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


@pytest.mark.parametrize("q, matrix, error", [
    (2, [[1, -1, 0]], DomainError),
    (2, [[1, 2, 0]], DomainError),
    (4, [[1, 7, 0]], DomainError),
    (4, [1, 3, 0], ParameterError),
], ids=["negative", "past-gf2", "past-gf4", "one-dimensional"])
def test_enumerate_weights_rejects_bad_input_before_work(monkeypatch, q, matrix, error):
    calls = []
    monkeypatch.setattr(sim, "_count_stack", lambda *args: calls.append(args))
    with pytest.raises(error) as refused:
        enumerate_weights(build_field(q), np.array(matrix))
    assert type(refused.value) is error
    assert calls == []


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
    # a one-trial run is the one-row draw of its block's seed (master seed, 0)
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


def test_exhaustive_cap_compares_the_exact_count():
    # 2! * 3**2 = 18 configurations: a cap of 18 admits them, 17 does not
    params = EnsembleParams(q=4, c=1, d=2, n=2)
    assert exhaustive_ensemble(params, config_cap=18).values[0] == 1
    with pytest.raises(CapacityError) as info:
        exhaustive_ensemble(params, config_cap=17)
    assert str(info.value) == "18 ensemble configurations exceed the cap 17"


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
    # (2,3,6) n = 6 has 18! ~ 6.4e15 configurations, reached through 28,681 tables
    for q, c, d, n in ((2, 1, 2, 4), (2, 3, 6, 4), (2, 3, 6, 6), (3, 3, 6, 4),
                       (4, 2, 4, 4), (3, 2, 4, 4)):
        params = EnsembleParams(q=q, c=c, d=d, n=n)
        assert exhaustive_ensemble(params, config_cap=10**16).values == \
            avg_weight_distribution(params).values, (q, c, d, n)


def test_edge_tables_equal_configuration_oracle():
    # every matrix with the number of configurations that give it
    for q, c, d, n in ((2, 1, 3, 3), (3, 1, 3, 3), (2, 2, 4, 2), (2, 2, 2, 2),
                       (4, 1, 2, 2), (4, 2, 4, 2), (2, 1, 2, 4)):
        params = EnsembleParams(q=q, c=c, d=d, n=n)
        assert sim._matrix_multiplicities(params) == \
            configuration_multiplicities(params), (q, c, d, n)


def test_edge_tables_cover_every_wiring_once():
    for (c, d, n), count in {(2, 4, 4): 19, (3, 6, 4): 44, (2, 4, 6): 2385,
                             (3, 6, 6): 28681}.items():
        params = EnsembleParams(q=2, c=c, d=d, n=n)
        tables = dict(sim._edge_tables(params))
        assert len(tables) == count, (c, d, n)
        assert sum(tables.values()) == math.factorial(c * n)
        stack = np.reshape(list(tables), (count, params.num_checks, n))
        assert (stack.sum(axis=2) == d).all() and (stack.sum(axis=1) == c).all()


def test_matrix_multiplicities_sum_to_configurations(monkeypatch):
    for q, c, d, n in ((2, 3, 6, 4), (3, 3, 6, 4), (4, 2, 4, 4), (5, 2, 4, 2), (8, 1, 3, 3)):
        params = EnsembleParams(q=q, c=c, d=d, n=n)
        cn = params.num_sockets
        shared = sim._matrix_multiplicities(params)
        assert sum(shared.values()) == math.factorial(cn) * (q - 1) ** cn, (q, c, d, n)
    # a matrix lost from the tally is caught before any weight is counted
    shared.popitem()
    monkeypatch.setattr(sim, "_matrix_multiplicities", lambda params_: shared)
    with pytest.raises(AssertionError):
        exhaustive_ensemble(params)


def test_exhaustive_capacity_guard():
    params = EnsembleParams(q=2, c=3, d=6, n=12)
    with pytest.raises(CapacityError):
        exhaustive_ensemble(params)


class InlineExecutor:
    """ThreadPoolExecutor stand-in: records max_workers and the number of
    runs handed to the pool, runs them inline."""

    max_workers_seen = []
    mapped_seen = []

    def __init__(self, max_workers):
        self.max_workers_seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        items = list(iterable)
        self.mapped_seen.append(len(items))
        return [fn(item) for item in items]


def test_monte_carlo_thread_pool_capped(monkeypatch):
    params = EnsembleParams(q=2, c=3, d=6, n=12)
    baseline = _report_data(monte_carlo(params, trials=3, seed=5))
    monkeypatch.setattr(sim, "ThreadPoolExecutor", InlineExecutor)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 8)
    InlineExecutor.max_workers_seen = []
    InlineExecutor.mapped_seen = []
    report = monte_carlo(params, trials=3, seed=5, workers=10**6)
    assert InlineExecutor.max_workers_seen == [3]
    assert _report_data(report) == baseline
    monte_carlo(params, trials=20, seed=5, workers=10**6)
    assert InlineExecutor.max_workers_seen == [3, 8]
    # an unknown processor count runs the trials on the calling thread: the
    # pool of one is handed no run, so it starts no thread
    monkeypatch.setattr(sim.os, "cpu_count", lambda: None)
    assert _report_data(monte_carlo(params, trials=3, seed=5, workers=4)) == baseline
    assert InlineExecutor.max_workers_seen == [3, 8, 1]
    assert InlineExecutor.mapped_seen[-1] == 0


# ---------------------------------------------------------------------------
# A per-trial Monte Carlo pipeline, the oracle of the batched one: each
# draw block drawn by plain sequential permutation and integers calls, one
# code at a time wired independently of sim, reduced and counted as a
# single matrix, aggregated in Python integers.
# ---------------------------------------------------------------------------


def draw_size(params):
    # trials per draw block: 1024, fewer past 2**18 sockets
    return max(1, min(1024, 2**18 // params.num_sockets))


def oracle_block(params, seed, rows):
    """The (permutation, multipliers) of the rows codes of one draw block:
    rows permutations drawn one after another, then rows multiplier vectors.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    perms = [rng.permutation(params.num_sockets) for _ in range(rows)]
    if params.q > 2:
        mults = [rng.integers(1, params.q, size=params.num_sockets, dtype=np.int64)
                 for _ in range(rows)]
    else:
        mults = [np.ones(params.num_sockets, np.int64)] * rows
    return list(zip(perms, mults))


def oracle_draws(params, trials, seed):
    """Trial t is row t mod B of draw block t // B, keyed by (seed, t // B);
    the last block holds the trials left.
    """
    size = draw_size(params)
    return [draw for block, start in enumerate(range(0, trials, size))
            for draw in oracle_block(params, (seed, block), min(size, trials - start))]


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
    for perm, mult in oracle_draws(params, trials, seed):
        h = np.array(rebuild_parity(params, field, perm, mult), np.uint8)
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


def test_blocks_and_workers_change_no_byte(monkeypatch):
    # two full draw blocks and five trials of a third; three CPUs, so that
    # three workers take one draw block each
    params = EnsembleParams(q=3, c=2, d=4, n=4)
    trials = 2 * draw_size(params) + 5
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 8)
    want, _ = oracle_report(params, trials, 5, 1, 0.5, True)
    reports = [monte_carlo(params, trials, seed=5, workers=w) for w in (1, 2, 3)]
    assert [r.workers for r in reports] == [1, 2, 3]
    for report in reports:
        assert json.dumps(_report_data(report), sort_keys=True) == want
    # compute blocks cut inside the draw blocks move no byte either
    for block, cells in ((7, sim._BLOCK_CELLS), (sim._BLOCK, 40)):
        monkeypatch.setattr(sim, "_BLOCK", block)
        monkeypatch.setattr(sim, "_BLOCK_CELLS", cells)
        assert sim._block_size(params) in (7, 5)
        for w in (1, 3):
            report = monte_carlo(params, trials, seed=5, workers=w)
            assert json.dumps(_report_data(report), sort_keys=True) == want


def test_draw_size_follows_code_size():
    for q, c, d, n in ((2, 3, 6, 12), (2, 1, 3, 3), (4, 6, 12, 40), (2, 8, 16, 4096),
                       (2, 2, 4, 2**17), (2, 4, 4, 2**17)):
        params = EnsembleParams(q=q, c=c, d=d, n=n)
        assert sim._draw_size(params) == draw_size(params), (q, c, d, n)
    assert draw_size(EnsembleParams(q=2, c=8, d=16, n=4096)) == 8
    assert draw_size(EnsembleParams(q=2, c=4, d=4, n=2**17)) == 1


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
    tally = sim._Tally(counts, sim._dmin(counts) == 1)
    assert tally.sums == [sum(int(v) for v in col) for col in counts.T]
    assert tally.sumsq == [sum(int(v) ** 2 for v in col) for col in counts.T]
    assert tally.sumsq[1] > 2**63
    assert tally.stats() == oracle_aggregate(3, rows, 1, 1)
    huge = sim._Tally(np.array([[1, 2**40], [1, 2**40 - 1]], np.int64), np.ones(2, bool))
    assert huge.sumsq == [2, 2**80 + (2**40 - 1) ** 2]
    # block sums merge to the sums of one block, from the empty tally on
    halves = sim._Tally()
    halves.merge(sim._Tally(counts[:1], sim._dmin(counts[:1]) == 1))
    halves.merge(sim._Tally(counts[1:], sim._dmin(counts[1:]) == 1))
    assert (halves.trials, halves.sums, halves.sumsq, halves.hits) == \
        (tally.trials, tally.sums, tally.sumsq, tally.hits)


def test_tally_stderr_is_the_rounded_fraction():
    # int / int rounds correctly, so the float is float(Fraction(...)) to
    # the bit, on sums past 2**53 and past int64
    rng = np.random.default_rng(19)
    past = set()
    for top in (2**20, 2**53 + 3, 2**62):
        for trials in (2, 3, 17, 64):
            counts = rng.integers(0, top, size=(trials, 4), dtype=np.int64)
            tally = sim._Tally(counts, sim._dmin(counts) == 1)
            want = tuple(
                math.sqrt(float(Fraction(qq * trials - s * s, trials**2 * (trials - 1))))
                for s, qq in zip(tally.sums, tally.sumsq))
            assert tally.stats().stderr == want, (top, trials)
            past.update(bound for bound in (2**53, 2**63) if max(tally.sums) > bound)
    assert past == {2**53, 2**63}


def test_monte_carlo_capacity_refused_before_counting(monkeypatch):
    # (2,3,6,12) codes have dim 6 at full rank; a few draws lose rank
    params = EnsembleParams(q=2, c=3, d=6, n=12)
    rows = oracle_trials(params, 120, 1)
    first = next(t for t, (_, _, dim, _) in enumerate(rows) if dim > 6)
    assert first > 0
    calls = []

    def counted(*args):
        calls.append(args)
        return count_weights(*args)

    def counted_words(*args):
        calls.append(args)
        return count_words(*args)

    monkeypatch.setattr(sim.kernels, "count_weights", counted)
    monkeypatch.setattr(sim.kernels, "count_words", counted_words)
    with pytest.raises(CapacityError) as refused:
        monte_carlo(params, trials=120, seed=1, workers=1, enum_cap=2**6)
    dim = rows[first][2]
    assert str(refused.value) == (
        f"q**dim = 2**{dim} = {2**dim} codewords exceeds the cap {2**6}")
    assert calls == []
    # below the first refused trial the run goes through
    assert monte_carlo(params, trials=first, seed=1, enum_cap=2**6).trials == first


def byte_counts(field, parity):
    """Weight counts and dimensions of a stack of codes on bytes: kernel_basis
    and count_weights, one code at a time."""
    bases, dims = kernel_basis(field, parity)
    assert field.q ** dims.max() <= 1 << 16
    counts = [count_weights(bases[b:b + 1, :dim], field.q, field.add_table,
                            field.mul_table)[0] for b, dim in enumerate(dims.tolist())]
    return np.array(counts), dims


def gf2_stacks(rng):
    """GF(2) stacks of mixed dimension in one batch: assembled codes,
    random, zero, identity and rank-deficient matrices, n = 1 to 64."""
    field = build_field(2)
    for c, d, n, rows in ((3, 6, 12, 200), (2, 4, 8, 60), (3, 6, 24, 20)):
        params = EnsembleParams(q=2, c=c, d=d, n=n)
        perms, mults = sim._draw(params, n, rows)
        yield sim.assemble_parity(params, field, perms, mults)
    for m, n in ((1, 1), (3, 1), (2, 5), (4, 9), (58, 63), (61, 64), (60, 64)):
        random = [(rng.random((m, n)) < p).astype(np.uint8) for p in (0.5, 0.5, 0.9)]
        deficient = random[0].copy()
        deficient[-1] = deficient[0] ^ deficient[m // 2]
        top = random[1].copy()
        top[:, -1] = 1
        yield np.stack(random + [deficient, top, np.eye(m, n, dtype=np.uint8)]
                       + [np.zeros((m, n), np.uint8)] * (n < 20))


def test_bit_row_counts_match_the_byte_path():
    # the byte elimination and counter are the oracle of the word path
    field = build_field(2)
    rng = np.random.default_rng(29)
    mixed = full = 0
    for parity in gf2_stacks(rng):
        want, want_dims = byte_counts(field, parity)
        counts, dims = sim._count_stack(field, parity, sim.DEFAULT_ENUM_CAP)
        assert dims.tolist() == want_dims.tolist(), parity.shape
        assert (counts == want).all(), parity.shape
        assert (counts.sum(axis=1) == 2**dims).all()
        mixed += len(set(dims.tolist())) > 1
        full += int((dims == parity.shape[2]).sum())
    assert mixed >= 8 and full >= 4


def weight_one_stacks():
    """(field, stack) pairs: assembled c = 2 codes, whose parallel edges
    cancel to zero cells, a zero matrix, a full-rank (dimension 0) code,
    and n = 65 GF(2) codes, which go on bytes."""
    for q in (2, 3, 4, 8):
        field = build_field(q)
        params = EnsembleParams(q=q, c=2, d=4, n=8)
        perms, mults = sim._draw(params, (q, 2), 200)
        yield field, sim.assemble_parity(params, field, perms, mults)
        yield field, np.zeros((1, 3, 6), np.uint8)
        yield field, np.eye(6, dtype=np.uint8)[None]
    # eye(64, 65) leaves column 64 zero; the second matrix has kernel
    # e63 + e64 and no zero column
    linked = np.eye(65, dtype=np.uint8)
    linked[63:, 63:] = 1
    yield build_field(2), np.stack([np.eye(64, 65, dtype=np.uint8), linked[:64]])


def test_weight_one_words_are_the_zero_columns():
    # a column of H is zero exactly when a multiple of a unit vector is a
    # codeword: counts[:, 1] > 0 is the filter the oracle reads off H
    seen = set()
    for field, parity in weight_one_stacks():
        counts, _ = sim._count_stack(field, parity, sim.DEFAULT_ENUM_CAP)
        zero = has_zero_column(parity)
        assert ((counts[:, 1] > 0) == zero).all(), (field.q, parity.shape)
        assert ((sim._dmin(counts) >= 2) == ~zero).all(), (field.q, parity.shape)
        seen.update((field.q, parity.shape[-1], bool(flag)) for flag in zero)
    assert {(q, 8, flag) for q in (2, 3, 4, 8) for flag in (True, False)} <= seen
    assert {(2, 65, True), (2, 65, False)} <= seen


def test_dmin_is_the_first_nonzero_weight_or_n_plus_one():
    counts = np.array([[1, 0, 0, 0], [1, 0, 3, 0], [1, 2, 1, 0], [1, 0, 0, 1]])
    assert sim._dmin(counts).tolist() == [4, 2, 1, 3]


def test_parallel_edges_cancel_in_bit_rows():
    # (2, 2, 1): one check, one variable, two edges: the cell sums to 0
    params = EnsembleParams(q=2, c=2, d=2, n=1)
    field = build_field(2)
    parity = sim.assemble_parity(params, field, np.array([[0, 1]]), np.ones((1, 2), np.uint8))
    assert parity.tolist() == [[[0]]] and bit_rows(parity).tolist() == [[0]]
    counts, dims = sim._count_stack(field, parity, sim.DEFAULT_ENUM_CAP)
    assert dims.tolist() == [1] and counts.tolist() == [[1, 1]]


def test_bit_rows_stop_at_the_word_width(monkeypatch):
    # up to 64 variables a GF(2) stack goes as words, from 65 on as bytes
    field = build_field(2)
    calls = []

    def recorded(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    monkeypatch.setattr(sim, "kernel_basis", recorded("bytes", kernel_basis))
    monkeypatch.setattr(sim, "kernel_words", recorded("words", sim.kernel_words))
    for n in (64, 65):
        parity = np.concatenate([np.eye(n - 2, n, dtype=np.uint8)] * 2)[None]
        counts, dims = sim._count_stack(field, parity, sim.DEFAULT_ENUM_CAP)
        assert dims.tolist() == [2] and counts[0, [0, 1, 2]].tolist() == [1, 2, 1]
    assert calls == ["words", "bytes"]
    # other fields stay on bytes at any width
    calls.clear()
    sim._count_stack(build_field(4), np.eye(3, 5, dtype=np.uint8)[None], sim.DEFAULT_ENUM_CAP)
    assert calls == ["bytes"]


def no_elimination(monkeypatch):
    """Make sim's eliminations fail the test if they are called."""
    def refused(*args):
        raise AssertionError("eliminated")
    monkeypatch.setattr(sim, "kernel_basis", refused)
    monkeypatch.setattr(sim, "kernel_words", refused)


def dual_stacks(rng):
    """(field, stack) pairs with 2m <= n and q**n <= 2**16: assembled codes,
    and random, rank-deficient, zero, identity and zero-column matrices of
    mixed dimension in one batch."""
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 256):
        field = build_field(q)
        n = int(16 / math.log2(q))
        for m in sorted({1, n // 2}):
            random = rng.integers(0, q, size=(4, m, n)).astype(np.uint8)
            deficient = random[0].copy()
            deficient[-1] = field.mul_table[q - 1, deficient[0]]
            hole = random[1].copy()
            hole[:, 0] = 0
            yield field, np.concatenate([random, [deficient, hole, np.zeros((m, n), np.uint8),
                                                  np.eye(m, n, dtype=np.uint8)]])
        if q <= 16:
            params = EnsembleParams(q=q, c=2, d=4, n=4)
            yield field, sim.assemble_parity(params, field, *sim._draw(params, q, 100))
    for q in (2, 3):
        params = EnsembleParams(q=q, c=3, d=6, n=12)
        yield build_field(q), sim.assemble_parity(
            params, build_field(q), *sim._draw(params, q, 60))


def test_dual_counts_match_the_elimination_route(monkeypatch):
    # the byte elimination and counter, one code at a time, are the oracle
    rng = np.random.default_rng(41)
    oracle = [(field, parity, *byte_counts(field, parity)) for field, parity in dual_stacks(rng)]
    no_elimination(monkeypatch)
    fields, mixed = set(), 0
    for field, parity, want, want_dims in oracle:
        q, (m, n) = field.q, parity.shape[1:]
        counts, dims = sim._count_stack(field, parity, q**n)
        assert dims.tolist() == want_dims.tolist(), (q, parity.shape)
        assert (counts == want).all(), (q, parity.shape)
        fields.add(q)
        mixed += len(set(dims.tolist())) > 1
        if q == 2:
            # GF(2) on bytes, as past 64 variables, rather than bit rows
            span = count_weights(parity, 2, field.add_table, field.mul_table)
            assert (kernels.macwilliams(span, 2, m) == want).all(), parity.shape
    assert fields == {2, 3, 4, 5, 7, 8, 9, 16, 256} and mixed >= 24


def test_hamming_code_from_its_check_matrix(monkeypatch):
    # the [7,4] Hamming code: column v of H is v + 1 in binary
    h = (np.arange(1, 8) >> np.arange(3)[:, None]) & 1
    no_elimination(monkeypatch)
    enum = enumerate_weights(build_field(2), h)
    assert enum.counts == (1, 0, 0, 7, 7, 0, 0, 1)
    assert (enum.dimension, enum.dmin) == (4, 3)


def test_gf2_dual_on_bytes_past_the_word_width(monkeypatch):
    # n = 65: the all-ones row gives the even-weight code, with e0 beside
    # it the even-weight words that skip position 0; m = 2 takes the
    # transform past int64
    n = 65
    ones, first = np.ones(n, np.uint8), np.eye(1, n, dtype=np.uint8)[0]
    no_elimination(monkeypatch)
    field = build_field(2)
    for rows, free in (([ones], n), ([ones, first], n - 1)):
        counts, dims = sim._count_stack(field, np.array([rows], np.uint8), 2**n)
        want = [math.comb(free, w) * (w % 2 == 0) for w in range(n + 1)]
        assert dims.tolist() == [n - len(rows)] and counts[0].tolist() == want


def test_refusal_comes_before_any_count_where_the_cap_binds(monkeypatch):
    # 2m <= n, but q**n > cap: the stack is eliminated and its dimensions
    # checked first, as at low rate
    field = build_field(2)
    parity = np.stack([np.eye(6, 12, dtype=np.uint8), np.zeros((6, 12), np.uint8)])
    calls = []
    monkeypatch.setattr(sim.kernels, "count_weights", lambda *args: calls.append(args))
    monkeypatch.setattr(sim.kernels, "count_words", lambda *args: calls.append(args))
    with pytest.raises(CapacityError) as refused:
        sim._count_stack(field, parity, 2**11)
    assert str(refused.value) == "q**dim = 2**12 = 4096 codewords exceeds the cap 2048"
    with pytest.raises(CapacityError):
        enumerate_weights(field, parity[1], cap=2**11)
    assert calls == []
    monkeypatch.undo()
    # below the cap the eliminated route counts; at q**n the dual route does
    eliminated = []
    monkeypatch.setattr(sim, "kernel_words", lambda *args: eliminated.append(args)
                        or kernel_words(*args))
    counts, dims = sim._count_stack(field, parity[:1], 2**6)
    assert len(eliminated) == 1 and dims.tolist() == [6]
    assert counts[0].tolist() == [math.comb(6, w) for w in range(7)] + [0] * 6
    both, both_dims = sim._count_stack(field, parity, 2**12)
    assert len(eliminated) == 1 and both_dims.tolist() == [6, 12]
    assert (both[0] == counts[0]).all()
    assert both[1].tolist() == [math.comb(12, w) for w in range(13)]
