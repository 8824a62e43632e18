"""Sampling and exact enumeration of codes from regular ensembles.

A code is drawn by wiring c*n variable sockets (c consecutive per
variable) through a uniform random permutation to c*n check sockets
(d consecutive per check), each check socket scaling its incoming symbol
by an independent uniform nonzero field multiplier.  Parallel edges are
kept and their multipliers add in the field, which can cancel to zero.

Sampling is deterministic given a seed: the generator is numpy PCG64
keyed by SeedSequence(seed), trial t of a Monte Carlo run uses
SeedSequence((master_seed, t)), permutations come from
numpy.random.Generator.permutation (as a shuffle of arange(c*n), which
draws the same) and multipliers from Generator.integers(1, q).

Monte Carlo trials run in blocks.  A block's seeds are hashed together
on numpy arrays into the state words numpy's SeedSequence gives
(_seeding; tests/test_sim.py checks the words against SeedSequence and
the generators against PCG64(SeedSequence(...))), numpy seeds each
trial's PCG64 from its words, and numpy's shuffle and integers draw.

Codes travel as stacks: the draws of a block are stacked, and its
matrices are assembled, reduced (linalg) and counted (kernels) by batched
numpy calls on (batch, ...) arrays.  Aggregates are exact integer sums
merged block by block, so reports are byte-identical for any worker count
and block size.  The exhaustive average counts its distinct matrices in
stacks of the same size.  A single code (sample_code, enumerate_weights)
keys its PCG64 with numpy's SeedSequence itself and is a stack of one,
indexed [0].
"""

from __future__ import annotations

import math
import operator
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, permutations, product

import numpy as np

from . import kernels
from .errors import CapacityError, ParameterError
from .gf import FieldSpec, add_arrays, build_field, require_tables
from .linalg import kernel_basis
from .spectrum import EnsembleParams, SpectrumTable

# Default cap on the number of codewords a single enumeration may visit.
DEFAULT_ENUM_CAP = 1 << 24
# Default cap on permutation-multiplier configurations for exhaustive averaging.
DEFAULT_CONFIG_CAP = 10**8
# Codes sampled, assembled, reduced and counted together in one batched step:
# at most _BLOCK codes and _BLOCK_CELLS parity-check matrix cells, so that
# memory follows neither the trial count nor, past small codes, the code size.
_BLOCK = 1024
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class CodeSample:
    """One sampled code: the wiring, the multipliers, and the parity matrix.

    permutation maps variable socket i to check socket permutation[i];
    multipliers are indexed by check socket.  parity_matrix[j, v] is the
    field sum of the multipliers on the edges joining variable v to check j.
    """

    params: EnsembleParams
    seed: object
    permutation: np.ndarray
    multipliers: np.ndarray
    parity_matrix: np.ndarray


@dataclass(frozen=True)
class WeightEnumeration:
    """Exact weight counts of one code: counts[w] words of weight w."""

    counts: tuple[int, ...]
    dimension: int
    dmin: float

    @property
    def is_zero_code(self) -> bool:
        return self.dimension == 0


def assemble_parity(params: EnsembleParams, field: FieldSpec, permutation, multipliers) -> np.ndarray:
    """Build parity-check matrices from socket permutations and multipliers.

    permutation and multipliers are (batch, c*n) stacks, one row per code;
    the result is the (batch, m, n) stack of their matrices.  Round j adds
    the edge of socket j of every variable at once: no two edges of a round
    meet in one (check, variable) cell, so c rounds of field additions place
    every edge.
    """
    c, n, m = params.c, params.n, params.num_checks
    batch = len(permutation)
    # (round j, trial, variable v): socket v*c + j
    perm = np.asarray(permutation, np.intp).reshape(batch, n, c).transpose(2, 0, 1)
    trial = np.arange(batch)[:, None]
    symbol = np.min_scalar_type(params.q - 1)
    edge_mult = np.asarray(multipliers, symbol)[trial, perm]
    cell = (trial * m + perm // params.d) * n + np.arange(n)
    h = np.zeros(batch * m * n, symbol)
    for at, add in zip(cell, edge_mult):
        h[at] = add_arrays(field, h[at], add)
    return h.reshape(batch, m, n)


def _draw(params: EnsembleParams, seed_seqs: list) -> tuple[np.ndarray, np.ndarray]:
    """Socket permutations and check-socket multipliers, (len(seed_seqs), c*n)
    each, one code per seed sequence that keys its PCG64.
    """
    cn = params.num_sockets
    perms = np.empty((len(seed_seqs), cn), np.int64)
    perms[:] = np.arange(cn)
    mults = np.ones((len(seed_seqs), cn), np.int64)
    for i, seed_seq in enumerate(seed_seqs):
        rng = np.random.Generator(np.random.PCG64(seed_seq))
        # shuffling arange(cn) in place draws what rng.permutation(cn) draws
        rng.shuffle(perms[i])
        if params.q > 2:
            mults[i] = rng.integers(1, params.q, size=cn, dtype=np.int64)
    return perms, mults


def sample_code(params: EnsembleParams, seed, field: FieldSpec | None = None) -> CodeSample:
    """Draw one code from the ensemble, deterministically in the seed.

    seed may be an int or a tuple of ints (it feeds numpy SeedSequence).
    Extension fields need operation tables (q <= 256) to add multipliers.
    """
    if field is None:
        field = build_field(params.q)
    if field.k > 1:
        require_tables(field, "sampling over an extension field requires")
    perms, mults = _draw(params, [np.random.SeedSequence(seed)])
    return CodeSample(
        params=params,
        seed=seed,
        permutation=perms[0],
        multipliers=mults[0].astype(np.min_scalar_type(params.q - 1)),
        parity_matrix=assemble_parity(params, field, perms, mults)[0],
    )


def _block_size(params: EnsembleParams) -> int:
    """Codes per batched step for this ensemble."""
    return max(1, min(_BLOCK, _BLOCK_CELLS // (params.num_checks * params.n)))


def _count_stack(field: FieldSpec, parity: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Weight counts (batch, n + 1) and code dimensions of a stack of codes.

    Every dimension is checked against cap before any code is counted; the
    refusal names the first code in stack order that exceeds it.  Codes are
    counted a dimension at a time, as stacks of bases.
    """
    bases, dims = kernel_basis(field, parity)
    dim_list = dims.tolist()
    if field.q ** max(dim_list) > cap:
        dim = next(dim for dim in dim_list if field.q**dim > cap)
        raise CapacityError(
            f"q**dim = {field.q}**{dim} = {field.q**dim} codewords exceeds the cap {cap}"
        )
    counts = np.empty((len(dims), parity.shape[-1] + 1), np.int64)
    for dim in set(dim_list):
        group = dims == dim
        counts[group] = kernels.count_weights(
            bases[group, :dim], field.q, field.add_table, field.mul_table)
    return counts, dims


def enumerate_weights(
    field: FieldSpec,
    parity_matrix: np.ndarray,
    cap: int = DEFAULT_ENUM_CAP,
) -> WeightEnumeration:
    """Exact weight distribution of the code {x : parity_matrix @ x = 0}.

    Counts all q**dim codewords (dim = kernel dimension) with
    kernels.count_weights.

    Raises
    ------
    CapacityError
        If q**dim exceeds cap; the request is refused before any work.
    """
    require_tables(field, "enumeration requires")
    counts, dims = _count_stack(field, np.asarray(parity_matrix)[None], cap)
    counts_t = tuple(counts[0].tolist())
    dmin: float = math.inf
    for w in range(1, len(counts_t)):
        if counts_t[w] > 0:
            dmin = w
            break
    return WeightEnumeration(counts=counts_t, dimension=int(dims[0]), dmin=dmin)


def has_zero_column(parity: np.ndarray) -> np.ndarray:
    """One flag per matrix of a (batch, m, n) stack: True when some variable
    is attached to no effective check constraint.
    """
    return (parity == 0).all(axis=1).any(axis=1)


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumStats:
    """Aggregated spectrum statistics over a set of trials.

    counts_sum holds exact integer sums of per-trial weight counts; mean
    and stderr are derived from them (stderr entries are nan below two
    trials).  dmin_hits counts trials whose minimum distance fell inside
    [l0, floor(n*alpha)]; p_dmin_le is the corresponding fraction with a
    normal-approximation 95% half width.
    """

    trials: int
    counts_sum: tuple[int, ...]
    mean: tuple[float, ...]
    stderr: tuple[float, ...]
    dmin_hits: int
    p_dmin_le: float | None
    p_dmin_half_width: float | None


@dataclass(frozen=True)
class SimReport:
    """Result of a Monte Carlo ensemble run.

    overall covers every trial; filtered covers the trials whose
    parity-check matrix has no all-zero column (minimum distance at least
    2), present when filter_on.
    """

    params: EnsembleParams
    trials: int
    seed: int
    l0: int
    alpha: float
    filter_on: bool
    workers: int
    overall: SpectrumStats
    filtered: SpectrumStats | None

    @property
    def filter_pass_rate(self) -> float | None:
        """Fraction of trials whose matrix has no all-zero column."""
        if self.filtered is None:
            return None
        return self.filtered.trials / self.trials


def _column_sums(values: np.ndarray, power: int) -> list[int]:
    """Exact column sums of values**power, values >= 0, as Python ints.

    int64 while the sum cannot overflow, Python integers past that.
    """
    peak = int(values.max(initial=0))
    if len(values) * peak**power >= 2**63:
        values = values.astype(object)
    return [int(v) for v in (values**power).sum(axis=0)]


class _Tally:
    """Exact running sums over a set of trials: per-weight sums and sums of
    squares of the weight counts (Python ints), the trial count, and the
    trials whose minimum distance lies in [lo, hi].
    """

    def __init__(self, n: int, lo: int, hi: int):
        self.n, self.lo, self.hi = n, lo, hi
        self.trials = 0
        self.hits = 0
        self.sums = [0] * (n + 1)
        self.sumsq = [0] * (n + 1)

    def add(self, counts: np.ndarray) -> None:
        """Add the trials of a (trials, n + 1) array of weight counts."""
        nonzero = counts[:, 1:] > 0
        # a code with no nonzero word has dmin = inf, past any hi < n
        dmin = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1) + 1, self.n + 1)
        self.trials += len(counts)
        self.hits += int(np.count_nonzero((dmin >= self.lo) & (dmin <= self.hi)))
        self.sums = [a + b for a, b in zip(self.sums, _column_sums(counts, 1))]
        self.sumsq = [a + b for a, b in zip(self.sumsq, _column_sums(counts, 2))]

    def merge(self, other: _Tally) -> None:
        self.trials += other.trials
        self.hits += other.hits
        self.sums = [a + b for a, b in zip(self.sums, other.sums)]
        self.sumsq = [a + b for a, b in zip(self.sumsq, other.sumsq)]

    def stats(self) -> SpectrumStats:
        trials, sums, hits = self.trials, self.sums, self.hits
        if trials == 0:
            return SpectrumStats(
                trials=0,
                counts_sum=tuple(sums),
                mean=(),
                stderr=(),
                dmin_hits=0,
                p_dmin_le=None,
                p_dmin_half_width=None,
            )
        mean = tuple(s / trials for s in sums)
        if trials >= 2:
            stderr = tuple(
                math.sqrt(float(Fraction(qq * trials - s * s, trials**2 * (trials - 1))))
                for s, qq in zip(sums, self.sumsq)
            )
        else:
            stderr = tuple(math.nan for _ in sums)
        p = hits / trials
        half = 1.96 * math.sqrt(p * (1.0 - p) / trials)
        return SpectrumStats(
            trials=trials,
            counts_sum=tuple(sums),
            mean=mean,
            stderr=stderr,
            dmin_hits=hits,
            p_dmin_le=p,
            p_dmin_half_width=half,
        )


def monte_carlo(
    params: EnsembleParams,
    trials: int,
    seed: int = 0,
    l0: int = 1,
    alpha: float = 0.5,
    filter_on: bool = True,
    workers: int | None = None,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> SimReport:
    """Estimate the average weight distribution and small-distance mass.

    Trial t is seeded with (seed, t), so the full report is a pure function
    of (params, trials, seed, l0, alpha, filter_on): worker count affects
    wall time only, never a byte of the result.

    Trials run in blocks of _block_size(params) codes, each block drawn,
    assembled, reduced and counted by batched numpy calls, so memory does
    not grow with the trial count.  The blocks are cut into at most
    min(workers, trials, os.cpu_count()) contiguous runs, the size of the
    thread pool and report.workers; the calling thread takes the first run,
    so a single block uses no extra thread.  A code over enum_cap is
    refused before its block is counted; with one worker the refusal names
    the first such trial.
    """
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    if trials < 1:
        raise ParameterError(f"trial count must be at least 1, got {trials}")
    if l0 < 1:
        raise ParameterError(f"l0 must be at least 1, got {l0}")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    nworkers = 1 if workers is None else int(workers)
    if nworkers < 1:
        raise ParameterError(f"worker count must be at least 1, got {nworkers}")
    nworkers = min(nworkers, trials, os.cpu_count() or 1)
    field = build_field(params.q)
    require_tables(field, "Monte Carlo enumeration requires")
    n = params.n
    dmax = math.floor(n * alpha)
    block_size = _block_size(params)
    master = operator.index(seed)
    from ._seeding import StateWords, trial_states  # loads numpy.random

    def run_range(trial_range: range) -> tuple[_Tally, _Tally]:
        overall = _Tally(n, l0, dmax)
        filtered = _Tally(n, max(l0, 2), dmax)
        for start in range(trial_range.start, trial_range.stop, block_size):
            block = range(start, min(start + block_size, trial_range.stop))
            seed_seqs = [StateWords(words) for words in trial_states(master, block)]
            parity = assemble_parity(params, field, *_draw(params, seed_seqs))
            counts, _ = _count_stack(field, parity, enum_cap)
            overall.add(counts)
            if filter_on:
                filtered.add(counts[~has_zero_column(parity)])
        return overall, filtered

    # at most nworkers runs of whole blocks; the calling thread takes the first
    starts = range(0, trials, block_size)
    runs = min(nworkers, len(starts))
    cuts = [starts[len(starts) * w // runs] for w in range(runs)] + [trials]
    ranges = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    if nworkers == 1:
        parts = [run_range(ranges[0])]
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            rest = pool.map(run_range, ranges[1:])
            parts = [run_range(ranges[0]), *rest]
    overall, filtered = parts[0]
    for more_overall, more_filtered in parts[1:]:
        overall.merge(more_overall)
        filtered.merge(more_filtered)
    return SimReport(
        params=params,
        trials=trials,
        seed=seed,
        l0=l0,
        alpha=alpha,
        filter_on=filter_on,
        workers=nworkers,
        overall=overall.stats(),
        filtered=filtered.stats() if filter_on else None,
    )


# ---------------------------------------------------------------------------
# Exhaustive ensemble average
# ---------------------------------------------------------------------------


def exhaustive_ensemble(
    params: EnsembleParams,
    config_cap: int = DEFAULT_CONFIG_CAP,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> SpectrumTable:
    """Average the exact weight counts over every ensemble configuration.

    Enumerates all (c*n)! socket permutations and all (q-1)**(c*n) nonzero
    multiplier assignments, counting the weights of each distinct parity
    matrix once and weighting them by how many configurations share it; the
    returned table is an exact rational average that must equal the
    closed-form ensemble expectation.  Configurations are assembled a block
    at a time and their matrices tallied by their bytes; the distinct
    matrices are counted in stacks of the same size, and their weighted
    counts summed as Python integers, which no multiplicity overflows.

    Raises
    ------
    CapacityError
        If the configuration count exceeds config_cap.
    """
    field = build_field(params.q)
    require_tables(field, "exhaustive enumeration requires")
    cn = params.num_sockets
    n_configs = math.factorial(cn) * (params.q - 1) ** cn
    if n_configs > config_cap:
        raise CapacityError(
            f"{n_configs} ensemble configurations exceed the cap {config_cap}"
        )
    configs = (
        (perm, mult)
        for perm in permutations(range(cn))
        for mult in product(range(1, params.q), repeat=cn)
    )
    block = _block_size(params)
    shared = Counter()
    while batch := list(islice(configs, block)):
        perms, mults = (np.array(part, np.int64) for part in zip(*batch))
        parity = assemble_parity(params, field, perms, mults)
        shared.update(map(bytes, parity.reshape(len(parity), -1)))
    totals = [0] * (params.n + 1)
    distinct = iter(shared.items())
    while batch := list(islice(distinct, block)):
        matrices, multiplicities = zip(*batch)
        parity = np.frombuffer(b"".join(matrices), np.uint8)
        counts, _ = _count_stack(field, parity.reshape(len(batch), params.num_checks, -1), enum_cap)
        for multiplicity, row in zip(multiplicities, counts.tolist()):
            totals = [t + multiplicity * v for t, v in zip(totals, row)]
    values = tuple(Fraction(t, n_configs) for t in totals)
    return SpectrumTable(params=params, values=values)
