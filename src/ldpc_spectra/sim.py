"""Sampling and exact enumeration of codes from regular ensembles.

A code is drawn by wiring c*n variable sockets (c consecutive per
variable) through a uniform random permutation to c*n check sockets
(d consecutive per check), each check socket scaling its incoming symbol
by an independent uniform nonzero field multiplier.  Parallel edges are
kept and their multipliers add in the field, which can cancel to zero.

Sampling is deterministic given a seed.  Codes are drawn in rows from one
numpy Generator(PCG64(SeedSequence(seed))): one
Generator.permuted call on a (rows, c*n) tile of arange(c*n) draws the
rows' permutations in turn (as Generator.permutation(c*n) would, row after
row), and for q > 2 one Generator.integers(1, q) call then draws their
multipliers.  sample_code is the one-row draw of its seed.  A Monte Carlo
run cuts its trials into draw blocks of _draw_size(params) trials, which
follows only the code size: block b is drawn from SeedSequence((seed, b)),
and the last block of a run holds the trials left.

Codes travel as stacks: a draw block is assembled and counted (kernels)
by batched numpy calls on (batch, ...) arrays, in compute blocks of
_block_size(params) codes cut inside it.  At rate >= 1/2 (2m <= n), where
q**n is within the enumeration cap, the q**m combinations of the parity
rows are counted and turned into the code's weights by the MacWilliams
identity, with no elimination; otherwise the stack is reduced (linalg) and
its kernel bases counted.  Over GF(2) with n <= 64 each parity row is
packed into one uint64 word right after assembly, and elimination and
counting run on words; the byte matrices serve only the exhaustive tally's
keys and CodeSample, and q > 2 or n > 64 is reduced and counted on bytes.
A code's minimum distance is read from its weight counts by one rule
(_dmin), which also decides the filter: a code passes when it has no
weight-1 word.  Aggregates are exact integer sums merged block by block,
so reports are byte-identical for any worker count and compute block
size.  A single code (sample_code, enumerate_weights) is a stack of one,
indexed [0].

The exhaustive average needs no sampling: it walks the m-by-n edge-count
tables of the ensemble, not its (c*n)! * (q-1)**(c*n) configurations, and
weights each parity matrix a table can give by the configurations behind
it.  Its cost follows the tables times the nonzero patterns of their
cells; its distinct matrices are counted in stacks of the compute block
size.
"""

from __future__ import annotations

import math
import operator
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product, zip_longest

import numpy as np

from . import kernels
from .errors import CapacityError, DomainError, ParameterError
from .gf import FieldSpec, add_arrays, build_field
from .linalg import bit_rows, kernel_basis, kernel_words
from .spectrum import EnsembleParams, SpectrumTable

# Default cap on the number of codewords a single enumeration may visit.
DEFAULT_ENUM_CAP = 1 << 24
# Default cap on permutation-multiplier configurations for exhaustive averaging.
DEFAULT_CONFIG_CAP = 10**8
# Largest decimal log of a configuration count that is built and shown in
# full: such a count has at most 600 digits, fewer than 640, the smallest
# limit sys.set_int_max_str_digits accepts, so str() never refuses it.
_SHOWN_LOG10 = 599
# Codes sampled, assembled, reduced and counted together in one batched step:
# at most _BLOCK codes and _BLOCK_CELLS parity-check matrix cells, so that
# memory follows neither the trial count nor, past small codes, the code size.
_BLOCK = 1024
_BLOCK_CELLS = 1 << 16
# Monte Carlo trials drawn from one generator: at most _DRAW trials and
# _DRAW_SOCKETS sockets.  Part of the output contract: changing either moves
# every simulate result.
_DRAW = 1024
_DRAW_SOCKETS = 1 << 18


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
    edge_mult = np.asarray(multipliers, np.uint8)[trial, perm]
    cell = (trial * m + perm // params.d) * n + np.arange(n)
    h = np.zeros(batch * m * n, np.uint8)
    for at, add in zip(cell, edge_mult):
        h[at] = add_arrays(field, h[at], add)
    return h.reshape(batch, m, n)


def _draw(params: EnsembleParams, seed, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Socket permutations (int64) and check-socket multipliers (uint8 field
    symbols) of rows codes, (rows, c*n) each, drawn from one PCG64 keyed by
    SeedSequence(seed).
    """
    cn = params.num_sockets
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    perms = np.tile(np.arange(cn, dtype=np.int64), (rows, 1))
    rng.permuted(perms, axis=1, out=perms)
    if params.q > 2:
        # drawn as int64, which fixes the stream
        mults = rng.integers(1, params.q, size=(rows, cn), dtype=np.int64).astype(np.uint8)
    else:
        mults = np.ones((rows, cn), np.uint8)
    return perms, mults


def sample_code(params: EnsembleParams, seed, field: FieldSpec | None = None) -> CodeSample:
    """Draw one code from the ensemble, deterministically in the seed.

    seed may be an int or a tuple of ints (it feeds numpy SeedSequence).
    """
    if field is None:
        field = build_field(params.q)
    perms, mults = _draw(params, seed, 1)
    return CodeSample(
        params=params,
        seed=seed,
        permutation=perms[0],
        multipliers=mults[0],
        parity_matrix=assemble_parity(params, field, perms, mults)[0],
    )


def _block_size(params: EnsembleParams) -> int:
    """Codes per batched step for this ensemble."""
    return max(1, min(_BLOCK, _BLOCK_CELLS // (params.num_checks * params.n)))


def _draw_size(params: EnsembleParams) -> int:
    """Monte Carlo trials per draw block for this ensemble."""
    return max(1, min(_DRAW, _DRAW_SOCKETS // params.num_sockets))


def _count_stack(field: FieldSpec, parity: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Weight counts (batch, n + 1) and code dimensions of a stack of codes.

    Over GF(2) with at most 64 variables, words are bit rows, one uint64
    word per parity row or basis vector; otherwise bytes.

    With m checks, 2m <= n and q**n <= cap, no code can exceed the cap and
    the dual is no larger than the code: all q**m combinations of the
    parity rows are counted, with no elimination.  The zero word comes
    q**(m - rank) times, which gives each dimension, and
    kernels.macwilliams turns the counts into the code's.

    Otherwise the stack is eliminated, and every dimension is checked
    against cap before any code is counted; the refusal names the first
    code in stack order that exceeds it.  Codes are then counted a
    dimension at a time, as stacks of kernel bases.
    """
    m, n = parity.shape[1:]
    packed = field.q == 2 and n <= 64
    if 2 * m <= n and field.q**n <= cap:
        if packed:
            span = kernels.count_words(bit_rows(parity), n)
        else:
            span = kernels.count_weights(parity, field.q, field.add_table, field.mul_table)
        rank = m - np.searchsorted(field.q ** np.arange(m + 1), span[:, 0])
        return kernels.macwilliams(span, field.q, m), n - rank
    if packed:
        bases, dims = kernel_words(bit_rows(parity), n)
    else:
        bases, dims = kernel_basis(field, parity)
    dim_list = dims.tolist()
    if field.q ** max(dim_list) > cap:
        dim = next(dim for dim in dim_list if field.q**dim > cap)
        raise CapacityError(
            f"q**dim = {field.q}**{dim} = {field.q**dim} codewords exceeds the cap {cap}"
        )
    counts = np.empty((len(dims), n + 1), np.int64)
    for dim in set(dim_list):
        group = dims == dim
        if packed:
            counts[group] = kernels.count_words(bases[group, :dim], n)
        else:
            counts[group] = kernels.count_weights(
                bases[group, :dim], field.q, field.add_table, field.mul_table)
    return counts, dims


def _dmin(counts: np.ndarray) -> np.ndarray:
    """Minimum distances of a (batch, n + 1) stack of weight counts: the
    first nonzero weight w >= 1 of each row, n + 1 for a code with no
    nonzero word.

    A column of H is all zero exactly when a multiple of a unit vector is a
    codeword, so dmin >= 2 is the filter of codes with no all-zero column.
    """
    nonzero = counts[:, 1:] > 0
    return np.where(nonzero.any(axis=1), nonzero.argmax(axis=1) + 1, counts.shape[1])


def enumerate_weights(
    field: FieldSpec,
    parity_matrix: np.ndarray,
    cap: int = DEFAULT_ENUM_CAP,
) -> WeightEnumeration:
    """Exact weight distribution of the code {x : parity_matrix @ x = 0}.

    Counts as _count_stack does: with m rows, 2m <= n and q**n <= cap, all
    q**m combinations of the rows, turned into the code's counts by the
    MacWilliams identity; otherwise all q**dim codewords (dim = kernel
    dimension) of a kernel basis.  Either way words are counted over GF(2)
    with at most 64 variables with kernels.count_words, otherwise with
    kernels.count_weights.  dmin is inf for a code with no nonzero word.

    Raises
    ------
    ParameterError
        If parity_matrix is not 2-D.
    DomainError
        If an entry is not a field element, one of 0..q-1.
    CapacityError
        If q**dim exceeds cap.  Each is raised before any work.
    """
    h = np.asarray(parity_matrix)
    if h.ndim != 2:
        raise ParameterError(f"parity matrix must be 2-D, got shape {h.shape}")
    with np.errstate(invalid="ignore"):  # nan and inf cast to some byte
        symbols = h.astype(np.uint8)
    bad = h[(symbols != h) | (symbols >= field.q)]
    if bad.size:
        raise DomainError(f"parity matrix entry {bad[0].item()!r} is not one of 0..{field.q - 1}")
    counts, dims = _count_stack(field, symbols[None], cap)
    dmin = int(_dmin(counts)[0])
    return WeightEnumeration(counts=tuple(counts[0].tolist()), dimension=int(dims[0]),
                             dmin=dmin if dmin < counts.shape[1] else math.inf)


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
    normal-approximation 95% half width.  The filtered stats of a SimReport
    cover the trials with no weight-1 word (no all-zero column in H), so
    every one of their hits has minimum distance at least 2.
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

    overall covers every trial; filtered, present when filter_on, covers
    the trials whose code has no weight-1 word (minimum distance at least
    2), which is the same as a parity-check matrix with no all-zero column.
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
        """Fraction of trials whose code has no weight-1 word."""
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
    """Exact sums over a set of trials: the trial count, the hits, and
    per-weight sums and sums of squares of the weight counts (Python ints).

    _Tally(counts, hit) tallies the trials of a (trials, n + 1) array of
    weight counts, hit flagging the trials that count as hits; _Tally() is
    the empty tally, whose sum lists are empty until a tally is merged in.
    """

    def __init__(self, counts: np.ndarray = np.empty((0, 0), np.int64), hit=()):
        self.trials = len(counts)
        self.hits = int(np.count_nonzero(hit))
        self.sums = _column_sums(counts, 1)
        self.sumsq = _column_sums(counts, 2)

    def merge(self, other: _Tally) -> None:
        self.trials += other.trials
        self.hits += other.hits
        self.sums = [a + b for a, b in zip_longest(self.sums, other.sums, fillvalue=0)]
        self.sumsq = [a + b for a, b in zip_longest(self.sumsq, other.sumsq, fillvalue=0)]

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
            # int / int is correctly rounded, as float(Fraction(...)) is
            stderr = tuple(
                math.sqrt((qq * trials - s * s) / (trials**2 * (trials - 1)))
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

    Trials are drawn in draw blocks of _draw_size(params) trials, which
    follows only the code size: block b holds trials b*size onwards, the
    last block of the run holds the trials left, and its codes are drawn
    from SeedSequence((seed, b)).  So the full report is a pure function of
    (params, trials, seed, l0, alpha, filter_on): worker count affects wall
    time only, never a byte of the result.

    A draw block is assembled, reduced and counted by batched numpy calls
    in compute blocks of _block_size(params) codes, so memory does not grow
    with the trial count.  The draw blocks are cut into at most
    min(workers, trials, os.cpu_count()) contiguous runs, the size of the
    thread pool and report.workers; the calling thread takes the first run,
    so a single draw block uses no extra thread.  A code over enum_cap is
    refused before its compute block is counted; with one worker the
    refusal names the first such trial.
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
    dmax = math.floor(params.n * alpha)
    draw_size, block_size = _draw_size(params), _block_size(params)
    master = operator.index(seed)

    def run_range(trial_range: range) -> tuple[_Tally, _Tally]:
        overall, filtered = _Tally(), _Tally()
        for start in range(trial_range.start, trial_range.stop, draw_size):
            rows = min(draw_size, trial_range.stop - start)
            perms, mults = _draw(params, (master, start // draw_size), rows)
            # kept while the draw block is counted, so in the smallest dtype that fits
            perms = perms.astype(np.min_scalar_type(params.num_sockets - 1))
            for at in range(0, rows, block_size):
                part = slice(at, at + block_size)
                parity = assemble_parity(params, field, perms[part], mults[part])
                counts, _ = _count_stack(field, parity, enum_cap)
                dmin = _dmin(counts)
                hit = (dmin >= l0) & (dmin <= dmax)
                overall.merge(_Tally(counts, hit))
                if filter_on:
                    kept = dmin >= 2
                    filtered.merge(_Tally(counts[kept], hit[kept]))
        return overall, filtered

    # at most nworkers runs of whole draw blocks; the calling thread takes the first
    starts = range(0, trials, draw_size)
    runs = min(nworkers, len(starts))
    cuts = [starts[len(starts) * w // runs] for w in range(runs)] + [trials]
    ranges = [range(a, b) for a, b in zip(cuts, cuts[1:])]
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


def _edge_tables(params: EnsembleParams):
    """Iterate over (table, wiring count) for every edge-count table of the ensemble.

    Entry (j, v) of a table, flat with rows first, counts the edges joining
    check j to variable v: rows sum to d and columns to c.  Cells are filled
    in that order against the row's sockets and the column sums left; any
    column sums left with the right total can be filled, so no branch runs
    dry, and the last row is what is left.  (c!)**n * (d!)**m / prod E_jv!
    socket permutations wire a table: each variable and each check splits
    its sockets among its neighbours, and the E_jv sockets on the two sides
    of a cell pair up in E_jv! ways.
    """
    c, d, n, m = params.c, params.d, params.n, params.num_checks
    wirings = math.factorial(c) ** n * math.factorial(d) ** m

    def fill(table, sums):
        at = len(table)
        if at == (m - 1) * n:
            table += sums
            yield table, wirings // math.prod(map(math.factorial, table))
            return
        v, left = at % n, d - sum(table[at - at % n:])
        for k in range(max(0, left - sum(sums[v + 1:])), min(left, sums[v]) + 1):
            yield from fill(table + (k,), sums[:v] + (sums[v] - k,) + sums[v + 1:])

    return fill((), (c,) * n)


def _matrix_multiplicities(params: EnsembleParams) -> Counter:
    """Configurations giving each parity matrix, keyed by its bytes (rows first).

    A cell of k >= 1 parallel edges holds the sum of k nonzero multipliers.
    Of their (q-1)**k choices, b(k) = ((q-1)**k + (-1)**k (q-1))/q sum to 0
    (the b(k) of spectrum.single_check_coeffs) and b(k+1)/(q-1) to each
    nonzero value, since the k multipliers and the negated sum then sum to
    0.  Cells choose independently, so each matrix an edge-count table can
    give takes the table's wiring count times its cells' counts.  Over
    GF(2) a table gives one matrix, the table mod 2.
    """
    q = params.q
    b = [((q - 1) ** k + (-1) ** k * (q - 1)) // q for k in range(min(params.c, params.d) + 2)]
    # per cell size k: (value, multiplier choices) for the values with choices
    spread = [[(h, w) for h, w in enumerate([b[k]] + [b[k + 1] // (q - 1)] * (q - 1)) if w]
              for k in range(len(b) - 1)]
    shared = Counter()
    for table, wirings in _edge_tables(params):
        for cells in product(*map(spread.__getitem__, table)):
            matrix, choices = zip(*cells)
            shared[bytes(matrix)] += wirings * math.prod(choices)
    return shared


def exhaustive_ensemble(
    params: EnsembleParams, config_cap: int = DEFAULT_CONFIG_CAP
) -> SpectrumTable:
    """Average the exact weight counts over every ensemble configuration.

    The average runs over all (c*n)! socket permutations and all
    (q-1)**(c*n) nonzero multiplier assignments, but walks edge-count tables
    rather than configurations: a wiring matters only through its table, and
    the multipliers only through the cell sums they leave (see
    _matrix_multiplicities).  Each distinct parity matrix is tallied by its
    bytes with the number of configurations that give it, its weights are
    counted once, in stacks of _block_size(params) matrices, and the
    weighted counts are summed as Python integers, which no multiplicity
    overflows; the returned table is an exact rational average that must
    equal the closed-form ensemble expectation.  The cost follows the tables
    times the nonzero patterns of their cells, not the configurations.

    config_cap bounds the configuration count, not the tables: each
    (table, matrix) pair stands for at least one configuration, so that
    count bounds the work from above, and it is known in closed form, so a
    refusal walks no table.

    Raises
    ------
    CapacityError
        If the configuration count exceeds config_cap.  A count past
        10**_SHOWN_LOG10, and tenfold past the cap, is refused from its
        logarithm without being built, and named by its formula.
    """
    field = build_field(params.q)
    cn = params.num_sockets
    # decimal logs of the count and the cap
    log_configs = (math.lgamma(cn + 1) + cn * math.log(params.q - 1)) / math.log(10)
    log_cap = math.log10(config_cap) if config_cap > 0 else -math.inf
    if log_configs > max(_SHOWN_LOG10, log_cap + 1):
        raise CapacityError(
            f"({cn})! * {params.q - 1}**{cn} ensemble configurations, about "
            f"10**{log_configs:.0f}, exceed the cap {config_cap}"
        )
    n_configs = math.factorial(cn) * (params.q - 1) ** cn
    if n_configs > config_cap:
        raise CapacityError(
            f"{n_configs} ensemble configurations exceed the cap {config_cap}"
        )
    shared = _matrix_multiplicities(params)
    if sum(shared.values()) != n_configs:
        raise AssertionError(f"tables reach {sum(shared.values())} of {n_configs} configurations")
    block = _block_size(params)
    totals = [0] * (params.n + 1)
    distinct = iter(shared.items())
    while batch := list(islice(distinct, block)):
        matrices, multiplicities = zip(*batch)
        parity = np.frombuffer(b"".join(matrices), np.uint8)
        parity = parity.reshape(len(batch), params.num_checks, -1)
        counts, _ = _count_stack(field, parity, DEFAULT_ENUM_CAP)
        for multiplicity, row in zip(multiplicities, counts.tolist()):
            totals = [t + multiplicity * v for t, v in zip(totals, row)]
    values = tuple(Fraction(t, n_configs) for t in totals)
    return SpectrumTable(params=params, values=values)
