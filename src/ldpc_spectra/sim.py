"""Sampling and exact enumeration of codes from regular ensembles.

A code is drawn by wiring c*n variable sockets (c consecutive per
variable) through a uniform random permutation to c*n check sockets
(d consecutive per check), each check socket scaling its incoming symbol
by an independent uniform nonzero field multiplier.  Parallel edges are
kept and their multipliers add in the field, which can cancel to zero.

Sampling is deterministic given a seed: the generator is numpy PCG64
keyed by SeedSequence(seed), trial t of a Monte Carlo run uses
SeedSequence((master_seed, t)), permutations come from
numpy.random.Generator.permutation and multipliers from
Generator.integers(1, q).  Monte Carlo aggregates are exact integer
sums merged in trial order, so reports are byte-identical for any
worker count.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

import numpy as np

from . import kernels
from .errors import CapacityError, ParameterError
from .gf import FieldSpec, build_field
from .linalg import kernel_basis
from .spectrum import EnsembleParams, SpectrumTable

# Default cap on the number of codewords a single enumeration may visit.
DEFAULT_ENUM_CAP = 1 << 24
# Default cap on permutation-multiplier configurations for exhaustive averaging.
DEFAULT_CONFIG_CAP = 10**8


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
    """Build the parity-check matrix from a socket permutation and multipliers."""
    cn = params.num_sockets
    n = params.n
    perm = np.asarray(permutation, np.int64)
    mult = np.asarray(multipliers, np.int64)
    var_of_socket = np.arange(cn, dtype=np.int64) // params.c
    check_of_socket = perm // params.d
    if field.k == 1:
        flat = np.zeros(params.num_checks * n, np.int64)
        np.add.at(flat, check_of_socket * n + var_of_socket, mult[perm])
        return (flat % field.p).astype(np.uint8).reshape(params.num_checks, n)
    add_t = field.add_table
    h = np.zeros((params.num_checks, n), np.uint8)
    for i in range(cn):
        r = int(check_of_socket[i])
        v = int(var_of_socket[i])
        h[r, v] = add_t[h[r, v], mult[perm[i]]]
    return h


def _require_tables(field: FieldSpec, what: str) -> None:
    if field.add_table is None:
        raise ParameterError(
            f"{what} requires a tabled field (q <= 256), got q = {field.q}"
        )


def sample_code(params: EnsembleParams, seed, field: FieldSpec | None = None) -> CodeSample:
    """Draw one code from the ensemble, deterministically in the seed.

    seed may be an int or a tuple of ints (it feeds numpy SeedSequence).
    Extension fields need operation tables (q <= 256) to add multipliers.
    """
    if field is None:
        field = build_field(params.q)
    if field.k > 1:
        _require_tables(field, "sampling over an extension field")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    cn = params.num_sockets
    perm = rng.permutation(cn)
    mult = rng.integers(1, params.q, size=cn, dtype=np.int64) if params.q > 2 else np.ones(cn, np.int64)
    h = assemble_parity(params, field, perm, mult)
    return CodeSample(
        params=params,
        seed=seed,
        permutation=perm,
        multipliers=mult.astype(np.uint8),
        parity_matrix=h,
    )


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
    _require_tables(field, "enumeration")
    basis = kernel_basis(field, parity_matrix)
    dim, n = basis.shape
    total = field.q**dim
    if total > cap:
        raise CapacityError(
            f"q**dim = {field.q}**{dim} = {total} codewords exceeds the cap {cap}"
        )
    counts = kernels.count_weights(basis, field.q, field.add_table, field.mul_table)
    counts_t = tuple(int(v) for v in counts)
    dmin: float = math.inf
    for w in range(1, n + 1):
        if counts_t[w] > 0:
            dmin = w
            break
    return WeightEnumeration(counts=counts_t, dimension=dim, dmin=dmin)


def has_zero_column(parity_matrix: np.ndarray) -> bool:
    """True when some variable is attached to no effective check constraint."""
    return bool(np.all(parity_matrix == 0, axis=0).any())


def dmin_le_2(field: FieldSpec, parity_matrix: np.ndarray) -> bool:
    """Whether the code has a word of weight 1 or 2, without enumeration.

    A weight-1 word exists iff some column is all zero; a weight-2 word
    exists iff two columns are proportional over the field.
    """
    _require_tables(field, "column analysis")
    h = np.asarray(parity_matrix, np.uint8)
    if has_zero_column(h):
        return True
    inv_t = field.inv_table
    mul_t = field.mul_table
    seen = set()
    for v in range(h.shape[1]):
        col = h[:, v]
        lead = int(col[np.nonzero(col)[0][0]])
        normalized = tuple(int(e) for e in mul_t[inv_t[lead], col])
        if normalized in seen:
            return True
        seen.add(normalized)
    return False


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


def _aggregate(n: int, rows: list[tuple[tuple[int, ...], float]], l0: int, dmax: int) -> SpectrumStats:
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
            for s, qq in zip(sums, sumsq)
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
    wall time only, never a byte of the result.  The thread pool holds at
    most min(workers, trials, os.cpu_count()) threads; report.workers is
    that number.
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
    _require_tables(field, "Monte Carlo enumeration")

    def run_slice(t_indices) -> list[tuple[int, tuple[int, ...], float, bool]]:
        out = []
        for t in t_indices:
            sample = sample_code(params, (seed, t), field)
            enum = enumerate_weights(field, sample.parity_matrix, enum_cap)
            passed = not has_zero_column(sample.parity_matrix)
            out.append((t, enum.counts, enum.dmin, passed))
        return out

    slices = [range(w, trials, nworkers) for w in range(nworkers)]
    if nworkers == 1:
        chunks = [run_slice(slices[0])]
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            chunks = list(pool.map(run_slice, slices))
    per_trial = sorted(row for chunk in chunks for row in chunk)

    dmax = math.floor(params.n * alpha)
    all_rows = [(counts, dmin) for _, counts, dmin, _ in per_trial]
    overall = _aggregate(params.n, all_rows, l0, dmax)
    filtered = None
    if filter_on:
        kept = [(counts, dmin) for _, counts, dmin, passed in per_trial if passed]
        filtered = _aggregate(params.n, kept, max(l0, 2), dmax)
    return SimReport(
        params=params,
        trials=trials,
        seed=seed,
        l0=l0,
        alpha=alpha,
        filter_on=filter_on,
        workers=nworkers,
        overall=overall,
        filtered=filtered,
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
    closed-form ensemble expectation.

    Raises
    ------
    CapacityError
        If the configuration count exceeds config_cap.
    """
    field = build_field(params.q)
    _require_tables(field, "exhaustive enumeration")
    cn = params.num_sockets
    n_configs = math.factorial(cn) * (params.q - 1) ** cn
    if n_configs > config_cap:
        raise CapacityError(
            f"{n_configs} ensemble configurations exceed the cap {config_cap}"
        )
    shared = Counter()
    for perm in permutations(range(cn)):
        perm_arr = np.array(perm, np.int64)
        for mult in product(range(1, params.q), repeat=cn):
            h = assemble_parity(params, field, perm_arr, np.array(mult, np.int64))
            shared[h.tobytes()] += 1
    totals = [0] * (params.n + 1)
    for matrix, multiplicity in shared.items():
        h = np.frombuffer(matrix, np.uint8).reshape(params.num_checks, params.n)
        enum = enumerate_weights(field, h, enum_cap)
        for l, v in enumerate(enum.counts):
            totals[l] += multiplicity * v
    values = tuple(Fraction(t, n_configs) for t in totals)
    return SpectrumTable(params=params, values=values)
