"""The four workloads: their jobs, the inputs made from the seed, and the checks.

Each workload is a fixed list of jobs run in order, one pass after another.
A job calls the entry points a user calls: ``cli.run(argv)`` with
``--output`` in a scratch directory, or, for single-code enumeration, which
has no subcommand, ``gf.build_field`` + ``sim.sample_code`` +
``sim.enumerate_weights``.  Every pass runs the same inputs, so a pass is a
fixed amount of work and counts taken over a pass repeat exactly.

Why these workloads (the layer each one loads):

- ``exact``: exact rational spectra (n = 200 to 600).
  ``spectrum.check_coeffs`` does most of the work, ``Fraction`` assembly
  and ``cli`` serialization the rest; ``sim``, ``linalg`` and ``kernels``
  are never called.
- ``montecarlo``: thousands of tiny sampled codes, where per-trial overhead
  dominates: ``sample_code``, ``kernel_basis``, small ``count_weights``
  calls and worker threads (a ``workers=1``/``workers=2`` pair on one seed).
- ``enumerate``: a few large codes over GF(2), GF(3), GF(4) and GF(8), where
  ``kernels.count_weights`` is nearly all the time.
- ``asymptotic``: landmark and Gilbert-Varshamov solves (nested bisection
  over scalar ``growth.omega`` calls) next to curve jobs that make a few
  large ``solve_zhat_batch`` calls.

Only ``montecarlo`` and ``enumerate`` take inputs from the seed: the
``simulate`` master seeds and the seeds of the enumerated codes.  The exact
and asymptotic jobs have one correct output each, checked against the
stored references in ``references.json``.

Checks look at output content, never at the ``meta`` block or the
``backend`` field.  Exact outputs must match bit for bit; float outputs must
match the references within ``|a - b| <= FLOAT_TOL * max(1, |b|)``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field

# Tolerance of float outputs (landmarks, thresholds, curves) against the
# stored references.  The landmark solves run to the floating point floor,
# so an equivalent reformulation agrees far inside this.
FLOAT_TOL = 1e-9
# Bound on the landmark residuals |omega(x0)|, |domega(x3)|, |xi(zhat2)|.
RESIDUAL_TOL = 1e-10
# Curve outputs are compared on every CURVE_STRIDE-th row plus the last.
CURVE_STRIDE = 20

WORKLOADS = ("exact", "montecarlo", "enumerate", "asymptotic")


class CheckFailed(Exception):
    """A job's output disagrees with its reference or an oracle."""


@dataclass
class Job:
    """One unit of the closed loop.

    kind is "cli" (argv for ``cli.run``) or "enumerate" (q, c, d, n and the
    code seed).  name identifies the job in digests and references.
    """

    name: str
    kind: str
    argv: tuple = ()
    code: tuple = ()
    expect: dict = field(default_factory=dict)
    pair: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0] if self.kind == "cli" else "enumerate"

    def spec(self) -> dict:
        """JSON-serializable form, enough to rerun the job elsewhere."""
        return {"name": self.name, "kind": self.kind, "argv": list(self.argv),
                "code": list(self.code)}


def _cli(name: str, argv: str, **kw) -> Job:
    return Job(name=name, kind="cli", argv=tuple(argv.split()), **kw)


# ---------------------------------------------------------------------------
# Job lists
# ---------------------------------------------------------------------------

# Monte Carlo jobs: (label, q, c, d, n, trials).  Trial counts make each job
# a few hundred milliseconds, so one pass is about a second.
SIM_JOBS = (
    ("q2c3d6 n12", 2, 3, 6, 12, 300),
    ("q4c3d6 n12", 4, 3, 6, 12, 60),
    ("q2c3d6 n24", 2, 3, 6, 24, 25),
)

# Enumerated codes: (q, c, d, n).  Seeds are chosen so that the parity
# matrix has full rank, dim = n - c*n/d, which fixes the codeword count
# q**dim of every job whatever the workload seed.
ENUM_CODES = (
    (2, 3, 6, 24),
    (2, 3, 6, 28),
    (2, 3, 6, 32),
    (2, 3, 6, 36),
    (3, 3, 6, 16),
    (4, 2, 4, 16),
    (8, 2, 4, 8),
)


def exact_jobs() -> list[Job]:
    # Sizes stop at n = 600: n = 1200 alone would double the pass, leaving
    # the tail and median too few samples per run to be steady.  The job
    # count is odd so that the median falls inside one job's samples.
    return [
        _cli("spectrum q2c3d6 n300", "spectrum --q 2 --c 3 --d 6 --n 300"),
        _cli("spectrum q2c3d6 n450", "spectrum --q 2 --c 3 --d 6 --n 450"),
        _cli("spectrum q2c3d6 n600", "spectrum --q 2 --c 3 --d 6 --n 600"),
        _cli("spectrum q4c3d6 n600", "spectrum --q 4 --c 3 --d 6 --n 600"),
        _cli("spectrum q3c3d2 n200", "spectrum --q 3 --c 3 --d 2 --n 200",
             expect={"closed_form_d2": (3, 3, 2, 200)}),
        _cli("small-weight q2c3d6 l4",
             "small-weight --q 2 --c 3 --d 6 --l 4 "
             "--n-list 24,48,96,192,384,768,1536,3000"),
        _cli("bounds q2c3d6 n600", "bounds --q 2 --c 3 --d 6 --n 600 --l0 3 --alpha 0.01"),
    ]


def montecarlo_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"montecarlo/{seed}")
    jobs = []
    for label, q, c, d, n, trials in SIM_JOBS:
        master = rng.randrange(2**31)
        argv = (f"simulate --q {q} --c {c} --d {d} --n {n} --trials {trials} "
                f"--seed {master}")
        expect = {"trials": trials, "q": q, "n": n, "m": c * n // d}
        name = f"simulate {label} T{trials} seed={master}"
        if label == "q2c3d6 n12":
            jobs.append(_cli(name + " w1", argv + " --workers 1", expect=expect))
            jobs.append(_cli(name + " w2", argv + " --workers 2", expect=expect,
                             pair=name + " w1"))
        else:
            jobs.append(_cli(name, argv, expect=expect))
    jobs.append(_cli("exhaustive q4c2d4 n2", "exhaustive --q 4 --c 2 --d 4 --n 2",
                     expect={"spectrum_of": (4, 2, 4, 2)}))
    return jobs


def _rank(field_, matrix) -> int:
    """Rank over GF(q) by plain elimination with the field's scalar operations.

    Kept apart from ``linalg`` so the expected code dimension does not come
    from the code under test.
    """
    rows = [[int(v) for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        scale = field_.inv(rows[rank][col])
        rows[rank] = [field_.mul(scale, v) for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = field_.neg(rows[r][col])
                rows[r] = [field_.add(a, field_.mul(f, b)) for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def enumerate_jobs(seed: int, package) -> list[Job]:
    """Codes drawn from the seed, keeping the first full-rank draw of each."""
    jobs = []
    for q, c, d, n in ENUM_CODES:
        params = package.EnsembleParams(q=q, c=c, d=d, n=n)
        field_ = package.build_field(q)
        dim = n - params.num_checks
        for attempt in range(1000):
            code_seed = (seed, q, n, attempt)
            h = package.sample_code(params, code_seed, field_).parity_matrix
            if n - _rank(field_, h) == dim:
                break
        else:
            raise RuntimeError(f"no full-rank code for {(q, c, d, n)} in 1000 draws")
        jobs.append(Job(
            name=f"enumerate q{q}c{c}d{d} n{n} dim{dim} seed={list(code_seed)}",
            kind="enumerate",
            code=(q, c, d, n, code_seed),
            expect={"dim": dim, "q": q, "n": n},
        ))
    return jobs


def asymptotic_jobs() -> list[Job]:
    jobs = [
        _cli(f"landmarks q{q}c{c}d{d}", f"landmarks --q {q} --c {c} --d {d}")
        for q, c, d in ((2, 3, 6), (3, 3, 6), (2, 4, 8), (4, 3, 5))
    ]
    jobs.append(_cli("gv-limit q2 d6,12,24,48", "gv-limit --q 2 --d-list 6,12,24,48"))
    jobs.append(_cli("growth q3c3d6 1001", "growth --q 3 --c 3 --d 6 --steps 1001"))
    jobs += [_cli(f"figure {i}", f"figure --id {i}") for i in range(1, 6)]
    jobs.append(_cli("delta q3d6", "delta --q 3 --d 6"))
    jobs.append(_cli("bounds q2c3d6", "bounds --q 2 --c 3 --d 6"))
    return jobs


def build(workload: str, seed: int, package) -> list[Job]:
    """The job list of one workload; the same seed gives the same inputs."""
    if workload == "exact":
        return exact_jobs()
    if workload == "montecarlo":
        return montecarlo_jobs(seed)
    if workload == "enumerate":
        return enumerate_jobs(seed, package)
    if workload == "asymptotic":
        return asymptotic_jobs()
    raise ValueError(f"unknown workload {workload!r}")


def oracles(jobs: list[Job], package) -> dict:
    """Independent expected outputs, computed before any timing.

    The d = 2 closed form stands in for the spectrum recurrence, and the
    spectrum recurrence for the exhaustive ensemble average.
    """
    out = {}
    for job in jobs:
        if "closed_form_d2" in job.expect:
            q, c, d, n = job.expect["closed_form_d2"]
            table = package.avg_weight_d2(package.EnsembleParams(q=q, c=c, d=d, n=n))
            out[job.name] = _fraction_digest(table.values)
        if "spectrum_of" in job.expect:
            q, c, d, n = job.expect["spectrum_of"]
            table = package.avg_weight_distribution(package.EnsembleParams(q=q, c=c, d=d, n=n))
            out[job.name] = _fraction_digest(table.values)
    return out


# ---------------------------------------------------------------------------
# Running one job
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What a job produced: the output text or enumeration, and its timing."""

    latency_s: float
    text: str | None = None
    counts: tuple | None = None
    dimension: int | None = None
    enum_s: float = 0.0


def run_job(job: Job, package, out_path: str, span=None) -> Outcome:
    """Run one job through the public entry points and time it.

    Module attributes are looked up at call time, so a tracer installed on
    the package sees the calls; span, when given, runs the timed part as
    span(fn) so the tracer can open the job's root span around it.
    """
    span = span or (lambda fn: fn())
    if job.kind == "cli":
        argv = list(job.argv) + ["--output", out_path]
        t0 = time.perf_counter()
        rc = span(lambda: package.cli.run(argv))
        t1 = time.perf_counter()
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        with open(out_path, encoding="utf-8") as fh:
            return Outcome(latency_s=t1 - t0, text=fh.read())
    q, c, d, n, code_seed = job.code
    marks = []

    def enumerate_code():
        params = package.spectrum.EnsembleParams(q=q, c=c, d=d, n=n)
        field_ = package.gf.build_field(q)
        sample = package.sim.sample_code(params, tuple(code_seed), field_)
        marks.append(time.perf_counter())
        return package.sim.enumerate_weights(field_, sample.parity_matrix)

    t0 = time.perf_counter()
    enum = span(enumerate_code)
    t1 = time.perf_counter()
    return Outcome(latency_s=t1 - t0, counts=enum.counts,
                   dimension=enum.dimension, enum_s=t1 - marks[0])


# ---------------------------------------------------------------------------
# Output content and checks
# ---------------------------------------------------------------------------


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _fraction_digest(values) -> str:
    return _rows_digest((l, f"{v.numerator}/{v.denominator}") for l, v in enumerate(values))


def _rows_digest(rows) -> str:
    return _sha("\n".join(" ".join(str(x) for x in row) for row in rows))


def _csv_content(text: str) -> tuple[dict, str]:
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    sampled = body[::CURVE_STRIDE] + body[-1:]
    return {
        "header": header,
        "rows": len(body),
        "sampled": [[float(tok) for tok in row] for row in sampled],
    }, _rows_digest(rows)


def content(job: Job, outcome: Outcome) -> tuple[dict, str]:
    """The checked part of a job's output and a digest of all of it."""
    if job.kind == "enumerate":
        body = {"counts": list(outcome.counts), "dimension": outcome.dimension}
        return body, _sha(json.dumps(body))
    cmd = job.command
    if cmd in ("growth", "delta", "figure"):
        return _csv_content(outcome.text)
    data = json.loads(outcome.text)["data"]
    if cmd in ("spectrum", "exhaustive"):
        rows = [(e["l"], f"{e['numerator']}/{e['denominator']}") for e in data["spectrum"]]
        digest = _rows_digest(rows)
        return {"rows": len(rows), "digest": digest}, digest
    if cmd == "small-weight":
        rows = [(e["n"], e["numerator"], e["denominator"]) for e in data["points"]]
        body = {
            "points_digest": _rows_digest(rows),
            "exact_zero": data["exact_zero"],
            "predicted_exponent": data["predicted_exponent"],
            "slope": data["slope"],
        }
        return body, _sha(json.dumps(body, sort_keys=True))
    if cmd == "simulate":
        body = {k: data[k] for k in ("trials", "overall", "filtered", "filter_pass_rate")}
        return body, _sha(json.dumps(body, sort_keys=True))
    # landmarks, gv-limit, bounds: small JSON documents of floats
    return data, _sha(json.dumps(data, sort_keys=True))


def _close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= FLOAT_TOL * max(1.0, abs(b))
    return a == b


def compare(got, ref, path: str = "") -> None:
    """Raise CheckFailed at the first difference; floats within FLOAT_TOL."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            raise CheckFailed(f"{path}: keys differ")
        for key in ref:
            compare(got[key], ref[key], f"{path}.{key}")
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            raise CheckFailed(f"{path}: lengths differ")
        for i, (g, r) in enumerate(zip(got, ref)):
            compare(g, r, f"{path}[{i}]")
    elif isinstance(ref, float) and isinstance(got, int) and not isinstance(got, bool):
        compare(float(got), ref, path)
    elif not _close(got, ref):
        raise CheckFailed(f"{path}: {got!r} != reference {ref!r}")


def _check_simulate(job: Job, body: dict) -> None:
    e = job.expect
    trials, q, n, m = e["trials"], e["q"], e["n"], e["m"]
    overall, filtered = body["overall"], body["filtered"]
    sums = [int(v) for v in overall["counts_sum"]]
    if body["trials"] != trials or overall["trials"] != trials:
        raise CheckFailed("trial count differs from the request")
    if len(sums) != n + 1 or sums[0] != trials:
        raise CheckFailed("every sampled code must contain exactly one zero word")
    if min(sums) < 0 or sum(sums) < trials * q ** (n - m):
        raise CheckFailed("codeword total below trials * q**(n - m)")
    if filtered is None or not 0 <= filtered["trials"] <= trials:
        raise CheckFailed("filtered block missing or larger than the run")
    if body["filter_pass_rate"] != filtered["trials"] / trials:
        raise CheckFailed("filter pass rate disagrees with the filtered trial count")


def _check_enumeration(job: Job, body: dict) -> None:
    counts, dim = body["counts"], body["dimension"]
    q, n = job.expect["q"], job.expect["n"]
    if dim != job.expect["dim"]:
        raise CheckFailed(f"dimension {dim}, expected {job.expect['dim']}")
    if len(counts) != n + 1 or counts[0] != 1 or sum(counts) != q**dim:
        raise CheckFailed("weight counts must start at 1 and sum to q**dim")


def _check_residuals(body: dict) -> None:
    for key, value in body["residuals"].items():
        if not abs(value) <= RESIDUAL_TOL:
            raise CheckFailed(f"landmark residual {key} = {value}")


def check(job: Job, outcome: Outcome, refs: dict, oracle: dict, seen: dict) -> tuple[str, dict]:
    """Check one job's output; return its digest and the content checked.

    seen maps job names to the digest of their first run in this process:
    a later run of the same inputs must reproduce it, and the workers=2 job
    must reproduce its workers=1 partner.
    """
    body, digest = content(job, outcome)
    if needs_reference(job):
        if job.name not in refs:
            raise CheckFailed("no stored reference for this job")
        compare(body, refs[job.name], job.name)
    if job.name in oracle and body["digest"] != oracle[job.name]:
        raise CheckFailed("differs from the independent oracle")
    if job.command == "simulate":
        _check_simulate(job, body)
    elif job.command == "enumerate":
        _check_enumeration(job, body)
    elif job.command == "landmarks":
        _check_residuals(body)
    if job.pair is not None and seen.get(job.pair, digest) != digest:
        raise CheckFailed("workers=2 data differ from workers=1")
    if seen.setdefault(job.name, digest) != digest:
        raise CheckFailed("rerun of the same inputs gave a different output")
    return digest, body


def needs_reference(job: Job) -> bool:
    """Jobs whose inputs do not depend on the seed carry stored references."""
    return job.command not in ("simulate", "enumerate")
