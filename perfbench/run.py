"""Benchmark of ldpc-spectra: end-to-end metrics per workload, per-layer metrics from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads (see workloads.py for the jobs and why each was chosen): exact,
montecarlo, enumerate, asymptotic; ``all`` runs each in its own process.

One client runs the workload's jobs in a closed loop: the next job starts
when the previous one returns.  The loop runs whole passes over the job
list until ``--seconds`` have passed and at least ``MIN_PASSES`` passes are
done.  Every job's output is checked (outside the timed call) and a
mismatch counts as a failed job.

``--trace 0`` prints the end-to-end metrics:

- setup_s: fresh interpreter -> import ldpc_spectra -> first job of the
  workload done, the median of SETUP_PROBES separate processes, some run
  before the closed loop and the rest after it;
- jobs_per_s: jobs completed per second in a typical pass: jobs per pass
  over the sum of each job's median latency;
- job_p50_ms, job_tail_ms: median latency, and the latency at the highest
  percentile with at least ten samples beyond it (the percentile and the
  sample count are printed);
- success_frac: jobs that returned a correct output over jobs attempted
  (1 - failed_frac; reported this way round so that it is never zero);
- peak_rss_mb: peak resident set size of the process running the workload;
- work_per_s: the workload's own unit of work per second, again over the
  per-job median times -- exact E[A(l)] values per second of job time
  (exact), Monte Carlo trials per second of simulate time (montecarlo:
  trials_per_s), codewords q**dim per second of enumerate_weights time
  (enumerate: codewords_per_s), and numbers returned per second of job time
  (asymptotic).

Host speed.  The host this was tuned on (2 shared cores) switches between
a fast and a slow state many times a second, up to 2x apart, and the share
of slow time drifts over minutes; raw times of one workload varied by 40%
between runs.  So every reported time is scaled to a reference host
speed: a frozen calibration kernel (calibrate.py) runs before every job
and in every setup probe, and times are multiplied by
``calibrate.REFERENCE_S / median(calibration seconds)`` (rates divided).
This halves the run-to-run spread; the raw values are printed beside the
scaled ones.  Per-job medians (jobs_per_s, work_per_s) further keep the
figures from following how much of a run a slow spell covered.

It also prints workers2_speedup (montecarlo: trials/s at workers=2 over
workers=1 on the same parameters and seed) and failed_frac, the digest of
every job's output, and the environment.

``--trace 1`` alternates untraced and traced passes, ``--seconds`` of
each, and prints the per-layer metrics, ``<module>.<function>.<stat>``,
taken per pass over the job list so that they do not depend on run
length, with raw (unscaled) times.  busy_s is self time, wait_s is span
wall time minus the thread's CPU time in the span.  Counts marked
"computed" follow from the inputs and repeat exactly.  The tracing
overhead is traced against untraced jobs_per_s.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Any LDPC_SPECTRA_BACKEND or LDPC_SPECTRA_THREADS setting is
removed before the package is imported, and the removal is recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(HERE)
SRC = os.path.join(ROOT_DIR, "src")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

KNOBS = ("LDPC_SPECTRA_BACKEND", "LDPC_SPECTRA_THREADS")
SETUP_PROBES = 5
SETUP_PROBES_BEFORE = 3
# Calibration runs in each setup probe, after its first job.
PROBE_CALIBRATIONS = 5
PROBE_TIMEOUT_S = 60
# Whole passes per loop at least, whatever --seconds says.  The tail sample
# is the 11th slowest job; with the slowest job run once a pass, these
# counts keep it inside that job's samples, so that it does not jump
# between jobs from run to run.
MIN_PASSES = {"exact": 12, "montecarlo": 12, "enumerate": 12, "asymptotic": 12}
# A loop stops after this long even if MIN_PASSES are not done, so a run
# always ends inside its time limit.
LOOP_CAP_S = 60.0
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("success_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
)

WORK_UNIT = {
    "exact": "exact_values_per_s",
    "montecarlo": "trials_per_s",
    "enumerate": "codewords_per_s",
    "asymptotic": "values_per_s",
}

# (metric, unit, source).  source is (span, stat) for a traced function or
# a name computed in per_layer_metrics.  Units "count" marked computed in
# COMPUTED are derived from inputs.
PER_LAYER = (
    ("spectrum.check_coeffs.calls", "count", ("spectrum.check_coeffs", "calls")),
    ("spectrum.check_coeffs.busy_s", "s", ("spectrum.check_coeffs", "self_s")),
    ("spectrum.check_coeffs.coeff_ops", "count", ("spectrum.check_coeffs", "coeff_ops")),
    ("spectrum.avg_weight_distribution.busy_s", "s", ("spectrum.avg_weight_distribution", "self_s")),
    ("spectrum.avg_weight_at.busy_s", "s", ("spectrum.avg_weight_at", "self_s")),
    ("cli.run.busy_s", "s", ("cli.run", "self_s")),
    ("cli.emit.busy_s", "s", "cli.emit.busy_s"),
    ("cli.emit.bytes", "B", "cli.emit.bytes"),
    ("sim.sample_code.calls", "count", ("sim.sample_code", "calls")),
    ("sim.sample_code.busy_s", "s", ("sim.sample_code", "self_s")),
    ("sim.assemble_parity.busy_s", "s", ("sim.assemble_parity", "self_s")),
    ("sim.enumerate_weights.busy_s", "s", ("sim.enumerate_weights", "self_s")),
    ("sim.monte_carlo.busy_s", "s", ("sim.monte_carlo", "self_s")),
    ("sim.monte_carlo.wait_s", "s", ("sim.monte_carlo", "wait_s")),
    ("sim.monte_carlo.trials", "count", ("sim.monte_carlo", "trials")),
    ("sim.monte_carlo.workers2_speedup", "ratio", "workers2_speedup"),
    ("sim.filter_pass_ratio", "ratio", "filter_pass_ratio"),
    ("sim.exhaustive_ensemble.configs", "count", "exhaustive_configs"),
    ("linalg.kernel_basis.calls", "count", ("linalg.kernel_basis", "calls")),
    ("linalg.kernel_basis.busy_s", "s", ("linalg.kernel_basis", "self_s")),
    ("linalg.kernel_basis.wait_s", "s", ("linalg.kernel_basis", "wait_s")),
    ("linalg.kernel_basis.dim_sum", "count", ("linalg.kernel_basis", "dim_sum")),
    ("linalg.rref.busy_s", "s", ("linalg.rref", "self_s")),
    ("kernels.count_weights.calls", "count", ("kernels.count_weights", "calls")),
    ("kernels.count_weights.busy_s", "s", ("kernels.count_weights", "self_s")),
    ("kernels.count_weights.codewords", "count", ("kernels.count_weights", "codewords")),
    ("kernels.count_weights.ns_per_codeword", "ns", "ns_per_codeword"),
    ("kernels.solve_zhat_batch.calls", "count", ("kernels.solve_zhat_batch", "calls")),
    ("kernels.solve_zhat_batch.busy_s", "s", ("kernels.solve_zhat_batch", "self_s")),
    ("kernels.solve_zhat_batch.points", "count", ("kernels.solve_zhat_batch", "points")),
    ("kernels.solve_zhat_batch.points_per_call", "count", "points_per_call"),
    ("growth.omega.calls", "count", ("growth.omega", "calls")),
    ("growth.omega.busy_s", "s", ("growth.omega", "self_s")),
    ("growth.landmarks.busy_s", "s", ("growth.landmarks", "self_s")),
    ("growth.landmarks.omega_calls_per_solve", "count", "omega_calls_per_solve"),
    ("growth.gv_threshold.busy_s", "s", ("growth.gv_threshold", "self_s")),
    ("growth.omega_curve.busy_s", "s", ("growth.omega_curve", "self_s")),
    ("growth.omega_curve.points", "count", ("growth.omega_curve", "points")),
    ("growth.delta_curve.busy_s", "s", ("growth.delta_curve", "self_s")),
    ("growth.delta_curve.points", "count", ("growth.delta_curve", "points")),
    ("bounds.smallx_inequality_margin.busy_s", "s", ("bounds.smallx_inequality_margin", "self_s")),
    ("gf.build_field.busy_s", "s", "build_field_cold_s"),
    ("trace.jobs_per_s_untraced", "1/s", "jobs_per_s_untraced"),
    ("trace.jobs_per_s_traced", "1/s", "jobs_per_s_traced"),
    ("trace.overhead_frac", "ratio", "overhead_frac"),
    ("trace.job_wall_s", "s", "job_wall_s"),
    ("trace.remainder_s", "s", "remainder_s"),
    ("trace.worker_thread_busy_s", "s", "worker_thread_busy_s"),
    ("trace.hook_errors", "count", "hook_errors"),
    ("trace.calibration_s", "s", "calibration_s"),
)

COMPUTED = {"coeff_ops", "codewords", "points", "trials", "dim_sum",
            "exhaustive_configs", "points_per_call"}

# The function expected to hold the largest self-time share of job wall time.
EXPECTED_TOP = {"exact": "spectrum.check_coeffs", "enumerate": "kernels.count_weights"}


class BenchmarkError(Exception):
    """The benchmark cannot run here: no package source, or a setup probe failed."""


# ---------------------------------------------------------------------------
# Environment and import
# ---------------------------------------------------------------------------


def neutralize_knobs() -> dict:
    """Remove the package's environment knobs; return what they were."""
    return {name: os.environ.pop(name, None) for name in KNOBS}


def import_package():
    """Import ldpc_spectra from this checkout's src/, nowhere else."""
    init = os.path.join(SRC, "ldpc_spectra", "__init__.py")
    if not os.path.isfile(init):
        raise BenchmarkError(f"no package source at {os.path.relpath(init, ROOT_DIR)}")
    sys.path.insert(0, SRC)
    import ldpc_spectra
    import ldpc_spectra.cli  # noqa: F401  (not imported by the package itself)

    if os.path.dirname(os.path.abspath(ldpc_spectra.__file__)) != os.path.dirname(init):
        raise BenchmarkError("ldpc_spectra was imported from outside the checkout")
    return ldpc_spectra


def environment(knobs: dict) -> dict:
    import numpy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_importable": has_numba,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "knobs_before": knobs,
        "knobs_now": {name: os.environ.get(name) for name in KNOBS},
    }


# ---------------------------------------------------------------------------
# Setup probes
# ---------------------------------------------------------------------------


def probe_main(spec_json: str) -> int:
    """Child side of a setup probe: import, run one job, print the time."""
    spec = json.loads(spec_json)
    package = import_package()
    job = workloads.Job(name=spec["name"], kind=spec["kind"], argv=tuple(spec["argv"]),
                        code=tuple(spec["code"]))
    workloads.run_job(job, package, spec["out"])
    done = time.monotonic()
    cal = statistics.median(calibrate.calibrate() for _ in range(PROBE_CALIBRATIONS))
    print(f"{done!r} {cal!r}")
    return 0


def setup_times(job: workloads.Job, workdir: str, count: int) -> list[tuple[float, float]]:
    """Seconds from spawning a fresh interpreter to its first job being done.

    Each entry is (seconds, calibration seconds measured in that process).
    """
    spec = dict(job.spec(), out=os.path.join(workdir, "probe.out"))
    argv = [sys.executable, os.path.abspath(__file__), "--probe", json.dumps(spec)]
    times = []
    for _ in range(count):
        t0 = time.monotonic()
        try:
            done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT_DIR,
                                  timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"setup probe ran over {PROBE_TIMEOUT_S} s") from None
        if done.returncode != 0:
            raise BenchmarkError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        end, cal = (float(v) for v in done.stdout.strip().splitlines()[-1].split())
        times.append((end - t0, cal))
    return times


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


class LoopResult:
    """Latencies, failures and work counts of one closed-loop run."""

    def __init__(self, jobs) -> None:
        self.jobs = jobs
        self.latencies: list[float] = []
        self.by_job: dict[str, list[float]] = defaultdict(list)
        self.calib: list[float] = []
        self.work_units: dict[str, int] = {}
        self.work_secs: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.passes = 0
        self.filtered_trials = 0
        self.trials = 0
        self.out_bytes = 0


def _work(workload: str, job, outcome, body) -> tuple[int, float]:
    """Units of work a job did, and the seconds they are divided by."""
    if workload == "exact":
        if job.command == "spectrum":
            return body["rows"], outcome.latency_s
        if job.command == "small-weight":
            return len(job.argv[job.argv.index("--n-list") + 1].split(",")), outcome.latency_s
        return 0, outcome.latency_s
    if workload == "montecarlo":
        if job.command == "simulate":
            return body["trials"], outcome.latency_s
        return 0, 0.0
    if workload == "enumerate":
        return sum(body["counts"]), outcome.enum_s
    return _count_numbers(body), outcome.latency_s


def _count_numbers(body) -> int:
    if isinstance(body, dict):
        if "sampled" in body:      # a CSV curve: every value but the x column
            return body["rows"] * (len(body["header"]) - 1)
        return sum(_count_numbers(v) for v in body.values())
    if isinstance(body, list):
        return sum(_count_numbers(v) for v in body)
    return 1 if isinstance(body, (int, float)) and not isinstance(body, bool) else 0


def run_pass(res: LoopResult, workload, package, out_path, refs, oracle, seen,
             tracer=None) -> None:
    """One pass over the jobs; every output is checked outside the timed call."""
    span = None
    if tracer is not None:
        span = lambda fn: tracer.call(spans.ROOT, fn)  # noqa: E731
    for job in res.jobs:
        res.calib.append(calibrate.calibrate())
        res.attempted += 1
        try:
            outcome = workloads.run_job(job, package, out_path, span)
            _, body = workloads.check(job, outcome, refs, oracle, seen)
        except Exception as exc:  # a failed job is counted, the loop goes on
            res.failed += 1
            if len(res.errors) < 5:
                res.errors.append(f"{job.name}: {type(exc).__name__}: {exc}")
            continue
        res.latencies.append(outcome.latency_s)
        res.by_job[job.name].append(outcome.latency_s)
        units, secs = _work(workload, job, outcome, body)
        res.work_units[job.name] = units
        res.work_secs[job.name].append(secs)
        if job.command == "simulate":
            res.trials += body["trials"]
            res.filtered_trials += body["filtered"]["trials"]
        if outcome.text is not None:
            res.out_bytes += len(outcome.text.encode())
    res.passes += 1


def closed_loop(workload, jobs, seconds, *pass_args, passes=None) -> LoopResult:
    """Whole passes until seconds have gone and MIN_PASSES are done (or passes)."""
    res = LoopResult(jobs)
    min_passes = MIN_PASSES[workload] if passes is None else passes
    start = time.perf_counter()
    while res.passes < min_passes or (passes is None and time.perf_counter() - start < seconds):
        if time.perf_counter() - start >= LOOP_CAP_S:
            break
        run_pass(res, workload, *pass_args)
    return res


def alternating_loops(workload, jobs, seconds, package, *pass_args, tracer):
    """Untraced and traced passes in turn, so both see the same host conditions.

    Each loop gets seconds of its own; the tracer is installed only around
    the traced passes.
    """
    plain, traced = LoopResult(jobs), LoopResult(jobs)
    start = time.perf_counter()
    while (traced.passes < MIN_PASSES[workload]
           or time.perf_counter() - start < 2 * seconds):
        if time.perf_counter() - start >= 2 * LOOP_CAP_S:
            break
        run_pass(plain, workload, package, *pass_args)
        tracer.install(package)
        try:
            run_pass(traced, workload, package, *pass_args, tracer=tracer)
        finally:
            tracer.uninstall()
    return plain, traced


def _median_sum(samples: dict[str, list[float]]) -> float:
    return sum(statistics.median(v) for v in samples.values() if v)


def jobs_per_s(res: LoopResult) -> float:
    """Jobs per pass over the sum of per-job median latencies."""
    return sum(1 for v in res.by_job.values() if v) / _median_sum(res.by_job)


def work_per_s(res: LoopResult) -> float:
    """Work units per pass over the sum of per-job median work seconds."""
    return sum(res.work_units.values()) / _median_sum(res.work_secs)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def workers2_speedup(res: LoopResult) -> float | None:
    """Median over passes of workers=1 time over workers=2 time, same trials."""
    pairs = [job for job in res.jobs if job.pair is not None]
    if not pairs:
        return None
    w2 = pairs[0]
    ratios = [a / b for a, b in zip(res.by_job[w2.pair], res.by_job[w2.name])]
    return statistics.median(ratios) if ratios else None


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def end_to_end(workload, res: LoopResult, setup: list[tuple[float, float]]) -> dict:
    """The end-to-end metrics, times scaled to the reference host speed.

    Every time is multiplied by calibrate.REFERENCE_S over the median
    calibration time measured alongside it (rates divided by it); the raw
    values are printed next to the scaled ones.
    """
    p_tail = tail(res.latencies)
    scale = calibrate.REFERENCE_S / statistics.median(res.calib)
    raw = {
        "setup_s": statistics.median(t for t, _ in setup),
        "jobs_per_s": jobs_per_s(res),
        "job_p50_ms": 1000.0 * statistics.median(res.latencies),
        "job_tail_ms": 1000.0 * p_tail[0],
        "success_frac": (res.attempted - res.failed) / res.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work_per_s": work_per_s(res),
    }
    values = dict(
        raw,
        setup_s=statistics.median(t * calibrate.REFERENCE_S / cal for t, cal in setup),
        jobs_per_s=raw["jobs_per_s"] / scale,
        job_p50_ms=raw["job_p50_ms"] * scale,
        job_tail_ms=raw["job_tail_ms"] * scale,
        work_per_s=raw["work_per_s"] / scale,
    )
    print(f"workload {workload}: {res.passes} passes, {len(res.jobs)} jobs per pass, "
          f"{res.attempted} attempted, {res.failed} failed")
    print(f"host speed: calibration median {statistics.median(res.calib) * 1e3:.4f} ms, "
          f"reference {calibrate.REFERENCE_S * 1e3:.4f} ms, time scale {scale:.4f}")
    for name, unit in END_TO_END:
        print(f"metric {workload} {name} = {values[name]!r} {unit} (raw {raw[name]!r})")
    print(f"metric {workload} failed_frac = {res.failed / res.attempted!r} ratio")
    print(f"metric {workload} {WORK_UNIT[workload]} = {values['work_per_s']!r} 1/s "
          f"(= work_per_s)")
    print(f"  job_tail_ms is p{p_tail[1]:.2f} over {p_tail[2]} samples "
          f"({TAIL_BEYOND} beyond it)")
    print("  setup_s probes (raw s, calibration ms): "
          + ", ".join(f"{t:.4f} {1e3 * cal:.4f}" for t, cal in setup))
    for job in res.jobs:
        times = res.by_job[job.name]
        if times:
            print(f"  job median {1000 * statistics.median(times):10.3f} ms "
                  f"over {len(times):3d} runs: {job.name}")
    speedup = workers2_speedup(res)
    if speedup is not None:
        print(f"metric {workload} workers2_speedup = {speedup!r} ratio")
    return values


def _stat(tracer: spans.Tracer, span: str, stat: str) -> float:
    total = 0.0
    for table in (tracer.stats, tracer.worker_stats):
        entry = table.get(span)
        if entry is None:
            continue
        total += getattr(entry, stat) if stat in ("calls", "self_s", "wait_s") else entry.counts.get(stat, 0)
    return total


def per_layer_metrics(workload, tracer, cold, res_traced, res_plain) -> dict:
    passes = res_traced.passes
    per_pass = lambda v: v / passes  # noqa: E731
    derived = {
        "cli.emit.busy_s": per_pass(_stat(tracer, "cli.emit_json", "self_s")
                                    + _stat(tracer, "cli.emit_csv", "self_s")),
        "cli.emit.bytes": per_pass(res_traced.out_bytes),
        "workers2_speedup": workers2_speedup(res_plain) or 0.0,
        "filter_pass_ratio": (res_traced.filtered_trials / res_traced.trials
                              if res_traced.trials else 0.0),
        "exhaustive_configs": (_stat(tracer, "sim.exhaustive_ensemble", "configs")
                               / max(1.0, _stat(tracer, "sim.exhaustive_ensemble", "calls"))),
        "ns_per_codeword": (1e9 * _stat(tracer, "kernels.count_weights", "self_s")
                            / max(1.0, _stat(tracer, "kernels.count_weights", "codewords"))),
        "points_per_call": (_stat(tracer, "kernels.solve_zhat_batch", "points")
                            / max(1.0, _stat(tracer, "kernels.solve_zhat_batch", "calls"))),
        "omega_calls_per_solve": (_stat(tracer, "growth.omega", "in_landmarks")
                                  / max(1.0, _stat(tracer, "growth.landmarks", "calls"))),
        "build_field_cold_s": _stat(cold, "gf.build_field", "self_s"),
        "jobs_per_s_untraced": jobs_per_s(res_plain),
        "jobs_per_s_traced": jobs_per_s(res_traced),
        "job_wall_s": per_pass(sum(res_traced.latencies)),
        "remainder_s": per_pass(_stat(tracer, spans.ROOT, "self_s")),
        "worker_thread_busy_s": per_pass(sum(e.self_s for e in tracer.worker_stats.values())),
        "hook_errors": float(tracer.hook_errors),
        "calibration_s": statistics.median(res_traced.calib),
    }
    derived["overhead_frac"] = 1.0 - derived["jobs_per_s_traced"] / derived["jobs_per_s_untraced"]
    values = {}
    for name, _unit, source in PER_LAYER:
        if isinstance(source, tuple):
            span, stat = source
            values[name] = per_pass(_stat(tracer, span, stat))
        else:
            values[name] = derived[source]
    return values


def print_trace_report(workload, tracer, values, res_traced) -> None:
    wall = sum(res_traced.latencies)
    passes = res_traced.passes
    print(f"trace {workload}: {passes} traced passes, job wall {wall / passes:.4f} s per pass")
    print(f"trace {workload}: tracing overhead {values['trace.overhead_frac']:.2%} "
          f"(jobs_per_s traced {values['trace.jobs_per_s_traced']:.4f}, "
          f"untraced {values['trace.jobs_per_s_untraced']:.4f})")
    print(f"{'span (job thread)':44} {'calls/pass':>11} {'busy s/pass':>12} "
          f"{'wait s/pass':>12} {'share':>7}")
    rows = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s)
    for name, e in rows:
        label = "bench.job (remainder)" if name == spans.ROOT else name
        print(f"{label:44} {e.calls / passes:11.1f} {e.self_s / passes:12.6f} "
              f"{e.wait_s / passes:12.6f} {e.self_s / wall:7.2%}")
    accounted = sum(e.self_s for e in tracer.stats.values())
    print(f"self times sum to {accounted / wall:.4%} of job wall time; "
          f"remainder outside any traced function {values['trace.remainder_s'] / (wall / passes):.4%}")
    for name, e in sorted(tracer.worker_stats.items(), key=lambda kv: -kv[1].self_s):
        print(f"worker thread {name:30} {e.calls / passes:11.1f} {e.self_s / passes:12.6f} "
              f"{e.wait_s / passes:12.6f}")
    layers = defaultdict(float)
    for name, e in tracer.stats.items():
        layers[name.split(".")[0]] += e.self_s
    print("self time by layer (job thread): " + ", ".join(
        f"{k} {v / wall:.2%}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    top = max((kv for kv in tracer.stats.items() if kv[0] != spans.ROOT),
              key=lambda kv: kv[1].self_s, default=(None, None))[0]
    expected = EXPECTED_TOP.get(workload)
    if expected is not None:
        verdict = "as expected" if top == expected else f"DISCREPANCY: expected {expected}"
        print(f"largest self-time share: {top} ({verdict})")
    if tracer.missing:
        print("traced functions not found (reported as zero calls): " + ", ".join(tracer.missing))
    for name, unit, source in PER_LAYER:
        stat = source[1] if isinstance(source, tuple) else source
        tag = " (computed)" if stat in COMPUTED else ""
        print(f"layer {workload} {name} = {values[name]!r} {unit}{tag}")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def load_references() -> dict:
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(args, knobs) -> dict:
    package = import_package()
    env = environment(knobs)
    print("environment " + json.dumps(env, sort_keys=True))
    if not env["numba_importable"]:
        print("numba is not importable: the README's numba 17-46x speedup cannot be "
              "measured here; every kernel runs on the numpy path")
    refs = load_references()
    jobs = workloads.build(args.workload, args.seed, package)
    oracle = workloads.oracles(jobs, package)
    scratch_root = os.path.join(ROOT_DIR, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as workdir:
        out_path = os.path.join(workdir, "job.out")
        setup = [] if args.trace else setup_times(jobs[0], workdir, SETUP_PROBES_BEFORE)

        # Warm-up pass: fills caches, sets the digests later passes must repeat.
        cold = spans.Tracer()
        clear = getattr(package.gf.build_field, "cache_clear", None)
        if args.trace and clear is not None:
            clear()
            cold.install(package)
        seen: dict = {}
        pass_args = (package, out_path, refs["outputs"], oracle, seen)
        try:
            warm = closed_loop(args.workload, jobs, 0, *pass_args, passes=1)
        finally:
            cold.uninstall()
        for job in jobs:
            print(f"digest {args.workload} {seen.get(job.name, 'FAILED')} {job.name}")

        if not args.trace:
            plain = closed_loop(args.workload, jobs, args.seconds, *pass_args)
            if not plain.latencies:
                raise BenchmarkError("no job succeeded: " + "; ".join(plain.errors))
            setup += setup_times(jobs[0], workdir, SETUP_PROBES - SETUP_PROBES_BEFORE)
            metrics = end_to_end(args.workload, plain, setup)
            units = dict(END_TO_END)
            results = [warm, plain]
        else:
            tracer = spans.Tracer()
            plain, traced = alternating_loops(args.workload, jobs, args.seconds,
                                              *pass_args, tracer=tracer)
            if not (plain.latencies and traced.latencies):
                raise BenchmarkError("no job succeeded: " + "; ".join(plain.errors))
            metrics = per_layer_metrics(args.workload, tracer, cold, traced, plain)
            print_trace_report(args.workload, tracer, metrics, traced)
            units = {name: unit for name, unit, _ in PER_LAYER}
            results = [warm, plain, traced]
    if not os.listdir(scratch_root):
        os.rmdir(scratch_root)
    for res in results:
        for err in res.errors:
            print(f"FAILED {err}")
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def run_all(args) -> dict:
    """Each workload in its own process; metrics keyed workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT_DIR)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            raise BenchmarkError(f"workload {workload} failed: {done.stderr.strip()[-500:]}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe is None and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    knobs = neutralize_knobs()
    try:
        if args.probe is not None:
            return probe_main(args.probe)
        result = run_all(args) if args.workload == "all" else run_workload(args, knobs)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
