"""Span tracing of the package's public functions, installed from outside.

The tracer replaces each traced function with a timing wrapper at every
name a caller can look it up by: the defining module, every other package
module that imported it by name (``sim.kernel_basis`` is the same object
as ``linalg.kernel_basis``), and the package namespace.  Nothing inside
the package changes; ``uninstall`` puts the original objects back.

Spans live on a thread-local stack, so the worker threads of a Monte Carlo
run keep separate stacks.  A span records:

- its self time: its duration minus the durations of its child spans;
- its wait time: its duration minus the CPU time its thread used during
  it, which is where waiting for the interpreter lock, for worker threads
  or for the scheduler shows.

A traced function that a later version no longer has, or no longer calls,
reports zero calls.  Count hooks derive work counts from a call's
arguments or result; a hook that no longer fits a changed signature is
counted in ``hook_errors`` instead of stopping the run.
"""

from __future__ import annotations

import functools
import inspect
import math
import threading
import time
from collections import defaultdict

ROOT = "bench.job"


def _nonzero_check_terms(q: int, d: int) -> int:
    # Terms C(d, i) * ((q-1)**i + (-1)**i (q-1)) / q of one degree-d check
    # polynomial that are nonzero: the work per coefficient of the
    # convolution recurrence in spectrum.check_coeffs.
    return sum(
        1
        for i in range(d + 1)
        if math.comb(d, i) * ((q - 1) ** i + (-1) ** i * (q - 1)) != 0
    )


def _count_coeff_ops(a, result):
    return {"coeff_ops": a["N"] * (a["M"] + 1) * _nonzero_check_terms(a["q"], a["d"])}


def _count_codewords(a, result):
    return {"codewords": a["q"] ** a["basis"].shape[0]}


def _count_zhat_points(a, result):
    return {"points": int(a["z"].size) if hasattr(a["z"], "size") else len(a["z"])}


def _count_xs_points(a, result):
    return {"points": len(a["xs"])}


def _count_kernel_dim(a, result):
    return {"dim_sum": int(result.shape[0])}


def _count_trials(a, result):
    return {"trials": int(a["trials"])}


def _count_configs(a, result):
    p = a["params"]
    cn = p.c * p.n
    return {"configs": math.factorial(cn) * (p.q - 1) ** cn}


# (module, function, count hook or None).  The traced set: every public
# function of the package's layers that does real work, except per-element
# helpers (cli.jsonable, cli.float_token, growth.xi, growth.entropy_q, ...)
# whose call counts would make the tracing cost larger than their work.
TARGETS = (
    ("cli", "run", None),
    ("cli", "emit_json", None),
    ("cli", "emit_csv", None),
    ("cli", "figure_data", None),
    ("spectrum", "avg_weight_distribution", None),
    ("spectrum", "avg_weight_at", None),
    ("spectrum", "avg_weight_d2", None),
    ("spectrum", "small_weight_scaling", None),
    ("spectrum", "check_coeffs", _count_coeff_ops),
    ("spectrum", "single_check_coeffs", None),
    ("sim", "monte_carlo", _count_trials),
    ("sim", "exhaustive_ensemble", _count_configs),
    ("sim", "sample_code", None),
    ("sim", "assemble_parity", None),
    ("sim", "enumerate_weights", None),
    ("sim", "has_zero_column", None),
    ("linalg", "kernel_basis", _count_kernel_dim),
    ("linalg", "rref", None),
    ("kernels", "count_weights", _count_codewords),
    ("kernels", "solve_zhat_batch", _count_zhat_points),
    ("growth", "landmarks", None),
    ("growth", "gv_threshold", None),
    ("growth", "omega", None),
    ("growth", "domega", None),
    ("growth", "delta", None),
    ("growth", "solve_zhat1", None),
    ("growth", "omega_curve", _count_xs_points),
    ("growth", "delta_curve", _count_xs_points),
    ("bounds", "smallx_inequality_margin", None),
    ("bounds", "growth_rate_values", None),
    ("bounds", "min_distance_bound", None),
    ("bounds", "zero_column_filtered_bound", None),
    ("gf", "build_field", None),
)

LAYERS = ("cli", "spectrum", "sim", "linalg", "kernels", "growth", "bounds", "gf")


class SpanStats:
    """Totals of one traced name: calls, self seconds, wait seconds, counts."""

    __slots__ = ("calls", "self_s", "wait_s", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.wait_s = 0.0
        self.counts = defaultdict(int)


class Tracer:
    """Thread-local span stacks feeding per-name totals, split by thread kind.

    ``stats`` holds the spans of the thread that created the tracer (the
    benchmark's job thread); ``worker_stats`` holds spans of any other
    thread, whose self times run in parallel with the job thread and so do
    not add up to job wall time.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.worker_stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.hook_errors = 0
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def in_span(self, name: str) -> bool:
        """Whether a span of this name is open on the calling thread."""
        return any(frame[0] == name for frame in self._stack())

    def _record(self, name, self_s, wait_s, counts) -> None:
        table = self.stats if threading.get_ident() == self._main else self.worker_stats
        with self._lock:
            entry = table[name]
            entry.calls += 1
            entry.self_s += self_s
            entry.wait_s += wait_s
            for key, value in counts.items():
                entry.counts[key] += value

    def call(self, name, fn, args=(), kwargs=None, hook=None, signature=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        kwargs = kwargs or {}
        stack = self._stack()
        frame = [name, 0.0]
        stack.append(frame)
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            self_s = dur - frame[1]
            wait_s = dur - (c1 - c0)
        counts = {}
        if hook is not None:
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = hook(bound.arguments, result)
            except (TypeError, KeyError, AttributeError, ValueError, IndexError):
                with self._lock:
                    self.hook_errors += 1
        if name == "growth.omega" and self.in_span("growth.landmarks"):
            counts = dict(counts, in_landmarks=1)
        self._record(name, self_s, wait_s, counts)
        return result

    def install(self, package) -> None:
        """Wrap every target at each name that refers to it."""
        self.missing = []
        modules = {layer: getattr(package, layer, None) for layer in LAYERS}
        namespaces = [package] + [m for m in modules.values() if m is not None]
        for module_name, func_name, hook in TARGETS:
            module = modules.get(module_name)
            original = getattr(module, func_name, None) if module is not None else None
            span = f"{module_name}.{func_name}"
            if original is None or not callable(original):
                self.missing.append(span)
                continue
            wrapper = self._wrap(span, original, hook)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._installed.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def _wrap(self, span, original, hook):
        signature = None
        if hook is not None:
            try:
                signature = inspect.signature(original)
            except (TypeError, ValueError):
                hook = None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(span, original, args, kwargs, hook, signature)

        return wrapper

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._installed):
            setattr(ns, attr, original)
        self._installed.clear()
