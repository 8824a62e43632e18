"""Command line interface.

Every subcommand writes one document (CSV or JSON) to stdout or --output;
the document is rendered in full first, so a failed run writes nothing.
Exit codes: 0 success, 2 parameter/domain errors, 3 capacity errors (a cap,
or a request too large to allocate); error details go to stderr as a single
JSON object {"code": ..., "message": ...}.

Floating point values serialize with repr (shortest round-trip); infinities
use the literal strings "inf"/"-inf" in both formats.  Exact rationals are
carried as numerator/denominator digit strings plus a convenience double.

Documents are rendered by this module directly; their bytes equal those
of json.dumps(doc, sort_keys=True, indent=2) and of
csv.writer(out, lineterminator="\\n").
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

from . import __version__, bounds, growth, sim, spectrum
from .errors import CapacityError, ParameterError
from .gf import check_order


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParameterError(message)


# ---------------------------------------------------------------------------
# Serialization helpers
#
# JSON is written by a recursive writer that appends text parts (keys
# sorted, two-space indent, strings through json's C string escaper but
# for digit strings, which hold nothing to escape), each table's records
# through one template of its sorted keys.  CSV rows are all filled in by
# one % call on a line template repeated once per row.  json.dumps with
# indent runs json's pure-Python encoder, about twice as slow; it and
# csv.writer stay in the tests as oracles of the bytes.
# ---------------------------------------------------------------------------


# Digits per chunk of digit_string: below 640, the smallest nonzero limit
# sys.set_int_max_str_digits accepts, so str() of a chunk never refuses.
_DIGIT_CHUNK = 600
_CHUNK_BASE = 10**_DIGIT_CHUNK


class _Digits(str):
    """A string of decimal digits, which JSON quotes as it is."""

    __slots__ = ()


def digit_string(value: int) -> str:
    """Decimal digits of a nonnegative integer of any length.

    str() refuses integers longer than the interpreter's digit limit
    (sys.get_int_max_str_digits, 4300 digits by default), which exact
    spectra pass at moderate n.  Past the limit this peels off fixed-width
    chunks with divmod instead, which leaves the limit alone.  The result
    is marked as digits, so the JSON writer skips the escaper for it.
    """
    # Python 3.10 before 3.10.7 has neither the limit nor its getter
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # floor(bits * log10(2)) + 1 digits at most, and 0.30103 > log10(2)
    if not limit or value.bit_length() * 30103 // 100000 < limit:
        return _Digits(value)
    chunks = []
    while value >= _CHUNK_BASE:
        value, low = divmod(value, _CHUNK_BASE)
        chunks.append(f"{low:0{_DIGIT_CHUNK}d}")
    chunks.append(str(value))
    return _Digits("".join(reversed(chunks)))


def ratio_to_float(num: int, den: int) -> float:
    """Correctly rounded double of num/den for den > 0, as float(Fraction)
    gives it, and inf on overflow."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


class _Table:
    """A table of a JSON data block: rows of cells keyed by header, which
    the writer renders as a list of records without a dict per row."""

    __slots__ = ("header", "rows")

    def __init__(self, header, rows):
        self.header = header
        self.rows = rows


def _json_scalar(value) -> str:
    """The JSON text of a string, number, None or bool, as json.dumps
    writes it, but non-finite floats become the strings "inf", "-inf" and
    "nan" that CSV shows too, and numpy scalars their Python values."""
    if isinstance(value, str):
        return '"' + value + '"' if type(value) is _Digits else _json_string(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return text if math.isfinite(value) else f'"{text}"'
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, np.generic):
        return _json_scalar(value.item())
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_parts(value, parts: list, newline: str) -> None:
    """Append the JSON text of value to parts, as json.dumps(value,
    sort_keys=True, indent=2) writes it; newline is the line break plus the
    indent of the line value starts on.  A _Table is written as its list
    of records.
    """
    if isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        opening = "{" + inner
        for key in sorted(value):
            parts.append(f"{opening}{_json_string(key)}: ")
            _json_parts(value[key], parts, inner)
            opening = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        opening = "[" + inner
        for item in value:
            parts.append(opening)
            _json_parts(item, parts, inner)
            opening = "," + inner
        parts.append(newline + "]")
    elif type(value) is _Table:
        _table_parts(value, parts, newline)
    else:
        parts.append(_json_scalar(value))


def _table_parts(table: _Table, parts: list, newline: str) -> None:
    """Append a table's records to parts, each written through one
    %-template that holds the table's keys, sorted and escaped once."""
    if not table.rows:
        parts.append("[]")
        return
    inner = newline + "  "
    order = sorted(range(len(table.header)), key=table.header.__getitem__)
    fields = ",".join(
        f"{inner}  {_json_string(table.header[i]).replace('%', '%%')}: %s" for i in order
    )
    template = "{" + fields + inner + "}"
    opening = "[" + inner
    for row in table.rows:
        parts.append(opening)
        parts.append(template % tuple([_json_scalar(row[i]) for i in order]))
        opening = "," + inner
    parts.append(newline + "]")


def emit_json(args, data) -> str:
    """The JSON document of a subcommand: its meta block and data."""
    doc = {
        "meta": {
            "command": args.command,
            "parameters": _meta_parameters(args),
            "seed": getattr(args, "seed", None),
            "version": __version__,
        },
        "data": data,
    }
    parts = []
    _json_parts(doc, parts, "\n")
    parts.append("\n")
    return "".join(parts)


def _meta_parameters(args) -> dict:
    skip = {"command", "func", "output", "format"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def emit_csv(header, rows) -> str:
    """The CSV document of a header and a sequence of rows of ints,
    strings and Python floats, each row as wide as the header.

    Cells are written as str(x) with no quoting: no cell holds a comma, a
    quote or a line break.  A float shows its repr, the bare literal inf,
    -inf or nan for a non-finite value.  Every row goes through one
    "%s,...,%s" line, repeated once per row and filled in one % call.
    """
    line = ",".join(["%s"] * len(header)) + "\n"
    return ",".join(header) + "\n" + (line * len(rows)) % tuple(chain.from_iterable(rows))


def _write_output(path: str | None, text: str) -> None:
    """Write a finished document to stdout or, atomically, to path.

    The document goes to a sibling temporary file that replaces path only
    once it is fully written, so path never holds a partial document.
    """
    if path is None:
        sys.stdout.write(text)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise ParameterError(f"cannot write --output {path!r}: {exc.strerror or exc}")


# ---------------------------------------------------------------------------
# Subcommand implementations
#
# Each returns (header, rows, data): rows of typed cells (int, string,
# Python float) for CSV, and the JSON data block, whose tables are those
# same rows keyed by the header (a _Table).  run renders one of the two,
# and the curve commands, CSV by default, build their data block only for
# JSON.
# ---------------------------------------------------------------------------


def _fields(obj, *skip) -> dict:
    """The fields of a result dataclass but those in skip, a shallow dict."""
    return {k: v for k, v in vars(obj).items() if k not in skip}


def _columns(*columns) -> list[tuple]:
    """Rows of Python numbers from equally long arrays or sequences."""
    return list(zip(*(np.asarray(col).tolist() for col in columns)))


def _fraction_table(key: str, keys, values) -> tuple[list[str], list[list]]:
    """Rows of key, numerator and denominator digits and the double of a
    sequence of Fractions.  The cells are built once per Fraction object,
    so rows that share one (the mirrored half of a spectrum) share them."""
    header = [key, "numerator", "denominator", "approx"]
    cells = {}
    rows = []
    for k, v in zip(keys, values):
        # values holds every v for the call, so no id is reused meanwhile
        row = cells.get(id(v))
        if row is None:
            num, den = v.numerator, v.denominator
            row = cells[id(v)] = (digit_string(num), digit_string(den), ratio_to_float(num, den))
        rows.append([k, *row])
    return header, rows


def _params(args) -> spectrum.EnsembleParams:
    return spectrum.EnsembleParams(q=args.q, c=args.c, d=args.d, n=args.n)


def _spectrum_table(table: spectrum.SpectrumTable):
    header, rows = _fraction_table("l", range(len(table.values)), table.values)
    return header, rows, {"spectrum": _Table(header, rows)}


def _cmd_spectrum(args):
    return _spectrum_table(spectrum.avg_weight_distribution(_params(args), n_cap=args.n_cap))


def _cmd_exhaustive(args):
    return _spectrum_table(sim.exhaustive_ensemble(_params(args), config_cap=args.config_cap))


def _grid(args) -> np.ndarray:
    if args.steps < 2:
        raise ParameterError(f"steps must be at least 2, got {args.steps}")
    if not 0.0 <= args.xmin < args.xmax <= 1.0:
        raise ParameterError(
            f"need 0 <= xmin < xmax <= 1, got [{args.xmin}, {args.xmax}]"
        )
    return np.linspace(args.xmin, args.xmax, args.steps)


def _curve(args, header, xs, columns):
    rows = _columns(xs, *columns)
    data = {"curve": _Table(header, rows)} if args.format == "json" else None
    return header, rows, data


def _cmd_growth(args):
    xs = _grid(args)
    return _curve(args, ["x", "omega", "domega"], xs, growth.omega(args.q, args.c, args.d, xs))


def _cmd_delta(args):
    xs = _grid(args)
    return _curve(args, ["x", "delta", "zhat1", "xhat1"], xs, growth.delta(args.q, args.d, xs))


def _cmd_landmarks(args):
    marks = growth.landmarks(args.q, args.c, args.d)
    residuals = {}
    # x0 and x3 exist together (c >= 3), and share one gap solve
    if marks.x3 is not None:
        om, dom = growth.omega(args.q, args.c, args.d, [marks.x0, marks.x3])
        residuals["omega_at_x0"] = abs(float(om[0]))
        residuals["domega_at_x3"] = abs(float(dom[1]))
    if marks.zhat2 is not None:
        residuals["xi_at_zhat2"] = abs(growth.xi(args.q, args.c, args.d, marks.s2))
    return None, None, _fields(marks, "q", "c", "d", "s2") | {"residuals": residuals}


def _cmd_simulate(args):
    report = sim.monte_carlo(
        _params(args),
        trials=args.trials,
        seed=args.seed,
        l0=args.l0,
        alpha=args.alpha,
        filter_on=not args.no_filter,
        workers=args.workers,
        enum_cap=args.enum_cap,
    )
    overall = report.overall
    rows = _columns(range(len(overall.mean)), overall.mean, overall.stderr)
    return ["l", "mean", "stderr"], rows, _report_data(report)


def _stats_data(stats: sim.SpectrumStats | None):
    if stats is None:
        return None
    return _fields(stats) | {"counts_sum": [str(v) for v in stats.counts_sum]}


def _report_data(report: sim.SimReport) -> dict:
    return _fields(report, "workers") | {
        "params": _fields(report.params),
        "overall": _stats_data(report.overall),
        "filtered": _stats_data(report.filtered),
        "filter_pass_rate": report.filter_pass_rate,
    }


def _cmd_bounds(args):
    check_order(args.q)
    if args.grid_steps < 1:
        raise ParameterError(f"grid steps must be at least 1, got {args.grid_steps}")
    # the grid ends just below 1/q**2 and starts at 1e-6, or where 1e-6 is
    # not below its end (q > 1000) one decade below it
    end = 1.0 / args.q**2 * (1.0 - 1e-9)
    start = 1e-6 if 1e-6 < end else end / 10
    xs = np.geomspace(start, end, args.grid_steps)
    margin = bounds.smallx_inequality_margin(args.q, args.c, args.d, xs)
    min_distance = None
    if args.n is not None:
        # the filtered bound starts at l0 = 2 and needs no --l0
        if (args.l0 is None and not args.filtered) or args.alpha is None:
            need = "--alpha" if args.filtered else "--l0 and --alpha"
            raise ParameterError(f"--n needs {need} for the distance bound")
        if args.filtered:
            rep = bounds.zero_column_filtered_bound(_params(args), args.alpha)
        else:
            rep = bounds.min_distance_bound(_params(args), args.l0, args.alpha)
        min_distance = _fields(rep, "params")
    data = {
        "kappa": bounds.kappa(args.q, args.c, args.d),
        "smallx": {
            "grid_points": len(margin.x),
            "min_margin": margin.min_margin,
        },
        "min_distance": min_distance,
    }
    rows = _columns(margin.x, margin.omega, margin.bound, margin.margin)
    return ["x", "omega", "bound", "margin"], rows, data


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ParameterError(f"{flag} expects a comma-separated integer list, got {text!r}")
    if not values:
        raise ParameterError(f"{flag} received an empty list")
    return values


def _cmd_gv_limit(args):
    d_list = _parse_int_list(args.d_list, "--d-list")
    gv = growth.gv_threshold(args.q, args.redundancy)
    rows = []
    for d in d_list:
        growth._check_d(d)
        c_exact = args.redundancy * d
        c = round(c_exact)
        if abs(c_exact - c) > 1e-9 or c < 1:
            raise ParameterError(
                f"redundancy {args.redundancy} does not give an integer c for d = {d}"
            )
        marks = growth.landmarks(args.q, c, d)
        if marks.x0 is None:
            raise ParameterError(
                f"ensemble (q={args.q}, c={c}, d={d}) has no typical-distance landmark"
            )
        rows.append((d, c, marks.x0, gv, gv - marks.x0))
    header = ["d", "c", "x0", "gv", "gap"]
    return header, rows, {"rows": _Table(header, rows)}


def _cmd_small_weight(args):
    n_list = _parse_int_list(args.n_list, "--n-list")
    report = spectrum.small_weight_scaling(args.q, args.c, args.d, args.l, n_list)
    header, rows = _fraction_table("n", report.n_list, report.values)
    data = {
        "exact_zero": report.exact_zero,
        "slope": report.slope,
        "predicted_exponent": report.predicted_exponent,
        "points": _Table(header, rows),
    }
    return header, rows, data


FIGURE_DELTA_SETS = ((2, 5), (2, 6), (3, 5), (3, 6))
FIGURE_OMEGA_SETS = {2: (2, 5), 3: (2, 6), 4: (3, 5), 5: (3, 6)}
FIGURE_STEPS = 1001


def figure_data(fig_id: int) -> tuple[list[str], list[tuple]]:
    """Header and rows of the reference curve families for figure ids 1-5.

    Figure 1 tabulates the inner exponent delta for (q, d) in
    {(2,5), (2,6), (3,5), (3,6)}; figures 2-5 tabulate omega for
    c in {1, 2, 3} at those same (q, d) pairs, one pair per figure.
    All figures sample 1001 uniform weights on [0, 1]; rows hold Python
    floats.
    """
    xs = np.linspace(0.0, 1.0, FIGURE_STEPS)
    if fig_id == 1:
        header = ["x"] + [f"delta_{q}_{d}" for q, d in FIGURE_DELTA_SETS]
        columns = [growth.delta(q, d, xs)[0] for q, d in FIGURE_DELTA_SETS]
    elif fig_id in FIGURE_OMEGA_SETS:
        q, d = FIGURE_OMEGA_SETS[fig_id]
        header = ["x"] + [f"omega_c{c}" for c in (1, 2, 3)]
        columns = growth.omega_family(q, (1, 2, 3), d, xs)
    else:
        raise ParameterError(f"figure id must be 1..5, got {fig_id}")
    return header, _columns(xs, *columns)


def _cmd_figure(args):
    header, rows = figure_data(args.id)
    return header, rows, None


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def _command(sub, name, func, summary, ensemble, options=None, fmt="json", format_flag=True):
    """Add a subcommand and its flags.

    Each letter of ensemble adds a required integer flag (--q, --c, --d,
    --n), options maps further flags to their add_argument keywords, and
    fmt is the default output format, or the only one without format_flag.
    """
    p = sub.add_parser(name, help=summary)
    for letter in ensemble:
        p.add_argument(f"--{letter}", type=int, required=True)
    for flag, kwargs in (options or {}).items():
        p.add_argument(flag, **kwargs)
    if format_flag:
        p.add_argument("--format", choices=["json", "csv"], default=fmt)
    p.add_argument("--output", default=None, help="write to this file instead of stdout")
    p.set_defaults(func=func, format=fmt)


def build_parser() -> _Parser:
    parser = _Parser(prog="ldpc-spectra", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    grid = {
        "--xmin": dict(type=float, default=0.0),
        "--xmax": dict(type=float, default=1.0),
        "--steps": dict(type=int, default=1001),
    }
    _command(sub, "spectrum", _cmd_spectrum, "exact average weight distribution", "qcdn",
             {"--n-cap": dict(type=int, default=spectrum.DEFAULT_N_CAP)})
    _command(sub, "exhaustive", _cmd_exhaustive, "exact ensemble average by full enumeration",
             "qcdn", {"--config-cap": dict(type=int, default=sim.DEFAULT_CONFIG_CAP)})
    _command(sub, "growth", _cmd_growth, "growth rate curve omega(x)", "qcd", grid, fmt="csv")
    _command(sub, "delta", _cmd_delta, "inner exponent delta(x) with minimizing tilt", "qd",
             grid, fmt="csv")
    _command(sub, "landmarks", _cmd_landmarks, "landmark weights of the growth rate", "qcd",
             format_flag=False)
    _command(sub, "simulate", _cmd_simulate, "Monte Carlo ensemble sampling", "qcdn", {
        "--trials": dict(type=int, required=True),
        "--seed": dict(type=int, default=0),
        "--l0": dict(type=int, default=1),
        "--alpha": dict(type=float, default=0.5),
        "--workers": dict(type=int, default=1),
        "--no-filter": dict(action="store_true"),
        "--enum-cap": dict(type=int, default=sim.DEFAULT_ENUM_CAP),
    })
    _command(sub, "bounds", _cmd_bounds, "small-weight margin and distance decay orders",
             "qcd", {
                 "--n": dict(type=int, default=None),
                 "--l0": dict(type=int, default=None),
                 "--alpha": dict(type=float, default=None),
                 "--filtered": dict(action="store_true"),
                 "--grid-steps": dict(type=int, default=1000),
             })
    _command(sub, "gv-limit", _cmd_gv_limit, "typical distance against the GV threshold",
             "q", {
                 "--d-list": dict(required=True, help="comma-separated check degrees"),
                 "--redundancy": dict(type=float, default=0.5, help="c/d redundancy fraction"),
             })
    _command(sub, "small-weight", _cmd_small_weight, "decay of E[A(l)] at fixed small weight",
             "qcd", {
                 "--l": dict(type=int, required=True),
                 "--n-list": dict(required=True, help="comma-separated block lengths"),
             })
    _command(sub, "figure", _cmd_figure, "reference curve families (CSV)", "",
             {"--id": dict(type=int, required=True)}, fmt="csv", format_flag=False)
    return parser


@functools.cache
def _run_parser() -> _Parser:
    """The parser run uses, built on its first call and kept for the process;
    parsing leaves a parser as it was, so one serves every call.
    """
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _run_parser().parse_args(argv)
        header, rows, data = args.func(args)
        if args.format == "csv":
            text = emit_csv(header, rows)
        else:
            text = emit_json(args, data)
        _write_output(args.output, text)
    except ParameterError as exc:
        sys.stderr.write(json.dumps({"code": 2, "message": str(exc)}) + "\n")
        return 2
    except (CapacityError, MemoryError) as exc:
        sys.stderr.write(json.dumps({"code": 3, "message": str(exc)}) + "\n")
        return 3
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
