"""Command line interface.

Every subcommand writes one document (CSV or JSON) to stdout or --output;
the document is rendered in full first, so a failed run writes nothing.
Exit codes: 0 success, 2 parameter/domain errors, 3 capacity errors; error
details go to stderr as a single JSON object {"code": ..., "message": ...}.

Floating point values serialize with repr (shortest round-trip); infinities
use the literal strings "inf"/"-inf" in both formats.  Exact rationals are
carried as numerator/denominator digit strings plus a convenience double.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__, bounds, growth, sim, spectrum
from .errors import CapacityError, ParameterError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParameterError(message)


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------


def float_token(x: float) -> str:
    """CSV token for a float: repr, with bare inf/-inf/nan literals."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return repr(float(x))


# Digits per chunk of digit_string: below 640, the smallest nonzero limit
# sys.set_int_max_str_digits accepts, so str() of a chunk never refuses.
_DIGIT_CHUNK = 600
_CHUNK_BASE = 10**_DIGIT_CHUNK


def digit_string(value: int) -> str:
    """Decimal digits of a nonnegative integer of any length.

    str() refuses integers longer than the interpreter's digit limit
    (sys.get_int_max_str_digits, 4300 digits by default), which exact
    spectra pass at moderate n.  This peels off fixed-width chunks with
    divmod instead, which leaves the limit alone.
    """
    chunks = []
    while value >= _CHUNK_BASE:
        value, low = divmod(value, _CHUNK_BASE)
        chunks.append(f"{low:0{_DIGIT_CHUNK}d}")
    chunks.append(str(value))
    return "".join(reversed(chunks))


def jsonable(value):
    """Map a result value onto JSON-encodable structures.

    Non-finite floats become the strings "inf"/"-inf"/"nan"; Fractions
    become numerator/denominator digit strings with an approx double.
    """
    if isinstance(value, Fraction):
        return {
            "numerator": digit_string(value.numerator),
            "denominator": digit_string(value.denominator),
            "approx": jsonable(fraction_to_float(value)),
        }
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, (np.floating,)):
        return jsonable(float(value))
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def fraction_to_float(value: Fraction) -> float:
    """Correctly rounded double for a rational, inf on overflow."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def emit_json(args, data, out) -> None:
    doc = {
        "meta": {
            "command": args.command,
            "parameters": _meta_parameters(args),
            "seed": getattr(args, "seed", None),
            "version": __version__,
        },
        "data": data,
    }
    out.write(json.dumps(jsonable(doc), sort_keys=True, indent=2))
    out.write("\n")


def _meta_parameters(args) -> dict:
    skip = {"command", "func", "output", "format"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def emit_csv(header, rows, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


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


def _fraction_row(l: int, value: Fraction) -> list[str]:
    return [
        str(l),
        digit_string(value.numerator),
        digit_string(value.denominator),
        float_token(fraction_to_float(value)),
    ]


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _emit_spectrum_table(args, table: spectrum.SpectrumTable, out) -> None:
    if args.format == "csv":
        rows = [_fraction_row(l, v) for l, v in enumerate(table.values)]
        emit_csv(["l", "numerator", "denominator", "approx"], rows, out)
    else:
        data = {
            "spectrum": [
                {"l": l, **jsonable(v)} for l, v in enumerate(table.values)
            ]
        }
        emit_json(args, data, out)


def _cmd_spectrum(args, out) -> None:
    params = spectrum.EnsembleParams(q=args.q, c=args.c, d=args.d, n=args.n)
    table = spectrum.avg_weight_distribution(params, n_cap=args.n_cap)
    _emit_spectrum_table(args, table, out)


def _cmd_exhaustive(args, out) -> None:
    params = spectrum.EnsembleParams(q=args.q, c=args.c, d=args.d, n=args.n)
    table = sim.exhaustive_ensemble(params, config_cap=args.config_cap)
    _emit_spectrum_table(args, table, out)


def _grid(args) -> np.ndarray:
    if args.steps < 2:
        raise ParameterError(f"steps must be at least 2, got {args.steps}")
    if not 0.0 <= args.xmin < args.xmax <= 1.0:
        raise ParameterError(
            f"need 0 <= xmin < xmax <= 1, got [{args.xmin}, {args.xmax}]"
        )
    return np.linspace(args.xmin, args.xmax, args.steps)


def _cmd_growth(args, out) -> None:
    xs = _grid(args)
    om, dom = growth.omega_curve(args.q, args.c, args.d, xs)
    if args.format == "csv":
        rows = [
            [float_token(x), float_token(o), float_token(g)]
            for x, o, g in zip(xs, om, dom)
        ]
        emit_csv(["x", "omega", "domega"], rows, out)
    else:
        data = {
            "curve": [
                {"x": float(x), "omega": float(o), "domega": float(g)}
                for x, o, g in zip(xs, om, dom)
            ]
        }
        emit_json(args, data, out)


def _cmd_delta(args, out) -> None:
    xs = _grid(args)
    value, zh, xh = growth.delta_curve(args.q, args.d, xs)
    if args.format == "csv":
        rows = [
            [float_token(x), float_token(v), float_token(a), float_token(b)]
            for x, v, a, b in zip(xs, value, zh, xh)
        ]
        emit_csv(["x", "delta", "zhat1", "xhat1"], rows, out)
    else:
        data = {
            "curve": [
                {"x": float(x), "delta": float(v), "zhat1": float(a), "xhat1": float(b)}
                for x, v, a, b in zip(xs, value, zh, xh)
            ]
        }
        emit_json(args, data, out)


def _cmd_landmarks(args, out) -> None:
    marks = growth.landmarks(args.q, args.c, args.d)
    residuals = {}
    if marks.x0 is not None:
        residuals["omega_at_x0"] = abs(growth.omega(args.q, args.c, args.d, marks.x0).omega)
    if marks.x3 is not None:
        residuals["domega_at_x3"] = abs(growth.domega(args.q, args.c, args.d, marks.x3))
    if marks.zhat2 is not None:
        residuals["xi_at_zhat2"] = abs(growth.xi(args.q, args.c, args.d, marks.zhat2))
    data = {
        "x1": marks.x1,
        "x0": marks.x0,
        "x2": marks.x2,
        "x3": marks.x3,
        "zhat2": marks.zhat2,
        "zhat2_neg": marks.zhat2_neg,
        "residuals": residuals,
    }
    emit_json(args, data, out)


def _cmd_simulate(args, out) -> None:
    params = spectrum.EnsembleParams(q=args.q, c=args.c, d=args.d, n=args.n)
    report = sim.monte_carlo(
        params,
        trials=args.trials,
        seed=args.seed,
        l0=args.l0,
        alpha=args.alpha,
        filter_on=not args.no_filter,
        workers=args.workers,
        enum_cap=args.enum_cap,
    )
    if args.format == "csv":
        rows = [
            [str(l), float_token(m), float_token(s)]
            for l, (m, s) in enumerate(zip(report.overall.mean, report.overall.stderr))
        ]
        emit_csv(["l", "mean", "stderr"], rows, out)
    else:
        emit_json(args, _report_data(report), out)


def _stats_data(stats: sim.SpectrumStats | None):
    if stats is None:
        return None
    return {
        "trials": stats.trials,
        "counts_sum": [str(v) for v in stats.counts_sum],
        "mean": list(stats.mean),
        "stderr": list(stats.stderr),
        "dmin_hits": stats.dmin_hits,
        "p_dmin_le": stats.p_dmin_le,
        "p_dmin_half_width": stats.p_dmin_half_width,
    }


def _report_data(report: sim.SimReport) -> dict:
    return {
        "params": {
            "q": report.params.q,
            "c": report.params.c,
            "d": report.params.d,
            "n": report.params.n,
        },
        "trials": report.trials,
        "seed": report.seed,
        "l0": report.l0,
        "alpha": report.alpha,
        "filter_on": report.filter_on,
        "overall": _stats_data(report.overall),
        "filtered": _stats_data(report.filtered),
        "filter_pass_rate": report.filter_pass_rate,
    }


def _cmd_bounds(args, out) -> None:
    upper = 1.0 / args.q**2
    xs = np.geomspace(1e-6, upper * (1.0 - 1e-9), args.grid_steps)
    margin = bounds.smallx_inequality_margin(args.q, args.c, args.d, xs)
    min_distance = None
    if args.n is not None:
        if args.l0 is None or args.alpha is None:
            raise ParameterError("--n needs --l0 and --alpha for the distance bound")
        params = spectrum.EnsembleParams(q=args.q, c=args.c, d=args.d, n=args.n)
        if args.filtered:
            rep = bounds.zero_column_filtered_bound(params, args.alpha)
        else:
            rep = bounds.min_distance_bound(params, args.l0, args.alpha)
        min_distance = {
            "l0": rep.l0,
            "alpha": rep.alpha,
            "Delta": rep.Delta,
            "exponent_term": rep.exponent_term,
            "exp_term": rep.exp_term,
            "filtered": rep.filtered,
        }
    if args.format == "csv":
        rows = [
            [float_token(x), float_token(o), float_token(b), float_token(m)]
            for x, o, b, m in zip(margin.x, margin.omega, margin.bound, margin.margin)
        ]
        emit_csv(["x", "omega", "bound", "margin"], rows, out)
    else:
        data = {
            "kappa": bounds.kappa(args.q, args.c, args.d),
            "smallx": {
                "grid_points": len(margin.x),
                "min_margin": margin.min_margin,
            },
            "min_distance": min_distance,
        }
        emit_json(args, data, out)


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ParameterError(f"{flag} expects a comma-separated integer list, got {text!r}")
    if not values:
        raise ParameterError(f"{flag} received an empty list")
    return values


def _cmd_gv_limit(args, out) -> None:
    d_list = _parse_int_list(args.d_list, "--d-list")
    gv = growth.gv_threshold(args.q, args.redundancy)
    rows = []
    for d in d_list:
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
    if args.format == "csv":
        emit_csv(
            ["d", "c", "x0", "gv", "gap"],
            [
                [str(d), str(c), float_token(x0), float_token(gv), float_token(gap)]
                for d, c, x0, gv, gap in rows
            ],
            out,
        )
    else:
        data = {
            "rows": [
                {"d": d, "c": c, "x0": x0, "gv": gv, "gap": gap}
                for d, c, x0, gv, gap in rows
            ]
        }
        emit_json(args, data, out)


def _cmd_small_weight(args, out) -> None:
    n_list = _parse_int_list(args.n_list, "--n-list")
    report = spectrum.small_weight_scaling(args.q, args.c, args.d, args.l, n_list)
    if args.format == "csv":
        rows = [_fraction_row(n, v) for n, v in zip(report.n_list, report.values)]
        emit_csv(["n", "numerator", "denominator", "approx"], rows, out)
    else:
        data = {
            "exact_zero": report.exact_zero,
            "slope": report.slope,
            "predicted_exponent": report.predicted_exponent,
            "points": [
                {"n": n, **jsonable(v)} for n, v in zip(report.n_list, report.values)
            ],
        }
        emit_json(args, data, out)


FIGURE_DELTA_SETS = ((2, 5), (2, 6), (3, 5), (3, 6))
FIGURE_OMEGA_SETS = {2: (2, 5), 3: (2, 6), 4: (3, 5), 5: (3, 6)}
FIGURE_STEPS = 1001


def figure_data(fig_id: int) -> tuple[list[str], list[list[str]]]:
    """Header and rows of the reference curve families for figure ids 1-5.

    Figure 1 tabulates the inner exponent delta for (q, d) in
    {(2,5), (2,6), (3,5), (3,6)}; figures 2-5 tabulate omega for
    c in {1, 2, 3} at those same (q, d) pairs, one pair per figure.
    All figures sample 1001 uniform weights on [0, 1].
    """
    xs = np.linspace(0.0, 1.0, FIGURE_STEPS)
    if fig_id == 1:
        header = ["x"] + [f"delta_{q}_{d}" for q, d in FIGURE_DELTA_SETS]
        columns = []
        for q, d in FIGURE_DELTA_SETS:
            value, _, _ = growth.delta_curve(q, d, xs)
            columns.append(value)
        rows = [
            [float_token(x)] + [float_token(col[i]) for col in columns]
            for i, x in enumerate(xs)
        ]
        return header, rows
    if fig_id in FIGURE_OMEGA_SETS:
        q, d = FIGURE_OMEGA_SETS[fig_id]
        header = ["x"] + [f"omega_c{c}" for c in (1, 2, 3)]
        columns = []
        for c in (1, 2, 3):
            om, _ = growth.omega_curve(q, c, d, xs)
            columns.append(om)
        rows = [
            [float_token(x)] + [float_token(col[i]) for col in columns]
            for i, x in enumerate(xs)
        ]
        return header, rows
    raise ParameterError(f"figure id must be 1..5, got {fig_id}")


def _cmd_figure(args, out) -> None:
    header, rows = figure_data(args.id)
    emit_csv(header, rows, out)


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def _add_format(p, default="json", choices=("json", "csv")) -> None:
    p.add_argument("--format", choices=list(choices), default=default)
    p.add_argument("--output", default=None, help="write to this file instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="ldpc-spectra", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="exact average weight distribution")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-cap", type=int, default=spectrum.DEFAULT_N_CAP)
    _add_format(p, default="json")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("exhaustive", help="exact ensemble average by full enumeration")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--config-cap", type=int, default=sim.DEFAULT_CONFIG_CAP)
    _add_format(p, default="json")
    p.set_defaults(func=_cmd_exhaustive)

    p = sub.add_parser("growth", help="growth rate curve omega(x)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--xmin", type=float, default=0.0)
    p.add_argument("--xmax", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=1001)
    _add_format(p, default="csv")
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("delta", help="inner exponent delta(x) with minimizing tilt")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--xmin", type=float, default=0.0)
    p.add_argument("--xmax", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=1001)
    _add_format(p, default="csv")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("landmarks", help="landmark weights of the growth rate")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_landmarks, format="json")

    p = sub.add_parser("simulate", help="Monte Carlo ensemble sampling")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--l0", type=int, default=1)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--no-filter", action="store_true")
    p.add_argument("--enum-cap", type=int, default=sim.DEFAULT_ENUM_CAP)
    _add_format(p, default="json")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bounds", help="small-weight margin and distance decay orders")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--l0", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--filtered", action="store_true")
    p.add_argument("--grid-steps", type=int, default=1000)
    _add_format(p, default="json")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("gv-limit", help="typical distance against the GV threshold")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d-list", required=True, help="comma-separated check degrees")
    p.add_argument("--redundancy", type=float, default=0.5, help="c/d redundancy fraction")
    _add_format(p, default="json")
    p.set_defaults(func=_cmd_gv_limit)

    p = sub.add_parser("small-weight", help="decay of E[A(l)] at fixed small weight")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n-list", required=True, help="comma-separated block lengths")
    _add_format(p, default="json")
    p.set_defaults(func=_cmd_small_weight)

    p = sub.add_parser("figure", help="reference curve families (CSV)")
    p.add_argument("--id", type=int, required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_figure, format="csv")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        out = io.StringIO()
        args.func(args, out)
        _write_output(args.output, out.getvalue())
    except ParameterError as exc:
        sys.stderr.write(json.dumps({"code": 2, "message": str(exc)}) + "\n")
        return 2
    except CapacityError as exc:
        sys.stderr.write(json.dumps({"code": 3, "message": str(exc)}) + "\n")
        return 3
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
