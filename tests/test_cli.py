"""Command-line interface output and exit-code tests."""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import types
from fractions import Fraction

import numpy as np

import ldpc_spectra
from ldpc_spectra import (
    EnsembleParams,
    avg_weight_distribution,
    cli,
    entropy_q,
    omega,
    small_weight_scaling,
)
from ldpc_spectra.cli import figure_data, run
from ldpc_spectra.spectrum import DEFAULT_N_CAP


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_spectrum_csv_shape(capsys):
    code, out, err = invoke(
        capsys, "spectrum", "--q", "2", "--c", "3", "--d", "6", "--n", "12",
        "--format", "csv")
    assert code == 0
    assert err == ""
    header, rows = parse_csv(out)
    assert header == ["l", "numerator", "denominator", "approx"]
    assert len(rows) == 13
    assert rows[0] == ["0", "1", "1", "1.0"]


def test_spectrum_json_round_trip(capsys):
    code, out, _ = invoke(
        capsys, "spectrum", "--q", "3", "--c", "2", "--d", "3", "--n", "6",
        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["command"] == "spectrum"
    assert doc["meta"]["parameters"]["n"] == 6
    params = EnsembleParams(q=3, c=2, d=3, n=6)
    exact = avg_weight_distribution(params).values
    got = [
        Fraction(int(row["numerator"]), int(row["denominator"]))
        for row in doc["data"]["spectrum"]
    ]
    assert got == list(exact)


def test_exhaustive_equals_spectrum(capsys):
    _, out_a, _ = invoke(
        capsys, "exhaustive", "--q", "2", "--c", "2", "--d", "4", "--n", "2",
        "--format", "csv")
    _, out_b, _ = invoke(
        capsys, "spectrum", "--q", "2", "--c", "2", "--d", "4", "--n", "2",
        "--format", "csv")
    assert out_a == out_b


def test_growth_csv_matches_library(capsys):
    code, out, _ = invoke(
        capsys, "growth", "--q", "2", "--c", "3", "--d", "6",
        "--xmin", "0.1", "--xmax", "0.9", "--steps", "5")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "omega", "domega"]
    xs = np.linspace(0.1, 0.9, 5)
    om, dom = omega(2, 3, 6, xs)
    for row, o, dv in zip(rows, om, dom):
        assert float(row[1]) == o
        assert float(row[2]) == dv


def test_growth_rejects_bad_grid(capsys):
    code, out, err = invoke(
        capsys, "growth", "--q", "2", "--c", "3", "--d", "6", "--steps", "1")
    assert code == 2
    assert out == ""
    body = json.loads(err)
    assert body["code"] == 2
    assert "steps" in body["message"]


def test_delta_csv_columns(capsys):
    code, out, _ = invoke(
        capsys, "delta", "--q", "2", "--d", "5",
        "--xmin", "0", "--xmax", "1", "--steps", "11")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "delta", "zhat1", "xhat1"]
    assert len(rows) == 11
    assert rows[-2][1] == "-inf"       # x = 0.9 sits in the vanished region


def test_landmarks_json(capsys):
    code, out, _ = invoke(capsys, "landmarks", "--q", "2", "--c", "3", "--d", "6")
    assert code == 0
    doc = json.loads(out)
    data = doc["data"]
    for key in ("x0", "x1", "x2", "x3", "zhat2", "zhat2_neg", "residuals"):
        assert key in data
    assert abs(data["residuals"]["omega_at_x0"]) < 1e-10
    assert abs(data["residuals"]["domega_at_x3"]) < 1e-10
    assert abs(data["residuals"]["xi_at_zhat2"]) < 1e-10


def test_landmarks_slope_residual_large_d(capsys):
    # the slope is steep in the tilt at large d: a tilt solved to an
    # absolute width of 1e-12 left 4.8e-10 at d = 48.  From d = 500 on x3,
    # and from d = 1000 on x0, lie below 1e-8, where omega used to be taken
    # at x = 0.  At d = 3000 and 4000 a float tilt near 1 cannot resolve the
    # root of xi (it left 2.4e-10 and 3.3e-10); its gap s2 can
    for d in (48, 500, 1000, 2000, 3000, 4000):
        code, out, _ = invoke(capsys, "landmarks", "--q", "2", "--c", "3", "--d", str(d))
        assert code == 0
        data = json.loads(out)["data"]
        assert all(abs(v) < 1e-10 for v in data["residuals"].values()), (d, data)
        assert 0 < data["x3"] < data["x0"], (d, data)
        assert (data["x3"] < 1e-8) == (d >= 500), (d, data)



def test_landmarks_residuals_equal_scalar_evaluations(capsys):
    # the two residuals share one solve over [x0, x3]; each root is
    # independent of its batch, so they equal the scalar calls bit for bit
    for q, c, d in ((2, 3, 6), (3, 3, 6), (2, 4, 8), (4, 3, 5), (2, 3, 2000)):
        code, out, _ = invoke(capsys, "landmarks", "--q", str(q), "--c", str(c), "--d", str(d))
        assert code == 0
        data = json.loads(out)["data"]
        assert data["residuals"]["omega_at_x0"] == abs(omega(q, c, d, data["x0"])[0])
        assert data["residuals"]["domega_at_x3"] == abs(omega(q, c, d, data["x3"])[1]), (q, c, d)

def test_growth_resolves_weights_below_1e8(capsys):
    # omega ~ (c/2 - 1) x ln x < 0 falls smoothly from x = 0; the x = 0
    # value used to stand for every x < 1e-8 (omega = +2.2e-8, slope -inf
    # at x = 1e-9)
    code, out, _ = invoke(capsys, "growth", "--q", "2", "--c", "3", "--d", "6",
                          "--xmin", "1e-9", "--xmax", "2e-8", "--steps", "5", "--format", "csv")
    assert code == 0
    _, rows = parse_csv(out)
    om = [float(row[1]) for row in rows]
    dom = [float(row[2]) for row in rows]
    assert all(v < 0 for v in om) and all(a > b for a, b in zip(om, om[1:])), om
    assert all(math.isfinite(v) and v < 0 for v in dom), dom


def test_landmarks_low_c_serializes_absent_fields(capsys):
    code, out, _ = invoke(capsys, "landmarks", "--q", "2", "--c", "2", "--d", "6")
    assert code == 0
    data = json.loads(out)["data"]
    assert data["x0"] is None and data["x3"] is None


def test_simulate_deterministic_across_workers(capsys):
    # the report payload is worker-invariant; only the meta echo of the
    # invocation parameters records the requested parallelism
    payloads = []
    full = None
    for workers in ("1", "3"):
        code, out, _ = invoke(
            capsys, "simulate", "--q", "2", "--c", "3", "--d", "6", "--n", "12",
            "--trials", "50", "--seed", "9", "--workers", workers)
        assert code == 0
        full = json.loads(out)
        payloads.append(json.dumps(full["data"], sort_keys=True))
    assert payloads[0] == payloads[1]
    assert full["meta"]["seed"] == 9
    assert full["data"]["overall"]["trials"] == 50
    assert full["data"]["overall"]["mean"][0] == 1.0


def test_simulate_csv(capsys):
    code, out, _ = invoke(
        capsys, "simulate", "--q", "2", "--c", "2", "--d", "4", "--n", "2",
        "--trials", "20", "--seed", "0", "--format", "csv")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["l", "mean", "stderr"]
    assert [r[1] for r in rows] == ["1.0", "2.0", "1.0"]


def test_bounds_json(capsys):
    code, out, _ = invoke(
        capsys, "bounds", "--q", "2", "--c", "3", "--d", "6",
        "--grid-steps", "50")
    assert code == 0
    data = json.loads(out)["data"]
    assert data["smallx"]["min_margin"] > 0
    assert data["kappa"] > 0
    assert data["min_distance"] is None


def test_bounds_checks_q_before_the_grid(capsys):
    code, out, err = invoke(capsys, "bounds", "--q", "0", "--c", "3", "--d", "6")
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "code": 2, "message": "q must be a prime power in [2, 65536], got 0"}


def test_bounds_default_grid_below_inverse_square_q(capsys):
    # 1/q**2 falls below the usual start 1e-6 past q = 1000; the grid then
    # starts one decade below its end, and every supported q has a margin
    for q in (997, 1009, 3125, 4096, 9973, 10007, 65521, 65536):
        code, out, _ = invoke(capsys, "bounds", "--q", str(q), "--c", "3", "--d", "6",
                              "--format", "csv")
        assert code == 0, q
        _, rows = parse_csv(out)
        xs = [float(row[0]) for row in rows]
        assert len(xs) == 1000
        assert 0 < xs[0] < xs[-1] < 1.0 / q**2
        assert xs[0] == (1e-6 if q < 1000 else xs[-1] / 10), q
        assert min(float(row[3]) for row in rows) > 0, q


def test_bounds_distance_needs_l0_and_alpha(capsys):
    code, _, err = invoke(
        capsys, "bounds", "--q", "2", "--c", "3", "--d", "6", "--n", "60")
    assert code == 2
    assert json.loads(err)["code"] == 2


def test_bounds_with_distance_report(capsys):
    # the filtered bound starts at l0 = 2 whatever --l0 says, and needs none
    cases = {
        "--n 60 --alpha 0.01 --filtered": (2, 0, -1, True),
        "--n 60 --l0 3 --alpha 0.02": (3, 1, -2, False),
        "--n 60 --l0 3 --alpha 0.02 --filtered": (2, 0, -1, True),
        "--n 600 --l0 3 --alpha 0.01": (3, 1, -2, False),
        "--n 600 --l0 3 --alpha 0.01 --filtered": (2, 0, -1, True),
    }
    for argv, want in cases.items():
        code, out, _ = invoke(capsys, "bounds", "--q", "2", "--c", "3", "--d", "6",
                              *argv.split())
        assert code == 0, argv
        md = json.loads(out)["data"]["min_distance"]
        assert (md["l0"], md["Delta"], md["exponent_term"], md["filtered"]) == want, argv
    # --l0 is needed only without --filtered, --alpha always
    errors = {
        "--n 60 --alpha 0.01": "--n needs --l0 and --alpha for the distance bound",
        "--n 60 --l0 3": "--n needs --l0 and --alpha for the distance bound",
        "--n 60 --l0 3 --filtered": "--n needs --alpha for the distance bound",
    }
    for argv, message in errors.items():
        code, out, err = invoke(capsys, "bounds", "--q", "2", "--c", "3", "--d", "6",
                                *argv.split())
        assert (code, out, json.loads(err)["message"]) == (2, "", message), argv


def test_small_weight_vanishing_weights_exit_0(capsys):
    # d = 2 with odd c*l over GF(3), and d = 1, vanish at every n; both used
    # to exit 2 for want of nonzero averages to fit a slope to
    for argv in ("--q 3 --c 3 --d 2 --l 1", "--q 3 --c 3 --d 1 --l 2"):
        code, out, err = invoke(capsys, "small-weight", *argv.split(), "--n-list", "20,40,80")
        assert (code, err) == (0, ""), argv
        data = json.loads(out)["data"]
        assert data["exact_zero"] is True and data["slope"] is None, argv
        assert [(p["numerator"], p["denominator"]) for p in data["points"]] == [("0", "1")] * 3



def test_data_block_key_sets(capsys):
    # the data blocks are built from the result dataclasses' fields, so a
    # new field shows up here before it reaches a document
    code, out, _ = invoke(capsys, "landmarks", "--q", "2", "--c", "3", "--d", "6")
    assert code == 0
    data = json.loads(out)["data"]
    assert set(data) == {"x0", "x1", "x2", "x3", "zhat2", "zhat2_neg", "residuals"}
    assert set(data["residuals"]) == {"omega_at_x0", "domega_at_x3", "xi_at_zhat2"}

    code, out, _ = invoke(capsys, "bounds", "--q", "2", "--c", "3", "--d", "6", "--n", "60",
                          "--l0", "3", "--alpha", "0.02", "--grid-steps", "5")
    assert code == 0
    assert set(json.loads(out)["data"]["min_distance"]) == {
        "l0", "alpha", "Delta", "exponent_term", "exp_term", "filtered"}

    code, out, _ = invoke(capsys, "simulate", "--q", "2", "--c", "3", "--d", "6", "--n", "12",
                          "--trials", "5")
    assert code == 0
    data = json.loads(out)["data"]
    assert set(data) == {"params", "trials", "seed", "l0", "alpha", "filter_on", "overall",
                         "filtered", "filter_pass_rate"}
    assert set(data["params"]) == {"q", "c", "d", "n"}
    stats = {"trials", "counts_sum", "mean", "stderr", "dmin_hits", "p_dmin_le",
             "p_dmin_half_width"}
    assert set(data["overall"]) == set(data["filtered"]) == stats
    assert all(isinstance(v, str) for v in data["overall"]["counts_sum"])

def test_gv_limit_rows(capsys):
    code, out, _ = invoke(
        capsys, "gv-limit", "--q", "2", "--d-list", "6,12", "--redundancy", "0.5")
    assert code == 0
    rows = json.loads(out)["data"]["rows"]
    assert [r["d"] for r in rows] == [6, 12]
    assert [r["c"] for r in rows] == [3, 6]
    assert rows[0]["gap"] > rows[1]["gap"]


def test_gv_limit_rejects_fractional_c(capsys):
    code, _, err = invoke(
        capsys, "gv-limit", "--q", "2", "--d-list", "7", "--redundancy", "0.5")
    assert code == 2
    assert "redundancy" in json.loads(err)["message"]


def test_gv_limit_checks_each_degree_before_deriving_c(capsys):
    # d = 0 gives c = 0, which used to be reported as a fractional c
    for d in (0, 2):
        code, out, err = invoke(capsys, "gv-limit", "--q", "2", "--d-list", f"6,{d}")
        assert (code, out) == (2, ""), d
        assert json.loads(err)["message"] == f"check degree must be at least 3, got {d}", d


def test_small_weight_csv(capsys):
    code, out, _ = invoke(
        capsys, "small-weight", "--q", "2", "--c", "3", "--d", "6", "--l", "2",
        "--n-list", "24,48,96", "--format", "csv")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "numerator", "denominator", "approx"]
    rep = small_weight_scaling(2, 3, 6, 2, [24, 48, 96])
    for row, value in zip(rows, rep.values):
        assert Fraction(int(row[1]), int(row[2])) == value


def test_figure_one_headers_and_vanished_region(capsys):
    code, out, _ = invoke(capsys, "figure", "--id", "1")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "delta_2_5", "delta_2_6", "delta_3_5", "delta_3_6"]
    assert len(rows) == 1001
    ref = math.log(10) - 5 * entropy_q(0.2, 2)
    assert abs(float(rows[800][1]) - ref) < 1e-10
    for row in rows[801:1000]:
        assert row[1] == "-inf"


def test_figure_data_anchor_values():
    for fig, (q, d) in ((2, (2, 5)), (3, (2, 6)), (4, (3, 5)), (5, (3, 6))):
        header, rows = figure_data(fig)
        assert header == ["x", "omega_c1", "omega_c2", "omega_c3"]
        assert len(rows) == 1001
        for col in (1, 2, 3):
            assert float(rows[0][col]) == 0.0
            if q == 2 and d % 2:
                assert rows[-1][col] == -math.inf
    # binary even degree keeps the peak value on the grid at x = 0.5
    _, rows = figure_data(3)
    assert abs(float(rows[500][3]) - 0.5 * math.log(2)) < 1e-12


def test_figure_bad_id(capsys):
    code, _, err = invoke(capsys, "figure", "--id", "6")
    assert code == 2
    assert json.loads(err)["code"] == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = invoke(
        capsys, "spectrum", "--q", "2", "--c", "2", "--d", "4", "--n", "2",
        "--format", "csv", "--output", str(target))
    assert code == 0
    assert out == ""
    header, rows = parse_csv(target.read_text())
    assert header == ["l", "numerator", "denominator", "approx"]
    assert len(rows) == 3


def test_output_into_missing_directory_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "out.csv"
    code, out, err = invoke(
        capsys, "spectrum", "--q", "2", "--c", "2", "--d", "4", "--n", "2",
        "--format", "csv", "--output", str(target))
    assert code == 2
    assert out == ""
    assert json.loads(err)["code"] == 2
    assert not target.parent.exists()


def test_refused_run_leaves_no_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    over_cap = str(DEFAULT_N_CAP + 1000)
    code, _, err = invoke(
        capsys, "spectrum", "--q", "2", "--c", "3", "--d", "6", "--n", over_cap,
        "--output", str(target))
    assert code == 3
    assert json.loads(err)["code"] == 3
    assert list(tmp_path.iterdir()) == []
    # an existing file is left as it was
    target.write_text("previous\n")
    code, _, _ = invoke(
        capsys, "spectrum", "--q", "2", "--c", "3", "--d", "6", "--n", over_cap,
        "--output", str(target))
    assert code == 3
    assert target.read_text() == "previous\n"
    assert list(tmp_path.iterdir()) == [target]


def test_simulate_over_enum_cap_exit_3_without_output(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, err = invoke(
        capsys, "simulate", "--q", "2", "--c", "3", "--d", "6", "--n", "12",
        "--trials", "5", "--enum-cap", "10", "--output", str(target))
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "code": 3, "message": "q**dim = 2**6 = 64 codewords exceeds the cap 10"}
    assert list(tmp_path.iterdir()) == []


def parse_digits(text):
    # int() refuses strings past the interpreter's digit limit, so parse
    # in chunks that stay below it.
    value = 0
    for start in range(0, len(text), 500):
        chunk = text[start:start + 500]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_spectrum_past_int_digit_limit(capsys):
    # Numerators and denominators here run to ~5500 digits, past the
    # default limit of 4300 that str(int) enforces.
    limit = sys.get_int_max_str_digits()
    argv = ("spectrum", "--q", "256", "--c", "6", "--d", "12", "--n", "400")
    exact = list(avg_weight_distribution(EnsembleParams(q=256, c=6, d=12, n=400)).values)
    code, out, err = invoke(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    rows = json.loads(out)["data"]["spectrum"]
    assert max(len(row["denominator"]) for row in rows) > 4300
    got = [
        Fraction(parse_digits(row["numerator"]), parse_digits(row["denominator"]))
        for row in rows
    ]
    assert got == exact
    code, out, err = invoke(capsys, *argv, "--format", "csv")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    header, rows = parse_csv(out)
    assert header == ["l", "numerator", "denominator", "approx"]
    got = [Fraction(parse_digits(row[1]), parse_digits(row[2])) for row in rows]
    assert got == exact


def test_small_weight_past_int_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    argv = ("small-weight", "--q", "256", "--c", "6", "--d", "12", "--l", "400",
            "--n-list", "400,420,440")
    exact = small_weight_scaling(256, 6, 12, 400, [400, 420, 440]).values
    code, out, err = invoke(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    points = json.loads(out)["data"]["points"]
    assert max(len(p["denominator"]) for p in points) > 4300
    got = [Fraction(parse_digits(p["numerator"]), parse_digits(p["denominator"]))
           for p in points]
    assert got == list(exact)
    code, out, err = invoke(capsys, *argv, "--format", "csv")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    _, rows = parse_csv(out)
    assert [Fraction(parse_digits(r[1]), parse_digits(r[2])) for r in rows] == list(exact)


def test_simulate_untabled_field_exit_2(capsys):
    # both subcommands that build a field refuse GF(512) with build_field's message
    refusal = "field arithmetic needs a tabled order q <= 256, got q = 512"
    for argv in (("simulate", "--trials", "2"), ("exhaustive",)):
        code, out, err = invoke(
            capsys, *argv, "--q", "512", "--c", "3", "--d", "6", "--n", "12")
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"code": 2, "message": refusal}


def test_unknown_arguments_exit_2(capsys):
    code, _, err = invoke(capsys, "spectrum", "--q", "2")
    assert code == 2
    assert json.loads(err)["code"] == 2
    code, _, err = invoke(capsys, "nonsense")
    assert code == 2


def test_run_reuses_one_parser(capsys, monkeypatch):
    argvs = (
        ("spectrum", "--q", "2", "--c", "3", "--d", "6", "--n", "12"),
        ("spectrum", "--q", "2", "--bogus", "1"),
        ("simulate", "--q", "4", "--c", "2", "--d", "4", "--n", "6", "--trials", "20",
         "--format", "csv"),
        ("figure", "--id", "2"),
        ("--help",),
    )

    def outputs():
        seen = []
        for argv in argvs:
            try:
                code = run(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen

    assert cli._run_parser() is cli._run_parser()
    assert cli.build_parser() is not cli.build_parser()
    shared = outputs()
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 0]
    assert shared == outputs()
    monkeypatch.setattr(cli, "_run_parser", cli.build_parser)
    assert outputs() == shared


def run_cli_process(*argv):
    """The CLI in a fresh interpreter, stopped after 30 s so a hang fails fast."""
    src = os.path.dirname(os.path.dirname(ldpc_spectra.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ldpc_spectra.cli", *argv], capture_output=True,
        text=True, timeout=30, env=dict(os.environ, PYTHONPATH=path))


def test_huge_prime_q_exit_2_without_factoring():
    # trial division of this prime up to its square root would not finish
    q = "1000000000000000003"
    message = f"q must be a prime power in [2, 65536], got {q}"
    for argv in (("spectrum", "--q", q, "--c", "3", "--d", "6", "--n", "12"),
                 ("landmarks", "--q", q, "--c", "3", "--d", "6")):
        done = run_cli_process(*argv)
        assert done.returncode == 2
        assert done.stdout == ""
        assert json.loads(done.stderr) == {"code": 2, "message": message}


def test_import_leaves_numpy_random_unloaded():
    # numpy.random loads on the first sampled code: commands that sample
    # nothing do not pay its import time and memory
    probe = ("import sys, ldpc_spectra.cli; "
             "print('numpy.random' in sys.modules, end='')")
    src = os.path.dirname(os.path.dirname(ldpc_spectra.__file__))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=30, env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stdout) == (0, "False")


def test_public_namespace_pinned():
    # what the subcommands and the paper's objects need, and nothing that
    # only tests call (those live in tests/oracles.py)
    names = sorted(name for name, value in vars(ldpc_spectra).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == [
        "CapacityError", "CodeSample", "DomainError", "EnsembleParams", "FieldSpec",
        "Landmarks", "MarginReport", "MinDistanceBoundReport", "ParameterError",
        "ScalingReport", "SimReport", "SpectrumTable", "WeightEnumeration", "avg_weight_at",
        "avg_weight_d2", "avg_weight_distribution", "build_field", "check_coeffs", "delta",
        "entropy_q", "enumerate_weights", "exhaustive_ensemble", "gv_threshold", "kappa",
        "landmarks", "log_fraction", "min_distance_bound", "monte_carlo", "omega",
        "omega_family", "rho", "sample_code", "single_check_coeffs",
        "small_weight_order", "small_weight_scaling", "smallx_inequality_margin",
        "x1_right_endpoint", "xi", "zero_column_filtered_bound", "zeta",
    ]


def test_capacity_errors_exit_3(capsys):
    code, _, err = invoke(
        capsys, "exhaustive", "--q", "2", "--c", "3", "--d", "6", "--n", "12")
    assert code == 3
    assert json.loads(err)["code"] == 3


def test_exhaustive_refuses_huge_counts_without_building_them(capsys):
    # (3n)! has past 4300 digits, str()'s default limit, at n = 600 and
    # takes seconds to build at n = 10**6
    argv = ("exhaustive", "--q", "2", "--c", "3", "--d", "6", "--n")
    message = ("(1800)! * 1**1800 ensemble configurations, about 10**5080, "
               "exceed the cap 100000000")
    refusal = json.dumps({"code": 3, "message": message}) + "\n"
    assert invoke(capsys, *argv, "600") == (3, "", refusal)
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv, str(10**6))
    assert time.perf_counter() - start < 1.0
    assert (code, out, json.loads(err)["code"]) == (3, "", 3)
    assert json.loads(err)["message"].startswith("(3000000)! * 1**3000000 ")


def test_oversized_grids_exit_3_without_output(tmp_path, capsys):
    # numpy refuses a grid of 10**15 floats (7.11 PiB) before allocating it
    steps = "1000000000000000"
    for argv in (("growth", "--q", "2", "--c", "3", "--d", "6", "--steps", steps),
                 ("delta", "--q", "2", "--d", "6", "--steps", steps),
                 ("bounds", "--q", "2", "--c", "3", "--d", "6", "--grid-steps", steps)):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (3, ""), argv
        body = json.loads(err)
        assert body["code"] == 3 and f"({steps},)" in body["message"], argv
        target = tmp_path / "out.csv"
        assert invoke(capsys, *argv, "--output", str(target)) == (3, "", err), argv
        assert list(tmp_path.iterdir()) == [], argv


# (length, sha256) of stdout, recorded from the command line before its
# render path was unified (the simulate entries since Monte Carlo draws a
# block of trials from one generator, the q = 2 n = 24 and n = 4 entries
# before GF(2) codes were reduced and counted as bit rows, the q = 4 n = 8
# entry, where 160 of 300 trials pass the filter, before the filter was
# read from the weight counts, the q = 3 n = 12, q = 2 n = 8 and q = 4
# exhaustive entries before rate >= 1/2 codes were counted from the rows
# of H); exact outputs are a byte-level contract.
# The JSON spectrum documents were recorded when the default --n-cap was
# 3000, which their meta block shows, so they pass it.
RECORDED_DOCUMENTS = {
    "spectrum --q 2 --c 3 --d 6 --n 60 --n-cap 3000":
        (9118, "7af9688315d11906c9402cd28625cb9cbfe6d869c5189815e886083712178cf1"),
    "spectrum --q 2 --c 3 --d 6 --n 60 --format csv":
        (2878, "e6bbccd1043341c976cc38fcf58962fc0fedcdf91a21546f1d2e5fe2713f0476"),
    "spectrum --q 256 --c 6 --d 12 --n 40 --n-cap 3000":
        (27076, "815fbfc388023c9e4c7f875451f866c26255f714fcb7aa57a3c0fb18e06078b4"),
    "spectrum --q 256 --c 6 --d 12 --n 40 --format csv":
        (22813, "7c3371b22fc7c312d9ef5fbb78965735e5b59e0886dd69c6f11dcfc777a456c9"),
    "spectrum --q 7 --c 3 --d 6 --n 120 --n-cap 3000":
        (49312, "1de332fbf9f9bf47a8940ab3c4094f53cd1abe219a31b8692440a4e0df55b0d1"),
    "spectrum --q 7 --c 3 --d 6 --n 120 --format csv":
        (37131, "63363b4eadba6eb384902073446327aca1b7d9f57b9a244fca3fa2931504ec43"),
    "spectrum --q 4 --c 3 --d 6 --n 600 --n-cap 3000":
        (759293, "eb7c866cdf994390e7f231ccf3c7f9d5a4ae4e749db1a546a286d466fcb715a1"),
    "spectrum --q 4 --c 3 --d 6 --n 600 --format csv":
        (699592, "c16fddf125963706510e3743c1ac4612e182441271e5a12fe311db75a5a7226c"),
    "exhaustive --q 2 --c 2 --d 4 --n 2":
        (570, "33665eaf15a8ae3a6ba34e7f2c8ed95529799d435d1d77100533e9bb5f3c8233"),
    "exhaustive --q 2 --c 2 --d 4 --n 2 --format csv":
        (61, "c481966168d3da6452fe17a6324e0862e56fbf7384771a7c944db7858fa41725"),
    "small-weight --q 2 --c 3 --d 6 --l 4 --n-list 24,48,96,192":
        (933, "4fc6720eb661c7d7ec8efe1b411dda546098262cba49ef580f94823f25072def"),
    "small-weight --q 2 --c 3 --d 6 --l 4 --n-list 24,48,96,192 --format csv":
        (235, "0350570df6bddd6e192d5398d92519bd6fe41bcbc0fa8095dc29e399163a0334"),
    "small-weight --q 2 --c 3 --d 6 --l 3 --n-list 24,48,96":
        (643, "508717e01bdbf5edc59a208cbcbad2648eef9d3cdc238cbf232423c460b1bc55"),
    "small-weight --q 2 --c 3 --d 6 --l 3 --n-list 24,48,96 --format csv":
        (64, "4534b5480e8137cd8a31234fa9cc7655f66d6674eb9f043f501f8b4839abc6ac"),
    "simulate --q 2 --c 3 --d 6 --n 12 --trials 50 --seed 9":
        (2130, "44f3f5f14091bfa6c9e8105b250f2664b8e346a295fbefd2732e547e3254f8c2"),
    "simulate --q 2 --c 3 --d 6 --n 12 --trials 50 --seed 9 --format csv":
        (227, "8f66876f385f46cab97cca433f30bec8107c31be5c377967309f3d382b79198f"),
    "simulate --q 2 --c 3 --d 6 --n 24 --trials 25 --seed 634542366":
        (3330, "711075f497f5bf5e4ef894e86dce1db2978d7aafeeb02796d66d9b3e4ebdb777"),
    "simulate --q 2 --c 3 --d 6 --n 24 --trials 25 --seed 634542366 --format csv":
        (460, "b3cf5556a52e119ca48fdc7ef89507df6e7702b71a95d7bd87a5ea6d75e9a031"),
    "exhaustive --q 2 --c 3 --d 6 --n 4 --config-cap 1000000000":
        (806, "f95a58d8d5302ca8e1de9b31160bc167ca5b51509cd38a7bda4bfe53f1adfd7f"),
    "simulate --q 4 --c 2 --d 4 --n 8 --trials 300 --seed 11":
        (1967, "f0f69938040c0d3106a9dd76d3f6196dcdfb93a2eeb3ea00a1dec08b46b9cbc7"),
    "simulate --q 3 --c 3 --d 6 --n 12 --trials 200 --seed 5":
        (2560, "14c16846af5592e7cba5f678d28a7b162934fa7a724004320aaffa362eb26207"),
    "simulate --q 2 --c 3 --d 4 --n 8 --trials 200 --seed 5":
        (1754, "126eb7a8632c7504cf86f36133d34791b128ce297d2e218fb5f3591098b14403"),
    "exhaustive --q 4 --c 2 --d 4 --n 2":
        (585, "769b2d42006ed03a652115704d7af18c876b2913e5a7422f4424efe6eff0c5cf"),
}

RECORDED_ERRORS = {
    "growth --q 2 --c 3 --d 6 --steps 1":
        (2, '{"code": 2, "message": "steps must be at least 2, got 1"}\n'),
    "exhaustive --q 2 --c 3 --d 6 --n 12":
        (3, '{"code": 3, "message": "371993326789901217467999448150835200000000 '
            'ensemble configurations exceed the cap 100000000"}\n'),
    "spectrum --q 4 --c 3 --d 6 --n 4002":
        (3, '{"code": 3, "message": "block length 4002 exceeds the cap 4000; '
            'raise n_cap explicitly to proceed"}\n'),
    # a coefficient row c*n or c*l + 1 long cannot index a list
    "spectrum --q 7 --c 99999999999999999999 --d 1 --n 3":
        (3, '{"code": 3, "message": "coefficients a(0..299999999999999999997) exceed '
            'the longest list; c*n or c*l is too large"}\n'),
    "small-weight --q 7 --c 99999999999999999999 --d 1 --l 1 --n-list 3,6,9":
        (3, '{"code": 3, "message": "coefficients a(0..99999999999999999999) exceed '
            'the longest list; c*n or c*l is too large"}\n'),
}


def test_exact_documents_match_recorded_bytes(capsys):
    for argv, (length, digest) in RECORDED_DOCUMENTS.items():
        code, out, err = invoke(capsys, *argv.split())
        assert (code, err) == (0, ""), argv
        assert len(out) == length, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
    for argv, (exit_code, stderr) in RECORDED_ERRORS.items():
        assert invoke(capsys, *argv.split()) == (exit_code, "", stderr), argv


def test_default_cap_shows_only_in_the_meta_block(capsys):
    argv = ("spectrum", "--q", "7", "--c", "3", "--d", "6", "--n", "12")
    _, default, _ = invoke(capsys, *argv)
    _, explicit, _ = invoke(capsys, *argv, "--n-cap", "3000")
    assert f'"n_cap": {DEFAULT_N_CAP},' in default
    assert default == explicit.replace('"n_cap": 3000,', f'"n_cap": {DEFAULT_N_CAP},')


def csv_token(value):
    # the CSV token a JSON value must show: strings as they are, numbers by repr
    return value if isinstance(value, str) else repr(value)


def test_float_documents_json_rows_equal_csv_rows(capsys):
    tables = (
        ("growth --q 2 --c 3 --d 5 --steps 11", "curve"),
        ("delta --q 2 --d 5 --steps 11", "curve"),
        ("gv-limit --q 2 --d-list 6,12,24,48", "rows"),
    )
    for argv, key in tables:
        _, out, _ = invoke(capsys, *argv.split(), "--format", "csv")
        header, rows = parse_csv(out)
        _, out, _ = invoke(capsys, *argv.split(), "--format", "json")
        records = json.loads(out)["data"][key]
        assert len(records) == len(rows) > 0, argv
        for record, row in zip(records, rows):
            assert sorted(record) == sorted(header), argv
            assert {k: csv_token(v) for k, v in record.items()} == dict(zip(header, row))
    # omega(1) and delta(0.9) lie in the vanished region for q = 2, odd d
    _, out, _ = invoke(capsys, "growth", "--q", "2", "--c", "3", "--d", "5",
                       "--steps", "11", "--format", "json")
    assert json.loads(out)["data"]["curve"][-1]["omega"] == "-inf"
    _, out, _ = invoke(capsys, "delta", "--q", "2", "--d", "5", "--steps", "11",
                       "--format", "json")
    assert json.loads(out)["data"]["curve"][-2]["delta"] == "-inf"
    # bounds: the JSON summary describes the CSV margin table
    argv = ("bounds", "--q", "2", "--c", "3", "--d", "6", "--grid-steps", "50")
    _, out, _ = invoke(capsys, *argv, "--format", "csv")
    header, rows = parse_csv(out)
    _, out, _ = invoke(capsys, *argv, "--format", "json")
    smallx = json.loads(out)["data"]["smallx"]
    assert header == ["x", "omega", "bound", "margin"]
    assert smallx["grid_points"] == len(rows) == 50
    assert csv_token(smallx["min_margin"]) == min(rows, key=lambda r: float(r[3]))[3]


# The stdlib encoders the renderer in cli replaced, kept as its oracles:
# each document must be byte for byte what they write.


def jsonable(value):
    """Map a result value onto JSON-encodable structures.

    Non-finite floats become their repr, the strings "inf"/"-inf"/"nan"
    that CSV shows too, and numpy scalars become Python numbers.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.generic):
        return jsonable(value.item())
    return value


def oracle_json(args, data):
    doc = {
        "meta": {
            "command": args.command,
            "parameters": cli._meta_parameters(args),
            "seed": getattr(args, "seed", None),
            "version": ldpc_spectra.__version__,
        },
        "data": data,
    }
    return json.dumps(jsonable(doc), sort_keys=True, indent=2) + "\n"


def oracle_csv(header, rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


ORACLE_COMMANDS = (
    "spectrum --q 2 --c 3 --d 6 --n 60",
    "spectrum --q 256 --c 6 --d 12 --n 400",       # digit strings past 4300
    "exhaustive --q 2 --c 2 --d 4 --n 2",
    "growth --q 2 --c 3 --d 5 --steps 11",          # -inf at x = 1
    "delta --q 2 --d 5 --steps 11",                 # -inf in the vanished region
    "landmarks --q 2 --c 1 --d 6",                  # no landmarks: null fields
    "landmarks --q 2 --c 2 --d 6",                  # no x0, x3
    "landmarks --q 3 --c 3 --d 6",
    "simulate --q 2 --c 3 --d 6 --n 12 --trials 40 --seed 5 --no-filter",
    "simulate --q 4 --c 2 --d 4 --n 8 --trials 30 --seed 3",
    "bounds --q 2 --c 3 --d 6 --grid-steps 40",
    "bounds --q 2 --c 3 --d 6 --n 60 --l0 3 --alpha 0.02 --grid-steps 40 --filtered",
    "gv-limit --q 2 --d-list 6,12,24",
    "small-weight --q 3 --c 3 --d 2 --l 1 --n-list 20,40,80",   # exact_zero
    "small-weight --q 2 --c 3 --d 6 --l 4 --n-list 24,48,96",
) + tuple(f"figure --id {i}" for i in range(1, 6))


def test_documents_equal_stdlib_encoders(capsys):
    for command in ORACLE_COMMANDS:
        formats = ("json", "csv")
        if command.startswith(("landmarks", "figure")):
            formats = (None,)
        for fmt in formats:
            argv = command.split() + (["--format", fmt] if fmt else [])
            code, out, err = invoke(capsys, *argv)
            assert (code, err) == (0, ""), argv
            args = cli._run_parser().parse_args(argv)
            header, rows, data = args.func(args)
            if args.format == "json":
                assert out == oracle_json(args, data), argv
                continue
            assert out == oracle_csv(header, rows), argv
            # the CSV renderer quotes nothing, so no cell may need quotes
            for row in [header, *rows]:
                assert not any(set(str(cell)) & set(',"\r\n') for cell in row), argv


def test_emit_json_matches_stdlib_on_edge_values():
    args = argparse.Namespace(command="synthetic", func=None, format="json", output=None,
                              q=2, seed=None)
    data = {
        "floats": [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-310, 1.5e300, 0.1],
        "numpy": [np.float64(0.25), np.int64(-7), np.bool_(True), np.bool_(False)],
        "empty": {"dict": {}, "list": [], "tuple": ()},
        "nested": {"none": None, "list": [None, [None, {}], {"b": None}], "tuple": (1, (2,))},
        "text": ["", "gr\u00fc\u00dfe \u2603 \U0001f600", "\x00\x1f\t\n\r\"\\/", "\u2028"],
        # digit strings skip the escaper; the strings beside them still get it
        # (3**9100 has 4342 digits, so its string comes from the chunked path)
        "digits": [cli.digit_string(0), '"', cli.digit_string(10**50 + 3), "\\",
                   cli.digit_string(3**9100), "\x07", "\u00e9"],
        "ints": [0, -1, 2**64, 2**64 + 1, -(2**200), 10**300, True, False],
        "\u00e9 key": 1,
        "": "empty key",
    }
    out = io.StringIO()
    cli.emit_json(args, data, out)
    assert out.getvalue() == oracle_json(args, data)
    # a non-finite numpy float reads like a Python one; the old jsonable
    # gave numpy's repr, "np.float64(inf)", where no document carries one
    values = [np.float64(math.inf), np.float64(-math.inf), np.float64(math.nan)]
    out = io.StringIO()
    cli.emit_json(args, values, out)
    assert out.getvalue() == oracle_json(args, [math.inf, -math.inf, math.nan])


def chunked_digits(value):
    # decimal digits in chunks of 600, each below any limit str() enforces
    chunks = []
    while value >= 10**600:
        value, low = divmod(value, 10**600)
        chunks.append(f"{low:0600d}")
    chunks.append(str(value))
    return "".join(reversed(chunks))


def test_digit_string_around_chunk_and_limit_boundaries():
    values = [v for k in (599, 600, 601, 4299, 4300, 4301) for v in (10**k - 1, 10**k)]
    limit = sys.get_int_max_str_digits()
    for value in values:
        assert cli.digit_string(value) == chunked_digits(value)
    try:
        sys.set_int_max_str_digits(640)
        for value in values:
            assert cli.digit_string(value) == chunked_digits(value)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert sys.get_int_max_str_digits() == limit


def assert_exit_2_without_output(capsys, tmp_path, *argv):
    target = tmp_path / "out.json"
    code, out, err = invoke(capsys, *argv, "--output", str(target))
    assert (code, out) == (2, "")
    body = json.loads(err)
    assert body["code"] == 2 and isinstance(body["message"], str)
    assert list(tmp_path.iterdir()) == []
    return body["message"]


def test_bounds_rejects_nonpositive_grid_steps(tmp_path, capsys):
    message = assert_exit_2_without_output(
        capsys, tmp_path, "bounds", "--q", "2", "--c", "3", "--d", "6",
        "--grid-steps", "-3")
    assert "grid" in message


def test_simulate_rejects_negative_seed(tmp_path, capsys):
    message = assert_exit_2_without_output(
        capsys, tmp_path, "simulate", "--q", "2", "--c", "3", "--d", "6", "--n", "12",
        "--trials", "2", "--seed", "-1")
    assert "seed" in message


def test_small_weight_rejects_repeated_block_lengths(tmp_path, capsys):
    message = assert_exit_2_without_output(
        capsys, tmp_path, "small-weight", "--q", "2", "--c", "3", "--d", "6", "--l", "4",
        "--n-list", "24,24,24")
    assert "block lengths" in message
