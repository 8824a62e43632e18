"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each test also fails loudly on its own if the criterion is not met.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

import ldpc_spectra as ls
from ldpc_spectra.cli import _report_data, figure_data
from oracles import domega_alt

FOUR_ENSEMBLES = [(2, 3, 6), (2, 4, 8), (3, 3, 6), (2, 3, 5)]
FIG_PAIRS = [(2, 5), (2, 6), (3, 5), (3, 6)]
FIG_TRIPLES = [(q, c, d) for q, d in FIG_PAIRS for c in (1, 2, 3)]


def verdict(number, label, ok):
    print(f"ACCEPTANCE {number:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_c01_exhaustive_oracle_equality():
    start = time.monotonic()
    cases = [(2, 1, 3, 3), (3, 1, 3, 3), (2, 2, 4, 2), (2, 2, 2, 2), (4, 1, 2, 2)]
    ok = True
    for q, c, d, n in cases:
        params = ls.EnsembleParams(q=q, c=c, d=d, n=n)
        ok &= ls.exhaustive_ensemble(params).values == \
            ls.avg_weight_distribution(params).values
    elapsed = time.monotonic() - start
    verdict(1, "exhaustive average equals the closed form", ok and elapsed < 10)


def test_c02_degree_two_closed_form():
    start = time.monotonic()
    ok = True
    for q in (2, 3, 4):
        for c in (2, 3, 4):
            for n in range(1, 21):
                if (c * n) % 2:
                    continue
                params = ls.EnsembleParams(q=q, c=c, d=2, n=n)
                ok &= ls.avg_weight_d2(params).values == \
                    ls.avg_weight_distribution(params).values
    elapsed = time.monotonic() - start
    verdict(2, "degree-2 closed form equals the recurrence", ok and elapsed < 5)


def test_c03_spectrum_and_growth_symmetry():
    ok = True
    for q, c, d, n in [(2, 3, 6, 12), (2, 4, 6, 12)]:
        params = ls.EnsembleParams(q=q, c=c, d=d, n=n)
        vals = ls.avg_weight_distribution(params).values
        ok &= all(vals[l] == vals[n - l] for l in range(n + 1))
    xs = np.linspace(0.0, 1.0, 1000)
    fwd, _ = ls.omega_curve(2, 3, 6, xs)
    rev, _ = ls.omega_curve(2, 3, 6, 1.0 - xs)
    ok &= bool(np.nanmax(np.abs(fwd - rev)) < 1e-10)
    verdict(3, "weight and growth-rate symmetry", ok)


def test_c04_small_weight_exponent():
    start = time.monotonic()
    grid = [24, 48, 96, 192, 384]
    rep = ls.small_weight_scaling(2, 3, 6, 2, grid)
    ok = abs(rep.slope - (-1)) < 0.1
    rep3 = ls.small_weight_scaling(2, 3, 6, 3, grid)
    ok &= rep3.exact_zero and all(v == 0 for v in rep3.values)
    rep1 = ls.small_weight_scaling(3, 3, 6, 1, grid)
    ok &= abs(rep1.slope - (-1)) < 0.1
    elapsed = time.monotonic() - start
    verdict(4, "small-weight decay exponents", ok and elapsed < 60)


def test_c05_growth_rate_convergence():
    alpha = 0.3
    target = ls.omega(2, 3, 6, alpha).omega
    gaps = []
    for n in (60, 120, 240, 480):
        params = ls.EnsembleParams(q=2, c=3, d=6, n=n)
        value = ls.avg_weight_at(params, int(alpha * n))
        gaps.append(abs(ls.log_fraction(value) / n - target))
    ok = all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 0.05
    verdict(5, "finite-length growth-rate convergence", ok)


def test_c06_landmark_residuals_and_shape():
    ok = True
    for q, c, d in FOUR_ENSEMBLES:
        lm = ls.landmarks(q, c, d)
        ok &= abs(ls.omega(q, c, d, lm.x0).omega) < 1e-10
        ok &= abs(ls.domega(q, c, d, lm.x3)) < 1e-10
        ok &= abs(ls.xi(q, c, d, lm.s2)) < 1e-10
        peak = 1 - 1 / q
        below = np.linspace(lm.x0 / 1000, lm.x0 * (1 - 1e-9), 1000)
        om, _ = ls.omega_curve(q, c, d, below)
        ok &= bool((om < 0).all())
        above = np.linspace(lm.x0 * (1 + 1e-6), peak, 1000)
        om, _ = ls.omega_curve(q, c, d, above)
        ok &= bool((om > 0).all())
        # convexity flips at x2: positive second difference left, negative right
        h = 1e-4
        for x, sign in ((lm.x2 * 0.5, 1), (lm.x2 + (lm.x1 - lm.x2) * 0.5, -1)):
            om, _ = ls.omega_curve(q, c, d, np.array([x - h, x, x + h]))
            ok &= sign * (om[0] - 2 * om[1] + om[2]) > 0
    verdict(6, "landmark residuals and curve shape", ok)


def test_c07_endpoint_closed_forms():
    tol = 1e-10
    ok = True
    for q, d in FIG_PAIRS:
        ok &= abs(ls.delta(q, d, 0.0).value - math.log(q)) < tol
        x1 = ls.x1_right_endpoint(q, d)
        if q == 2 and d % 2:
            ref = math.log(2 * d) - d * ls.entropy_q(1 / d, 2)
            ok &= abs(ls.delta(q, d, x1).value - ref) < tol
            ok &= ls.delta(q, d, (x1 + 1) / 2).value == -math.inf
            ok &= ls.delta(q, d, 1.0).value == -math.inf == ls.rho(q, d, 1.0)
        else:
            ok &= abs(ls.delta(q, d, 1.0).value - ls.rho(q, d, 1.0)) < tol
    ok &= abs(ls.delta(2, 5, 0.8).value
              - (math.log(10) - 5 * ls.entropy_q(0.2, 2))) < tol
    for q, c, d in FIG_TRIPLES:
        ok &= ls.omega(q, c, d, 0.0).omega == 0.0
        want = (1 - c / d) * math.log(q)
        ok &= abs(ls.omega(q, c, d, 1 - 1 / q).omega - want) < tol
        x1 = ls.x1_right_endpoint(q, d)
        if q == 2 and d % 2:
            ref = (1 - c) * ls.entropy_q(1 / d, 2) + (c / d) * math.log(d)
            ok &= abs(ls.omega(q, c, d, x1).omega - ref) < tol
            ok &= ls.omega(q, c, d, (x1 + 1) / 2).omega == -math.inf
        else:
            ref = math.log(q - 1) + (c / d) * (ls.rho(q, d, 1.0) - math.log(q))
            ok &= abs(ls.omega(q, c, d, x1).omega - ref) < tol
    verdict(7, "endpoint closed forms", ok)


def test_c08_derivative_consistency():
    h = 1e-5
    ok = True
    for q, c, d in FIG_TRIPLES:
        x1 = ls.x1_right_endpoint(q, d)
        xs = np.linspace(0.05, x1 - 0.05, 100)
        plus, _ = ls.omega_curve(q, c, d, xs + h)
        minus, _ = ls.omega_curve(q, c, d, xs - h)
        _, dom = ls.omega_curve(q, c, d, xs)
        ok &= bool(np.max(np.abs(dom - (plus - minus) / (2 * h))) < 1e-6)
        for x in xs[::11]:
            ok &= abs(ls.domega(q, c, d, float(x))
                      - domega_alt(q, c, d, float(x))) < 1e-10
    verdict(8, "derivative against finite differences and the second form", ok)


def test_c09_small_x_inequality():
    ok = True
    for q in (2, 3, 4):
        xs = np.geomspace(1e-6, (1 / q**2) * (1 - 1e-9), 1000)
        for c in (1, 2, 3, 4):
            for d in range(2, 9):
                ok &= ls.smallx_inequality_margin(q, c, d, xs).min_margin > 0
    verdict(9, "small-weight growth inequality margin", ok)


def test_c10_monte_carlo_consistency():
    start = time.monotonic()
    params = ls.EnsembleParams(q=2, c=3, d=6, n=12)
    exact = ls.avg_weight_distribution(params).values
    reports = {
        w: ls.monte_carlo(params, trials=10_000, seed=0, l0=1, alpha=0.3,
                          workers=w)
        for w in (1, 2, 8)
    }
    docs = {w: json.dumps(_report_data(r), sort_keys=True)
            for w, r in reports.items()}
    ok = docs[1] == docs[2] == docs[8]
    stats = reports[1].overall
    for l in range(13):
        if stats.stderr[l] == 0.0:
            ok &= stats.mean[l] == float(exact[l])
        else:
            ok &= abs(stats.mean[l] - float(exact[l])) <= 4 * stats.stderr[l]
    elapsed = time.monotonic() - start
    verdict(10, "Monte Carlo within four standard errors, worker-invariant",
            ok and elapsed < 60)


def test_c11_gv_limit():
    gv = ls.gv_threshold(2, 0.5)
    gaps = []
    for d in (6, 12, 24, 48):
        x0 = ls.landmarks(2, d // 2, d).x0
        gaps.append(abs(x0 - gv))
    ok = all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 0.01
    verdict(11, "typical distance approaches the GV threshold", ok)


def test_c12_factorization_identity():
    ok = True
    for d in (3, 5, 7, 9):
        lhs = [0] * (2 * d - 1)
        lhs[0] = 1
        lhs[d - 2] -= d - 1
        lhs[d] += d - 1
        lhs[2 * d - 2] -= 1
        tail = [0] * (2 * d - 4)
        for i in range(d - 2):
            w = (i + 1) * (i + 2) // 2
            tail[i] += w
            tail[2 * d - 5 - i] += w
        rhs = [0] * (3 + len(tail))
        for a, ca in enumerate([1, -3, 3, -1]):
            for b, cb in enumerate(tail):
                rhs[a + b] += ca * cb
        ok &= rhs == lhs
    verdict(12, "odd-degree factorization identity", ok)


def test_c13_large_block_performance():
    start = time.monotonic()
    params = ls.EnsembleParams(q=2, c=3, d=6, n=600)
    table = ls.avg_weight_distribution(params)
    elapsed = time.monotonic() - start
    ok = len(table.values) == 601 and table.values[0] == 1 and elapsed < 60
    verdict(13, "full exact table at block length 600", ok)
