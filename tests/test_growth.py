"""Growth rate, inner exponent, landmark, and threshold tests."""

from __future__ import annotations

import decimal
import math
from fractions import Fraction

import numpy as np
import pytest

from ldpc_spectra import (
    DomainError,
    ParameterError,
    delta,
    entropy_q,
    gv_threshold,
    landmarks,
    omega,
    rho,
    x1_right_endpoint,
    xi,
    zeta,
)
from ldpc_spectra.cli import figure_data
from ldpc_spectra.growth import BISECT_TOL, _sides, gap_map, omega_family, solve_gap_batch
from oracles import delta_two_arg, divergence, domega_alt

FIG_PAIRS = [(2, 5), (2, 6), (3, 5), (3, 6)]
FIG_TRIPLES = [(q, c, d) for q, d in FIG_PAIRS for c in (1, 2, 3)]


# ---------------------------------------------------------------------------
# scalar functions


def test_entropy_examples():
    assert entropy_q(0.0, 2) == 0.0
    assert entropy_q(0.5, 2) == pytest.approx(math.log(2), abs=1e-15)
    for q in (2, 3, 4, 5):
        assert entropy_q(1 - 1 / q, q) == pytest.approx(math.log(q), abs=1e-12)
    assert entropy_q(1.0, 3) == pytest.approx(math.log(2), abs=1e-15)


def test_entropy_domain():
    with pytest.raises(DomainError):
        entropy_q(-0.1, 2)
    with pytest.raises(DomainError):
        entropy_q(1.1, 2)


def test_divergence_examples():
    assert divergence(0.3, 0.3) == 0.0
    assert divergence(0.0, 0.4) == pytest.approx(-math.log(0.6), abs=1e-15)
    assert divergence(0.3, 0.1) > 0
    assert divergence(0.5, 1.0) == math.inf
    assert divergence(0.5, 0.0) == math.inf
    assert divergence(1.0, 1.0) == 0.0
    assert divergence(0.0, 0.0) == 0.0


def test_rho_special_values():
    for q in (2, 3, 4):
        for d in (3, 5, 6):
            assert rho(q, d, 0.0) == pytest.approx(math.log(q), abs=1e-15)
            assert rho(q, d, 1 - 1 / q) == pytest.approx(0.0, abs=1e-15)
    assert rho(3, 6, 1.0) == pytest.approx(math.log(33 / 32), abs=1e-15)
    assert rho(2, 5, 1.0) == -math.inf
    assert rho(2, 6, 1.0) == pytest.approx(math.log(2), abs=1e-15)


# ---------------------------------------------------------------------------
# zeta and its inverse


def test_zeta_fixes_endpoints():
    for q in (2, 3, 4):
        for d in range(3, 9):
            assert zeta(q, d, 0.0) == 0.0
            assert zeta(q, d, 1.0) == 1.0


def test_zeta_left_endpoint_values():
    assert zeta(2, 5, -1.0) == pytest.approx(-3 / 5, abs=1e-15)
    assert zeta(2, 7, -1.0) == pytest.approx(2 / 7 - 1, abs=1e-15)
    # even d: plain evaluation at -1
    assert zeta(2, 6, -1.0) == pytest.approx(-1.0, abs=1e-15)


def test_zeta_strictly_increasing():
    for q in (2, 3, 4):
        lo = -1 / (q - 1)
        for d in range(3, 9):
            grid = np.linspace(lo, 1.0, 10_000)
            vals = np.array([zeta(q, d, float(t)) for t in grid])
            assert (np.diff(vals) > 0).all(), (q, d)


def test_zeta_shift_identity():
    # zeta(z) - z == z^(d-1) (1-z) (1+(q-1)z) / (1+(q-1)z^d)
    for q in (2, 3, 4):
        lo = -1 / (q - 1)
        for d in range(3, 9):
            grid = np.linspace(lo, 1.0, 10_000)
            for t in grid[::37]:
                t = float(t)
                den = 1 + (q - 1) * t**d
                if abs(den) < 1e-9:
                    continue
                want = t ** (d - 1) * (1 - t) * (1 + (q - 1) * t) / den
                assert abs((zeta(q, d, t) - t) - want) < 1e-12, (q, d, t)


def test_zeta_domain_checked():
    with pytest.raises(DomainError):
        zeta(3, 4, -0.51)
    with pytest.raises(DomainError):
        zeta(2, 4, 1.01)


def test_solve_gap_batch_solves():
    for q, d in ((2, 5), (2, 6), (3, 6), (4, 4)):
        # the left end of zeta's range: zeta(-1) = 2/d - 1 for q = 2 with odd d
        z1 = 2.0 / d - 1.0 if q == 2 and d % 2 == 1 else -1.0 / (q - 1.0)
        z = np.linspace(z1 + 1e-6, 1.0 - 1e-6, 257)
        got = solve_gap_batch(q, d, 1.0 - z)
        for zi, s in zip(z, got):
            assert abs(zeta(q, d, 1.0 - float(s)) - zi) < 1e-10


def test_solve_gap_batch_roots_independent_of_batch():
    # every element stops on its own, so its root is the one it has alone
    for q, d in ((2, 5), (3, 6)):
        x1 = x1_right_endpoint(q, d)
        xs = np.linspace(0.0, 1.0, 1001)
        w = q * xs[(xs > 0.0) & (xs < x1 - 1e-8)] / (q - 1.0)
        got = solve_gap_batch(q, d, w)
        for i in range(w.size):
            assert solve_gap_batch(q, d, w[i:i + 1])[0] == got[i], (q, d, i)


def test_solve_gap_batch_small_gaps_to_relative_precision():
    # 1 - zeta(1 - s) = s**2 S(t) / (1 + (q-1) t**d), t = 1 - s,
    # S(t) = sum_{k<d-1} t**k, evaluated exactly at the returned gap
    for q, d in ((2, 6), (4, 6), (65536, 8)):
        w = np.geomspace(1e-300, 1e-20, 9)
        got = solve_gap_batch(q, d, w)
        for wi, s in zip(w, got):
            sf = Fraction(float(s))
            t = 1 - sf
            gap = sf**2 * sum(t**k for k in range(d - 1)) / (1 + (q - 1) * t**d)
            assert abs(gap / Fraction(float(wi)) - 1) < 1e-11, (q, d, wi)


def _halve(q, d, near, w, steps):
    """Bisect gap_map(s) = w from the bracket of solve_gap_batch by steps
    halvings of its width: the fixed-step reference for the Newton solve.
    """
    lo = np.sqrt(w / (d - 1.0)) if near else np.ones_like(w)
    width = (np.minimum(np.sqrt(q * w), 1.0) if near else q / (q - 1.0)) - lo
    for _ in range(steps):
        width = 0.5 * width
        mid = lo + width
        lo = np.where(gap_map(q, d, mid, near) < w, mid, lo)
    return lo + 0.5 * width


def _bisected_gaps(q, d, xs):
    w = q * np.asarray(xs, np.float64) / (q - 1.0)
    steps = math.ceil(math.log2(math.sqrt(q * (d - 1.0)) / BISECT_TOL))
    with np.errstate(divide="ignore"):
        return _sides(w < 1.0, lambda k, near: _halve(q, d, near, w[k], steps))


def _interior(q, d, xs):
    xs = np.asarray(xs, np.float64)
    return xs[(xs > 0.0) & (xs < x1_right_endpoint(q, d) - 1e-8)]


TINY_XS = [1e-300, 1e-100, 1e-20, 1e-8]


def _gap_solve_cases():
    # the figure, growth and delta grid; the bounds grid; the q = 2 far
    # side up to x1 - 2e-8; large q and d; and the tiniest weights
    figure = np.linspace(0.0, 1.0, 1001)
    smallx = lambda q: np.geomspace(1e-6, (1.0 - 1e-9) / q**2, 1000)
    cases = [(q, d, figure) for q, d in FIG_PAIRS]
    cases += [(q, d, smallx(q)) for q, d in ((2, 6), (3, 6), (2, 5), (4, 6))]
    for q, d in ((2, 5), (2, 6)):
        x1 = x1_right_endpoint(q, d)
        cases.append((q, d, np.linspace(0.5, x1 - 2e-8, 2001)))
        cases.append((q, d, x1 - np.geomspace(2e-8, 1e-2, 200)))
    for q, d in ((256, 8), (65536, 3), (65521, 8), (2, 3000)):
        cases.append((q, d, np.linspace(0.0, 1.0, 2001)))
    return [(q, d, np.concatenate([_interior(q, d, xs), TINY_XS])) for q, d, xs in cases]


def test_solve_gap_batch_matches_bisection():
    for q, d, xs in _gap_solve_cases():
        got = solve_gap_batch(q, d, q * xs / (q - 1.0))
        want = _bisected_gaps(q, d, xs)
        worst = np.max(np.abs(got - want) / want)
        assert worst <= 1e-12, (q, d, worst)


# ---------------------------------------------------------------------------
# inner exponent delta


def test_delta_endpoint_cases():
    for q, d in FIG_PAIRS + [(4, 4)]:
        assert delta(q, d, 0.0)[0] == pytest.approx(math.log(q), abs=1e-12)
        x1 = x1_right_endpoint(q, d)
        at_x1 = delta(q, d, x1)[0]
        if q == 2 and d % 2:
            ref = math.log(2 * d) - d * entropy_q(1 / d, 2)
            assert at_x1 == pytest.approx(ref, abs=1e-12)
            assert delta(q, d, (x1 + 1) / 2)[0] == -math.inf
            assert delta(q, d, 1.0)[0] == rho(q, d, 1.0) == -math.inf
        else:
            assert at_x1 == pytest.approx(rho(q, d, 1.0), abs=1e-12)


def test_delta_at_distribution_peak():
    for q, d in FIG_PAIRS:
        assert delta(q, d, 1 - 1 / q)[0] == pytest.approx(0.0, abs=1e-11)


def test_delta_known_value_odd_binary():
    ref = math.log(10) - 5 * entropy_q(0.2, 2)
    assert delta(2, 5, 0.8)[0] == pytest.approx(ref, abs=1e-12)


def test_delta_two_arg_examples():
    assert delta_two_arg(2, 4, 0.5, 0.5) == pytest.approx(0.0, abs=1e-15)
    for q, d in FIG_PAIRS:
        for x in (0.1, 0.4, 0.6):
            assert delta_two_arg(q, d, x, x) == pytest.approx(
                rho(q, d, x), abs=1e-13)
    want = 6 * divergence(0.2, 0.3) + rho(2, 6, 0.3)
    assert delta_two_arg(2, 6, 0.2, 0.3) == pytest.approx(want, abs=1e-14)


def test_delta_two_arg_domain():
    with pytest.raises(DomainError):
        delta_two_arg(2, 6, 0.2, 0.0)
    with pytest.raises(DomainError):
        delta_two_arg(2, 6, 0.2, 1.0)


def test_delta_is_grid_infimum():
    grid = np.linspace(1e-6, 1 - 1e-6, 10_001)
    val = delta(2, 6, 0.3)[0]
    two = min(delta_two_arg(2, 6, 0.3, float(xh)) for xh in grid)
    assert val <= two + 1e-12
    assert two - val < 1e-6


def test_delta_infimum_across_pairs():
    grid = np.linspace(1e-4, 1 - 1e-4, 2_001)
    for q, d in FIG_PAIRS:
        x1 = x1_right_endpoint(q, d)
        for x in np.linspace(0.05, x1 * 0.95, 7):
            val = delta(q, d, float(x))[0]
            if val == -math.inf:
                continue
            best = min(delta_two_arg(q, d, float(x), float(xh)) for xh in grid)
            assert val <= best + 1e-12, (q, d, x)
            assert best - val < 1e-4, (q, d, x)


def test_xhat1_lies_in_interior_bracket():
    # below the peak the minimizer sits in (x, 1-1/q); above it,
    # in (x, 1) for odd d and in (1-1/q, x) for even d.  Both sides get
    # 1e-12 of slack: at (3, 6) and x = 0.66633 the true xhat1 - x is
    # 2.1e-17, below one ulp of x, so a tilt solved to the floor gives x
    for q, d in FIG_PAIRS:
        peak = 1 - 1 / q
        x1 = x1_right_endpoint(q, d)
        for x in np.linspace(1e-3, x1 * (1 - 1e-3), 211):
            val, _, xhat1 = delta(q, d, float(x))
            if val == -math.inf:
                continue
            if x < peak:
                assert x - 1e-12 < xhat1 < peak + 1e-12, (q, d, x, xhat1)
            elif x > peak:
                if d % 2:
                    assert x - 1e-12 < xhat1 < 1, (q, d, x, xhat1)
                else:
                    assert peak - 1e-12 < xhat1 < x + 1e-12, (q, d, x, xhat1)


def test_delta_low_degree_rejected():
    with pytest.raises(ParameterError):
        delta(2, 2, 0.3)
    with pytest.raises(DomainError):
        delta(2, 6, -0.01)
    with pytest.raises(DomainError):
        delta(2, 6, 1.01)


def _same_bits(floats, arrays, i):
    # a float call against element i of an array call, NaN and -0.0 included
    assert all(type(v) is float for v in floats), floats
    return [np.float64(v).tobytes() for v in floats] == [a[i].tobytes() for a in arrays]


def test_delta_curve_matches_scalar():
    for q, d in ((2, 6), (2, 5), (3, 6)):
        xs = np.linspace(0.0, 1.0, 101)
        curve = delta(q, d, xs)
        assert all(type(a) is np.ndarray and a.shape == xs.shape for a in curve)
        for i in range(xs.size):
            assert _same_bits(delta(q, d, float(xs[i])), curve, i), (q, d, i)


# ---------------------------------------------------------------------------
# growth rate omega


def test_omega_endpoint_values():
    for q, c, d in FIG_TRIPLES:
        assert omega(q, c, d, 0.0)[0] == 0.0
        peak = 1 - 1 / q
        want = (1 - c / d) * math.log(q)
        assert omega(q, c, d, peak)[0] == pytest.approx(want, abs=1e-12)
        x1 = x1_right_endpoint(q, d)
        at_x1 = omega(q, c, d, x1)[0]
        if q == 2 and d % 2:
            ref = (1 - c) * entropy_q(1 / d, 2) + (c / d) * math.log(d)
            assert at_x1 == pytest.approx(ref, abs=1e-12)
            assert omega(q, c, d, (x1 + 1) / 2)[0] == -math.inf
        else:
            ref = math.log(q - 1) + (c / d) * (rho(q, d, 1.0) - math.log(q))
            assert at_x1 == pytest.approx(ref, abs=1e-12)


def test_omega_known_values():
    assert omega(2, 3, 6, 0.5)[0] == pytest.approx(math.log(2) / 2, abs=1e-13)
    ref = -2 * entropy_q(0.2, 2) + (3 / 5) * math.log(5)
    assert omega(2, 3, 5, 0.8)[0] == pytest.approx(ref, abs=1e-12)


def test_omega_symmetry_binary_even_d():
    xs = np.linspace(0.0, 1.0, 1000)
    for c in (2, 3, 4):
        for d in (4, 6, 8):
            fwd, _ = omega(2, c, d, xs)
            rev, _ = omega(2, c, d, 1.0 - xs)
            assert np.nanmax(np.abs(fwd - rev)) < 1e-10, (c, d)


def test_omega_curve_matches_scalar():
    for q, c, d in ((3, 2, 6), (2, 3, 5), (2, 3, 6), (4, 3, 2)):
        xs = np.linspace(0.0, 1.0, 101)
        curve = omega(q, c, d, xs)
        assert all(type(a) is np.ndarray and a.shape == xs.shape for a in curve)
        for i in range(xs.size):
            assert _same_bits(omega(q, c, d, float(xs[i])), curve, i), (q, c, d, i)


def test_entropy_curve_matches_scalar():
    xs = np.linspace(0.0, 1.0, 101)
    for q in (2, 3, 256):
        curve = entropy_q(xs, q)
        for i in range(xs.size):
            assert _same_bits((entropy_q(float(xs[i]), q),), (curve,), i), (q, i)


def test_omega_d2_slope_closed_form():
    # cycle codes: omega = (1 - c/2) H_q(x), whose slope
    # (1 - c/2) [ln(q-1) + ln((1-x)/x)] is 0 for c = 2 and tends to
    # (1 - c/2) * (+inf) at x = 0 and (1 - c/2) * (-inf) at x = 1
    xs = np.linspace(0.0, 1.0, 21)
    inner = xs[1:-1]
    limits = {1: (math.inf, -math.inf), 2: (0.0, 0.0), 3: (-math.inf, math.inf)}
    for q in (2, 3, 4):
        for c in (1, 2, 3):
            om, dom = omega(q, c, 2, xs)
            want = (1 - c / 2) * (math.log(q - 1) + np.log((1 - inner) / inner))
            assert np.allclose(dom[1:-1], want, rtol=1e-13, atol=1e-15), (q, c)
            assert (dom[0], dom[-1]) == limits[c], (q, c)
            for i in (0, 7, 20):
                assert omega(q, c, 2, float(xs[i])) == (om[i], dom[i]), (q, c, i)


# ---------------------------------------------------------------------------
# derivative



def test_omega_family_shares_one_solve_exactly():
    xs = np.linspace(0.0, 1.0, 1001)
    for q, d in FIG_PAIRS + [(3, 2)]:
        family = omega_family(q, (1, 2, 3), d, xs)
        for c, om in zip((1, 2, 3), family):
            assert np.array_equal(om, omega(q, c, d, xs)[0], equal_nan=True), (q, c, d)
    shapes = {1: ["x", "delta_2_5", "delta_2_6", "delta_3_5", "delta_3_6"]}
    for fig in range(1, 6):
        header, rows = figure_data(fig)
        assert header == shapes.get(fig, ["x", "omega_c1", "omega_c2", "omega_c3"]), fig
        assert len(rows) == 1001 and {len(row) for row in rows} == {len(header)}, fig


def test_omega_family_checks_every_degree():
    with pytest.raises(ParameterError):
        omega_family(2, (1, 0, 3), 6, [0.1])
    with pytest.raises(DomainError):
        omega_family(2, (1, 2, 3), 6, [0.1, 1.5])


def test_omega_curve_rejects_nan():
    # a NaN weight used to pass the range check and come back with an
    # unset slot of np.empty_like as its slope
    with pytest.raises(DomainError):
        omega(2, 3, 6, [0.1, math.nan, 0.2])


def test_delta_curve_rejects_nan():
    # a NaN weight used to take the x = 0 values: delta = ln 3, zhat1 = 1
    with pytest.raises(DomainError):
        delta(3, 6, [math.nan])

def test_domega_zero_at_peak():
    for q, c, d in FIG_TRIPLES:
        assert abs(omega(q, c, d, 1 - 1 / q)[1]) < 1e-10


def test_domega_limits_at_zero():
    for q, d in FIG_PAIRS:
        assert omega(q, 1, d, 0.0)[1] == math.inf
        assert omega(q, 2, d, 0.0)[1] == pytest.approx(math.log(d - 1), abs=1e-13)
        assert omega(q, 3, d, 0.0)[1] == -math.inf


def test_domega_limits_at_right_endpoint():
    # binary even degree keeps a finite or signed-infinite limit at 1
    assert omega(2, 1, 6, 1.0)[1] == -math.inf
    assert omega(2, 2, 6, 1.0)[1] == pytest.approx(-math.log(5), abs=1e-13)
    assert omega(2, 3, 6, 1.0)[1] == math.inf
    # otherwise the slope falls to -inf at the right endpoint
    assert omega(3, 2, 6, 1.0)[1] == -math.inf
    assert omega(2, 2, 5, 0.8)[1] == -math.inf


def test_domega_matches_finite_differences():
    h = 1e-5
    for q, c, d in FIG_TRIPLES:
        x1 = x1_right_endpoint(q, d)
        xs = np.linspace(0.05, x1 - 0.05, 100)
        om_p, _ = omega(q, c, d, xs + h)
        om_m, _ = omega(q, c, d, xs - h)
        fd = (om_p - om_m) / (2 * h)
        _, dom = omega(q, c, d, xs)
        assert np.max(np.abs(dom - fd)) < 1e-6, (q, c, d)


def test_domega_two_forms_agree():
    for q, c, d in FIG_TRIPLES:
        x1 = x1_right_endpoint(q, d)
        for x in np.linspace(0.03, x1 - 0.03, 41):
            a = omega(q, c, d, float(x))[1]
            b = domega_alt(q, c, d, float(x))
            assert abs(a - b) < 1e-10, (q, c, d, x)


def test_domega_two_forms_agree_for_cycle_codes():
    # at q = 2, c = 3, x = 0.1 the gap solves s**2 = 0.2 (1 + (1 - s)**2),
    # so s = 1/2, xhat1 = 1/4, and both forms give 2 ln(1/9) + 3 ln 3 = -ln 3
    assert domega_alt(2, 3, 2, 0.1) == pytest.approx(-math.log(3.0), rel=1e-14)
    assert omega(2, 3, 2, 0.1)[1] == pytest.approx(-math.log(3.0), rel=1e-14)
    for q in (2, 3, 5, 256):
        for c in (1, 2, 3, 6):
            for x in (1e-9, 0.01, 0.1, 0.4, 1.0 - 1.0 / q, 0.9, 0.999):
                want = omega(q, c, 2, x)[1]
                assert domega_alt(q, c, 2, x) == pytest.approx(want, rel=1e-12, abs=1e-12), (q, c, x)


def _decimal_oracle(q, c, d, x, digits=420):
    """omega(x) and omega'(x) from d D(x || xhat) + rho(xhat) at `digits` digits.

    The gap s = 1 - zhat1 solves 1 - zeta(1 - s) = q x/(q-1) by bisection in
    stdlib decimal; the digits cover 1 - x at x = 1e-300.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        X, Q = decimal.Decimal(x), decimal.Decimal(q)
        w = X * Q / (Q - 1)

        def gap(s):
            t = 1 - s
            return s * (1 - t ** (d - 1)) / (1 + (Q - 1) * t**d)

        if w < 1:
            lo, hi = (w / (d - 1)).sqrt(), min((Q * w).sqrt(), decimal.Decimal(1))
        else:
            lo, hi = decimal.Decimal(1), Q / (Q - 1)
        for _ in range(160):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if gap(mid) < w else (lo, mid)
        s = (lo + hi) / 2
        t = 1 - s
        xh = (Q - 1) * s / Q
        div = X * (X / xh).ln() + (1 - X) * ((1 - X) / (1 - xh)).ln()
        rho_ = (1 + (Q - 1) * t**d).ln()
        h = -X * X.ln() - (1 - X) * (1 - X).ln() + X * (Q - 1).ln()
        om = h + decimal.Decimal(c) / d * (d * div + rho_ - Q.ln())
        td1 = t ** (d - 1)
        dom = ((1 + (Q - 1) * t) / s).ln() + (c - 1) * ((1 - td1) / (1 + (Q - 1) * td1)).ln()
        return float(om), float(dom)


ORACLE_XS = (1e-300, 1e-100, 1e-20, 1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.3, 0.6, 0.9)


@pytest.mark.parametrize("q, c, d", [
    (2, 3, 6), (4, 3, 6), (3, 2, 6), (2, 3, 5), (2, 3, 48), (256, 3, 8),
    (65536, 3, 6), (65521, 4, 8),
])
def test_omega_matches_decimal_oracle(q, c, d):
    x1 = x1_right_endpoint(q, d)
    xs = np.array([x for x in ORACLE_XS if x < x1 - 1e-8])
    om, dom = omega(q, c, d, xs)
    for x, got, slope in zip(xs, om, dom):
        want, want_slope = _decimal_oracle(q, c, d, float(x))
        assert abs(got - want) <= 1e-12 * abs(want), (x, got, want)
        assert abs(slope - want_slope) <= 1e-12 * max(1.0, abs(want_slope)), (x, slope, want_slope)


def test_domega_nan_beyond_domain():
    assert math.isnan(omega(2, 3, 5, 0.9)[1])


# ---------------------------------------------------------------------------
# xi and landmarks


def xi_coefficients(q, c, d):
    # ones, then -k and -(q-1)k, then (q-1) ones, k = (c-1)(d-1) - 1
    k = (c - 1) * (d - 1) - 1
    return [1] * (d - 2) + [-k, -(q - 1) * k] + [q - 1] * (d - 2)


def xi_oracle(q, c, d, t):
    # the integer curvature polynomial by 60-digit Horner at the tilt t
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        t = decimal.Decimal(t)
        out = decimal.Decimal(0)
        for a in reversed(xi_coefficients(q, c, d)):
            out = out * t + a
        return out


def xi_oracle_at_gap(q, c, d, s):
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        t = 1 - decimal.Decimal(s)
    return xi_oracle(q, c, d, t)


def test_xi_special_values():
    for q in (2, 3, 4):
        for c in (2, 3, 4):
            for d in (3, 5, 6, 8):
                assert xi(q, c, d, 1.0) == 1.0
                want = -q * (c - 2) * (d - 1)
                assert xi(q, c, d, 0.0) == want
                assert xi(q, c, d, 1e-300) == pytest.approx(want, abs=1e-9)


def test_xi_coefficient_pattern():
    assert xi_coefficients(2, 3, 6) == [1, 1, 1, 1, -9, -9, 1, 1, 1, 1]
    assert xi_coefficients(3, 3, 4) == [1, 1, -5, -10, 2, 2]
    coeffs = xi_coefficients(4, 2, 5)
    assert len(coeffs) == 2 * 5 - 2
    assert coeffs[0] == 1 and coeffs[-1] == 3


@pytest.mark.parametrize("q, c, d", [(2, 3, 6), (3, 3, 6), (2, 4, 8), (4, 3, 5), (3, 2, 6),
                                     (2, 3, 3000)])
def test_xi_closed_form_matches_polynomial(q, c, d):
    # at c = 2 both terms of the closed form tend to q(d-2) as s -> 0 and
    # cancel, so below 1 the error is taken absolute
    for s in (1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0, 1.3, 1.9):
        want = xi_oracle_at_gap(q, c, d, s)
        got = xi(q, c, d, s)
        tol = decimal.Decimal(1e-12) * max(1, abs(want))
        assert abs(decimal.Decimal(got) - want) <= tol, (s, got, want)


def test_xi_positive_for_binary_c2():
    for d in range(3, 9):
        grid = np.linspace(1e-3, 2 - 1e-3, 2001)
        assert all(xi(2, 2, d, float(s)) > 0 for s in grid), d


def test_landmark_residuals_and_ordering():
    for q, c, d in [(2, 3, 6), (2, 4, 8), (3, 3, 6), (2, 3, 5), (2, 24, 48)]:
        lm = landmarks(q, c, d)
        assert abs(omega(q, c, d, lm.x0)[0]) < 1e-10
        assert abs(omega(q, c, d, lm.x3)[1]) < 1e-10
        assert abs(xi(q, c, d, lm.s2)) < 1e-10
        assert lm.zhat2 == 1 - lm.s2
        assert 0 < lm.x3 < lm.x2 < 1 - 1 / q
        assert lm.x3 < lm.x0 <= 1 - 1 / q
        assert lm.x1 == x1_right_endpoint(q, d)


def test_landmarks_shape_the_curve_across_ensembles():
    # the paper's qualitative claims on a 1001-point grid inside (0, 1 - 1/q):
    # omega falls to its minimum at x3, crosses zero at x0 and is convex
    # up to the inflection x2, concave past it; c in {3, 4, 5, d/2, d - 1, d}
    ensembles = [
        (q, c, d)
        for q in (2, 3, 4, 5, 8, 16, 256, 65521)
        for d in (3, 4, 5, 6, 7, 8, 12, 20, 50)
        for c in sorted({3, 4, 5, d - 1, d} | ({d // 2} if d % 2 == 0 else set()))
        if 3 <= c <= d
    ]
    assert len(ensembles) == 304
    for q, c, d in ensembles:
        top = 1 - 1 / q
        xs = np.linspace(0.0, top, 1003)[1:-1]
        lm = landmarks(q, c, d)
        assert 0 < lm.x3 < lm.x2 < top and lm.x3 < lm.x0 <= top, (q, c, d)
        om, dom = omega(q, c, d, xs)
        assert np.all(np.where(xs < lm.x3, dom < 0, dom > 0)), (q, c, d)
        assert np.all(np.where(xs < lm.x0, om < 0, om > 0)), (q, c, d)
        rise = np.diff(dom)
        assert np.all(rise[xs[1:] < lm.x2 - 2e-3] > 0), (q, c, d)
        assert np.all(rise[xs[:-1] > lm.x2 + 2e-3] < 0), (q, c, d)


def test_domega_zeroes_x3_at_large_d():
    # the gap solve stops at a relative width, so the slope residual stays
    # small where the slope is steep in the tilt (large d, x3 near 0)
    for q, c, d in [(2, 3, 6), (3, 3, 6), (2, 3, 48), (2, 3, 96), (4, 3, 48)]:
        assert abs(omega(q, c, d, landmarks(q, c, d).x3)[1]) < 1e-10, (q, c, d)


def _bisect_to_floor(f, lo, hi):
    flo = f(lo)
    assert (flo < 0.0) != (f(hi) < 0.0)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo = mid
        else:
            hi = mid


def nested_landmarks(q, c, d):
    # the former solve, kept as the reference: bisection in x on omega and
    # its slope, each evaluation running its own tilt bisection
    x_sym = (q - 1) / q
    x3 = _bisect_to_floor(lambda x: omega(q, c, d, x)[1], 1e-6, x_sym - 1e-6)
    if c == d:
        return x3, x_sym
    return x3, _bisect_to_floor(lambda x: omega(q, c, d, x)[0], x3, x_sym)


@pytest.mark.parametrize("q, c, d", [
    (2, 3, 6), (2, 4, 8), (2, 24, 48), (2, 3, 48),  # binary, d up to 48
    (2, 3, 5), (2, 5, 9),                            # binary, odd d
    (2, 3, 3), (3, 6, 6),                            # c = d
    (3, 3, 6), (4, 3, 5), (8, 4, 12), (256, 3, 6),
])
def test_landmarks_match_nested_solve(q, c, d):
    lm = landmarks(q, c, d)
    x3, x0 = nested_landmarks(q, c, d)
    assert abs(lm.x3 - x3) <= 1e-11
    assert abs(lm.x0 - x0) <= 1e-11


def test_landmark_x0_against_grid_scan():
    # independent coarse-to-fine sign scan of omega
    q, c, d = 2, 3, 6
    lm = landmarks(q, c, d)
    lo, hi = 1e-6, 0.5
    for _ in range(3):
        xs = np.linspace(lo, hi, 1000)
        om, _ = omega(q, c, d, xs)
        idx = int(np.nonzero(om > 0)[0][0])
        lo, hi = float(xs[idx - 1]), float(xs[idx])
    mid = 0.5 * (lo + hi)
    assert abs(mid - lm.x0) < 1e-8


def test_landmarks_equal_design_rate_boundary():
    assert landmarks(2, 3, 3).x0 == 0.5
    assert landmarks(3, 3, 3).x0 == pytest.approx(2 / 3, abs=1e-15)


def test_landmarks_absent_for_low_c():
    lm = landmarks(2, 2, 6)
    assert lm.x0 is None and lm.x2 is None and lm.x3 is None
    assert lm.zhat2 is None and lm.zhat2_neg is None
    assert lm.x1 == 1.0
    lm = landmarks(2, 1, 5)
    assert lm.x0 is None and lm.x1 == 0.8


def test_landmarks_c2_large_field_inflection():
    lm = landmarks(3, 2, 6)
    assert lm.x3 is None and lm.x0 is None
    assert lm.zhat2 is not None
    assert abs(xi(3, 2, 6, lm.s2)) < 1e-10
    assert lm.x2 == pytest.approx((1 - zeta(3, 6, lm.zhat2)) * 2 / 3, abs=1e-12)


def test_landmarks_negative_root_binary_even_d():
    for c, d in ((4, 8), (3, 4000)):
        lm = landmarks(2, c, d)
        assert lm.zhat2_neg is not None
        assert -1 < lm.zhat2_neg < 0
        assert abs(xi(2, c, d, 1 - lm.zhat2_neg)) < 1e-10, d
        assert abs(xi_oracle(2, c, d, lm.zhat2_neg)) < 1e-10, d
    assert landmarks(2, 3, 5).zhat2_neg is None


def test_landmarks_regime_rejected():
    with pytest.raises(ParameterError):
        landmarks(2, 4, 3)     # c > d
    with pytest.raises(ParameterError):
        landmarks(2, 2, 2)     # d < 3


def test_second_derivative_sign_follows_xi():
    # omega is convex left of x2 and concave right of it
    h = 1e-4
    for q, c, d in [(2, 3, 6), (3, 3, 6), (2, 3, 5)]:
        lm = landmarks(q, c, d)
        for frac in (0.2, 0.5, 0.8):
            x = lm.x2 * frac
            om, _ = omega(q, c, d, np.array([x - h, x, x + h]))
            assert om[0] - 2 * om[1] + om[2] > 0, (q, c, d, x)
        for frac in (0.25, 0.6):
            x = lm.x2 + (lm.x1 - lm.x2) * frac
            om, _ = omega(q, c, d, np.array([x - h, x, x + h]))
            assert om[0] - 2 * om[1] + om[2] < 0, (q, c, d, x)


# ---------------------------------------------------------------------------
# GV threshold


def test_gv_threshold_values():
    assert gv_threshold(2, 1.0) == 0.5
    assert gv_threshold(3, 1.0) == pytest.approx(2 / 3, abs=1e-15)
    x = gv_threshold(2, 0.5)
    assert x == pytest.approx(0.11002786443835955, abs=1e-12)
    assert abs(entropy_q(x, 2) - 0.5 * math.log(2)) < 1e-12
    for q in (2, 3, 4):
        for r in (0.25, 0.5, 0.75):
            x = gv_threshold(q, r)
            assert 0 < x < 1 - 1 / q
            assert abs(entropy_q(x, q) - r * math.log(q)) < 1e-12


def test_gv_threshold_monotone_in_rate():
    assert gv_threshold(2, 0.3) < gv_threshold(2, 0.5) < gv_threshold(2, 0.9)


def test_gv_threshold_domain():
    with pytest.raises(ParameterError):
        gv_threshold(2, 0.0)
    with pytest.raises(ParameterError):
        gv_threshold(2, 1.2)


# ---------------------------------------------------------------------------
# exact polynomial identity behind the odd-degree convexity analysis


def test_odd_degree_factorization_identity():
    for d in (3, 5, 7, 9):
        lhs = [0] * (2 * d - 1)
        lhs[0] = 1
        lhs[d - 2] -= d - 1
        lhs[d] += d - 1
        lhs[2 * d - 2] -= 1
        cube = [1, -3, 3, -1]                      # (1 - z)^3
        tail = [0] * (2 * d - 4)
        for i in range(d - 2):
            w = (i + 1) * (i + 2) // 2
            tail[i] += w
            tail[2 * d - 5 - i] += w
        rhs = [0] * (len(cube) + len(tail) - 1)
        for a, ca in enumerate(cube):
            for b, cb in enumerate(tail):
                rhs[a + b] += ca * cb
        assert rhs == lhs, d
