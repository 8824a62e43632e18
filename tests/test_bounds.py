"""Small-weight inequality and minimum-distance bound tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ldpc_spectra import (
    DomainError,
    EnsembleParams,
    ParameterError,
    entropy_q,
    kappa,
    landmarks,
    min_distance_bound,
    omega_curve,
    smallx_inequality_margin,
    zero_column_filtered_bound,
)
from oracles import taylor_check


def test_kappa_closed_forms():
    assert kappa(2, 3, 6) == pytest.approx(9 + 1.5 * math.log(5), abs=1e-15)
    assert kappa(2, 1, 2) == pytest.approx(3.0, abs=1e-15)
    assert kappa(3, 2, 3) == pytest.approx(2 * math.log(2) + 6, abs=1e-15)


def test_margin_positive_on_reference_ensembles():
    for q, c, d in [(2, 3, 6), (3, 3, 6)]:
        xs = np.geomspace(1e-6, (1 / q**2) * (1 - 1e-9), 1000)
        rep = smallx_inequality_margin(q, c, d, xs)
        assert rep.min_margin > 0
        assert all(m > 0 for m in rep.margin)
        assert len(rep.margin) == xs.size
        assert rep.min_margin == min(rep.margin)


def test_margin_grid_domain_enforced():
    with pytest.raises(DomainError):
        smallx_inequality_margin(2, 3, 6, np.array([0.25]))   # 1/q^2 excluded
    with pytest.raises(DomainError):
        smallx_inequality_margin(2, 3, 6, np.array([0.0]))
    with pytest.raises(DomainError):
        smallx_inequality_margin(3, 3, 6, np.array([0.2]))    # above 1/9
    with pytest.raises(DomainError, match=r"grid must lie strictly inside \(0, 0.25\)"):
        smallx_inequality_margin(2, 3, 6, np.array([-1e-9, 1e-3]))


def test_margin_checks_parameters_before_the_grid():
    # q = 0 used to divide by zero forming the grid's end 1/q**2
    for q, c, d in [(0, 3, 6), (1, 3, 6), (6, 3, 6), (2, 0, 6), (2, 3, 1)]:
        with pytest.raises(ParameterError):
            smallx_inequality_margin(q, c, d, [0.01])


def test_margin_positive_down_to_tiny_weights():
    # omega is resolved at every positive weight, so the bound is tested
    # there too: omega ~ (c/2 - 1) x ln x lies below the bound by ~kappa x
    for q, c, d in [(2, 3, 6), (4, 3, 6), (65536, 3, 6), (65521, 4, 8)]:
        xs = np.geomspace(1e-300, (1 / q**2) * (1 - 1e-9), 500)
        rep = smallx_inequality_margin(q, c, d, xs)
        assert rep.min_margin > 0, (q, c, d)


def test_margin_matches_direct_formula():
    q, c, d = 2, 3, 6
    xs = np.array([1e-4, 1e-3, 0.01])
    rep = smallx_inequality_margin(q, c, d, xs)
    om, _ = omega_curve(q, c, d, xs)
    bound = (c / 2 - 1) * xs * np.log(xs) + kappa(q, c, d) * xs
    assert np.allclose(rep.margin, bound - om, rtol=0, atol=1e-14)



def test_margin_grid_rejects_nan():
    # NaN compares False both ways, so a min/max range check let it through
    # and min_margin came out nan
    with pytest.raises(DomainError):
        smallx_inequality_margin(2, 3, 6, np.array([1e-3, math.nan]))

def test_growth_rate_values_d2_route():
    xs = np.linspace(0.05, 0.45, 9)
    got, _ = omega_curve(2, 3, 2, xs)
    want = (1 - 3 / 2) * np.array([entropy_q(float(x), 2) for x in xs])
    assert np.allclose(got, want, rtol=0, atol=1e-14)



def test_growth_rate_values_d2_rejects_nan():
    with pytest.raises(DomainError):
        omega_curve(2, 3, 2, np.array([0.1, math.nan]))

def test_delta_flag_parity_rule():
    # brute force over the stated parameter box
    for q in (2, 3, 4, 5):
        for c in range(3, 9):
            for l0 in range(1, 9):
                n = 2 * c * 12
                params = EnsembleParams(q=q, c=c, d=2 * c, n=n)
                rep = min_distance_bound(params, l0, 0.1)
                want = 1 if (q == 2 and (c * l0) % 2 == 1) else 0
                assert rep.Delta == want, (q, c, l0)


def test_min_distance_bound_examples():
    params = EnsembleParams(q=2, c=3, d=6, n=60)
    rep = min_distance_bound(params, 3, 0.02)
    assert rep.Delta == 1
    assert rep.exponent_term == -2
    params = EnsembleParams(q=3, c=3, d=6, n=60)
    rep = min_distance_bound(params, 2, 0.02)
    assert rep.Delta == 0
    assert rep.exponent_term == -1


def test_exp_term_decays_below_x0():
    q, c, d = 2, 4, 8
    alpha = 0.5 * landmarks(q, c, d).x0
    values = []
    # the n**1.5 prefactor dominates below n ~ -1.5/omega(alpha), so the
    # monotone decay only kicks in once n is past that crossover
    for n in (80, 160, 320, 640, 1280):
        params = EnsembleParams(q=q, c=c, d=d, n=n)
        values.append(min_distance_bound(params, 1, alpha).exp_term)
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-3


def test_min_distance_bound_regime_checked():
    with pytest.raises(ParameterError):
        min_distance_bound(EnsembleParams(q=2, c=2, d=4, n=8), 1, 0.1)
    params = EnsembleParams(q=2, c=3, d=6, n=12)
    with pytest.raises(ParameterError):
        min_distance_bound(params, 0, 0.1)
    with pytest.raises(ParameterError):
        min_distance_bound(params, 1, 0.5)     # alpha must stay below 1-1/q
    with pytest.raises(ParameterError):
        min_distance_bound(params, 1, 0.0)


def test_zero_column_filter_bound():
    params = EnsembleParams(q=2, c=4, d=8, n=40)
    rep = zero_column_filtered_bound(params, 0.02)
    assert rep.filtered
    assert rep.l0 == 2
    assert rep.Delta == 0
    assert rep.exponent_term == -(4 - 2)


def test_taylor_slack():
    xs = np.linspace(0.0, 1.0, 1001)
    assert taylor_check(1, xs) == pytest.approx(0.0, abs=1e-15)
    assert taylor_check(4, np.array([0.0])) == 0.0
    for d in (2, 3, 5, 9):
        assert taylor_check(d, xs) >= 0.0


def test_taylor_check_rejects_nan():
    # Fraction(nan) used to raise ValueError past the range check
    with pytest.raises(DomainError):
        taylor_check(3, np.array([0.5, math.nan]))
