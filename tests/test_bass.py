"""Tests for the closed-form adoption curve and the takeoff time."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from diffusim.bass import BassParams, bass_curve, takeoff_time

ROW1 = BassParams(0.0072863, 0.3187899)  # reference grid, first row


# --- independent oracles -------------------------------------------------

def _ode_solution(params: BassParams, t: np.ndarray) -> np.ndarray:
    """n at times t of dn/dt = (p + q n)(1 - n), n(0) = 0, integrated by
    scipy's DOP853 at tolerances far below the closed form's test bounds."""
    p, q = params.p, params.q
    sol = solve_ivp(lambda _, n: (p + q * n) * (1.0 - n), (0.0, t[-1]), [0.0],
                    method="DOP853", rtol=1e-12, atol=1e-14, t_eval=t)
    assert sol.success, sol.message
    return sol.y[0]


def _curve_unrestricted(p: float, q: float, t: float) -> float:
    # same closed form, but defined for negative t as well (needed to probe
    # pre-launch takeoff roots)
    e = math.exp(-(p + q) * t)
    return p * (1.0 - e) / (p + q * e)


def _third_derivative_root(p: float, q: float) -> float:
    """Earlier root of d3n/dt3 = 0 via finite differences + bisection."""
    rate = p + q
    h = 5e-3 / rate

    def d3(t: float) -> float:
        f = _curve_unrestricted
        return (
            -0.5 * f(p, q, t - 2 * h)
            + f(p, q, t - h)
            - f(p, q, t + h)
            + 0.5 * f(p, q, t + 2 * h)
        ) / h**3

    # the earlier root sits ln(2+sqrt(3))/rate =~ 1.32/rate left of the
    # growth-rate peak; start the bracket 6/rate left, close enough that the
    # exponential tail has not underflowed
    peak = math.log(q / p) / rate  # growth-rate maximum, where d3 < 0
    lo = peak - 6.0 / rate
    hi = peak
    assert d3(lo) > 0 and d3(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if d3(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- params validation ----------------------------------------------------

def test_params_reject_nonpositive_p():
    with pytest.raises(ValueError):
        BassParams(0.0, 0.4)
    with pytest.raises(ValueError):
        BassParams(-0.01, 0.4)


def test_params_reject_negative_q_and_nonfinite():
    with pytest.raises(ValueError):
        BassParams(0.01, -0.1)
    with pytest.raises(ValueError):
        BassParams(float("nan"), 0.4)
    with pytest.raises(ValueError):
        BassParams(0.01, float("inf"))


# --- bass_curve -----------------------------------------------------------

def test_curve_zero_at_launch():
    assert bass_curve(BassParams(0.02, 0.4), 0.0) == 0.0
    assert bass_curve(ROW1, 0) == 0.0


def test_curve_approaches_one():
    for params in (BassParams(0.02, 0.4), ROW1, BassParams(0.15, 0.0)):
        t_far = 1e4 / (params.p + params.q)
        assert bass_curve(params, t_far) > 1.0 - 1e-6


def test_curve_value_at_first_row_takeoff():
    # frozen from an RK4 solve of the ODE (step 1e-3): n(7.549109) = 0.19329988...
    val = bass_curve(ROW1, 7.549109)
    assert abs(val - 0.1933) < 5e-5
    assert abs(val - 0.1932998831) < 1e-8


def test_curve_rejects_negative_t():
    with pytest.raises(ValueError):
        bass_curve(ROW1, -1.0)


def test_curve_vectorized_matches_scalar():
    t = np.array([0.0, 1.0, 5.0, 25.0])
    vec = bass_curve(ROW1, t)
    assert vec.shape == t.shape
    for ti, vi in zip(t, vec):
        assert vi == bass_curve(ROW1, float(ti))


def test_curve_strictly_increasing_and_bounded():
    for params in (ROW1, BassParams(0.005, 1.0), BassParams(0.2, 0.3)):
        # strict increase holds until the exponential tail underflows in
        # float64, so probe the dynamic range of the curve
        t = np.linspace(0.0, 30.0 / (params.p + params.q), 2001)
        n = bass_curve(params, t)
        assert np.all(np.diff(n) > 0)
        assert n[0] == 0.0 and np.all(n < 1.0)
        # beyond that, rounding may saturate at exactly 1.0 but never above
        assert bass_curve(params, 1e6) <= 1.0


# --- the ODE's numerical solution vs closed form --------------------------

def test_ode_matches_closed_form_spot():
    params = BassParams(0.02, 0.4)
    times = np.linspace(0.0, 30.0, 30001)
    values = _ode_solution(params, times)
    assert np.max(np.abs(values - bass_curve(params, times))) < 1e-8


def test_ode_matches_closed_form_at_first_row():
    (value,) = _ode_solution(ROW1, np.array([7.549109]))
    assert abs(value - 0.1933) < 5e-5


def test_ode_pure_innovation_limit():
    p = 0.05
    times = np.array([1.0, 5.0, 10.0])
    values = _ode_solution(BassParams(p, 0.0), times)
    assert np.max(np.abs(values - (1.0 - np.exp(-p * times)))) < 1e-10


def test_ode_sup_norm_over_fitted_range():
    # coarse version of the acceptance grid, kept quick
    times = np.linspace(0.0, 50.0, 25001)
    for p in (1e-4, 0.01, 0.2):
        for q in (0.3, 0.65, 1.0):
            params = BassParams(p, q)
            sup = np.max(np.abs(_ode_solution(params, times) - bass_curve(params, times)))
            assert sup < 1e-8, (p, q, sup)


# --- takeoff_time ----------------------------------------------------------

def test_takeoff_first_reference_row():
    assert abs(takeoff_time(ROW1) - 7.549109451) / 7.549109451 < 1e-5


def test_takeoff_low_degree_reference_row():
    params = BassParams(0.092351, 0.5533892)
    assert abs(takeoff_time(params) - 0.73327746) / 0.73327746 < 1e-5


def test_takeoff_negative_returned_unclamped():
    params = BassParams(0.1, 0.1)
    t_to = takeoff_time(params)
    assert abs(t_to - (-6.585)) < 5e-3
    # the finite-difference root agrees even for the pre-launch root
    assert abs(t_to - _third_derivative_root(0.1, 0.1)) < 1e-4


@settings(max_examples=300, deadline=None)
@given(p=st.floats(1e-6, 1.0), data=st.data())
def test_takeoff_non_positive_exactly_when_q_at_most_p_times_constant(p, data):
    # the CLI reads the degenerate regime q <= p(2+sqrt(3)) off this sign;
    # probe it at the bound, one ulp either side of it, and across (0, 1]
    bound = p * (2.0 + math.sqrt(3.0))
    near = [float(np.nextafter(bound, 0.0)), bound, float(np.nextafter(bound, np.inf))]
    q = data.draw(st.sampled_from(near) | st.floats(0.0, 1.0, exclude_min=True))
    assert (takeoff_time(BassParams(p, q)) <= 0) == (q <= bound), (p, q)


def test_takeoff_when_the_ratio_underflows():
    # q / (p(2+sqrt(3))) underflows to 0.0 here; the takeoff is still finite
    t_to = takeoff_time(BassParams(1.0, 5e-324))
    assert t_to == pytest.approx(math.log(5e-324) - math.log(2.0 + math.sqrt(3.0)), rel=1e-12)


def test_takeoff_rejects_zero_q():
    with pytest.raises(ValueError):
        takeoff_time(BassParams(0.02, 0.0))


def test_takeoff_matches_third_derivative_root_grid():
    ps = np.logspace(math.log10(1e-3), math.log10(0.15), 10)
    qs = np.linspace(0.3, 1.0, 10)
    for p in ps:
        for q in qs:
            params = BassParams(float(p), float(q))
            assert abs(takeoff_time(params) - _third_derivative_root(float(p), float(q))) < 1e-4


def test_takeoff_reference_grid_regression(reference_grid):
    """All 360 published rows, allowing each row its own print-quantization bound.

    The published table p/q columns carry 7 decimals; half a print ulp (5e-8)
    propagated through dt/dp and dt/dq bounds how closely any recomputation
    can match. 359 of 360 rows agree to < 1e-5 relative; the one row with
    p = 0.0007887 has a quantization bound of 1.16e-5 and lands at 1.12e-5.
    """
    worse_than_1e5 = []
    for row in reference_grid:
        params = BassParams(row.p, row.q)
        mine = takeoff_time(params)
        rel = abs(mine - row.takeoff) / abs(row.takeoff)
        # propagate half a print ulp of p and q through the formula
        dtdp = (-1.0 / row.p - mine) / (row.p + row.q)
        dtdq = (1.0 / row.q - mine) / (row.p + row.q)
        quant_bound = (abs(dtdp) + abs(dtdq)) * 5e-8 / abs(row.takeoff)
        assert rel < max(1e-5, quant_bound), (row, rel, quant_bound)
        if rel >= 1e-5:
            worse_than_1e5.append(row)
    assert len(worse_than_1e5) <= 1
