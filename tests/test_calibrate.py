"""Least-squares calibration: recovery, Jacobian, windows, I/O."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.differentiate import derivative

from diffusim.bass import BassParams, _curve, bass_curve
from diffusim.calibrate import (
    MAX_DAMPING,
    MAX_ITERATIONS,
    P_MAX,
    P_MIN,
    Q_MAX,
    Q_MIN,
    STEP_TOL,
    DegenerateTrajectory,
    FitResult,
    _curve_and_jacobian,
    fit_bass,
    fit_window,
)
from diffusim.engine import (
    RANDOM_SEQUENTIAL,
    AdoptionTrajectory,
    DecisionParams,
    read_trajectory_csv,
    simulate,
    write_trajectory_csv,
)
from diffusim.network import LatticeSpec, Neighborhood, build_lattice, rewire
from diffusim.seeding import Pattern, build_plan
from diffusim.sweep import default_grid, derive_run_seed

MOORE_200 = LatticeSpec(200, 200, Neighborhood.MOORE)


def synthetic_trajectory(params: BassParams, ticks: int) -> AdoptionTrajectory:
    y = bass_curve(params, np.arange(ticks, dtype=float))
    return AdoptionTrajectory(proportions=y, population=40000)


def simulated_trajectory(seed=3, gamma=250, delta_u=0.6, p_r=0.0):
    rng = np.random.default_rng(seed)
    net = build_lattice(MOORE_200)
    if p_r > 0:
        net = rewire(net, p_r, rng)
    plan = build_plan(MOORE_200, Pattern.UNIFORM, count=1000, gamma=gamma, rng=rng)
    return simulate(net, plan, DecisionParams(delta_u=delta_u), max_ticks=500, rng=rng)


class TestNoiselessRecovery:
    def test_single_pair_within_tolerance(self):
        res = fit_bass(synthetic_trajectory(BassParams(0.02, 0.4), 31))
        assert res.params.p == pytest.approx(0.02, rel=1e-6)
        assert res.params.q == pytest.approx(0.4, rel=1e-6)
        assert res.r_squared > 1 - 1e-10
        assert res.converged

    def test_five_by_five_grid(self):
        for p in np.linspace(0.005, 0.15, 5):
            for q in np.linspace(0.3, 1.0, 5):
                true = BassParams(float(p), float(q))
                res = fit_bass(synthetic_trajectory(true, 80))
                assert abs(res.params.p - true.p) / true.p < 1e-5, (p, q)
                assert abs(res.params.q - true.q) / true.q < 1e-5, (p, q)
                assert res.r_squared > 1 - 1e-10


def jacobian_gap(p, q, t):
    """Analytic minus numerical (dn/dp, dn/dq) at times t. The numerical
    partials are scipy's adaptive finite differences of `_curve`; their
    first step is a quarter of the coefficient, so every probe keeps p > 0."""
    t = np.asarray(t, dtype=float)
    _, dn_dp, dn_dq = _curve_and_jacobian(p, q, t)
    kwargs = {"args": (t,), "tolerances": {"atol": 1e-12}}
    num_p = derivative(lambda x, t: _curve(x, q, t)[0], np.full_like(t, p),
                       initial_step=p / 4, **kwargs)
    num_q = derivative(lambda x, t: _curve(p, x, t)[0], np.full_like(t, q),
                       initial_step=q / 4, **kwargs)
    assert num_p.success.all() and num_q.success.all(), (p, q)
    return dn_dp - num_p.df, dn_dq - num_q.df


class TestJacobian:
    def test_grid_against_central_differences(self):
        for p in np.linspace(0.005, 0.15, 5):
            for q in np.linspace(0.3, 1.0, 5):
                dp, dq = jacobian_gap(float(p), float(q), [1.0, 5.0, 10.0, 20.0])
                assert np.max(np.abs(dp)) < 1e-6, (p, q)
                assert np.max(np.abs(dq)) < 1e-6, (p, q)

    def test_reference_point(self):
        dp, dq = jacobian_gap(0.0072863, 0.3187899, [7.5])
        assert abs(dp[0]) < 1e-6 and abs(dq[0]) < 1e-6

    def test_zero_time_partials_vanish(self):
        # the curve is pinned to 0 at t = 0 regardless of parameters
        dp, dq = jacobian_gap(0.02, 0.4, [0.0])
        assert dp[0] == pytest.approx(0.0, abs=1e-9)
        assert dq[0] == pytest.approx(0.0, abs=1e-9)


def quotient_rule_terms(p, q, t):
    """dn/dp and dn/dq of n = p(1-E)/(p+qE) by the quotient rule, each as
    the two terms whose difference it is; independent of the simplified
    form the fit evaluates."""
    e = np.exp(-(p + q) * t)
    denom = p + q * e
    te = t * e
    # d/dp [p(1-E)] = (1-E) + p t E ; d/dp denom = 1 - q t E
    dn_dp = ((1.0 - e) + p * te) / denom, p * (1.0 - e) * (1.0 - q * te) / denom**2
    # d/dq [p(1-E)] = p t E ; d/dq denom = E (1 - q t)
    dn_dq = (p * te) / denom, p * (1.0 - e) * e * (1.0 - q * t) / denom**2
    return dn_dp, dn_dq


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(1e-6, 1.0),
    q=st.floats(0.0, 1.0),
    ticks=st.integers(1, 301),
)
def test_simplified_jacobian_matches_quotient_rule(p, q, ticks):
    # the tolerance is relative to the oracle's terms, which equals the
    # column's max-abs unless they cancel: at (p+q)t << 1 the quotient rule
    # subtracts two terms near 1 and loses digits the simplified form keeps
    t = np.arange(ticks, dtype=float)
    _, dn_dp, dn_dq = _curve_and_jacobian(p, q, t)
    for got, (plus, minus) in zip((dn_dp, dn_dq), quotient_rule_terms(p, q, t)):
        scale = float(np.max(np.abs(plus) + np.abs(minus)))
        assert np.max(np.abs(got - (plus - minus))) <= 1e-12 * scale


def noisy_bass_trajectory(p, q, population, ticks, seed):
    """Adoption among `population` agents whose adoption times are drawn
    from the curve's distribution: a monotone curve with sampling noise."""
    u = np.random.default_rng(seed).random(population)
    # invert n(t) = u: E = (1-u)/(1+uq/p), t = -ln(E)/(p+q)
    times = np.sort(-np.log((1.0 - u) / (1.0 + u * q / p)) / (p + q))
    t = np.arange(ticks, dtype=float)
    y = np.searchsorted(times, t, side="right") / population
    return AdoptionTrajectory(y, population=population)


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(0.002, 0.05),
    q=st.floats(0.1, 0.8),
    population=st.integers(200, 5000),
    ticks=st.integers(30, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_interior_optimum_matches_least_squares_oracle(p, q, population, ticks, seed):
    # at an interior optimum the fit's SSE is no higher than a trust-region
    # solver's at tight tolerances
    from scipy.optimize import least_squares

    traj = noisy_bass_trajectory(p, q, population, ticks, seed)
    res = fit_bass(traj)
    assume(res.converged and not (res.p_at_bound or res.q_at_bound))
    y = fit_window(traj)
    t = np.arange(len(y), dtype=float)

    def residuals(x):
        return _curve(x[0], x[1], t)[0] - y

    def jacobian(x):
        return np.column_stack(_curve_and_jacobian(x[0], x[1], t)[1:])

    oracle = least_squares(
        residuals, [max(float(y[1]), 1e-3), 0.5], jac=jacobian,
        bounds=([1e-6, 0.0], [1.0, 1.0]), method="trf",
        ftol=1e-15, xtol=1e-15, gtol=1e-15,
    )
    r = residuals(oracle.x)
    assert res.residual_sum <= float(r @ r) * (1.0 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(1e-6, 1.0),
    q=st.floats(0.0, 1.0),
    ticks=st.integers(1, 301),
)
def test_trial_point_curve_is_bit_identical(p, q, ticks):
    # the fit's trial points read only the curve; it must be the same bits
    # as the curve the Jacobian step is taken from, as bass_curve, and as
    # the expression the Jacobian path has always evaluated
    t = np.arange(ticks, dtype=float)
    n, terms = _curve(p, q, t)
    assert n.tobytes() == _curve_and_jacobian(p, q, t)[0].tobytes()
    assert n.tobytes() == bass_curve(BassParams(p, q), t).tobytes()
    e = np.exp(-(p + q) * t)
    denom = p + q * e
    assert n.tobytes() == (p * (1.0 - e) / denom).tobytes()
    # and the terms the Jacobian reuses are the ones n was formed from
    want = (-(p + q) * t, e, 1.0 - e, denom)
    assert [a.tobytes() for a in terms] == [a.tobytes() for a in want]


# A frozen copy of the fit loop as it was before its Jacobian reused the
# trial point's curve terms: the curve returned (n, E) and the Jacobian formed
# (p+q)t, 1-E and p+qE again. The fit must give the same FitResult bits.

def frozen_jacobian(p, q, t, e):
    st = (p + q) * t
    one_minus_e = 1.0 - e
    w = e / (p + q * e) ** 2
    return w * (q * one_minus_e + p * st), (p * w) * (st - one_minus_e)


def frozen_clip(p, q):
    return min(max(p, P_MIN), P_MAX), min(max(q, Q_MIN), Q_MAX)


def frozen_fit_bass(traj):
    y = fit_window(traj)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    t = np.arange(len(y), dtype=float)
    p, q = frozen_clip(max(float(y[1]), 1e-3), 0.5)

    def trial(pv, qv):
        e = np.exp(-(pv + qv) * t)
        resid = y - pv * (1.0 - e) / (pv + qv * e)
        return resid, e, float(resid @ resid)

    resid, e, current = trial(p, q)
    j = np.empty((2, len(y)))
    lam = 1e-3
    converged = False
    iteration = 0
    for iteration in range(1, MAX_ITERATIONS + 1):
        j[0], j[1] = frozen_jacobian(p, q, t, e)
        (a, b), (_, c) = (j @ j.T).tolist()
        g0, g1 = (j @ resid).tolist()
        while lam <= MAX_DAMPING:
            d0 = a + lam * max(a, 1e-14)
            d1 = c + lam * max(c, 1e-14)
            det = d0 * d1 - b * b
            if not det > 0.0:
                lam *= 10.0
                continue
            cand_p, cand_q = frozen_clip(
                p + (d1 * g0 - b * g1) / det, q + (d0 * g1 - b * g0) / det
            )
            cand_resid, cand_e, cand_sse = trial(cand_p, cand_q)
            if cand_sse <= current:
                break
            lam *= 10.0
        else:
            converged = True
            break
        step = math.hypot(cand_p - p, cand_q - q)
        scale = math.hypot(p, q)
        p, q, current = cand_p, cand_q, cand_sse
        resid, e = cand_resid, cand_e
        lam = max(lam * 0.25, 1e-12)
        if step <= STEP_TOL * max(scale, 1e-30):
            converged = True
            break

    return FitResult(
        params=BassParams(p, q),
        r_squared=1.0 - current / ss_tot,
        residual_sum=current,
        iterations=iteration,
        converged=converged,
        p_at_bound=(p <= P_MIN or p >= P_MAX),
        q_at_bound=(q <= Q_MIN or q >= Q_MAX),
    )


def assert_same_fit(got, want):
    # floats by repr, so a sign of zero or one ulp counts
    for field in dataclasses.fields(FitResult):
        name = field.name
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(1e-6, 1.0),
    q=st.floats(0.0, 1.0),
    ticks=st.integers(1, 301),
)
def test_jacobian_from_curve_terms_equals_frozen_expression(p, q, ticks):
    t = np.arange(ticks, dtype=float)
    dn_dp, dn_dq = _curve_and_jacobian(p, q, t)[1:]
    want_p, want_q = frozen_jacobian(p, q, t, np.exp(-(p + q) * t))
    assert np.array_equal(dn_dp, want_p) and np.array_equal(dn_dq, want_q)
    # bit for bit, but for the sign of dn/dq's zero at t = 0
    assert dn_dp.tobytes() == want_p.tobytes()
    assert np.abs(dn_dq).tobytes() == np.abs(want_q).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    p=st.floats(0.002, 0.05),
    q=st.floats(0.1, 1.6),
    population=st.integers(200, 5000),
    ticks=st.integers(10, 200),
    seed=st.integers(0, 2**32 - 1),
)
@example(0.015, 0.4, 3000, 80, 1)  # interior optimum
@example(0.01, 1.3, 2000, 30, 2)  # saturates at tick 12, stops at the cap
@example(0.01, 1.1, 2000, 30, 0)  # saturates at tick 12, stops at the cap
# the windows of the workloads' long fits are 4-15 points: crawls along q = 1
@example(0.005, 1.1, 1000, 4, 2)  # stops at the cap on the shortest window
@example(0.01, 1.1, 2000, 6, 0)  # stops at the cap with q on 1.0
@example(0.01, 1.1, 2000, 9, 0)  # converges on the bound after 216 iterations
def test_fit_equals_frozen_fit_loop(p, q, population, ticks, seed):
    traj = noisy_bass_trajectory(p, q, population, ticks, seed)
    try:
        want = frozen_fit_bass(traj)
    except ZeroDivisionError:  # zero variance: fit_bass raises instead
        with pytest.raises(DegenerateTrajectory):
            fit_bass(traj)
        return
    assert_same_fit(fit_bass(traj), want)


def test_frozen_fit_examples_reach_the_bound_and_the_cap():
    # the @example cases above cover the fit's two non-interior endings
    bound = frozen_fit_bass(noisy_bass_trajectory(0.01, 1.1, 2000, 9, 0))
    assert bound.converged and bound.params.q == Q_MAX
    assert 100 <= bound.iterations < MAX_ITERATIONS
    # the 30-tick cases' windows end at their saturation, tick 12
    for args in ((0.01, 1.3, 2000, 30, 2), (0.01, 1.1, 2000, 30, 0)):
        capped = frozen_fit_bass(noisy_bass_trajectory(*args))
        assert not capped.converged and capped.q_at_bound
        assert capped.iterations == MAX_ITERATIONS
    # and the short-window cases reach the cap with q exactly on 1.0
    for args in ((0.005, 1.1, 1000, 4, 2), (0.01, 1.1, 2000, 6, 0)):
        capped = frozen_fit_bass(noisy_bass_trajectory(*args))
        assert not capped.converged and capped.params.q == Q_MAX
        assert capped.iterations == MAX_ITERATIONS


class TestDegenerateAndInvalid:
    def test_constant_zero_trajectory(self):
        traj = AdoptionTrajectory(np.zeros(10), population=100)
        with pytest.raises(DegenerateTrajectory):
            fit_bass(traj)

    def test_too_short(self):
        traj = AdoptionTrajectory(np.array([0.0, 0.1, 0.2]), population=10)
        with pytest.raises(DegenerateTrajectory, match="short"):
            fit_bass(traj)

    def test_degenerate_is_a_value_error(self):
        assert issubclass(DegenerateTrajectory, ValueError)


class TestFitWindowAndResiduals:
    def test_window_stops_at_first_saturated_tick(self):
        props = np.array([0.0, 0.4, 0.9, 1.0, 1.0, 1.0])
        traj = AdoptionTrajectory(props, population=10)
        assert fit_window(traj).tolist() == [0.0, 0.4, 0.9, 1.0]

    def test_post_saturation_ticks_do_not_change_fit(self):
        base = simulated_trajectory(seed=8)
        assert base.saturated_at is not None
        padded = AdoptionTrajectory(
            np.concatenate([base.proportions, np.ones(40)]),
            population=base.population,
        )
        a, b = fit_bass(base), fit_bass(padded)
        assert a.params.p == b.params.p
        assert a.params.q == b.params.q
        assert a.residual_sum == b.residual_sum

    def test_simulated_trajectories_fit_tightly(self):
        for seed, gamma, du, p_r in [
            (4, 125, 0.6, 0.0),
            (5, 1000, 0.8, 0.0),
            (6, 250, 0.6, 0.04),
        ]:
            res = fit_bass(simulated_trajectory(seed, gamma, du, p_r))
            assert res.r_squared > 0.98
            assert res.params.p > 0 and 0 <= res.params.q <= 1


class TestBounds:
    def test_fast_trajectory_pins_q_at_cap(self):
        # generated above the box, so the optimum sits on the q = 1 bound
        y = bass_curve(BassParams(0.05, 1.4), np.arange(40, dtype=float))
        traj = AdoptionTrajectory(y, population=40000)
        res = fit_bass(traj)
        assert res.params.q == 1.0
        assert res.q_at_bound
        assert not res.p_at_bound

    def test_random_sequential_run_crawls_along_q_bound(self):
        # the damped step keeps pushing q out of the box, so the clipped step
        # moves p only a little each iteration and the fit stops at the cap
        index = 355
        config = default_grid()[index]
        assert (config.k, config.delta_u, config.sigma, config.p_r, config.gamma) == (
            4, 0.8, Pattern.UNIFORM, 0.04, 125,
        )
        config = dataclasses.replace(config, seed=derive_run_seed(0, index, 0))
        net, plan, rng = config.realize()
        traj = simulate(
            net, plan, DecisionParams(delta_u=config.delta_u, alpha=config.alpha),
            max_ticks=500, rng=rng, update=RANDOM_SEQUENTIAL,
        )
        res = fit_bass(traj)
        assert not res.converged
        assert res.iterations == 500
        assert res.q_at_bound


class TestSerialization:
    def test_fit_result_json_fields(self):
        res = fit_bass(synthetic_trajectory(BassParams(0.02, 0.4), 31))
        payload = json.loads(res.to_json())
        assert set(payload) == {
            "p", "q", "r_squared", "residual_sum", "iterations",
            "converged", "p_at_bound", "q_at_bound",
        }
        assert payload["p"] == pytest.approx(0.02, rel=1e-5)
        assert isinstance(res, FitResult)

    def test_engine_csv_roundtrip(self, tmp_path):
        traj = simulated_trajectory(seed=9, gamma=500)
        path = tmp_path / "run.csv"
        write_trajectory_csv(traj, path)
        loaded = read_trajectory_csv(path)
        assert np.allclose(loaded.proportions, traj.proportions)
        assert loaded.saturated_at == traj.saturated_at
        direct, roundtripped = fit_bass(traj), fit_bass(loaded)
        assert roundtripped.params.p == pytest.approx(direct.params.p, rel=1e-9)

    def test_two_column_csv(self, tmp_path):
        path = tmp_path / "user.csv"
        y = bass_curve(BassParams(0.03, 0.5), np.arange(25, dtype=float))
        with open(path, "w") as fh:
            fh.write("tick,proportion\n")
            fh.writelines(f"{t},{float(v)!r}\n" for t, v in enumerate(y))
        res = fit_bass(read_trajectory_csv(path))
        assert res.params.p == pytest.approx(0.03, rel=1e-5)

    def test_csv_requires_named_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,0.0\n")
        with pytest.raises(ValueError, match="tick/proportion"):
            read_trajectory_csv(path)

    def test_csv_requires_consecutive_ticks(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("tick,proportion\n0,0.0\n2,0.5\n")
        with pytest.raises(ValueError, match="consecutive"):
            read_trajectory_csv(path)
