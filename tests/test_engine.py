"""Threshold-adoption dynamics: decision rule, tick loop, trajectories."""

import copy
import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusim.engine import (
    RANDOM_SEQUENTIAL,
    AdoptionTrajectory,
    DecisionParams,
    _gather_neighbors,
    _thresholds_by_node,
    adoption_threshold,
    delta_utility,
    simulate,
    write_trajectory_csv,
)
from diffusim.network import (
    LatticeSpec,
    Neighborhood,
    SocialNetwork,
    build_lattice,
    rewire,
)
from diffusim.seeding import Pattern, SeedingPlan, build_plan, schedule_innovators
from diffusim.sweep import SimConfig

MOORE_200 = LatticeSpec(200, 200, Neighborhood.MOORE)
VN_200 = LatticeSpec(200, 200, Neighborhood.VON_NEUMANN)


def _simulate_sequential_scalar(net, plan, params, max_ticks, rng, on_tick=None):
    """Reference random-sequential run: one agent at a time in permuted order.

    The per-agent form of simulate's random-sequential contract; simulate
    must give the same trajectory, the same per-tick adoption states and
    leave the generator in the same state.
    """
    n = net.node_count
    thresholds = _thresholds_by_node(net, params)
    adopted = np.zeros(n, dtype=bool)
    innovator = np.zeros(n, dtype=bool)
    innovator[plan.positions] = True
    eligible = ~innovator
    counts = np.zeros(n, dtype=np.int64)  # adopter neighbors, kept incrementally

    # innovator activations grouped by tick: positions[i] at 1 + i // gamma
    activation_ticks = 1 + np.arange(len(plan.positions)) // plan.gamma
    last_tick = int(activation_ticks.max(initial=0))
    by_tick: dict[int, np.ndarray] = {}
    for tick in np.unique(activation_ticks):
        by_tick[int(tick)] = np.asarray(plan.positions)[activation_ticks == tick]

    proportions = [0.0]
    adopted_total = 0
    saturated_at = None
    zero_change_streak = 0

    for t in range(1, max_ticks + 1):
        seeds = by_tick.get(t, np.empty(0, dtype=np.int64))

        adopted[seeds] = True
        adopted_total += len(seeds)
        if len(seeds):
            touched = _gather_neighbors(net, seeds.astype(np.int64))
            counts += np.bincount(touched, minlength=n)
        # immediate-update pass in random order over remaining agents
        candidates = np.flatnonzero(eligible)
        for agent in candidates[rng.permutation(len(candidates))]:
            if counts[agent] >= thresholds[agent]:
                adopted[agent] = True
                eligible[agent] = False
                counts[net.neighbors(int(agent))] += 1
                adopted_total += 1

        delta = adopted_total - round(proportions[-1] * n)
        assert delta >= 0, "adoption must be irreversible"
        proportions.append(adopted_total / n)

        if on_tick is not None:
            a_view = adopted.view()
            a_view.setflags(write=False)
            i_view = innovator.view()
            i_view.setflags(write=False)
            on_tick(t, a_view, i_view)

        if adopted_total == n:
            saturated_at = t
            break
        if t >= last_tick:
            zero_change_streak = zero_change_streak + 1 if delta == 0 else 0
            if zero_change_streak >= 2:
                break

    props = np.asarray(proportions)
    props.setflags(write=False)
    return AdoptionTrajectory(
        proportions=props, population=n, saturated_at=saturated_at
    )


def assert_same_sequential_run(net, plan, params, max_ticks, rng) -> None:
    """simulate(update=RANDOM_SEQUENTIAL) against the per-agent reference,
    each drawing from its own copy of `rng`."""
    fast_rng, ref_rng = copy.deepcopy(rng), copy.deepcopy(rng)
    fast_states, ref_states = [], []
    fast = simulate(
        net, plan, params, max_ticks, rng=fast_rng, update=RANDOM_SEQUENTIAL,
        on_tick=lambda t, adopted, innov: fast_states.append(adopted.copy()),
    )
    ref = _simulate_sequential_scalar(
        net, plan, params, max_ticks, ref_rng,
        on_tick=lambda t, adopted, innov: ref_states.append(adopted.copy()),
    )
    assert np.array_equal(fast.proportions, ref.proportions)
    assert fast.saturated_at == ref.saturated_at
    assert len(fast_states) == len(ref_states)
    for a, b in zip(fast_states, ref_states):
        assert np.array_equal(a, b)
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


def empty_plan() -> SeedingPlan:
    return SeedingPlan(positions=np.empty(0, dtype=np.int64), gamma=1)


class TestDeltaUtility:
    def test_quarter_neighbors_moderate_preference(self):
        assert delta_utility(0.25, DecisionParams(delta_u=0.6)) == pytest.approx(0.05)

    def test_no_adopters_indifferent(self):
        assert delta_utility(0.0, DecisionParams(delta_u=0.0)) == pytest.approx(-0.5)

    def test_all_adopters_indifferent(self):
        assert delta_utility(1.0, DecisionParams(delta_u=0.0)) == pytest.approx(0.5)

    def test_v_plus_out_of_range(self):
        with pytest.raises(ValueError):
            delta_utility(-0.01, DecisionParams(delta_u=0.5))
        with pytest.raises(ValueError):
            delta_utility(1.01, DecisionParams(delta_u=0.5))

    def test_alpha_weighting(self):
        # alpha = 0 ignores neighbors entirely
        assert delta_utility(0.0, DecisionParams(delta_u=0.3, alpha=0.0)) == pytest.approx(0.3)
        # alpha = 1 ignores preference entirely
        assert delta_utility(0.75, DecisionParams(delta_u=9.9, alpha=1.0)) == pytest.approx(0.5)


class TestAdoptionThreshold:
    @pytest.mark.parametrize(
        "neighbors,delta_u,expected",
        [(8, 0.6, 2), (8, 0.8, 1), (4, 0.6, 1), (4, 0.8, 1)],
    )
    def test_experiment_thresholds(self, neighbors, delta_u, expected):
        assert adoption_threshold(neighbors, DecisionParams(delta_u=delta_u)) == expected

    def test_unattainable_threshold(self):
        # delta_u <= -1 keeps delta-U <= 0 even with every neighbor adopted
        assert adoption_threshold(8, DecisionParams(delta_u=-1.0)) == 9
        assert adoption_threshold(4, DecisionParams(delta_u=-1.5)) == 5

    def test_spontaneous_threshold(self):
        assert adoption_threshold(8, DecisionParams(delta_u=1.2)) == 0
        assert adoption_threshold(3, DecisionParams(delta_u=1.0 + 1e-9)) == 0

    def test_strict_rule_at_spontaneous_boundary(self):
        # delta-U(v=0) is exactly 0 at delta_u = 1, and ties do not adopt
        assert adoption_threshold(8, DecisionParams(delta_u=1.0)) == 1

    def test_matches_smallest_positive_utility(self):
        for d in (1, 2, 3, 4, 5, 8, 13):
            for du in (-1.2, -0.3, 0.0, 0.2, 0.6, 0.8, 1.5):
                params = DecisionParams(delta_u=du)
                thr = adoption_threshold(d, params)
                candidates = [
                    m for m in range(d + 1) if delta_utility(m / d, params) > 0
                ]
                assert thr == (candidates[0] if candidates else d + 1)

    def test_rejects_nonpositive_neighbor_count(self):
        with pytest.raises(ValueError):
            adoption_threshold(0, DecisionParams(delta_u=0.6))


class TestTrajectoryType:
    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            AdoptionTrajectory(np.array([0.1, 0.5]), population=10, saturated_at=None)

    def test_must_be_nondecreasing(self):
        with pytest.raises(ValueError):
            AdoptionTrajectory(np.array([0.0, 0.5, 0.4]), population=10, saturated_at=None)

    def test_saturated_requires_final_one(self):
        with pytest.raises(ValueError):
            AdoptionTrajectory(np.array([0.0, 0.5]), population=10, saturated_at=1)

    def test_adopter_counts_roundtrip(self):
        traj = AdoptionTrajectory(
            np.array([0.0, 0.25, 1.0]), population=8, saturated_at=2
        )
        assert traj.adopter_counts.tolist() == [0, 2, 8]
        assert traj.final_proportion == 1.0
        assert traj.ticks.tolist() == [0, 1, 2]


class TestSimulateBasics:
    def test_zero_innovators_stays_at_zero(self):
        net = build_lattice(LatticeSpec(20, 20, Neighborhood.MOORE))
        traj = simulate(net, empty_plan(), DecisionParams(delta_u=0.6), max_ticks=50)
        assert np.all(traj.proportions == 0.0)
        assert traj.saturated_at is None

    def test_spontaneous_regime_saturates_at_tick_one(self):
        net = build_lattice(LatticeSpec(20, 20, Neighborhood.MOORE))
        traj = simulate(net, empty_plan(), DecisionParams(delta_u=1.2), max_ticks=50)
        assert traj.saturated_at == 1
        assert traj.proportions.tolist() == [0.0, 1.0]

    def test_innovator_only_dynamics_counts_exact(self):
        # delta_u = -1 blocks all imitation, so adoption is the seed schedule
        spec = LatticeSpec(50, 50, Neighborhood.MOORE)
        net = build_lattice(spec)
        rng = np.random.default_rng(7)
        plan = build_plan(spec, Pattern.UNIFORM, count=63, gamma=20, rng=rng)
        traj = simulate(net, plan, DecisionParams(delta_u=-1.0), max_ticks=50)
        counts = traj.adopter_counts
        assert counts[4].tolist() == 63  # 20+20+20+3 after the last block
        assert counts[-1] == 63
        # plateau stop: exactly two zero-change ticks after the last block
        assert len(traj.proportions) == plan.last_tick + 3
        assert traj.saturated_at is None

    def test_first_tick_proportion_is_seeding_rate(self):
        # synchronous decisions read start-of-tick state, so tick 1 holds
        # exactly the first seed block
        net = build_lattice(MOORE_200)
        rng = np.random.default_rng(11)
        plan = build_plan(MOORE_200, Pattern.UNIFORM, count=1000, gamma=125, rng=rng)
        traj = simulate(net, plan, DecisionParams(delta_u=0.6), max_ticks=500)
        assert traj.proportions[1] == pytest.approx(125 / 40000)

    def test_monotone_and_irreversible(self):
        net = build_lattice(MOORE_200)
        rng = np.random.default_rng(3)
        plan = build_plan(MOORE_200, Pattern.UNIFORM, count=1000, gamma=250, rng=rng)
        seen = []
        traj = simulate(
            net,
            plan,
            DecisionParams(delta_u=0.6),
            max_ticks=500,
            on_tick=lambda t, adopted, innov: seen.append(adopted.copy()),
        )
        assert np.all(np.diff(traj.proportions) >= 0)
        for before, after in zip(seen, seen[1:]):
            assert not np.any(before & ~after)

    def test_determinism_same_seed_same_trajectory(self):
        def run():
            rng = np.random.default_rng(99)
            net = rewire(build_lattice(MOORE_200), 0.02, rng)
            plan = build_plan(MOORE_200, Pattern.UNIFORM, count=1000, gamma=500, rng=rng)
            return simulate(net, plan, DecisionParams(delta_u=0.6), max_ticks=500)

        a, b = run(), run()
        assert np.array_equal(a.proportions, b.proportions)
        assert a.saturated_at == b.saturated_at

    def test_innovator_count_exact_after_seeding(self):
        spec = LatticeSpec(40, 40, Neighborhood.VON_NEUMANN)
        net = build_lattice(spec)
        rng = np.random.default_rng(5)
        plan = build_plan(spec, Pattern.UNIFORM, count=40, gamma=7, rng=rng)
        snapshots = {}
        simulate(
            net,
            plan,
            DecisionParams(delta_u=0.6),
            max_ticks=100,
            on_tick=lambda t, adopted, innov: snapshots.__setitem__(
                t, int(np.sum(adopted & innov))
            ),
        )
        assert snapshots[plan.last_tick] == 40
        assert max(snapshots.values()) == 40


class TestSaturationTimes:
    def test_uniform_seeding_saturates_in_reference_window(self):
        for spec, du, gamma in [
            (MOORE_200, 0.6, 125),
            (MOORE_200, 0.8, 1000),
            (VN_200, 0.6, 250),
        ]:
            net = build_lattice(spec)
            rng = np.random.default_rng(42)
            plan = build_plan(spec, Pattern.UNIFORM, count=1000, gamma=gamma, rng=rng)
            traj = simulate(net, plan, DecisionParams(delta_u=du), max_ticks=500)
            assert traj.final_proportion == 1.0
            assert 10 <= traj.saturated_at <= 60

    def test_compact_seeding_diamond_growth_is_slow(self):
        # threshold-2 growth on an un-rewired 8-neighbor lattice advances
        # diagonals at half speed, so a central block needs ~N/2 + N/4 ticks
        net = build_lattice(MOORE_200)
        rng = np.random.default_rng(42)
        plan = build_plan(MOORE_200, Pattern.COMPACT, count=1000, gamma=125, rng=rng)
        traj = simulate(net, plan, DecisionParams(delta_u=0.6), max_ticks=500)
        assert traj.final_proportion == 1.0
        assert 150 <= traj.saturated_at <= 200


class TestThresholdEquivalence:
    @pytest.mark.parametrize(
        "neighborhood,delta_u",
        [
            (Neighborhood.MOORE, 0.6),
            (Neighborhood.MOORE, 0.8),
            (Neighborhood.VON_NEUMANN, 0.6),
        ],
    )
    def test_brute_force_recomputation(self, neighborhood, delta_u):
        # replay every tick: an agent adopts at t iff it is seeded at t or
        # its adopter-neighbor count at the start of t meets its threshold
        spec = LatticeSpec(10, 10, neighborhood)
        net = build_lattice(spec)
        params = DecisionParams(delta_u=delta_u)
        rng = np.random.default_rng(17)
        plan = build_plan(spec, Pattern.UNIFORM, count=6, gamma=2, rng=rng)
        states = []
        simulate(
            net,
            plan,
            params,
            max_ticks=200,
            on_tick=lambda t, adopted, innov: states.append((t, adopted.copy())),
        )
        seeded_at = {}
        for i, node in enumerate(plan.positions.tolist()):
            seeded_at.setdefault(1 + i // plan.gamma, set()).add(int(node))
        innovators = set(plan.positions.tolist())

        prev = np.zeros(net.node_count, dtype=bool)
        for t, current in states:
            for agent in range(net.node_count):
                if prev[agent]:
                    assert current[agent], "irreversibility violated"
                    continue
                if agent in innovators:
                    expected = agent in seeded_at.get(t, ())
                else:
                    neigh = net.neighbors(agent)
                    count = int(np.sum(prev[neigh]))
                    expected = count >= adoption_threshold(len(neigh), params)
                assert current[agent] == expected, (t, agent)
            prev = current


class TestThresholdTable:
    @staticmethod
    def assert_thresholds_by_degree(net, params):
        thresholds = _thresholds_by_node(net, params)
        assert thresholds.dtype == np.int64
        for node, degree in enumerate(net.degrees.tolist()):
            if degree == 0:  # v+ taken as 0: spontaneous or never
                spontaneous = delta_utility(0.0, params) > 0.0
                expected = 0 if spontaneous else net.node_count + 1
            else:
                expected = adoption_threshold(degree, params)
            assert thresholds[node] == expected, (node, degree)

    # delta_u 1.2 adopts spontaneously (threshold 0) and -1.0 never adopts
    # (threshold above the degree) at any alpha below 1
    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.integers(2, 12),
        cols=st.integers(2, 12),
        neighborhood=st.sampled_from(list(Neighborhood)),
        p_r=st.sampled_from([0.3, 1.0]),
        delta_u=st.sampled_from([-1.0, -0.3, 0.0, 0.6, 0.8, 1.0, 1.2]),
        alpha=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_threshold_of_each_degree_on_rewired_lattices(
        self, rows, cols, neighborhood, p_r, delta_u, alpha, seed,
    ):
        spec = LatticeSpec(rows, cols, neighborhood)
        net = rewire(build_lattice(spec), p_r, np.random.default_rng(seed))
        self.assert_thresholds_by_degree(
            net, DecisionParams(delta_u=delta_u, alpha=alpha)
        )

    @pytest.mark.parametrize("delta_u", [0.6, 1.2])
    def test_isolated_nodes(self, delta_u):
        # nodes 3, 4 and 5 have no edges; node 1 has degree 2
        net = SocialNetwork(
            np.array([[0, 1], [1, 2]]), LatticeSpec(2, 3, Neighborhood.VON_NEUMANN), 0.0
        )
        params = DecisionParams(delta_u=delta_u)
        self.assert_thresholds_by_degree(net, params)
        expected_isolated = 0 if delta_u > 1.0 else net.node_count + 1
        assert _thresholds_by_node(net, params)[3:].tolist() == [expected_isolated] * 3


class TestRandomSequentialMode:
    def test_runs_and_saturates(self):
        net = build_lattice(MOORE_200)
        rng = np.random.default_rng(21)
        plan = build_plan(MOORE_200, Pattern.UNIFORM, count=1000, gamma=500, rng=rng)
        traj = simulate(
            net, plan, DecisionParams(delta_u=0.6), max_ticks=500,
            rng=rng, update=RANDOM_SEQUENTIAL,
        )
        assert traj.final_proportion == 1.0
        assert np.all(np.diff(traj.proportions) >= 0)

    def test_deterministic_under_same_stream(self):
        def run():
            rng = np.random.default_rng(34)
            net = build_lattice(LatticeSpec(50, 50, Neighborhood.MOORE))
            plan = build_plan(
                LatticeSpec(50, 50, Neighborhood.MOORE),
                Pattern.UNIFORM, count=60, gamma=30, rng=rng,
            )
            return simulate(
                net, plan, DecisionParams(delta_u=0.6), max_ticks=300,
                rng=rng, update=RANDOM_SEQUENTIAL,
            )

        assert np.array_equal(run().proportions, run().proportions)

    def test_requires_rng(self):
        net = build_lattice(LatticeSpec(5, 5, Neighborhood.MOORE))
        plan = schedule_innovators(
            np.array([0, 1]), gamma=2, rng=np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="rng"):
            simulate(
                net, plan, DecisionParams(delta_u=0.6), max_ticks=10,
                update=RANDOM_SEQUENTIAL,
            )


class TestRandomSequentialOracle:
    # delta_u 1.2 adopts spontaneously (threshold 0) and -1.0 never adopts
    # (threshold above the degree) at any alpha below 1
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(2, 20),
        cols=st.integers(2, 20),
        neighborhood=st.sampled_from(list(Neighborhood)),
        p_r=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        delta_u=st.sampled_from([-1.0, -0.3, 0.0, 0.3, 0.6, 0.8, 1.2]),
        alpha=st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
        seed=st.integers(0, 2**64 - 1),
        innovator_share=st.floats(0.0, 1.0),
        gamma=st.integers(1, 400),
    )
    def test_matches_per_agent_loop(
        self, rows, cols, neighborhood, p_r, delta_u, alpha, seed,
        innovator_share, gamma,
    ):
        spec = LatticeSpec(rows, cols, neighborhood)
        rng = np.random.default_rng(seed)
        net = build_lattice(spec)
        if p_r > 0:
            net = rewire(net, p_r, rng)
        count = round(innovator_share * spec.node_count)
        plan = (
            build_plan(spec, Pattern.UNIFORM, count, gamma, rng)
            if count else empty_plan()
        )
        assert_same_sequential_run(
            net, plan, DecisionParams(delta_u=delta_u, alpha=alpha),
            max_ticks=plan.last_tick + 60, rng=rng,
        )

    def test_matches_per_agent_loop_on_designated_cell(self):
        # a designated cell of the sensitivity rerun, at full size
        config = SimConfig(
            lattice=VN_200, delta_u=0.8, sigma=Pattern.UNIFORM, p_r=0.04,
            gamma=125, seed=2012,
        )
        net, plan, rng = config.realize()
        assert_same_sequential_run(
            net, plan, DecisionParams(delta_u=0.8), max_ticks=500, rng=rng
        )


class TestValidation:
    def test_rejects_out_of_range_positions(self):
        net = build_lattice(LatticeSpec(5, 5, Neighborhood.MOORE))
        plan = schedule_innovators(
            np.array([3, 25]), gamma=2, rng=np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="outside"):
            simulate(net, plan, DecisionParams(delta_u=0.6), max_ticks=10)

    def test_rejects_short_max_ticks(self):
        net = build_lattice(LatticeSpec(5, 5, Neighborhood.MOORE))
        plan = schedule_innovators(
            np.arange(6), gamma=2, rng=np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="max_ticks"):
            simulate(net, plan, DecisionParams(delta_u=0.6), max_ticks=2)

    def test_rejects_unknown_update_mode(self):
        net = build_lattice(LatticeSpec(5, 5, Neighborhood.MOORE))
        plan = schedule_innovators(
            np.array([0]), gamma=1, rng=np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="update"):
            simulate(net, plan, DecisionParams(delta_u=0.6), max_ticks=10, update="eager")

    def test_decision_params_validation(self):
        with pytest.raises(ValueError):
            DecisionParams(delta_u=0.6, alpha=1.5)
        with pytest.raises(ValueError):
            DecisionParams(delta_u=float("nan"))


class TestTrajectoryExport:
    def test_csv_format(self, tmp_path):
        traj = AdoptionTrajectory(
            np.array([0.0, 0.25, 1.0]), population=4, saturated_at=2
        )
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["tick", "adopters", "proportion"]
        assert rows[1] == ["0", "0", "0.0"]
        assert rows[2] == ["1", "1", "0.25"]
        assert rows[3] == ["2", "4", "1.0"]
