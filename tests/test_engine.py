"""Threshold-adoption dynamics: decision rule, tick loop, trajectories."""

import copy
import csv
import dataclasses
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.ndimage import distance_transform_cdt

from diffusim.engine import (
    RANDOM_SEQUENTIAL,
    SYNCHRONOUS,
    AdoptionTrajectory,
    DecisionParams,
    _DECIDED,
    _DONE,
    _adopt,
    _random_sequential_pass,
    _thresholds_by_node,
    adoption_threshold,
    delta_utility,
    read_trajectory_csv,
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
from diffusim.seeding import Pattern, SeedingPlan, build_plan
from diffusim.sweep import SimConfig, default_grid, derive_run_seed

MOORE_200 = LatticeSpec(200, 200, Neighborhood.MOORE)
VN_200 = LatticeSpec(200, 200, Neighborhood.VON_NEUMANN)


def release_ticks(plan) -> np.ndarray:
    """Each innovator's activation tick, in `plan.positions` order."""
    return 1 + np.arange(len(plan.positions)) // plan.gamma


def _simulate_sequential_scalar(net, plan, params, max_ticks, rng, on_tick=None):
    """Reference random-sequential run: one agent at a time in permuted order.

    The per-agent form of simulate's random-sequential contract; simulate
    must give the same trajectory, the same adopters in each tick and leave
    the generator in the same state.
    """
    n = net.node_count
    thresholds = _thresholds_by_node(net, params)
    innovator = np.zeros(n, dtype=bool)
    innovator[plan.positions] = True
    eligible = ~innovator
    counts = np.zeros(n, dtype=np.int64)  # adopter neighbors, kept incrementally

    activation_ticks = release_ticks(plan)
    last_tick = int(activation_ticks.max(initial=0))
    by_tick: dict[int, np.ndarray] = {}
    for tick in np.unique(activation_ticks):
        by_tick[int(tick)] = np.asarray(plan.positions)[activation_ticks == tick]

    proportions = [0.0]
    adopted_total = 0
    zero_change_streak = 0

    for t in range(1, max_ticks + 1):
        seeds = by_tick.get(t, np.empty(0, dtype=np.int64))

        adopters = seeds.tolist()
        for seed in seeds:
            counts[net.neighbors(int(seed))] += 1
        # immediate-update pass in random order over remaining agents
        candidates = np.flatnonzero(eligible)
        for agent in candidates[rng.permutation(len(candidates))]:
            if counts[agent] >= thresholds[agent]:
                adopters.append(int(agent))
                eligible[agent] = False
                counts[net.neighbors(int(agent))] += 1

        delta = len(adopters)
        adopted_total += delta
        proportions.append(adopted_total / n)

        if on_tick is not None:
            on_tick(t, np.array(adopters, dtype=np.int64))

        if adopted_total == n:
            break
        if t >= last_tick:
            zero_change_streak = zero_change_streak + 1 if delta == 0 else 0
            if zero_change_streak >= 2:
                break

    props = np.asarray(proportions)
    props.setflags(write=False)
    return AdoptionTrajectory(proportions=props, population=n)


def record_ticks(net, plan, params, max_ticks, engine=simulate, **kwargs):
    """Run `engine` (simulate's signature) and rebuild each agent's adoption
    tick, 0 for one that never adopts, from the adopters `on_tick` reports.

    Asserts that the callback sees ticks 1, 2, ... once each and no agent
    twice, and that the counts rebuilt from the ticks are the trajectory's.
    Each reported array is the caller's to keep: the recorder overwrites it,
    so an engine that read it again would go wrong."""
    ticks = np.zeros(net.node_count, dtype=np.int64)
    called = []

    def record(t, adopters):
        assert len(np.unique(adopters)) == len(adopters)
        assert not ticks[adopters].any(), "an agent reported twice"
        ticks[adopters] = t
        called.append(t)
        adopters.fill(0)

    traj = engine(net, plan, params, max_ticks, on_tick=record, **kwargs)
    assert called == list(range(1, len(traj.proportions)))
    per_tick = np.bincount(ticks, minlength=len(traj.proportions))
    per_tick[0] = 0  # agents that never adopt
    assert np.array_equal(np.cumsum(per_tick), traj.adopter_counts)
    return traj, ticks


def assert_same_sequential_run(net, plan, params, max_ticks, rng) -> None:
    """simulate(update=RANDOM_SEQUENTIAL) against the per-agent reference,
    each drawing from its own copy of `rng`."""
    fast_rng, ref_rng = copy.deepcopy(rng), copy.deepcopy(rng)
    fast, fast_ticks = record_ticks(
        net, plan, params, max_ticks, rng=fast_rng, update=RANDOM_SEQUENTIAL,
    )
    ref, ref_ticks = record_ticks(
        net, plan, params, max_ticks, rng=ref_rng,
        engine=_simulate_sequential_scalar,
    )
    assert np.array_equal(fast.proportions, ref.proportions)
    assert fast.saturated_at == ref.saturated_at
    assert np.array_equal(fast_ticks, ref_ticks)
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


def empty_plan() -> SeedingPlan:
    return SeedingPlan(positions=np.empty(0, dtype=np.int64), gamma=1)


def permuted_plan(positions, gamma, rng) -> SeedingPlan:
    """A plan over hand-picked positions, in build_plan's activation order."""
    return SeedingPlan(positions[rng.permutation(len(positions))], gamma)


def with_isolated_nodes(spec: LatticeSpec, isolated) -> SocialNetwork:
    """The lattice of `spec` with every edge at the `isolated` nodes removed."""
    edges = build_lattice(spec).edges
    keep = ~np.isin(edges, list(isolated)).any(axis=1)
    return SocialNetwork(edges[keep], spec)


def assert_ticks_follow_rule(net, plan, params, max_ticks) -> None:
    """Replay every synchronous tick against the per-agent rule: an agent
    adopts at t iff it is seeded at t or, not being an innovator, its
    adopter-neighbor fraction at the start of t (0 when it has no neighbors)
    gives delta_utility > 0.

    A callback changes nothing: the run without `on_tick`, the one sweeps
    make, must give the same trajectory as the observed run."""
    observed, ticks = record_ticks(net, plan, params, max_ticks)
    unobserved = simulate(net, plan, params, max_ticks)
    assert np.array_equal(observed.proportions, unobserved.proportions)
    assert observed.saturated_at == unobserved.saturated_at
    released = dict(zip(plan.positions.tolist(), release_ticks(plan).tolist()))

    for t in range(1, len(observed.proportions)):
        before = (ticks > 0) & (ticks < t)
        for agent in np.flatnonzero(~before).tolist():
            if agent in released:
                expected = released[agent] == t
            else:
                neigh = net.neighbors(agent)
                v_plus = np.sum(before[neigh]) / len(neigh) if len(neigh) else 0.0
                expected = delta_utility(float(v_plus), params) > 0.0
            assert (ticks[agent] == t) == expected, (t, agent)


def arrival_ticks(net, plan) -> np.ndarray:
    """Each agent's adoption tick in a synchronous run where every threshold
    is 1, or 0 for an agent that never adopts.

    An innovator adopts at its release tick, never by imitation; any other
    agent adopts one tick after its first adopter neighbor. So the ticks
    are a breadth-first search over the edge list, one tick at a time, from
    innovators that join it at their release ticks."""
    n = net.node_count
    adjacency = [[] for _ in range(n)]
    for a, b in net.edges.tolist():
        adjacency[a].append(b)
        adjacency[b].append(a)
    ticks = [0] * n
    reached = defaultdict(list)  # tick -> the agents that adopt at it
    for node, tick in zip(plan.positions.tolist(), release_ticks(plan).tolist()):
        ticks[node] = tick
        reached[tick].append(node)
    t = 1
    while t <= max(reached, default=0):
        for agent in reached[t]:
            for other in adjacency[agent]:
                if not ticks[other]:
                    ticks[other] = t + 1
                    reached[t + 1].append(other)
        t += 1
    return np.array(ticks, dtype=np.int64)


def assert_matches_arrival_ticks(net, plan, params, max_ticks) -> None:
    """A synchronous run whose every threshold is 1 adopts each agent at its
    `arrival_ticks` tick, and stops when the stop rule says: at saturation,
    or two ticks after the last adoption (seeding having ended)."""
    assert {adoption_threshold(d, params) for d in set(net.degrees.tolist())} == {1}
    traj, ticks = record_ticks(net, plan, params, max_ticks)
    expected = arrival_ticks(net, plan)
    assert np.array_equal(ticks, expected)
    last = int(expected.max(initial=0))
    stop = last if expected.all() else max(last, plan.last_tick) + 2
    assert len(traj.proportions) == stop + 1


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

    @pytest.mark.parametrize("delta_u, expected", [(1.2, 0), (1.0, 1), (0.6, 1), (-1.0, 1)])
    def test_no_neighbors_reads_v_plus_as_zero(self, delta_u, expected):
        # spontaneous adoption, or a threshold no decrement can reach
        assert adoption_threshold(0, DecisionParams(delta_u=delta_u)) == expected


class TestTrajectoryType:
    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            AdoptionTrajectory(np.array([0.1, 0.5]), population=10)

    def test_must_be_nondecreasing(self):
        with pytest.raises(ValueError):
            AdoptionTrajectory(np.array([0.0, 0.5, 0.4]), population=10)

    @pytest.mark.parametrize("props", [[], [0.0, np.nan, 0.5], [0.0, 0.5, np.inf],
                                       [0.0, 0.5, 1.4]])
    def test_proportions_must_be_non_empty_and_in_unit_interval(self, props):
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            AdoptionTrajectory(np.array(props), population=10)

    def test_saturated_at_is_the_first_full_tick(self):
        # fit_window cuts the record there; a Python int, so that a row
        # holding it serializes
        traj = AdoptionTrajectory(np.array([0.0, 0.25, 1.0, 1.0]), population=4)
        assert traj.saturated_at == 2 and type(traj.saturated_at) is int
        assert AdoptionTrajectory(np.array([0.0, 0.5]), population=10).saturated_at is None

    def test_adopter_counts_roundtrip(self):
        traj = AdoptionTrajectory(np.array([0.0, 0.25, 1.0]), population=8)
        assert traj.adopter_counts.tolist() == [0, 2, 8]
        assert traj.final_proportion == 1.0

    def test_keeps_the_proportions_it_checked(self):
        given = np.array([0, 0.5, 1])
        traj = AdoptionTrajectory(given, population=2)
        given[1] = 1.0  # the caller's array changes after the check
        assert traj.proportions.tolist() == [0.0, 0.5, 1.0]
        assert traj.saturated_at == 2
        assert traj.proportions.dtype == np.float64
        assert not traj.proportions.flags.writeable
        listed = AdoptionTrajectory([0.0, 0.5], population=2).proportions
        assert isinstance(listed, np.ndarray) and not listed.flags.writeable

    def test_compares_and_hashes_by_identity(self):
        traj = AdoptionTrajectory([0, .5, 1], 2)
        twin = AdoptionTrajectory([0, .5, 1], 2)
        assert traj == traj and traj != twin
        assert hash(traj) == hash(traj)
        assert len({traj, twin}) == 2

    @pytest.mark.parametrize("source", ["simulate", "csv"])
    def test_every_source_gives_read_only_float64(self, source, tmp_path):
        if source == "simulate":  # from a list of Python floats
            net = build_lattice(LatticeSpec(20, 20, Neighborhood.MOORE))
            traj = simulate(net, empty_plan(), DecisionParams(delta_u=1.2), max_ticks=5)
        else:
            path = tmp_path / "traj.csv"
            path.write_text("tick,proportion\n0,0.0\n1,0.5\n")
            traj = read_trajectory_csv(path)
        assert traj.proportions.dtype == np.float64
        assert not traj.proportions.flags.writeable


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
        # an agent is reported once, and the count at each tick is the
        # agents whose tick has come (record_ticks)
        net = build_lattice(MOORE_200)
        rng = np.random.default_rng(3)
        plan = build_plan(MOORE_200, Pattern.UNIFORM, count=1000, gamma=250, rng=rng)
        traj, _ = record_ticks(net, plan, DecisionParams(delta_u=0.6), max_ticks=500)
        assert np.all(np.diff(traj.proportions) >= 0)

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
        _, ticks = record_ticks(net, plan, DecisionParams(delta_u=0.6), max_ticks=100)
        # blocks of 7, 7, 7, 7, 7, 5 at ticks 1-6, none before its tick
        assert np.array_equal(ticks[plan.positions], release_ticks(plan))
        assert np.bincount(ticks[plan.positions]).tolist() == [0, 7, 7, 7, 7, 7, 5]


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
        spec = LatticeSpec(10, 10, neighborhood)
        rng = np.random.default_rng(17)
        plan = build_plan(spec, Pattern.UNIFORM, count=6, gamma=2, rng=rng)
        assert_ticks_follow_rule(
            build_lattice(spec), plan, DecisionParams(delta_u=delta_u), max_ticks=200
        )

    # delta_u 1.2 adopts spontaneously and -1.0 never adopts at alpha < 1
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(2, 12),
        cols=st.integers(2, 12),
        neighborhood=st.sampled_from(list(Neighborhood)),
        p_r=st.sampled_from([0.0, 0.3, 1.0]),
        delta_u=st.sampled_from([-1.0, 0.0, 0.6, 0.8, 1.2]),
        alpha=st.sampled_from([0.0, 0.5, 1.0]),
        pattern=st.sampled_from(list(Pattern)),
        count=st.integers(1, 12),
        gamma=st.sampled_from([1, 2, 5, 50]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_brute_force_on_rewired_lattices(
        self, rows, cols, neighborhood, p_r, delta_u, alpha, pattern, count,
        gamma, seed,
    ):
        spec = LatticeSpec(rows, cols, neighborhood)
        rng = np.random.default_rng(seed)
        net = rewire(build_lattice(spec), p_r, rng)
        try:
            plan = build_plan(spec, pattern, min(count, spec.node_count), gamma, rng)
        except ValueError:  # intermediate clusters overlap on small lattices
            assume(False)
        assert_ticks_follow_rule(
            net, plan, DecisionParams(delta_u=delta_u, alpha=alpha),
            max_ticks=plan.last_tick + 30,
        )

    @pytest.mark.parametrize("delta_u", [-1.0, 0.6, 1.2])
    def test_brute_force_with_isolated_nodes(self, delta_u):
        spec = LatticeSpec(6, 6, Neighborhood.MOORE)
        net = with_isolated_nodes(spec, [0, 14, 21])
        plan = permuted_plan(np.array([7, 21, 28]), 2, np.random.default_rng(3))
        assert_ticks_follow_rule(net, plan, DecisionParams(delta_u=delta_u), 40)


def grid_cell(k, delta_u, sigma, p_r, gamma) -> SimConfig:
    """The default grid's cell, with the seed of its replication 0 in a
    master-seed-0 sweep."""
    grid = default_grid()
    index = next(i for i, c in enumerate(grid) if
                 (c.k, c.delta_u, c.sigma.value, c.p_r, c.gamma)
                 == (k, delta_u, sigma, p_r, gamma))
    return dataclasses.replace(grid[index], seed=derive_run_seed(0, index, 0))


class TestArrivalTimeOracle:
    """Where every threshold is 1, a synchronous run is a breadth-first
    search from the innovators (`arrival_ticks`)."""

    # at alpha 0.5, delta_u 0.99 needs an adopted fraction above 0.005:
    # one adopter neighbor below degree 200; an isolated agent never adopts
    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.integers(2, 15),
        cols=st.integers(2, 15),
        neighborhood=st.sampled_from(list(Neighborhood)),
        p_r=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        pattern=st.sampled_from(list(Pattern)),
        count=st.integers(1, 20),
        gamma=st.sampled_from([1, 2, 3, 7, 50]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_breadth_first_search_on_rewired_lattices(
        self, rows, cols, neighborhood, p_r, pattern, count, gamma, seed,
    ):
        spec = LatticeSpec(rows, cols, neighborhood)
        rng = np.random.default_rng(seed)
        net = rewire(build_lattice(spec), p_r, rng)
        try:
            plan = build_plan(spec, pattern, min(count, spec.node_count), gamma, rng)
        except ValueError:  # intermediate clusters overlap on small lattices
            assume(False)
        assert_matches_arrival_ticks(
            net, plan, DecisionParams(delta_u=0.99, alpha=0.5),
            max_ticks=plan.last_tick + spec.node_count,
        )

    @pytest.mark.parametrize("cell", [
        (8, 0.8, "uniform", 0.0025, 200),  # rewired, degrees up to 9
        (8, 0.8, "intermediate", 0.0, 125),
        (4, 0.6, "intermediate", 0.0, 250),
        (4, 0.8, "compact", 0.04, 125),
    ])
    def test_matches_breadth_first_search_on_grid_cells(self, cell):
        config = grid_cell(*cell)
        net, plan, _ = config.realize()
        assert_matches_arrival_ticks(
            net, plan, DecisionParams(config.delta_u, config.alpha),
            config.max_ticks,
        )

    @pytest.mark.parametrize("cell, metric, saturated_at", [
        ((8, 0.8, "compact", 0.0, 1000), "chessboard", 86),
        ((4, 0.8, "intermediate", 0.0, 1000), "taxicab", 88),
    ])
    def test_unrewired_ticks_are_the_seed_distance_transform(
        self, cell, metric, saturated_at,
    ):
        # every innovator adopts at tick 1, so an agent adopts one tick
        # after its lattice distance to the nearest innovator
        config = grid_cell(*cell)
        net, plan, _ = config.realize()
        assert plan.last_tick == 1
        traj, ticks = record_ticks(
            net, plan, DecisionParams(config.delta_u, config.alpha),
            config.max_ticks,
        )
        unseeded = np.ones(config.lattice.node_count, dtype=bool)
        unseeded[plan.positions] = False
        shape = (config.lattice.rows, config.lattice.cols)
        distance = distance_transform_cdt(unseeded.reshape(shape), metric=metric)
        assert np.array_equal(ticks.reshape(shape), 1 + distance)
        assert traj.saturated_at == saturated_at


class TestAdoptionTicks:
    @pytest.mark.parametrize("update", [SYNCHRONOUS, RANDOM_SEQUENTIAL])
    @pytest.mark.parametrize("cell", [
        (8, 0.6, "compact", 0.01, 125),
        (4, 0.8, "uniform", 0.04, 200),
    ])
    def test_ticks_give_the_counts_and_release_innovators_on_time(
        self, cell, update,
    ):
        # record_ticks checks the counts against adopter_counts
        config = grid_cell(*cell)
        net, plan, rng = config.realize()
        _, ticks = record_ticks(
            net, plan, DecisionParams(config.delta_u, config.alpha),
            config.max_ticks, rng=rng, update=update,
        )
        assert np.array_equal(ticks[plan.positions], release_ticks(plan))


class TestThresholdTable:
    @staticmethod
    def assert_thresholds_by_degree(net, params):
        thresholds = _thresholds_by_node(net, params)
        # the run's starting countdown: one more slot, for the padding
        assert thresholds.dtype == np.int32
        assert len(thresholds) == net.node_count + 1
        assert thresholds[-1] == _DONE
        for node, degree in enumerate(net.degrees.tolist()):
            assert thresholds[node] == adoption_threshold(degree, params), (node, degree)

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
            np.array([[0, 1], [1, 2]]), LatticeSpec(2, 3, Neighborhood.VON_NEUMANN)
        )
        params = DecisionParams(delta_u=delta_u)
        self.assert_thresholds_by_degree(net, params)
        expected_isolated = 0 if delta_u > 1.0 else 1
        assert _thresholds_by_node(net, params)[3:6].tolist() == [expected_isolated] * 3


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
        plan = permuted_plan(np.array([0, 1]), 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="rng"):
            simulate(
                net, plan, DecisionParams(delta_u=0.6), max_ticks=10,
                update=RANDOM_SEQUENTIAL,
            )

    @pytest.mark.parametrize("isolated", [False, True],
                             ids=["rewired", "isolated_nodes"])
    def test_pass_reads_need_and_returns_undecided_agents_once(self, isolated):
        # the pass only decides; simulate writes its adopters through _adopt
        spec = LatticeSpec(30, 30, Neighborhood.MOORE)
        rng = np.random.default_rng(17)
        if isolated:
            net = with_isolated_nodes(spec, [0, 31, 450, 899])
        else:
            net = rewire(build_lattice(spec), 0.1, rng)
        table = net.neighbor_table
        assert (table == net.node_count).any()  # padded rows
        need = _thresholds_by_node(net, DecisionParams(delta_u=0.6))
        _adopt(table, rng.choice(net.node_count, 90, replace=False), need)
        before = need.copy()
        adopters = _random_sequential_pass(table, need, rng)
        assert need.tobytes() == before.tobytes()
        assert len(adopters) > 0
        assert len(np.unique(adopters)) == len(adopters)
        assert np.all(before[adopters] < _DECIDED)


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

    @pytest.mark.parametrize("delta_u", [0.6, 1.2])
    def test_matches_per_agent_loop_with_isolated_nodes(self, delta_u):
        # isolated agents never adopt at 0.6, so they stay in every tick's
        # permutation; at 1.2 every agent adopts spontaneously
        spec = LatticeSpec(8, 8, Neighborhood.MOORE)
        net = with_isolated_nodes(spec, [0, 9, 30, 63])
        assert net.degrees[[0, 9, 30, 63]].tolist() == [0, 0, 0, 0]
        rng = np.random.default_rng(41)
        plan = build_plan(spec, Pattern.UNIFORM, count=4, gamma=2, rng=rng)
        assert_same_sequential_run(
            net, plan, DecisionParams(delta_u=delta_u),
            max_ticks=plan.last_tick + 20, rng=rng,
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


class TestEveryNodeIsolated:
    """A network with no edge: the neighbor table is (n, 0), so every
    gather is empty and only the spontaneous rule and the seeds act."""

    @pytest.mark.parametrize("update", [SYNCHRONOUS, RANDOM_SEQUENTIAL])
    @pytest.mark.parametrize(
        "delta_u,counts,saturated_at",
        [(1.2, [0, 19, 20], 2), (0.6, [0, 2, 3, 3, 3], None)],
        ids=["spontaneous", "innovators_only"],
    )
    def test_zero_width_neighbor_table(self, update, delta_u, counts, saturated_at):
        # at alpha 0.5, delta_u 1.2 adopts with no adopter neighbor (all but
        # the tick-2 innovator adopt at tick 1) and 0.6 never does, so only
        # the innovators adopt
        spec = LatticeSpec(5, 4, Neighborhood.MOORE)
        net = SocialNetwork(np.empty((0, 2), dtype=np.int64), spec)
        assert net.neighbor_table.shape == (20, 0)
        rng = np.random.default_rng(5)
        plan = permuted_plan(np.array([3, 11, 17]), 2, rng)
        params = DecisionParams(delta_u=delta_u)
        if update == SYNCHRONOUS:
            assert_ticks_follow_rule(net, plan, params, max_ticks=10)
        else:
            assert_same_sequential_run(net, plan, params, max_ticks=10, rng=rng)
        traj = simulate(net, plan, params, max_ticks=10, rng=rng, update=update)
        assert traj.adopter_counts.tolist() == counts
        assert traj.saturated_at == saturated_at


class TestValidation:
    def test_rejects_out_of_range_positions(self):
        net = build_lattice(LatticeSpec(5, 5, Neighborhood.MOORE))
        plan = permuted_plan(np.array([3, 25]), 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="outside"):
            simulate(net, plan, DecisionParams(delta_u=0.6), max_ticks=10)

    def test_rejects_unsigned_position_past_the_index_range(self):
        # 2**63 wraps to a negative index in the plan's intp copy
        net = build_lattice(LatticeSpec(5, 5, Neighborhood.MOORE))
        plan = SeedingPlan(np.array([0, 2**63], dtype=np.uint64), 1)
        with pytest.raises(ValueError, match="outside the network"):
            simulate(net, plan, DecisionParams(delta_u=0.6), max_ticks=10)

    @pytest.mark.parametrize("update", [SYNCHRONOUS, RANDOM_SEQUENTIAL])
    def test_unsigned_positions_run_as_signed_ones(self, update):
        # joined to the engine's int64 deciders, unsigned seeds would
        # promote a tick's adopters to float64, which cannot index
        net = build_lattice(LatticeSpec(5, 5, Neighborhood.MOORE))
        runs = []
        for dtype in (np.int64, np.uint64):
            plan = SeedingPlan(np.array([0, 1], dtype=dtype), 1)
            traj, ticks = record_ticks(
                net, plan, DecisionParams(delta_u=0.6), max_ticks=10,
                rng=np.random.default_rng(3), update=update,
            )
            dtypes = set()
            simulate(net, plan, DecisionParams(delta_u=0.6), max_ticks=10,
                     rng=np.random.default_rng(3), update=update,
                     on_tick=lambda t, adopters: dtypes.add(adopters.dtype))
            assert dtypes == {np.dtype(np.int64)}
            runs.append((traj.adopter_counts.tolist(), ticks.tolist()))
        assert runs[0] == runs[1]
        if update == SYNCHRONOUS:
            assert runs[0][0] == [0, 1, 2, 4, 8, 13, 19, 22, 25]

    def test_rejects_short_max_ticks(self):
        net = build_lattice(LatticeSpec(5, 5, Neighborhood.MOORE))
        plan = permuted_plan(np.arange(6), 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="max_ticks"):
            simulate(net, plan, DecisionParams(delta_u=0.6), max_ticks=2)

    def test_rejects_unknown_update_mode(self):
        net = build_lattice(LatticeSpec(5, 5, Neighborhood.MOORE))
        plan = permuted_plan(np.array([0]), 1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="update"):
            simulate(net, plan, DecisionParams(delta_u=0.6), max_ticks=10, update="eager")

    def test_decision_params_validation(self):
        with pytest.raises(ValueError):
            DecisionParams(delta_u=0.6, alpha=1.5)
        with pytest.raises(ValueError):
            DecisionParams(delta_u=float("nan"))


class TestTrajectoryExport:
    def test_csv_format(self, tmp_path):
        traj = AdoptionTrajectory(np.array([0.0, 0.25, 1.0]), population=4)
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["tick", "adopters", "proportion"]
        assert rows[1] == ["0", "0", "0.0"]
        assert rows[2] == ["1", "1", "0.25"]
        assert rows[3] == ["2", "4", "1.0"]

    def test_write_read_write_is_byte_identical(self, tmp_path):
        traj = SimConfig(
            lattice=LatticeSpec(30, 30, Neighborhood.MOORE), delta_u=0.6,
            sigma=Pattern.UNIFORM, p_r=0.01, gamma=10, max_ticks=300, seed=3,
        ).simulate()
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_trajectory_csv(traj, first)
        loaded = read_trajectory_csv(first)
        assert loaded.population == 900
        assert np.array_equal(loaded.adopter_counts, traj.adopter_counts)
        write_trajectory_csv(loaded, second)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("rows", [
        "0,0,0.0\n1,2,0.25\n2,4,1.0\n",
        # adopters / proportion overflows a float
        "0,0,0.0\n1,1,5e-324\n",
    ])
    def test_adopters_that_disagree_with_proportions_are_rejected(self, tmp_path, rows):
        path = tmp_path / "traj.csv"
        path.write_text("tick,adopters,proportion\n" + rows)
        with pytest.raises(ValueError, match="adopters disagree"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("row", ["2,4", "2,4,1.0,x"], ids=["short", "long"])
    def test_row_needs_the_header_s_field_count(self, tmp_path, row):
        path = tmp_path / "traj.csv"
        path.write_text(f"tick,adopters,proportion\n0,0,0.0\n1,1,0.25\n{row}\n")
        with pytest.raises(ValueError, match="^line 4 has"):
            read_trajectory_csv(path)

    def test_proportions_alone_give_population_one(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("tick,proportion\n0,0.0\n1,0.25\n2,1.0\n")
        assert read_trajectory_csv(path).population == 1
