"""Tests for innovator placement patterns and activation scheduling."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffusim.network import LatticeSpec, Neighborhood
from diffusim.seeding import (
    Pattern,
    SeedingPlan,
    build_plan,
    default_innovator_count,
    place_innovators,
)

SPEC_200 = LatticeSpec(200, 200, Neighborhood.MOORE)


def chebyshev_sort_oracle(spec: LatticeSpec, center_r: int, center_c: int) -> list[int]:
    cells = []
    for r in range(spec.rows):
        for c in range(spec.cols):
            cells.append((max(abs(r - center_r), abs(c - center_c)), r * spec.cols + c))
    cells.sort()
    return [idx for _, idx in cells]


# --- compact -----------------------------------------------------------------

def test_compact_within_radius_16_of_center():
    pos = place_innovators(SPEC_200, Pattern.COMPACT, 1000)
    rows, cols = np.divmod(pos, 200)
    assert np.max(np.maximum(np.abs(rows - 100), np.abs(cols - 100))) <= 16


def test_compact_exact_set_equality_with_sort_oracle():
    oracle = chebyshev_sort_oracle(SPEC_200, 100, 100)[:1000]
    pos = place_innovators(SPEC_200, Pattern.COMPACT, 1000)
    assert set(pos.tolist()) == set(oracle)


def test_compact_ordered_nearest_first_ties_row_major():
    spec = LatticeSpec(5, 5, Neighborhood.VON_NEUMANN)
    pos = place_innovators(spec, Pattern.COMPACT, 25)
    assert pos.tolist() == chebyshev_sort_oracle(spec, 2, 2)


# --- intermediate --------------------------------------------------------------

def test_intermediate_five_groups_of_200():
    pos = place_innovators(SPEC_200, Pattern.INTERMEDIATE, 1000)
    assert len(pos) == 1000
    assert len(set(pos.tolist())) == 1000
    expected_centers = [(100, 100), (50, 50), (50, 150), (150, 50), (150, 150)]
    groups = pos.reshape(5, 200)
    for group, (cr, cc) in zip(groups, expected_centers):
        rows, cols = np.divmod(group, 200)
        assert abs(rows.mean() - cr) <= 1.0
        assert abs(cols.mean() - cc) <= 1.0


def test_intermediate_remainder_goes_to_central_cluster():
    pos = place_innovators(SPEC_200, Pattern.INTERMEDIATE, 1003)
    rows, cols = np.divmod(pos, 200)
    dist_central = np.maximum(np.abs(rows - 100), np.abs(cols - 100))
    central = (dist_central <= 16).sum()
    assert central == 1003 // 5 + 3


@pytest.mark.parametrize("count", [1, 4])
def test_intermediate_with_empty_quadrant_clusters_is_compact(count):
    # fewer than five innovators all go to the central cluster
    assert np.array_equal(
        place_innovators(SPEC_200, Pattern.INTERMEDIATE, count),
        place_innovators(SPEC_200, Pattern.COMPACT, count),
    )


def test_intermediate_overlap_rejected_on_crowded_lattice():
    # 10x10 with half the cells as innovators: radius-2 clusters around
    # centers 3 apart must collide
    with pytest.raises(ValueError):
        place_innovators(LatticeSpec(10, 10, Neighborhood.MOORE), Pattern.INTERMEDIATE, 50)


def lexsort_placement_reference(spec: LatticeSpec, pattern: Pattern, count: int):
    """Clustered placement from a lexsort of every lattice cell by
    (Chebyshev distance, index) around each center; None where clusters
    overlap."""
    rows, cols = spec.rows, spec.cols
    r, c = np.divmod(np.arange(spec.node_count), cols)
    centers, sizes = [(rows // 2, cols // 2)], [count]
    if pattern is Pattern.INTERMEDIATE:
        centers += [(a * rows // 4, b * cols // 4) for a in (1, 3) for b in (1, 3)]
        sizes = [count // 5 + count % 5] + [count // 5] * 4
    cells = np.concatenate([
        np.lexsort((np.arange(spec.node_count),
                    np.maximum(np.abs(r - cr), np.abs(c - cc))))[:size]
        for (cr, cc), size in zip(centers, sizes)
    ])
    return None if len(np.unique(cells)) < len(cells) else cells


@st.composite
def clustered_placements(draw):
    rows, cols = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    count = draw(st.integers(1, rows * cols))
    pattern = draw(st.sampled_from([Pattern.COMPACT, Pattern.INTERMEDIATE]))
    return LatticeSpec(rows, cols, Neighborhood.MOORE), pattern, count


@settings(max_examples=200, deadline=None)
@given(clustered_placements())
@example((SPEC_200, Pattern.COMPACT, 1000))
@example((SPEC_200, Pattern.INTERMEDIATE, 1000))
def test_clustered_placement_matches_full_lattice_lexsort(case):
    spec, pattern, count = case
    expected = lexsort_placement_reference(spec, pattern, count)
    if expected is None:
        with pytest.raises(ValueError, match="overlap"):
            place_innovators(spec, pattern, count)
        return
    pos = place_innovators(spec, pattern, count)
    assert pos.dtype == np.int32
    assert pos.tolist() == expected.tolist()


@pytest.mark.parametrize("pattern", [Pattern.COMPACT, Pattern.INTERMEDIATE])
def test_clustered_placement_is_cached_and_read_only(pattern):
    pos = place_innovators(SPEC_200, pattern, 1000)
    assert place_innovators(SPEC_200, pattern, 1000) is pos
    with pytest.raises(ValueError, match="read-only"):
        pos[0] = 0


# --- uniform --------------------------------------------------------------------

def test_uniform_distinct_in_range():
    pos = place_innovators(SPEC_200, Pattern.UNIFORM, 1000, np.random.default_rng(0))
    assert len(pos) == 1000
    assert len(set(pos.tolist())) == 1000
    assert pos.min() >= 0 and pos.max() <= 39999


def test_uniform_requires_rng():
    with pytest.raises(ValueError):
        place_innovators(SPEC_200, Pattern.UNIFORM, 10)


def test_uniform_deterministic_by_seed():
    a = place_innovators(SPEC_200, Pattern.UNIFORM, 500, np.random.default_rng(42))
    b = place_innovators(SPEC_200, Pattern.UNIFORM, 500, np.random.default_rng(42))
    assert np.array_equal(a, b)


# --- placement validation --------------------------------------------------------

def test_unknown_pattern_rejected():
    with pytest.raises(ValueError, match="^unknown pattern: 'compact'$"):
        place_innovators(SPEC_200, "compact", 10)


def test_count_bounds():
    spec = LatticeSpec(4, 4, Neighborhood.MOORE)
    with pytest.raises(ValueError):
        place_innovators(spec, Pattern.COMPACT, 17)
    with pytest.raises(ValueError):
        place_innovators(spec, Pattern.COMPACT, 0)


# --- scheduling ------------------------------------------------------------------

def test_schedule_blocks_of_250():
    plan = build_plan(SPEC_200, Pattern.UNIFORM, 1000, 250, np.random.default_rng(1))
    assert [len(plan.seeds_at(t)) for t in range(1, 6)] == [250, 250, 250, 250, 0]
    assert plan.last_tick == 4


def test_schedule_single_block():
    plan = build_plan(SPEC_200, Pattern.COMPACT, 1000, 1000, np.random.default_rng(1))
    assert plan.last_tick == 1
    assert np.array_equal(plan.seeds_at(1), plan.positions)


def permuted_plan(positions, gamma, rng):
    """A plan over hand-picked positions, in build_plan's activation order."""
    return SeedingPlan(positions[rng.permutation(len(positions))], gamma)


def test_schedule_partial_final_block():
    plan = permuted_plan(np.arange(7), 3, np.random.default_rng(0))
    blocks = [plan.seeds_at(t).tolist() for t in range(1, 5)]
    assert [len(block) for block in blocks] == [3, 3, 1, 0]
    assert sum(blocks, []) == plan.positions.tolist()
    assert plan.last_tick == 3


def test_schedule_permutes_positions():
    positions = place_innovators(SPEC_200, Pattern.COMPACT, 1000)
    plan = build_plan(SPEC_200, Pattern.COMPACT, 1000, 125, np.random.default_rng(5))
    assert sorted(plan.positions.tolist()) == sorted(positions.tolist())
    assert not np.array_equal(plan.positions, positions)


def test_plan_invariants_rejected():
    with pytest.raises(ValueError, match="distinct"):
        SeedingPlan(np.array([1, 1, 2]), 2)
    with pytest.raises(ValueError, match="gamma"):
        SeedingPlan(np.array([1, 2]), 0)
    # a fractional rate is rejected, not truncated to int(2.5) = 2 per tick
    with pytest.raises(ValueError, match="gamma must be an integer"):
        build_plan(SPEC_200, Pattern.COMPACT, 5, 2.5, np.random.default_rng(0))
    assert SeedingPlan(np.array([1, 2]), np.int64(2)).last_tick == 1
    assert SeedingPlan(np.empty(0, dtype=np.int32), 3).last_tick == 0
    assert SeedingPlan(np.array([1, 2], dtype=np.uint16), 1).last_tick == 2


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint16, np.uint64])
def test_plan_keeps_the_distinct_positions_it_checked(dtype):
    given = np.array([1, 2, 3], dtype=dtype)
    plan = SeedingPlan(given, 2)
    given[0] = 2  # the caller's array changes after the check
    assert plan.positions.tolist() == [1, 2, 3]
    # the engine's index type: joined to the engine's int64 deciders, an
    # unsigned array would promote them to float64
    assert plan.positions.dtype == np.intp
    with pytest.raises(ValueError, match="read-only"):
        plan.positions[0] = 2


def test_plan_compares_and_hashes_by_identity():
    plan = SeedingPlan(np.array([1, 2]), 1)
    twin = SeedingPlan(np.array([1, 2]), 1)
    assert plan == plan and plan != twin
    assert hash(plan) == hash(plan)
    assert len({plan, twin}) == 2


@pytest.mark.parametrize("positions", [
    [1, 2], np.array([1.0, 2.0]), np.array([[1, 2], [3, 4]]),
    np.array([True, False]), np.array(3),
], ids=["list", "float", "2-D", "bool", "0-D"])
def test_plan_positions_must_be_a_1d_integer_array(positions):
    # simulate indexes its countdown with positions, so each of these would
    # fail there, far from its cause
    with pytest.raises(ValueError, match="^positions must be a 1-D integer ndarray"):
        SeedingPlan(positions, 1)


@settings(max_examples=50, deadline=None)
@given(
    pattern=st.sampled_from(Pattern),
    total=st.integers(1, 400),
    gamma=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
)
@example(pattern=Pattern.UNIFORM, total=1, gamma=1, seed=0)
def test_schedule_properties(pattern, total, gamma, seed):
    spec = LatticeSpec(100, 100, Neighborhood.MOORE)
    rng = np.random.default_rng(seed)
    plan = build_plan(spec, pattern, total, gamma, copy.deepcopy(rng))
    # placement, then one permutation, both drawn from the run's stream
    positions = place_innovators(spec, pattern, total, rng)
    assert np.array_equal(plan.positions, positions[rng.permutation(total)])
    assert plan.last_tick == -(-total // gamma)
    blocks = [plan.seeds_at(t) for t in range(1, plan.last_tick + 2)]
    assert len(blocks[-1]) == 0
    assert np.array_equal(np.concatenate(blocks), plan.positions)
    sizes = [len(block) for block in blocks[:-1]]
    assert all(size == gamma for size in sizes[:-1])
    assert all(1 <= size <= gamma for size in sizes[-1:])


def test_default_innovator_count():
    assert default_innovator_count(SPEC_200) == 1000
    assert default_innovator_count(LatticeSpec(40, 40, Neighborhood.MOORE)) == 40
