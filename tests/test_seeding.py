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
    schedule_innovators,
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


def test_intermediate_overlap_rejected_on_crowded_lattice():
    # 10x10 with half the cells as innovators: radius-2 clusters around
    # centers 3 apart must collide
    with pytest.raises(ValueError):
        place_innovators(LatticeSpec(10, 10, Neighborhood.MOORE), Pattern.INTERMEDIATE, 50)


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


def test_schedule_partial_final_block():
    plan = schedule_innovators(np.arange(7), 3, np.random.default_rng(0))
    blocks = [plan.seeds_at(t).tolist() for t in range(1, 5)]
    assert [len(block) for block in blocks] == [3, 3, 1, 0]
    assert sum(blocks, []) == plan.positions.tolist()
    assert plan.last_tick == 3


def test_schedule_permutes_positions():
    positions = np.arange(1000)
    plan = schedule_innovators(positions, 125, np.random.default_rng(5))
    assert set(plan.positions.tolist()) == set(range(1000))
    assert not np.array_equal(plan.positions, positions)


def test_plan_invariants_rejected():
    with pytest.raises(ValueError, match="distinct"):
        SeedingPlan(np.array([1, 1, 2]), 2)
    with pytest.raises(ValueError, match="gamma"):
        SeedingPlan(np.array([1, 2]), 0)


@settings(max_examples=50, deadline=None)
@given(
    total=st.integers(0, 400),
    gamma=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
)
@example(total=0, gamma=1, seed=0)
def test_schedule_properties(total, gamma, seed):
    rng = np.random.default_rng(seed)
    positions = rng.choice(10_000, size=total, replace=False)
    plan = schedule_innovators(positions, gamma, copy.deepcopy(rng))
    # activation order is one permutation drawn from the run's stream
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
