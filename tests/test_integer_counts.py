"""One integer rule for every count a model type or entry point takes:
a Python or numpy integer within the count's bounds passes; a bool, a
non-integer or a value out of bounds is a ValueError naming the field.
The real-valued fields share one rule too: a bool, a value that is not a
Python or numpy number, or one whose float is not finite (inf, NaN or an
int past a float's range), or that lies outside the field's closed range,
is a ValueError naming the field."""

from __future__ import annotations

import math

import numpy as np
import pytest

from diffusim.bass import BassParams
from diffusim.engine import (
    AdoptionTrajectory, DecisionParams, adoption_threshold, delta_utility, simulate,
)
from diffusim.network import (
    LatticeSpec, Neighborhood, build_lattice, network_stats, rewire,
)
from diffusim.seeding import (
    Pattern, SeedingPlan, default_innovator_count, place_innovators,
)
from diffusim.sweep import SimConfig, default_grid, roi_check, run_sweep

LATTICE = LatticeSpec(5, 5, Neighborhood.MOORE)
PARAMS = DecisionParams(delta_u=0.6)


def sim_config(**fields) -> SimConfig:
    base = dict(lattice=LATTICE, delta_u=0.6, sigma=Pattern.UNIFORM, p_r=0.0,
                gamma=1, max_ticks=10)
    return SimConfig(**{**base, **fields})


# (owner, field, lowest accepted value, call that takes the value for the field)
COUNTS = [
    ("LatticeSpec", "rows", 2, lambda v: LatticeSpec(v, 3, Neighborhood.MOORE)),
    ("LatticeSpec", "cols", 2, lambda v: LatticeSpec(3, v, Neighborhood.MOORE)),
    ("SeedingPlan", "gamma", 1, lambda v: SeedingPlan(np.array([0, 1]), v)),
    ("AdoptionTrajectory", "population", 1,
     lambda v: AdoptionTrajectory(np.array([0.0, 1.0]), population=v)),
    ("SimConfig", "gamma", 1, lambda v: sim_config(gamma=v)),
    ("SimConfig", "replication", 0, lambda v: sim_config(replication=v)),
    ("SimConfig", "seed", 0, lambda v: sim_config(seed=v)),
    ("SimConfig", "max_ticks", 1, lambda v: sim_config(max_ticks=v)),
    ("place_innovators", "count", 1,
     lambda v: place_innovators(LATTICE, Pattern.COMPACT, v)),
    ("adoption_threshold", "neighbor_count", 0, lambda v: adoption_threshold(v, PARAMS)),
    ("simulate", "max_ticks", 0, lambda v: simulate(
        build_lattice(LATTICE), SeedingPlan(np.array([12]), 1), PARAMS, v)),
    ("network_stats", "sample_size", 1,
     lambda v: network_stats(build_lattice(LATTICE), v)),
    ("run_sweep", "replications", 1, lambda v: run_sweep([sim_config()], replications=v)),
    ("run_sweep", "master_seed", 0, lambda v: run_sweep([sim_config()], master_seed=v)),
    ("run_sweep", "jobs", 1, lambda v: run_sweep([sim_config()], jobs=v)),
    ("Neighborhood.for_k", "k", 0, Neighborhood.for_k),
    ("default_grid", "k", 0, lambda v: default_grid(rows=5, cols=5, k_levels=[v])),
]


@pytest.mark.parametrize("field, low, call", [c[1:] for c in COUNTS],
                         ids=[f"{owner}.{field}" for owner, field, _, _ in COUNTS])
@pytest.mark.parametrize("kind", ["fraction", "bool", "below"])
def test_count_rejects_non_integers_and_values_below_its_bound(field, low, call, kind):
    value = {"fraction": 1.5, "bool": True, "below": low - 1}[kind]
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        call(value)


def test_numpy_integers_are_counts():
    lattice = LatticeSpec(np.int64(5), np.int32(5), Neighborhood.MOORE)
    config = sim_config(lattice=lattice, seed=np.uint64(2**64 - 1),
                        replication=np.int64(0), max_ticks=np.int16(10))
    assert config.seed == 2**64 - 1
    assert len(place_innovators(lattice, Pattern.COMPACT, np.int64(25))) == 25


@pytest.mark.parametrize("value", [2**64, 2**70])
def test_master_seed_above_its_bound_is_rejected_before_any_run(monkeypatch, value):
    def no_run(config):
        raise AssertionError("a run started")

    monkeypatch.setattr("diffusim.sweep.run_once", no_run)
    with pytest.raises(ValueError, match="^master_seed must be an integer"):
        run_sweep([sim_config()], master_seed=value)


# (owner, field, closed range (low, high) with None for no bound, call that
# takes the value for the field); the open bounds of innovator_fraction and
# BassParams.p are checked apart, so they are listed unbounded here
REALS = [
    ("SimConfig", "p_r", (0, 1), lambda v: sim_config(p_r=v)),
    ("rewire", "p_r", (0, 1),
     lambda v: rewire(build_lattice(LATTICE), v, np.random.default_rng(0))),
    ("SimConfig", "innovator_fraction", (None, None),
     lambda v: sim_config(innovator_fraction=v)),
    ("SimConfig", "delta_u", (None, None), lambda v: sim_config(delta_u=v)),
    ("SimConfig", "alpha", (0, 1), lambda v: sim_config(alpha=v)),
    ("default_innovator_count", "innovator_fraction", (None, None),
     lambda v: default_innovator_count(LATTICE, v)),
    ("DecisionParams", "delta_u", (None, None), lambda v: DecisionParams(delta_u=v)),
    ("DecisionParams", "alpha", (0, 1), lambda v: DecisionParams(delta_u=0.6, alpha=v)),
    ("delta_utility", "v_plus", (0, 1), lambda v: delta_utility(v, PARAMS)),
    ("BassParams", "p", (None, None), lambda v: BassParams(v, 0.5)),
    ("BassParams", "q", (0, None), lambda v: BassParams(0.01, v)),
    ("roi_check", "t_star", (None, None),
     lambda v: roi_check(BassParams(0.01, 0.4), BassParams(0.02, 0.4), 100, v,
                         1.0, 0.0, 0.0)),
]
BOUNDED = [r for r in REALS if r[2] != (None, None)]


@pytest.mark.parametrize("field, call", [(r[1], r[3]) for r in REALS],
                         ids=[f"{owner}.{field}" for owner, field, _, _ in REALS])
@pytest.mark.parametrize(
    "value", [True, False, np.True_, "0.1", None, 1j, 10**400, math.inf, -math.inf, math.nan],
    ids=["True", "False", "numpy-True", "str", "None", "complex", "int-past-float",
         "inf", "minus-inf", "nan"])
def test_real_field_rejects_bools_and_non_numbers(field, call, value):
    with pytest.raises(ValueError, match=f"^{field} must be a real number"):
        call(value)


@pytest.mark.parametrize("field, bounds, call", [r[1:] for r in BOUNDED],
                         ids=[f"{owner}.{field}" for owner, field, _, _ in BOUNDED])
def test_bounded_real_accepts_its_bounds_and_rejects_the_next_float_past_them(
        field, bounds, call):
    for bound, outward in zip(bounds, (-math.inf, math.inf)):
        if bound is None:
            continue
        call(float(bound))
        with pytest.raises(ValueError, match=f"^{field} must be a real number"):
            call(np.nextafter(float(bound), outward))


@pytest.mark.parametrize("call, message", [
    (lambda: DecisionParams(delta_u=0.6, alpha=1.5),
     "alpha must be a real number in [0, 1], finite as a float, got 1.5"),
    (lambda: BassParams(0.01, -1), "q must be a real number >= 0, finite as a float, got -1"),
    (lambda: DecisionParams(delta_u=math.nan), "delta_u must be a real number, "
                                               "finite as a float, got nan"),
], ids=["closed", "low-only", "unbounded"])
def test_range_message_states_the_bounds(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_numpy_numbers_are_real():
    config = sim_config(p_r=np.float32(0.25), innovator_fraction=np.float64(0.1),
                        delta_u=np.int64(1), alpha=np.float16(0.5))
    assert config.p_r == 0.25
    assert BassParams(np.float64(0.01), np.int32(0)).q == 0


def test_integer_a_float_can_hold_is_real():
    # 10**20 is past int64, but a float holds it
    assert DecisionParams(delta_u=10**20).delta_u == 10**20
