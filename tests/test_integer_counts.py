"""One integer rule for every count a model type or entry point takes:
a Python or numpy integer within the count's bounds passes; a bool, a
non-integer or a value out of bounds is a ValueError naming the field."""

from __future__ import annotations

import numpy as np
import pytest

from diffusim.engine import DecisionParams, adoption_threshold, simulate
from diffusim.network import LatticeSpec, Neighborhood, build_lattice, network_stats
from diffusim.seeding import Pattern, SeedingPlan, place_innovators
from diffusim.sweep import SimConfig, run_sweep

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
    ("SimConfig", "gamma", 1, lambda v: sim_config(gamma=v)),
    ("SimConfig", "replication", 0, lambda v: sim_config(replication=v)),
    ("SimConfig", "seed", 0, lambda v: sim_config(seed=v)),
    ("SimConfig", "max_ticks", 1, lambda v: sim_config(max_ticks=v)),
    ("place_innovators", "count", 1,
     lambda v: place_innovators(LATTICE, Pattern.COMPACT, v)),
    ("adoption_threshold", "neighbor_count", 1, lambda v: adoption_threshold(v, PARAMS)),
    ("simulate", "max_ticks", 0, lambda v: simulate(
        build_lattice(LATTICE), SeedingPlan(np.array([12]), 1), PARAMS, v)),
    ("network_stats", "sample_size", 1,
     lambda v: network_stats(build_lattice(LATTICE), v)),
    ("run_sweep", "replications", 1, lambda v: run_sweep([sim_config()], replications=v)),
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
