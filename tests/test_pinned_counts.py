"""Pinned engine outputs: the sha256 of every run's adopter counts.

Nothing else in the suite checks absolute outputs, so a refactor that drifts
the runs, or a numpy release that changes a `Generator` method's stream
(NEP 19 allows that across feature releases), would pass unless it moved a
census line. The counts are integers, so their bytes are the same on every
CPU. `sweep.csv` is not pinned: its fitted floats follow `np.exp`, whose
SIMD path differs from libm in the last bit on some inputs, so its bytes
depend on the host.
"""

import dataclasses
import hashlib

import numpy as np

from diffusim.engine import RANDOM_SEQUENTIAL, DecisionParams, simulate
from diffusim.sweep import default_grid, derive_run_seed

MASTER_SEED = 0
DESIGNATED_CELLS = [
    (8, 0.6, "uniform", 0.0, 1000),
    (8, 0.6, "uniform", 0.0, 125),
    (8, 0.8, "uniform", 0.04, 1000),
    (4, 0.6, "uniform", 0.0, 125),
    (4, 0.8, "uniform", 0.04, 125),
    (4, 0.6, "uniform", 0.04, 1000),
]
GRID_40X40_SHA256 = "c045d834f8c017d1adbb0511ebe0ee6369cdb261007cd5b5f0fb0e6f4837d06c"
SEQUENTIAL_SHA256 = "7ee002ff9d7cff528c105b27af7c2c5702fcff57bd3681af113e4ab6e200aeac"


def counts_sha256(trajectories) -> str:
    """sha256 over each run's tick count and little-endian int64 counts."""
    h = hashlib.sha256()
    for traj in trajectories:
        counts = traj.adopter_counts.astype("<i8")
        h.update(np.int64(len(counts)).astype("<i8").tobytes())
        h.update(counts.tobytes())
    return h.hexdigest()


def seeded(grid, index, rep):
    return dataclasses.replace(
        grid[index], seed=derive_run_seed(MASTER_SEED, index, rep), replication=rep
    )


def assert_pinned(got: str, pinned: str, what: str) -> None:
    assert got == pinned, (
        f"{what}: adopter counts hash {got}, pinned {pinned}, with numpy "
        f"{np.__version__}. A numpy release may change a Generator's stream. "
        "A change that moves these outputs on purpose updates the pin and "
        "gives the reason in CHANGES.md."
    )


def test_synchronous_grid_counts_are_pinned():
    # every cell of the default grid on a 40x40 lattice, 1st replication,
    # seeded as `diffusim sweep --seed 0` seeds it
    grid = default_grid(rows=40, cols=40)
    trajectories = (seeded(grid, i, 0).simulate() for i in range(len(grid)))
    assert_pinned(
        counts_sha256(trajectories), GRID_40X40_SHA256, "40x40 synchronous grid"
    )


def test_random_sequential_counts_are_pinned():
    # the designated cells x 2 replications on 200x200, under
    # random-sequential updating with realize()'s generator
    grid = default_grid()
    keyed = {
        (c.k, c.delta_u, c.sigma.value, c.p_r, c.gamma): i for i, c in enumerate(grid)
    }
    trajectories = []
    for cell in DESIGNATED_CELLS:
        for rep in range(2):
            config = seeded(grid, keyed[cell], rep)
            net, plan, rng = config.realize()
            trajectories.append(simulate(
                net, plan, DecisionParams(delta_u=config.delta_u, alpha=config.alpha),
                max_ticks=config.max_ticks, rng=rng, update=RANDOM_SEQUENTIAL,
            ))
    assert_pinned(
        counts_sha256(trajectories), SEQUENTIAL_SHA256,
        "designated cells under random-sequential updating",
    )
