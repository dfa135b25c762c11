"""Pinned outputs: the sha256 of every run's adopter counts, and the
fitted (p, q) of the 40x40 grid.

Nothing else in the suite checks absolute outputs, so a refactor that drifts
the runs or the fit, or a numpy release that changes a `Generator` method's
stream (NEP 19 allows that across feature releases), would pass unless it
moved a census line. The counts are integers, so their bytes are the same on
every CPU. `sweep.csv` is not pinned: its fitted floats follow `np.exp`,
whose SIMD path differs from libm in the last bit on some inputs, so its
bytes depend on the host. The fitted values are compared with a committed
table at a relative 1e-6 instead. Moving `np.exp`'s result by one ulp on
every element moves no fit of the grid by more than 3e-8 relative, while a
change to the fit's algorithm moves them by far more.
"""

import csv
import dataclasses
import hashlib
import pathlib

import numpy as np
import pytest

from diffusim.calibrate import fit_bass
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
GRID_40X40_FITS = pathlib.Path(__file__).parent / "data" / "grid_40x40_fits.tsv"
FIT_RTOL = 1e-6


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


@pytest.fixture(scope="module")
def grid_40x40():
    """Every cell of the default grid on a 40x40 lattice, 1st replication,
    seeded as `diffusim sweep --seed 0` seeds it: (configs, trajectories)."""
    grid = default_grid(rows=40, cols=40)
    configs = [seeded(grid, i, 0) for i in range(len(grid))]
    return configs, [config.simulate() for config in configs]


def test_synchronous_grid_counts_are_pinned(grid_40x40):
    _, trajectories = grid_40x40
    assert_pinned(
        counts_sha256(trajectories), GRID_40X40_SHA256, "40x40 synchronous grid"
    )


def test_synchronous_grid_fits_are_pinned(grid_40x40):
    configs, trajectories = grid_40x40
    with open(GRID_40X40_FITS, newline="") as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    assert len(rows) == len(configs)
    moved = []
    for row, config, traj in zip(rows, configs, trajectories):
        cell = (config.k, config.delta_u, config.sigma.value, config.p_r, config.gamma)
        assert cell == (int(row["k"]), float(row["delta_u"]), row["sigma"],
                        float(row["p_r"]), int(row["gamma"])), row["index"]
        fit = fit_bass(traj).params
        pinned = (float(row["p"]), float(row["q"]))
        if (fit.p, fit.q) != pytest.approx(pinned, rel=FIT_RTOL):
            moved.append(f"{row['index']} {cell}: ({fit.p!r}, {fit.q!r}), "
                         f"pinned {pinned}")
    assert not moved, (
        f"{len(moved)} fitted (p, q) of the 40x40 grid moved past a relative "
        f"{FIT_RTOL} from {GRID_40X40_FITS.name}, with numpy {np.__version__}: "
        + "; ".join(moved[:5])
        + ". A change that moves these fits on purpose updates the table and "
        "gives the reason in CHANGES.md."
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
