"""Workload definitions, kept free of diffusim imports so the orchestrator
can list and validate workloads before the package is known to load."""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0  # the seed the committed per-run reference was made at
MAX_TICKS = 500
POPULATION = 200 * 200  # every workload runs the paper's 200x200 lattice

LAYERS = ("bass", "network", "seeding", "engine", "calibrate", "sweep", "cli")

# the six grid-corner cells of the acceptance test's sensitivity rerun
DESIGNATED_CELLS = (
    (8, 0.6, "uniform", 0.0, 1000),
    (8, 0.6, "uniform", 0.0, 125),
    (8, 0.8, "uniform", 0.04, 1000),
    (4, 0.6, "uniform", 0.0, 125),
    (4, 0.8, "uniform", 0.04, 125),
    (4, 0.6, "uniform", 0.04, 1000),
)

RUN_FIELDS = (
    "index", "replication", "seed", "saturation_tick", "ticks",
    "final_adopters", "p", "q", "r_squared",
)


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    reference: str  # workload whose seed-0 reference this one must match
    layers: tuple[str, ...]  # layers that must record calls when traced
    sweep_config: dict | None = None  # None: the sensitivity loop
    jobs: int = 1
    replications: int = 1
    # timed passes per run at least; a run reports their median, and a few
    # passes are left misjudged by the host-speed rescaling (see hostspeed.py)
    min_passes: int = 1


# the workloads BENCHMARK.json names; the others stay runnable by name
BENCHMARKED = ("grid72", "lattice_sync", "sequential_update")

SPECS = {
    s.name: s
    for s in (
        Spec(
            "grid72",
            "the paper's grid at one introduction rate (gamma 500): every degree x "
            "rewiring pair, so rewiring does most of the work",
            reference="grid72", layers=LAYERS,
            sweep_config={"gamma_levels": [500]}, min_passes=4,
        ),
        Spec(
            "lattice_sync",
            "60 unrewired cells x 5 replications: rewiring never runs, the "
            "synchronous engine and the fit do the work",
            reference="lattice_sync", layers=LAYERS,
            sweep_config={"p_r_levels": [0.0]}, replications=5, min_passes=4,
        ),
        Spec(
            "sequential_update",
            "six designated cells x 2 replications under random-sequential "
            "updating, the per-agent engine path with no CLI route",
            reference="sequential_update",
            layers=("network", "seeding", "engine", "calibrate"),
            replications=2, min_passes=4,
        ),
        Spec(
            "grid360",
            "the paper's 360-cell grid at jobs=1, the ROADMAP baseline; "
            "rewiring is most of the work",
            reference="grid360", layers=LAYERS, sweep_config={},
        ),
        Spec(
            "grid360_jobs2",
            "the same grid through the process pool at jobs=2; output must "
            "equal the jobs=1 reference",
            reference="grid360", layers=LAYERS, sweep_config={}, jobs=2, min_passes=2,
        ),
    )
}
