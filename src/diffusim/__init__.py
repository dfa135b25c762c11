"""diffusim: innovation-diffusion simulation on lattice networks.

Micro level: threshold-deciding agents on (optionally rewired) 2-D lattices,
seeded with innovators in configurable spatial patterns. Macro level: fitting
the resulting adoption trajectories with the two-coefficient diffusion curve
and mapping micro parameters into (p, q) space.
"""

from diffusim.bass import BassParams, bass_curve, takeoff_time
from diffusim.calibrate import (
    DegenerateTrajectory,
    FitResult,
    fit_bass,
    fit_window,
)
from diffusim.engine import (
    AdoptionTrajectory,
    DecisionParams,
    adoption_threshold,
    delta_utility,
    read_trajectory_csv,
    simulate,
    write_trajectory_csv,
)
from diffusim.network import (
    LatticeSpec,
    Neighborhood,
    NetworkStats,
    SocialNetwork,
    build_lattice,
    network_stats,
    rewire,
)
from diffusim.seeding import (
    Pattern,
    SeedingPlan,
    build_plan,
    default_innovator_count,
    place_innovators,
)
from diffusim.sweep import (
    Location,
    RoiReport,
    SimConfig,
    SweepRecord,
    TooFewPoints,
    default_grid,
    envelope,
    locate,
    median_by_cell,
    roi_check,
    run_once,
    run_sweep,
    write_sweep_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AdoptionTrajectory",
    "BassParams",
    "DecisionParams",
    "DegenerateTrajectory",
    "FitResult",
    "LatticeSpec",
    "Location",
    "Neighborhood",
    "NetworkStats",
    "Pattern",
    "RoiReport",
    "SeedingPlan",
    "SimConfig",
    "SocialNetwork",
    "SweepRecord",
    "TooFewPoints",
    "adoption_threshold",
    "bass_curve",
    "build_lattice",
    "build_plan",
    "default_grid",
    "default_innovator_count",
    "delta_utility",
    "envelope",
    "fit_bass",
    "fit_window",
    "locate",
    "median_by_cell",
    "network_stats",
    "place_innovators",
    "read_trajectory_csv",
    "rewire",
    "roi_check",
    "run_once",
    "run_sweep",
    "simulate",
    "takeoff_time",
    "write_sweep_csv",
    "write_trajectory_csv",
    "__version__",
]
