"""Micro-parameter sweep harness, envelope geometry, and ROI evaluation.

Runs the full 360-combination grid (degree class x utility difference x
seeding pattern x rewiring probability x introduction rate), fits each
trajectory, and aggregates induced (p, q, r-squared, takeoff) records.
An envelope is one family's convex (p, q) hull, an (m, 2) array of
vertices in counter-clockwise order; points are classified against it.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from diffusim.bass import BassParams, bass_curve, takeoff_time
from diffusim.calibrate import DegenerateTrajectory, fit_bass
from diffusim.engine import (
    AdoptionTrajectory, DecisionParams, _read_csv, _write_csv, simulate,
)
from diffusim.network import (
    LatticeSpec,
    Neighborhood,
    SocialNetwork,
    _check_integer,
    _check_real,
    build_lattice,
    rewire,
)
from diffusim.seeding import (
    INNOVATOR_SHARE,
    Pattern,
    SeedingPlan,
    build_plan,
    default_innovator_count,
    last_activation_tick,
    place_innovators,
)

DELTA_U_LEVELS = (0.6, 0.8)
SIGMA_LEVELS = (Pattern.COMPACT, Pattern.INTERMEDIATE, Pattern.UNIFORM)
REWIRE_LEVELS = (0.0, 0.0025, 0.005, 0.01, 0.02, 0.04)
GAMMA_LEVELS = (125, 200, 250, 500, 1000)
K_LEVELS = (8, 4)

# sentinel for runs that never reached full adoption within the tick cap
NOT_SATURATED = -1


class TooFewPoints(ValueError):
    """Fewer than 3 non-collinear points; no 2-D hull exists."""


class Location(Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class SimConfig:
    """One simulated micro-parameter combination, checked in full when
    built: max_ticks must cover the seeding schedule (ceil(innovators /
    gamma) ticks), and the innovator placement must fit the lattice."""

    lattice: LatticeSpec
    delta_u: float
    sigma: Pattern
    p_r: float
    gamma: int
    alpha: float = DecisionParams.alpha
    innovator_fraction: float = INNOVATOR_SHARE
    max_ticks: int = 500
    seed: int = 0
    replication: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.lattice, LatticeSpec):
            raise ValueError(f"lattice must be a LatticeSpec, got {self.lattice!r}")
        _check_real("p_r", self.p_r, 0, 1)
        if not isinstance(self.sigma, Pattern):
            raise ValueError(f"sigma must be a Pattern, got {self.sigma!r}")
        _check_integer("gamma", self.gamma, 1)
        DecisionParams(self.delta_u, self.alpha)  # checks alpha and delta_u
        _check_integer("replication", self.replication, 0)
        _check_integer("seed", self.seed, 0, 2**64 - 1)
        _check_integer("max_ticks", self.max_ticks, 1)
        count = default_innovator_count(self.lattice, self.innovator_fraction)
        last_tick = last_activation_tick(count, self.gamma)
        if self.max_ticks < last_tick:
            raise ValueError(
                f"max_ticks={self.max_ticks} does not cover the seeding "
                f"schedule, which ends at tick {last_tick} ({count} "
                f"innovators, gamma={self.gamma} per tick)"
            )
        if self.sigma is not Pattern.UNIFORM:
            # deterministic and cached, so the run's own placement is checked
            place_innovators(self.lattice, self.sigma, count)

    @property
    def k(self) -> int:
        """Degree class, read from the lattice's neighborhood."""
        return self.lattice.neighborhood.k

    def realize(self) -> tuple[SocialNetwork, SeedingPlan, np.random.Generator]:
        """Build this run's network and seeding plan.

        The run's random stream is one generator seeded from `seed`,
        consumed in a fixed order: rewiring (only when p_r > 0), then
        `build_plan`'s draws (placement, then activation order). The
        generator is returned in the state those draws leave it, for
        callers that keep drawing from it (random-sequential updating).
        """
        rng = np.random.default_rng(self.seed)
        net = build_lattice(self.lattice)
        if self.p_r > 0:
            net = rewire(net, self.p_r, rng)
        count = default_innovator_count(self.lattice, self.innovator_fraction)
        plan = build_plan(self.lattice, self.sigma, count, self.gamma, rng)
        return net, plan, rng

    def simulate(self) -> AdoptionTrajectory:
        """Run this configuration: `realize()`, then the engine's
        synchronous `simulate` for at most max_ticks ticks.

        The engine is looked up as this module's `simulate` at each call,
        so rebinding that one name (a test stub, perfbench's tracer) covers
        every run of `diffusim simulate` and `diffusim sweep`."""
        net, plan, _ = self.realize()
        return simulate(
            net, plan, DecisionParams(delta_u=self.delta_u, alpha=self.alpha),
            max_ticks=self.max_ticks,
        )


@dataclass(frozen=True)
class SweepRecord:
    """One simulated run as its `sweep.csv` row: the grid cell, seed and
    replication, then the induced aggregate parameters. The fields are the
    CSV's columns in header order."""

    k: int
    delta_u: float
    sigma: Pattern
    p_r: float
    gamma: int
    seed: int
    replication: int
    p: float
    q: float
    r_squared: float
    takeoff: float
    saturation_tick: int


# (text rule, parse rule) of each field type SweepRecord declares: an int as
# written, a float as its round-trip repr, a Pattern by its value
_FIELD_TEXT = {
    "int": (str, int),
    "float": (lambda value: repr(float(value)), float),
    "Pattern": (lambda pattern: pattern.value, Pattern),
}
_SWEEP_COLUMNS = [
    (field.name, *_FIELD_TEXT[field.type]) for field in dataclasses.fields(SweepRecord)
]
SWEEP_CSV_HEADER = [name for name, _, _ in _SWEEP_COLUMNS]


def default_grid(
    rows: int = 200,
    cols: int = 200,
    k_levels: Sequence[int] = K_LEVELS,
    delta_u_levels: Sequence[float] = DELTA_U_LEVELS,
    sigma_levels: Sequence[Pattern] = SIGMA_LEVELS,
    p_r_levels: Sequence[float] = REWIRE_LEVELS,
    gamma_levels: Sequence[int] = GAMMA_LEVELS,
    alpha: float = SimConfig.alpha,
    max_ticks: int = SimConfig.max_ticks,
) -> list[SimConfig]:
    """The factorial experiment grid in reference-table row order: degree
    class, then utility difference, seeding pattern, rewiring probability,
    and introduction rate innermost. Full defaults give 360 combinations.
    The parameters, with their defaults, are `diffusim sweep`'s config keys."""
    lattices = [LatticeSpec(rows, cols, Neighborhood.for_k(k)) for k in k_levels]
    return [SimConfig(*cell, alpha=alpha, max_ticks=max_ticks)
            for cell in itertools.product(lattices, delta_u_levels, sigma_levels,
                                          p_r_levels, gamma_levels)]


def derive_run_seed(master_seed: int, config_index: int, replication: int) -> int:
    """Collision-resistant per-run seed; stable across processes and runs."""
    ss = np.random.SeedSequence((master_seed, config_index, replication))
    return int(ss.generate_state(1, np.uint64)[0])


def run_once(config: SimConfig) -> SweepRecord:
    """Simulate one configuration and fit its trajectory.

    The trajectory comes from config.simulate(). A run whose trajectory
    cannot be fitted keeps its row, with NaN fit columns; any other error
    is a fault and propagates. A fit that stops without converging
    carries whatever the fitter returned. saturation_tick is -1 when the
    run never saturated; takeoff is NaN when the fitted q is 0, where no
    takeoff time exists.
    """
    traj = config.simulate()
    try:
        fit = fit_bass(traj)
    except DegenerateTrajectory:
        p = q = r_squared = takeoff = math.nan
    else:
        p, q, r_squared = fit.params.p, fit.params.q, fit.r_squared
        takeoff = takeoff_time(fit.params) if q > 0 else math.nan
    return SweepRecord(
        config.k, config.delta_u, config.sigma, config.p_r, config.gamma,
        config.seed, config.replication, p, q, r_squared, takeoff,
        traj.saturated_at if traj.saturated_at is not None else NOT_SATURATED,
    )


def run_sweep(
    grid: Sequence[SimConfig],
    replications: int = 1,
    master_seed: int = 0,
    jobs: int = 1,
) -> list[SweepRecord]:
    """Run every configuration x replication and collect fitted records.

    Output order is deterministic (grid order, replications within each
    config) and independent of jobs; every run's stream is derived from
    (master_seed, config index, replication), so any row can be reproduced
    in isolation from its recorded seed. jobs is the most worker processes
    to use: the runs go in chunks of 8 grid cells to a pool of at most one
    worker per chunk, or run in this process when that leaves one worker.
    """
    if not grid:
        raise ValueError("grid must be non-empty")
    _check_integer("replications", replications, 1)
    _check_integer("master_seed", master_seed, 0, 2**64 - 1)
    _check_integer("jobs", jobs, 1)
    runs = [
        dataclasses.replace(
            config, seed=derive_run_seed(master_seed, index, rep), replication=rep
        )
        for index, config in enumerate(grid)
        for rep in range(replications)
    ]
    chunksize = 8 * replications
    # fork starts every worker at once, so a worker with no chunk is waste;
    # a pool of one would run every chunk serially, after a fork
    workers = min(jobs, -(-len(runs) // chunksize))
    if workers == 1:
        return list(map(run_once, runs))
    # imported here, so that an in-process sweep never loads the pool
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_once, runs, chunksize=chunksize))


def cell_key(record: SweepRecord) -> tuple[int, float, str, float, int]:
    """Grid-cell identity of a record (ignores seed and replication)."""
    return (record.k, record.delta_u, record.sigma.value, record.p_r, record.gamma)


def median_by_cell(
    records: Iterable[SweepRecord],
) -> dict[tuple, dict[str, float]]:
    """Per-cell medians of the fitted quantities across replications."""
    groups: dict[tuple, list[SweepRecord]] = {}
    for record in records:
        groups.setdefault(cell_key(record), []).append(record)
    out = {}
    for key, group in groups.items():
        out[key] = {name: float(np.median([getattr(r, name) for r in group]))
                    for name in ("p", "q", "r_squared", "takeoff")}
        out[key]["n"] = len(group)
    return out


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain 2-D hull, counter-clockwise, starting at the vertex
    with the lowest q (then lowest p). Collinear boundary points are not
    vertices.

    Raises:
        TooFewPoints: fewer than 3 distinct points, or all collinear.
        ValueError: a coordinate is not finite.
    """
    # an empty list is no points; any other shape but (n, 2) fails here
    pts = np.asarray(points, dtype=float).reshape(len(points), 2)
    if not np.isfinite(pts).all():
        raise ValueError("hull points must be finite")
    # lex-sorted distinct rows; no unique(axis=0), which imports numpy.ma
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    distinct = np.ones(len(pts), dtype=bool)
    distinct[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    pts = pts[distinct]
    if len(pts) < 3:
        raise TooFewPoints(f"need >= 3 distinct points, got {len(pts)}")
    lower: list[np.ndarray] = []
    for pt in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], pt) <= 0:
            lower.pop()
        lower.append(pt)
    upper: list[np.ndarray] = []
    for pt in pts[::-1]:
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], pt) <= 0:
            upper.pop()
        upper.append(pt)
    hull = np.asarray(lower[:-1] + upper[:-1])
    if len(hull) < 3:
        raise TooFewPoints("points are collinear; hull is degenerate")
    start = np.lexsort((hull[:, 0], hull[:, 1]))[0]  # lowest y, then x
    return np.roll(hull, -start, axis=0)


def envelope(
    records: Sequence[SweepRecord], subset: tuple[int, float, Pattern]
) -> np.ndarray:
    """Convex hull of the fitted (p, q) points of one (k, delta_u, sigma)
    family, as `convex_hull` returns it; records without a finite fit (a
    run that could not be fitted) are left out."""
    k, delta_u, sigma = subset
    pts = [
        (r.p, r.q)
        for r in records
        if r.k == k and r.delta_u == delta_u and r.sigma is sigma
        and math.isfinite(r.p) and math.isfinite(r.q)
    ]
    if len(pts) < 3:
        raise TooFewPoints(f"subset {subset} matched only {len(pts)} finite fits")
    return convex_hull(np.asarray(pts))


BOUNDARY_TOL = 1e-12


def locate(point: tuple[float, float], hull: np.ndarray) -> Location:
    """Classify a (p, q) point against a counter-clockwise hull array.

    The tolerance 1e-12 applies to the edge cross products, so it scales
    with edge length; generating points always classify as Inside or
    Boundary. A non-finite coordinate raises ValueError.
    """
    if not (math.isfinite(point[0]) and math.isfinite(point[1])):
        raise ValueError(f"point must be finite, got {tuple(point)}")
    crosses = [
        _cross(hull[i], hull[(i + 1) % len(hull)], point) for i in range(len(hull))
    ]
    if any(c < -BOUNDARY_TOL for c in crosses):
        return Location.OUTSIDE
    if any(abs(c) <= BOUNDARY_TOL for c in crosses):
        return Location.BOUNDARY
    return Location.INSIDE


@dataclass(frozen=True)
class RoiReport:
    """Outcome of comparing a boosted seeding strategy against a baseline."""

    exceeds: bool
    gain_base: float
    gain_boosted: float
    delta_gain: float
    adoption_base: float
    adoption_boosted: float


def roi_check(
    base: BassParams,
    boosted: BassParams,
    population: int,
    t_star: float,
    profit_per_adopter: float,
    investment: float,
    roi_min: float,
) -> RoiReport:
    """Does the boosted strategy beat the baseline by more than roi_min?

    Adoption levels at the evaluation time come from each strategy's
    curve. Gross gain is profit_per_adopter * population * adoption; the
    boosted side pays `investment`, the baseline pays nothing. The
    comparison is strict: a difference exactly equal to roi_min does not
    pass.

    Raises:
        ValueError: population not an integer >= 1; t_star,
            profit_per_adopter, investment or roi_min not a finite real
            number; or t_star at or before either strategy's takeoff time.
    """
    _check_integer("population", population, 1)
    for name, value in (("t_star", t_star), ("profit_per_adopter", profit_per_adopter),
                        ("investment", investment), ("roi_min", roi_min)):
        _check_real(name, value)
    t_base = takeoff_time(base)
    t_boost = takeoff_time(boosted)
    if t_star <= max(t_base, t_boost):
        raise ValueError(
            f"t_star={t_star} must exceed both takeoff times "
            f"({t_base:.6g}, {t_boost:.6g})"
        )
    n_base = float(bass_curve(base, t_star))
    n_boost = float(bass_curve(boosted, t_star))
    g_base = profit_per_adopter * population * n_base
    g_boost = profit_per_adopter * population * n_boost - investment
    delta = g_boost - g_base
    # the fields in RoiReport's order: exceeds, the gains, then the adoptions
    return RoiReport(delta > roi_min, g_base, g_boost, delta, n_base, n_boost)


def write_sweep_csv(records: Iterable[SweepRecord], path) -> None:
    """Export records, one row each, under SWEEP_CSV_HEADER: SweepRecord's
    fields in order, each written by its type's text rule. Floats are
    round-trip repr, so identical records always serialize identically."""
    _write_csv(path, SWEEP_CSV_HEADER, (
        [text(getattr(record, name)) for name, text, _ in _SWEEP_COLUMNS]
        for record in records
    ))


def read_sweep_csv(path) -> list[SweepRecord]:
    """Load sweep records, one per row; the row holds the whole record.

    Raises:
        ValueError: the header is not the pinned one, or a row is malformed.
    """
    header, rows = _read_csv(path)
    if header != SWEEP_CSV_HEADER:
        raise ValueError(f"unexpected sweep CSV header: {header}")
    return [
        SweepRecord(*(parse(row[name]) for name, _, parse in _SWEEP_COLUMNS))
        for row in rows
    ]


def write_envelope_csv(hull: np.ndarray, path) -> None:
    """Export hull vertices as `p,q` rows in counter-clockwise order."""
    _write_csv(path, ["p", "q"], ([repr(float(p)), repr(float(q))] for p, q in hull))


def read_empirical_csv(path) -> list[tuple[str, float, float]]:
    """Load labeled empirical (p, q) points from `label,p,q` rows; another
    header, or a row whose p or q is not finite, raises ValueError."""
    header, rows = _read_csv(path)
    if header != ["label", "p", "q"]:
        raise ValueError(f"expected label,p,q header, got {header}")
    points = []
    for row in rows:
        p, q = float(row["p"]), float(row["q"])
        if not (math.isfinite(p) and math.isfinite(q)):
            raise ValueError(f"point {row['label']!r} is not finite: p={p}, q={q}")
        points.append((row["label"], p, q))
    return points
