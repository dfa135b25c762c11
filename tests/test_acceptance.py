"""End-to-end acceptance gate: one test per release criterion.

Each test asserts its criterion at the stated tolerance and prints a census
of every violation before failing, so a red line here is a faithful report
of a measured shortfall rather than a crash. The grid-wide checks share one
5-replication sweep (fixed master seed) between them, and each census is
computed once, in a module fixture, so that `test_census_matches_reference`
can compare all four with the failure block of `test_output.txt`, the one
copy of the reference census.
"""

import dataclasses
import difflib
import json
import math
import pathlib
import re
import subprocess
import sys
from typing import NamedTuple

import numpy as np
import pytest
from scipy.differentiate import derivative
from scipy.integrate import solve_ivp
from scipy.stats import spearmanr

from diffusim.bass import BassParams, _curve, bass_curve, takeoff_time
from diffusim.calibrate import _curve_and_jacobian, fit_bass
from diffusim.engine import (
    RANDOM_SEQUENTIAL,
    SYNCHRONOUS,
    AdoptionTrajectory,
    DecisionParams,
    adoption_threshold,
    simulate,
)
from diffusim.seeding import Pattern
from diffusim.sweep import (
    GAMMA_LEVELS,
    NOT_SATURATED,
    REWIRE_LEVELS,
    SweepRecord,
    cell_key,
    default_grid,
    derive_run_seed,
    envelope,
    locate,
    median_by_cell,
    run_sweep,
)

MASTER_SEED = 0
REPLICATIONS = 5
REFERENCE_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "test_output.txt"

# grid-corner cells compared against the published table: both degrees, both
# utility gaps, rewiring off/max, seeding rate min/max; all uniform dispersion
# so the aggregate curve is the closest match to the fitted model's shape
DESIGNATED_CELLS = [
    (8, 0.6, "uniform", 0.0, 1000),
    (8, 0.6, "uniform", 0.0, 125),
    (8, 0.8, "uniform", 0.04, 1000),
    (4, 0.6, "uniform", 0.0, 125),
    (4, 0.8, "uniform", 0.04, 125),
    (4, 0.6, "uniform", 0.04, 1000),
]


@pytest.fixture(scope="module")
def full_sweep():
    """Five replications of the complete 360-cell grid, fixed master seed."""
    # jobs=2 only shortens the wait: records are identical for any jobs
    # (test_sweep_determinism_across_jobs)
    records = run_sweep(
        default_grid(), replications=REPLICATIONS, master_seed=MASTER_SEED,
        jobs=2,
    )
    assert len(records) == 360 * REPLICATIONS
    return records


@pytest.fixture(scope="module")
def cell_medians(full_sweep):
    medians = median_by_cell(full_sweep)
    assert len(medians) == 360
    assert all(stats["n"] == REPLICATIONS for stats in medians.values())
    return medians


class Census(NamedTuple):
    """One red test's printed report: `report` lines, printed whether or not
    it fails, then the census of its `failures` out of `total` checks."""

    label: str
    report: list[str]
    failures: list[str]
    total: int

    @property
    def message(self) -> str:
        return (
            f"{self.label}: {len(self.failures)}/{self.total} violations "
            f"(census above)"
        )

    @property
    def stdout(self) -> str:
        lines = list(self.report)
        if self.failures:
            lines.append(
                f"\n{self.label}: {len(self.failures)}/{self.total} violations"
            )
            lines += ["  " + line for line in self.failures]
        return "".join(line + "\n" for line in lines)


def _report(census: Census) -> None:
    print(census.stdout, end="")
    if census.failures:
        pytest.fail(census.message, pytrace=False)


@pytest.fixture(scope="module")
def takeoff_census(reference_grid) -> Census:
    failures = []
    for row in reference_grid:
        computed = takeoff_time(BassParams(row.p, row.q))
        rel = abs(computed - row.takeoff) / abs(row.takeoff)
        if not rel < 1e-5:
            failures.append(
                f"({row.k}, {row.delta_u}, {row.sigma}, {row.p_r}, "
                f"{row.gamma}): computed {computed!r} vs table "
                f"{row.takeoff!r}, rel err {rel:.3e}"
            )
    return Census("takeoff regression", [], failures, 360)


def test_takeoff_matches_reference_table(takeoff_census):
    """Recomputed takeoff vs the published column, relative error < 1e-5."""
    _report(takeoff_census)


def test_closed_form_matches_rk4_integration():
    """Sup-norm gap between the closed form and a Runge-Kutta (scipy's
    DOP853) integration of its ODE < 1e-8, t in [0, 50]."""
    times = np.linspace(0.0, 50.0, 5001)
    worst = 0.0
    for p in np.logspace(-3, math.log10(0.2), 10):
        for q in np.linspace(0.0, 1.0, 10):
            params = BassParams(float(p), float(q))
            sol = solve_ivp(lambda _, n: (p + q * n) * (1.0 - n),
                            (0.0, 50.0), [0.0], method="DOP853",
                            rtol=1e-12, atol=1e-14, t_eval=times)
            assert sol.success, sol.message
            gap = float(np.max(np.abs(sol.y[0] - bass_curve(params, times))))
            worst = max(worst, gap)
    print(f"\nclosed-form vs DOP853 sup-norm, worst of 100 pairs: {worst:.3e}")
    assert worst < 1e-8


def test_fitter_recovers_noiseless_curves():
    """5x5 exact-curve grid: recovery < 1e-5 rel, r2 > 1 - 1e-10; analytic
    Jacobian within 1e-6 of scipy's adaptive central differences on the
    same grid (first step a quarter of the coefficient, so p stays > 0)."""
    t = np.array([1.0, 5.0, 10.0, 20.0])
    for p in np.linspace(0.005, 0.15, 5):
        for q in np.linspace(0.3, 1.0, 5):
            true = BassParams(float(p), float(q))
            y = bass_curve(true, np.arange(80, dtype=float))
            traj = AdoptionTrajectory(y, population=40000)
            res = fit_bass(traj)
            assert abs(res.params.p - true.p) / true.p < 1e-5, (p, q)
            assert abs(res.params.q - true.q) / true.q < 1e-5, (p, q)
            assert res.r_squared > 1 - 1e-10, (p, q)
            _, dn_dp, dn_dq = _curve_and_jacobian(true.p, true.q, t)
            num_p = derivative(lambda x, t: _curve(x, true.q, t)[0], np.full_like(t, p),
                               args=(t,), tolerances={"atol": 1e-12}, initial_step=p / 4)
            num_q = derivative(lambda x, t: _curve(true.p, x, t)[0], np.full_like(t, q),
                               args=(t,), tolerances={"atol": 1e-12}, initial_step=q / 4)
            assert num_p.success.all() and num_q.success.all(), (p, q)
            assert np.max(np.abs(dn_dp - num_p.df)) < 1e-6, (p, q)
            assert np.max(np.abs(dn_dq - num_q.df)) < 1e-6, (p, q)


def test_adoption_thresholds_match_derivation():
    cases = {(8, 0.6): 2, (8, 0.8): 1, (4, 0.6): 1, (4, 0.8): 1}
    for (k, delta_u), expected in cases.items():
        got = adoption_threshold(k, DecisionParams(delta_u=delta_u, alpha=0.5))
        assert got == expected, (k, delta_u, got, expected)


@pytest.fixture(scope="module")
def saturation_census(full_sweep) -> Census:
    rep0 = [r for r in full_sweep if r.replication == 0]
    failures = []
    adoption_miss = window_miss = quality_miss = 0
    for record in rep0:
        cell = cell_key(record)
        if record.saturation_tick == NOT_SATURATED:
            adoption_miss += 1
            failures.append(f"{cell}: never reached full adoption")
            continue
        if not 10 <= record.saturation_tick <= 60:
            window_miss += 1
            failures.append(
                f"{cell}: saturated at tick {record.saturation_tick}, "
                f"outside [10, 60]"
            )
        if not record.r_squared > 0.98:
            quality_miss += 1
            failures.append(f"{cell}: r_squared {record.r_squared:.5f} <= 0.98")

    summary = (
        f"\nfull-grid census (1st replication of {len(rep0)}): "
        f"{adoption_miss} adoption misses, {window_miss} window misses, "
        f"{quality_miss} fit-quality misses"
    )
    return Census("saturation and fit quality", [summary], failures, len(rep0))


def test_full_grid_saturation_and_fit_quality(saturation_census):
    """Every first-replication run: full adoption, saturation in [10, 60]
    ticks, fit r2 > 0.98."""
    assert saturation_census.total == 360
    _report(saturation_census)


class _ShiftedSeries(NamedTuple):
    """Duck-typed stand-in accepted by the fit window: a trajectory re-timed
    so the first seeding tick is t=0 (the packaged trajectory type forbids a
    nonzero start on purpose; this exists only for the sensitivity report)."""

    proportions: np.ndarray
    saturated_at: int | None


def _designated_configs(cell):
    """The five replication configs the shared sweep used for this cell."""
    grid = default_grid()
    index = next(
        i for i, c in enumerate(grid)
        if (c.k, c.delta_u, c.sigma.value, c.p_r, c.gamma) == cell
    )
    return [
        dataclasses.replace(
            grid[index], seed=derive_run_seed(MASTER_SEED, index, rep),
            replication=rep,
        )
        for rep in range(REPLICATIONS)
    ]


def _run_trajectory(config, update):
    net, plan, rng = config.realize()
    return simulate(
        net, plan, DecisionParams(delta_u=config.delta_u, alpha=config.alpha),
        max_ticks=500, rng=rng, update=update,
    )


def _sensitivity_medians(cell, update, shift_origin=False):
    ps, qs = [], []
    for config in _designated_configs(cell):
        traj = _run_trajectory(config, update)
        if shift_origin:
            shifted = _ShiftedSeries(
                proportions=np.asarray(traj.proportions)[1:],
                saturated_at=(
                    None if traj.saturated_at is None
                    else traj.saturated_at - 1
                ),
            )
            fit = fit_bass(shifted)
        else:
            fit = fit_bass(traj)
        ps.append(fit.params.p)
        qs.append(fit.params.q)
    return float(np.median(ps)), float(np.median(qs))


@pytest.fixture(scope="module")
def point_census(cell_medians, reference_grid) -> Census:
    reference = {
        (r.k, r.delta_u, r.sigma, r.p_r, r.gamma): r for r in reference_grid
    }
    failures = []
    rows = []
    for cell in DESIGNATED_CELLS:
        ref = reference[cell]
        got = cell_medians[cell]
        p_rel = (got["p"] - ref.p) / ref.p
        q_rel = (got["q"] - ref.q) / ref.q
        rows.append(
            f"{cell}: median p {got['p']:.7f} vs {ref.p:.7f} "
            f"({p_rel:+.1%}), median q {got['q']:.7f} vs {ref.q:.7f} "
            f"({q_rel:+.1%})"
        )
        if abs(p_rel) > 0.25:
            failures.append(f"{cell}: p off by {p_rel:+.1%} (limit 25%)")
        if abs(q_rel) > 0.15:
            failures.append(f"{cell}: q off by {q_rel:+.1%} (limit 15%)")

    report = ["\npoint replication, synchronous engine as shipped:"]
    report += ["  " + line for line in rows]
    if failures:
        for title, update, shift_origin in [
            ("sensitivity 1, random-sequential updating (same seeds)",
             RANDOM_SEQUENTIAL, False),
            ("sensitivity 2, fit re-timed to first seeding tick = t0",
             SYNCHRONOUS, True),
        ]:
            report.append(f"\n{title}:")
            for cell in DESIGNATED_CELLS:
                ref = reference[cell]
                p_med, q_med = _sensitivity_medians(cell, update, shift_origin)
                report.append(
                    f"  {cell}: median p {p_med:.7f} ({(p_med - ref.p) / ref.p:+.1%}),"
                    f" median q {q_med:.7f} ({(q_med - ref.q) / ref.q:+.1%})"
                )
    return Census(
        "point replication", report, failures, 2 * len(DESIGNATED_CELLS)
    )


def test_designated_rows_replicate_reference_p_q(point_census):
    """Six grid-corner cells: 5-replication median p within +/-25% and median
    q within +/-15% of the published row. When the stated tolerance is missed
    the two sensitivity reruns (random-sequential updating; re-timing the fit
    so the first seeding tick is t=0) are printed alongside the deviation."""
    _report(point_census)


@pytest.fixture(scope="module")
def trend_census(cell_medians) -> Census:
    failures = []
    k_levels, du_levels = (8, 4), (0.6, 0.8)
    sigmas = ("compact", "intermediate", "uniform")

    checked = 0
    for k in k_levels:
        for du in du_levels:
            for sigma in sigmas:
                for p_r in REWIRE_LEVELS:
                    series = [
                        cell_medians[(k, du, sigma, p_r, g)]
                        for g in GAMMA_LEVELS
                    ]
                    rho_p = spearmanr(GAMMA_LEVELS,
                                      [s["p"] for s in series]).statistic
                    rho_t = spearmanr(GAMMA_LEVELS,
                                      [s["takeoff"] for s in series]).statistic
                    checked += 1
                    if not rho_p > 0.9:
                        failures.append(
                            f"p vs seeding rate, cell ({k}, {du}, {sigma}, "
                            f"{p_r}): spearman {rho_p:.3f}"
                        )
                    if not rho_t < -0.9:
                        failures.append(
                            f"takeoff vs seeding rate, cell ({k}, {du}, "
                            f"{sigma}, {p_r}): spearman {rho_t:.3f}"
                        )
                for gamma in GAMMA_LEVELS:
                    qs = [
                        cell_medians[(k, du, sigma, p_r, gamma)]["q"]
                        for p_r in REWIRE_LEVELS
                    ]
                    rho_q = spearmanr(REWIRE_LEVELS, qs).statistic
                    checked += 1
                    if not rho_q > 0.9:
                        failures.append(
                            f"q vs rewiring, cell ({k}, {du}, {sigma}, "
                            f"{gamma}): spearman {rho_q:.3f}"
                        )

    for sigma in sigmas:
        for gamma in GAMMA_LEVELS:
            base = cell_medians[(8, 0.6, sigma, 0.0, gamma)]["q"]
            boosted = cell_medians[(8, 0.6, sigma, 0.04, gamma)]["q"]
            ratio = boosted / base
            checked += 1
            if not 1.7 <= ratio <= 2.6:
                failures.append(
                    f"q ratio rewired/regular, cell (8, 0.6, {sigma}, "
                    f"{gamma}): {boosted:.4f}/{base:.4f} = {ratio:.2f}, "
                    f"outside [1.7, 2.6]"
                )

    summary = f"\ntrend census: {checked} cell checks, {len(failures)} violations"
    return Census("micro-to-macro trends", [summary], failures, checked)


def test_micro_to_macro_trends(trend_census):
    """Monotone trends on 5-replication medians: p rises with seeding rate,
    q rises with rewiring, takeoff falls with seeding rate, and rewiring at
    0.04 multiplies q by 1.7-2.6 for the (k=8, gap 0.6) family."""
    _report(trend_census)


def _reference_failures() -> dict[str, tuple[str, str]]:
    """Each test's failure message and captured stdout, parsed from the
    FAILURES block of `test_output.txt`."""
    text = REFERENCE_OUTPUT.read_text(encoding="utf-8")
    block = re.search(r"^=+ FAILURES =+\n(.*?)^=+ ", text, re.M | re.S).group(1)
    parts = re.split(r"^_+ (test_\w+) _+\n", block, flags=re.M)
    return {
        name: re.fullmatch(
            r"(.*?)\n-+ Captured stdout call -+\n(.*)", body, re.S
        ).groups()
        for name, body in zip(parts[1::2], parts[2::2])
    }


def test_census_matches_reference(
    takeoff_census, saturation_census, point_census, trend_census
):
    """The four red tests' failure messages and printed censuses equal the
    failure block of `test_output.txt`, byte for byte."""
    censuses = {
        "test_takeoff_matches_reference_table": takeoff_census,
        "test_full_grid_saturation_and_fit_quality": saturation_census,
        "test_designated_rows_replicate_reference_p_q": point_census,
        "test_micro_to_macro_trends": trend_census,
    }
    reference = _reference_failures()
    assert sorted(reference) == sorted(censuses)
    diffs = [
        "".join(difflib.unified_diff(
            f"{reference[name][0]}\n{reference[name][1]}".splitlines(True),
            f"{census.message}\n{census.stdout}".splitlines(True),
            f"test_output.txt: {name}", f"this tree: {name}",
        ))
        for name, census in censuses.items()
        if reference[name] != (census.message, census.stdout)
    ]
    assert not diffs, (
        f"the census moved (numpy {np.__version__}). A printed digit can flip "
        f"at a rounding edge on a CPU whose np.exp differs; a deliberate "
        f"change updates test_output.txt and gives the reason in "
        f"CHANGES.md.\n" + "\n".join(diffs)
    )


def test_reference_envelope_geometry(reference_grid):
    """Hull of the published (k=8, gap 0.6, compact) family spans the
    documented p and q ranges and classifies all 30 generators as inside
    or boundary."""
    records = [
        SweepRecord(
            k=8, delta_u=0.6, sigma=Pattern.COMPACT, p_r=row.p_r,
            gamma=row.gamma, seed=0, replication=0,
            p=row.p, q=row.q, r_squared=row.r_squared,
            takeoff=row.takeoff, saturation_tick=NOT_SATURATED,
        )
        for row in reference_grid
        if (row.k, row.delta_u, row.sigma) == (8, 0.6, "compact")
    ]
    assert len(records) == 30

    hull = envelope(records, (8, 0.6, Pattern.COMPACT))
    p_lo, p_hi = float(hull[:, 0].min()), float(hull[:, 0].max())
    q_lo, q_hi = float(hull[:, 1].min()), float(hull[:, 1].max())
    print(
        f"\ncompact-family hull: p in [{p_lo:.5f}, {p_hi:.5f}], "
        f"q in [{q_lo:.4f}, {q_hi:.4f}], {len(hull)} vertices"
    )
    assert abs(p_lo - 0.00079) < 1e-5
    assert abs(p_hi - 0.0325) < 2e-4
    assert abs(q_lo - 0.319) < 1e-3
    assert abs(q_hi - 0.730) < 3e-3

    for record in records:
        where = locate((record.p, record.q), hull)
        assert where.value in ("inside", "boundary"), (record.p, record.q)


def test_sweep_determinism_across_jobs(tmp_path):
    """Same master seed, full default grid, 1 replication: the CLI must
    produce byte-identical sweep CSVs for --jobs 1 and --jobs 2."""
    config = tmp_path / "grid.json"
    config.write_text("{}")
    outputs = []
    for jobs in (1, 2):
        out_dir = tmp_path / f"jobs{jobs}"
        proc = subprocess.run(
            [
                sys.executable, "-m", "diffusim.cli", "sweep", str(config),
                "--seed", str(MASTER_SEED), "--out", str(out_dir),
                "--jobs", str(jobs),
            ],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out_dir / "sweep.csv").read_bytes())

    lines = outputs[0].decode().splitlines()
    assert len(lines) == 1 + 360
    assert outputs[0] == outputs[1]

    manifest = json.loads(
        (tmp_path / "jobs1" / "sweep.csv.manifest.json").read_text()
    )
    assert manifest["parameters"]["gamma_levels"] == list(GAMMA_LEVELS)
