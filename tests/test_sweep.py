"""Sweep harness, envelope geometry, nearest-record lookup, ROI rule."""

import concurrent.futures
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusim import sweep
from diffusim.bass import BassParams, bass_curve, takeoff_time
from diffusim.calibrate import DegenerateTrajectory
from diffusim.network import LatticeSpec, Neighborhood
from diffusim.seeding import Pattern
from diffusim.sweep import (
    GAMMA_LEVELS,
    NOT_SATURATED,
    SWEEP_CSV_HEADER,
    Location,
    SimConfig,
    SweepRecord,
    TooFewPoints,
    cell_key,
    convex_hull,
    default_grid,
    derive_run_seed,
    envelope,
    locate,
    median_by_cell,
    read_empirical_csv,
    read_sweep_csv,
    roi_check,
    run_once,
    run_sweep,
    write_envelope_csv,
    write_sweep_csv,
)

MOORE_30 = LatticeSpec(30, 30, Neighborhood.MOORE)


def small_config(**overrides) -> SimConfig:
    base = dict(
        lattice=MOORE_30, delta_u=0.6, sigma=Pattern.UNIFORM,
        p_r=0.01, gamma=10, max_ticks=300, seed=99,
    )
    base.update(overrides)
    return SimConfig(**base)


def small_record(p, q, r_squared=0.99, takeoff=5.0,
                 saturation_tick=20) -> SweepRecord:
    """A record in small_config()'s cell, seed and replication."""
    return SweepRecord(8, 0.6, Pattern.UNIFORM, 0.01, 10, 99, 0,
                       p, q, r_squared, takeoff, saturation_tick)


UNFITTED = small_record(math.nan, math.nan, math.nan, math.nan, NOT_SATURATED)


def record_from_reference(row) -> SweepRecord:
    return SweepRecord(
        k=row.k, delta_u=row.delta_u, sigma=Pattern(row.sigma.lower()),
        p_r=row.p_r, gamma=row.gamma, seed=0, replication=0, p=row.p, q=row.q,
        r_squared=row.r_squared, takeoff=row.takeoff,
        saturation_tick=NOT_SATURATED,
    )


class TestDefaultGrid:
    def test_has_360_combinations(self):
        grid = default_grid()
        assert len(grid) == 360
        cells = {(c.k, c.delta_u, c.sigma.value, c.p_r, c.gamma) for c in grid}
        assert len(cells) == 360

    def test_matches_reference_row_order(self, reference_grid):
        grid = default_grid()
        for config, row in zip(grid, reference_grid):
            assert config.k == row.k
            assert config.delta_u == row.delta_u
            assert config.sigma.value == row.sigma.lower()
            assert config.p_r == row.p_r
            assert config.gamma == row.gamma

    def test_lattice_consistency(self):
        for config in default_grid():
            expected = (
                Neighborhood.MOORE if config.k == 8 else Neighborhood.VON_NEUMANN
            )
            assert config.lattice.neighborhood is expected
            assert config.lattice.node_count == 40000


class TestSimConfigValidation:
    def test_rejects_bad_degree_class(self):
        # the degree class is the lattice's; k=6 has no neighborhood
        with pytest.raises(ValueError, match="k must be"):
            small_config(lattice=LatticeSpec(30, 30, Neighborhood.for_k(6)))

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="p_r"):
            small_config(p_r=1.5)

    def test_rejects_max_ticks_short_of_the_seeding_schedule(self):
        # 23 innovators at one per tick activate through tick 23
        with pytest.raises(ValueError, match="max_ticks=22.*gamma=1"):
            small_config(gamma=1, max_ticks=22)
        assert small_config(gamma=1, max_ticks=23).max_ticks == 23
        with pytest.raises(ValueError, match="max_ticks"):
            small_config(max_ticks=0)

    def test_rejects_bad_gamma_alpha_seed(self):
        with pytest.raises(ValueError):
            small_config(gamma=0)
        with pytest.raises(ValueError):
            small_config(alpha=-0.1)
        with pytest.raises(ValueError):
            small_config(seed=2**64)

    @pytest.mark.parametrize("field, value", [
        ("alpha", 1.5), ("delta_u", math.nan), ("delta_u", math.inf),
        ("innovator_fraction", 0.0), ("innovator_fraction", 1.5),
        ("sigma", "uniform"), ("lattice", "x"), ("gamma", 2.5),
        ("gamma", np.float64(2.0)), ("gamma", True),
    ])
    def test_rejection_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: value})

    def test_rejects_a_placement_that_does_not_fit_the_lattice(self):
        # 200 innovators in five clusters of 40 overlap on a 20x20 lattice;
        # without the check, the run's realize() would fail instead
        crowded = dict(lattice=LatticeSpec(20, 20, Neighborhood.MOORE),
                       innovator_fraction=0.5, gamma=200)
        with pytest.raises(ValueError, match="overlap"):
            small_config(sigma=Pattern.INTERMEDIATE, **crowded)
        assert small_config(sigma=Pattern.COMPACT, **crowded).sigma is Pattern.COMPACT

    def test_numpy_integer_gamma_is_a_rate(self):
        assert small_config(gamma=np.int64(7)).gamma == 7


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_run_seed(1, 2, 3) == derive_run_seed(1, 2, 3)

    def test_distinct_across_positions(self):
        seeds = {
            derive_run_seed(0, idx, rep) for idx in range(40) for rep in range(5)
        }
        assert len(seeds) == 200


class TestRunOnce:
    def test_record_fields(self):
        record = run_once(small_config())
        assert record.seed == 99
        assert record.p > 0
        assert 0 <= record.q <= 1
        assert record.r_squared > 0.9
        assert record.saturation_tick > 0
        assert math.isfinite(record.takeoff)

    def test_reproducible_from_recorded_seed(self):
        config = small_config(seed=derive_run_seed(7, 0, 0))
        assert run_once(config) == run_once(config)


class TestRunSweep:
    def test_single_config_two_replications_deterministic(self):
        grid = [small_config()]
        a = run_sweep(grid, replications=2, master_seed=11)
        b = run_sweep(grid, replications=2, master_seed=11)
        assert a == b
        assert a[0].replication == 0
        assert a[1].replication == 1
        assert a[0].seed != a[1].seed

    def test_jobs_do_not_change_records_or_bytes(self, tmp_path):
        # 12 cells: more than the 8 of one chunk, so jobs=2 starts a pool
        grid = [
            small_config(sigma=sigma, gamma=gamma, p_r=p_r, seed=0)
            for sigma in (Pattern.UNIFORM, Pattern.COMPACT)
            for gamma in (5, 14, 23)
            for p_r in (0.0, 0.02)
        ]
        serial = run_sweep(grid, replications=2, master_seed=3, jobs=1)
        pooled = run_sweep(grid, replications=2, master_seed=3, jobs=2)
        assert serial == pooled
        write_sweep_csv(serial, tmp_path / "serial.csv")
        write_sweep_csv(pooled, tmp_path / "pooled.csv")
        assert (tmp_path / "serial.csv").read_bytes() == (
            tmp_path / "pooled.csv"
        ).read_bytes()

    @pytest.mark.parametrize("cells,replications,jobs,workers", [
        (12, 1, 500, 2), (12, 2, 2, 2), (17, 1, 2, 2), (17, 1, 500, 3),
        (1, 3, 4, None), (8, 2, 2, None), (12, 1, 1, None),
    ])
    def test_pool_has_no_worker_without_a_chunk(self, monkeypatch, cells,
                                                 replications, jobs, workers):
        # a stand-in pool records what it is asked for and starts no process;
        # a sweep left with one worker (workers None) starts no pool at all
        asked = {}

        class FakePool:
            def __init__(self, max_workers):
                asked["max_workers"] = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, runs, chunksize):
                asked["chunksize"] = chunksize
                return map(fn, runs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        grid = [small_config(gamma=gamma, max_ticks=100)
                for gamma in range(5, 5 + cells)]
        records = run_sweep(grid, replications=replications, master_seed=3, jobs=jobs)
        # chunks of 8 grid cells, as many workers as chunks at most
        if workers is None:
            assert asked == {}
        else:
            assert asked == {"max_workers": workers,
                             "chunksize": 8 * replications}
        assert records == run_sweep(grid, replications=replications, master_seed=3)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="non-empty"):
            run_sweep([], replications=1)

    def test_unfittable_run_keeps_a_nan_row(self, monkeypatch):
        def degenerate(traj):
            raise DegenerateTrajectory("zero variance")

        monkeypatch.setattr(sweep, "fit_bass", degenerate)
        (record,) = run_sweep([small_config()])
        assert math.isnan(record.p) and math.isnan(record.q)
        # the run itself happened: its row keeps the tick it saturated at
        replayed = small_config(seed=record.seed).simulate()
        assert record.saturation_tick == replayed.saturated_at > 0

    def test_run_saturated_in_one_tick_keeps_its_tick(self):
        # every agent adopts at tick 1, so the trajectory cannot be fitted
        config = SimConfig(LatticeSpec(10, 10, Neighborhood.MOORE), delta_u=1.2,
                           sigma=Pattern.UNIFORM, p_r=0.0, gamma=5)
        assert config.simulate().saturated_at == 1
        (record,) = run_sweep([config])
        assert math.isnan(record.p) and math.isnan(record.q)
        assert record.saturation_tick == 1

    def test_fit_at_q_zero_keeps_a_row_without_takeoff(self, tmp_path):
        # at delta_u = -1 no imitator adopts, so the fit lands on its q = 0
        # bound, where no takeoff time exists
        (record,) = run_sweep([small_config(delta_u=-1.0, gamma=1000)])
        assert record.q == 0.0 and math.isnan(record.takeoff)
        path = tmp_path / "sweep.csv"
        write_sweep_csv([record], path)
        (loaded,) = read_sweep_csv(path)
        assert dataclasses.replace(loaded, takeoff=0.0) == dataclasses.replace(
            record, takeoff=0.0)
        assert math.isnan(loaded.takeoff)

    def test_other_errors_propagate(self, monkeypatch):
        # a fault in a layer must abort the sweep, not become a NaN row
        def broken(net, p_r, rng):
            raise ValueError("broken rewire")

        monkeypatch.setattr(sweep, "rewire", broken)
        with pytest.raises(ValueError, match="broken rewire"):
            run_sweep([small_config()])


class TestMedianAggregation:
    def test_medians_per_cell(self):
        records = [
            small_record(p, q) for p, q in [(0.01, 0.3), (0.03, 0.5), (0.02, 0.9)]
        ]
        cells = median_by_cell(records)
        assert len(cells) == 1
        summary = cells[cell_key(records[0])]
        assert summary["p"] == pytest.approx(0.02)
        assert summary["q"] == pytest.approx(0.5)
        assert summary["n"] == 3
        # the fitted quantities only: a median over the never-saturated
        # sentinel would be a tick no run had
        assert set(summary) == {"p", "q", "r_squared", "takeoff", "n"}


class TestConvexHull:
    def test_triangle_is_its_own_hull(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.5], [1.0, 2.0]])
        hull = convex_hull(pts)
        assert hull.shape == (3, 2)
        assert hull[0].tolist() == [0.0, 0.0]  # lowest q, then lowest p
        # counter-clockwise: positive signed area
        area = sum(
            hull[i][0] * hull[(i + 1) % 3][1] - hull[(i + 1) % 3][0] * hull[i][1]
            for i in range(3)
        )
        assert area > 0

    def test_square_with_center_excludes_center(self):
        pts = np.array(
            [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], dtype=float
        )
        hull = convex_hull(pts)
        assert hull.shape == (4, 2)
        assert [0.5, 0.5] not in hull.tolist()

    def test_collinear_raises(self):
        pts = np.array([[0, 0], [1, 1], [2, 2], [3, 3]], dtype=float)
        with pytest.raises(TooFewPoints):
            convex_hull(pts)

    def test_too_few_distinct_points(self):
        with pytest.raises(TooFewPoints):
            convex_hull(np.array([[0, 0], [1, 1], [1, 1]], dtype=float))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_points(self, bad):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [bad, bad]], dtype=float)
        with pytest.raises(ValueError, match="finite"):
            convex_hull(pts)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=12,
        ),
        st.lists(st.integers(0, 11), max_size=12),
    )
    def test_repeated_rows_give_the_hull_of_the_distinct_rows(self, raw_points, repeats):
        # a coarse integer grid, so repeats, collinear sets and sets of
        # fewer than 3 distinct points are all common
        pts = np.asarray(raw_points, dtype=float)
        pts = np.concatenate([pts, pts[[i % len(pts) for i in repeats]]])
        distinct = np.unique(pts, axis=0)
        try:
            expected = convex_hull(distinct)
        except TooFewPoints:
            with pytest.raises(TooFewPoints):
                convex_hull(pts)
            return
        assert np.array_equal(convex_hull(pts), expected)
        assert np.array_equal(convex_hull(pts[::-1]), expected)

    @pytest.mark.parametrize("pts, message", [
        ([[1, 1], [0, 0], [1, 1], [0, 0], [0, 0]], "need >= 3 distinct points, got 2"),
        ([[0, 0], [2, 2], [1, 1], [2, 2], [0, 0], [1, 1]], "collinear"),
    ], ids=["two-distinct", "collinear"])
    def test_repeated_rows_still_too_few(self, pts, message):
        with pytest.raises(TooFewPoints, match=message):
            convex_hull(np.array(pts, dtype=float))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            st.floats(min_value=-10, max_value=10),
            st.floats(min_value=-10, max_value=10),
        ),
        min_size=3, max_size=40,
    ))
    def test_hull_contains_every_generator(self, raw_points):
        pts = np.asarray(raw_points, dtype=float)
        try:
            hull = convex_hull(pts)
        except TooFewPoints:
            return
        for point in pts:
            assert locate((point[0], point[1]), hull) is not Location.OUTSIDE
        hull_set = {tuple(v) for v in hull.tolist()}
        assert hull_set <= {tuple(p) for p in pts.tolist()}


class TestEnvelope:
    def test_reference_compact_cell_span(self, reference_grid):
        records = [record_from_reference(row) for row in reference_grid]
        hull = envelope(records, (8, 0.6, Pattern.COMPACT))
        ps, qs = hull[:, 0], hull[:, 1]
        assert ps.min() == pytest.approx(0.00079, abs=1e-5)
        assert ps.max() == pytest.approx(0.0325, abs=2e-4)
        assert qs.min() == pytest.approx(0.319, abs=1e-3)
        assert qs.max() == pytest.approx(0.730, abs=3e-3)
        generators = [
            row for row in reference_grid
            if (row.k, row.delta_u, row.sigma) == (8, 0.6, "compact")
        ]
        assert len(generators) == 30
        for row in generators:
            assert locate((row.p, row.q), hull) is not Location.OUTSIDE

    def test_leaves_out_unfitted_records(self):
        # a run that could not be fitted keeps a NaN (p, q) row in the sweep
        corners = [(0.01, 0.3), (0.02, 0.3), (0.02, 0.5), (0.01, 0.5)]
        records = [small_record(p, q) for p, q in corners] + [UNFITTED]
        hull = envelope(records, (8, 0.6, Pattern.UNIFORM))
        assert np.isfinite(hull).all()
        assert sorted(map(tuple, hull.tolist())) == sorted(corners)

    def test_too_few_finite_fits(self):
        records = [small_record(0.01, 0.3), small_record(0.02, 0.5)] + [UNFITTED] * 2
        with pytest.raises(TooFewPoints, match="matched only 2 finite"):
            envelope(records, (8, 0.6, Pattern.UNIFORM))

    def test_filter_too_small(self):
        records = [small_record(0.01, 0.3)]
        with pytest.raises(TooFewPoints, match="matched only"):
            envelope(records, (8, 0.6, Pattern.UNIFORM))


class TestLocate:
    def setup_method(self):
        self.hull = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [0.0, 3.0]])

    def test_centroid_inside(self):
        assert locate((2.0, 1.5), self.hull) is Location.INSIDE

    def test_vertex_on_boundary(self):
        assert locate((4.0, 3.0), self.hull) is Location.BOUNDARY

    def test_edge_midpoint_on_boundary(self):
        assert locate((2.0, 0.0), self.hull) is Location.BOUNDARY

    def test_far_point_outside(self):
        assert locate((10.0, 10.0), self.hull) is Location.OUTSIDE

    def test_point_on_edge_line_but_past_polygon(self):
        assert locate((5.0, 0.0), self.hull) is Location.OUTSIDE

    @pytest.mark.parametrize(
        "point", [(math.nan, 1.0), (2.0, math.nan), (math.inf, 1.5), (2.0, -math.inf)]
    )
    def test_non_finite_point_is_rejected(self, point):
        # every compare with NaN is false, so a NaN would pass every edge test
        with pytest.raises(ValueError, match="finite"):
            locate(point, self.hull)


class TestRoiCheck:
    population = MOORE_30.node_count

    def test_identical_records_zero_margin_is_false(self):
        base = BassParams(0.02, 0.4)
        report = roi_check(
            base, base, self.population, t_star=10.0, profit_per_adopter=1.0,
            investment=0.0, roi_min=0.0,
        )
        assert not report.exceeds
        assert report.delta_gain == 0.0

    def test_arithmetic_example_delta_fifty(self):
        # base curve passes 0.5 at t*; boost curve tuned to pass 0.7 there
        p, q = 0.02, 0.4
        t_star = -math.log(p / (2 * p + q)) / (p + q)
        assert bass_curve(BassParams(p, q), t_star) == pytest.approx(0.5, abs=1e-12)
        lo, hi = q, 2.5
        for _ in range(200):
            mid = (lo + hi) / 2
            if bass_curve(BassParams(p, mid), t_star) < 0.7:
                lo = mid
            else:
                hi = mid
        q_boost = (lo + hi) / 2
        base = BassParams(p, q)
        boost = BassParams(p, q_boost)
        report = roi_check(
            base, boost, self.population, t_star=t_star,
            profit_per_adopter=1000.0 / self.population,
            investment=150.0, roi_min=0.0,
        )
        assert report.exceeds
        assert report.delta_gain == pytest.approx(50.0, abs=1e-6)
        assert report.gain_base == pytest.approx(500.0, abs=1e-6)
        assert report.gain_boosted == pytest.approx(550.0, abs=1e-6)

    @pytest.mark.parametrize(
        "field,value",
        [("population", v) for v in (-5, 0, 2.5, True, np.True_, "100")]
        + [(name, v)
           for name in ("t_star", "profit_per_adopter", "investment", "roi_min")
           for v in (True, np.True_, "10.0", None)],
    )
    def test_rejects_a_count_or_number_outside_its_rule(self, field, value):
        args = dict(population=self.population, t_star=10.0,
                    profit_per_adopter=1.0, investment=0.0, roi_min=0.0)
        args[field] = value
        base = BassParams(0.02, 0.4)
        with pytest.raises(ValueError, match=f"^{field} must be"):
            roi_check(base, base, **args)

    def test_rejects_t_star_before_takeoff(self):
        base = BassParams(0.02, 0.4)
        takeoff = takeoff_time(base)
        with pytest.raises(ValueError, match="takeoff"):
            roi_check(
                base, base, self.population, t_star=takeoff, profit_per_adopter=1.0,
                investment=0.0, roi_min=0.0,
            )

    def test_larger_gamma_means_more_adopters_at_t_star(self, reference_grid):
        # same cell, introduction rate raised: the boosted curve must sit
        # above the baseline at any time past both takeoffs
        rows = {
            row.gamma: row
            for row in reference_grid
            if (row.k, row.delta_u, row.sigma, row.p_r) == (8, 0.6, "uniform", 0.0)
        }
        assert set(rows) == set(GAMMA_LEVELS)
        base = BassParams(rows[125].p, rows[125].q)
        boost = BassParams(rows[1000].p, rows[1000].q)
        report = roi_check(
            base, boost, 200 * 200, t_star=9.0, profit_per_adopter=1.0,
            investment=0.0, roi_min=0.0,
        )
        assert report.adoption_boosted > report.adoption_base
        assert report.exceeds

    def test_gain_is_profit_times_population_times_adoption(self):
        base, boost = BassParams(0.02, 0.4), BassParams(0.03, 0.45)
        profit, investment = 0.37, 12.5
        report = roi_check(
            base, boost, self.population, t_star=10.0, profit_per_adopter=profit,
            investment=investment, roi_min=-1.0,
        )
        # the same operand order as the CLI has always used, so equal bits
        assert report.gain_base == profit * self.population * report.adoption_base
        assert report.gain_boosted == (
            profit * self.population * report.adoption_boosted - investment
        )
        assert report.delta_gain == report.gain_boosted - report.gain_base
        assert report.exceeds  # delta > -1


class TestCsvRoundTrips:
    def test_sweep_csv_roundtrip(self, tmp_path):
        grid = [small_config(lattice=MOORE_30, gamma=9)]
        records = run_sweep(grid, replications=2, master_seed=1)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(records, path)
        loaded = read_sweep_csv(path)
        assert loaded == records
        header = path.read_text().splitlines()[0]
        assert header == ",".join(SWEEP_CSV_HEADER)

    def test_sweep_csv_reads_back_without_a_manifest(self, tmp_path):
        # the row is the whole record: the lattice size, alpha and max_ticks
        # of the runs are not needed to read it
        grid = default_grid(rows=30, cols=30, k_levels=[4], delta_u_levels=[0.8],
                            sigma_levels=[Pattern.COMPACT], p_r_levels=[0.0, 0.02],
                            gamma_levels=[9], alpha=0.3, max_ticks=300)
        records = run_sweep(grid, master_seed=5)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(records, path)
        assert read_sweep_csv(path) == records

    def test_record_is_the_row(self):
        # SweepRecord's fields are sweep.csv's format: their names are the
        # header, their types each column's text rule
        assert [(f.name, f.type) for f in dataclasses.fields(SweepRecord)] == [
            ("k", "int"), ("delta_u", "float"), ("sigma", "Pattern"),
            ("p_r", "float"), ("gamma", "int"), ("seed", "int"),
            ("replication", "int"), ("p", "float"), ("q", "float"),
            ("r_squared", "float"), ("takeoff", "float"),
            ("saturation_tick", "int"),
        ]

    def test_sweep_csv_roundtrips_an_unfitted_unsaturated_row(self, tmp_path):
        record = SweepRecord(4, 0.8, Pattern.COMPACT, 0.0025, 125, 2**64 - 1, 3,
                             math.nan, math.nan, math.nan, math.nan, NOT_SATURATED)
        path = tmp_path / "sweep.csv"
        write_sweep_csv([record], path)
        assert path.read_bytes().splitlines()[1] == (
            b"4,0.8,compact,0.0025,125,18446744073709551615,3,nan,nan,nan,nan,-1"
        )
        (loaded,) = read_sweep_csv(path)
        # compared by repr, as NaN != NaN; repr also tells an int from a float
        for field in dataclasses.fields(SweepRecord):
            assert repr(getattr(loaded, field.name)) == repr(getattr(record, field.name))

    @pytest.mark.parametrize("row", [
        "8,0.6,uniform,0.0,5",
        "8,0.6,uniform,0.0,5,0,0,0.01,0.3,0.99,7.6,20,1",
    ], ids=["short", "long"])
    def test_sweep_csv_row_needs_the_header_s_field_count(self, tmp_path, row):
        path = tmp_path / "sweep.csv"
        path.write_text(",".join(SWEEP_CSV_HEADER) + "\n"
                        "8,0.6,uniform,0.0,5,0,0,0.01,0.3,0.99,7.6,20\n" + row + "\n")
        with pytest.raises(ValueError, match="^line 3 has"):
            read_sweep_csv(path)

    def test_sweep_csv_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_sweep_csv(path)

    def test_envelope_csv(self, tmp_path):
        hull = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
        path = tmp_path / "hull.csv"
        write_envelope_csv(hull, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "p,q"
        assert len(lines) == 4

    def test_empirical_csv(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("label,p,q\nalpha,0.01,0.3\nbeta,0.02,0.5\n")
        points = read_empirical_csv(path)
        assert points == [("alpha", 0.01, 0.3), ("beta", 0.02, 0.5)]

    @pytest.mark.parametrize("p,q", [("nan", "0.3"), ("0.01", "inf"), ("-inf", "nan")])
    def test_empirical_csv_rejects_non_finite_point(self, tmp_path, p, q):
        path = tmp_path / "points.csv"
        path.write_text(f"label,p,q\nalpha,0.01,0.3\nbeta,{p},{q}\n")
        with pytest.raises(ValueError, match="'beta' is not finite"):
            read_empirical_csv(path)

    @pytest.mark.parametrize("row", ["Bass,0.03", "Bass,0.03,0.38,x"],
                             ids=["short", "long"])
    def test_empirical_csv_row_needs_the_header_s_field_count(self, tmp_path, row):
        path = tmp_path / "points.csv"
        path.write_text(f"label,p,q\n{row}\n")
        with pytest.raises(ValueError, match="^line 2 has"):
            read_empirical_csv(path)

    def test_empirical_csv_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("p,q\n0.01,0.3\n")
        with pytest.raises(ValueError, match="label"):
            read_empirical_csv(path)
