"""Command-line interface: commands, exit codes, reproducibility."""

import json
import subprocess
import sys

import pytest

from diffusim.calibrate import fit_bass, read_trajectory_csv
from diffusim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from diffusim.seeding import Pattern
from diffusim.sweep import default_grid, read_sweep_csv, run_sweep

SMALL_GRID = {
    "rows": 40,
    "cols": 40,
    "k_levels": [8],
    "delta_u_levels": [0.8],
    "sigma_levels": ["uniform"],
    "p_r_levels": [0.0, 0.04],
    "gamma_levels": [10, 40],
    "max_ticks": 300,
}

SMALL_SIM = {
    "rows": 50,
    "cols": 50,
    "k": 8,
    "delta_u": 0.8,
    "sigma": "uniform",
    "p_r": 0.04,
    "gamma": 60,
    "max_ticks": 200,
}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- takeoff and bass ----


def test_takeoff_prints_reference_value(capsys):
    # inputs are 7-decimal prints of the true coefficients, so only a
    # relative tolerance is attainable (abs diff is ~2e-5 from rounding)
    code, out, _ = run_cli(capsys, "takeoff", "0.0072863", "0.3187899")
    assert code == EXIT_OK
    assert abs(float(out.strip()) - 7.549109451) / 7.549109451 < 1e-5


def test_takeoff_degenerate_warns_on_stderr(capsys):
    code, out, err = run_cli(capsys, "takeoff", "0.5", "0.5")
    assert code == EXIT_OK
    assert float(out.strip()) < 0
    assert "degenerate" in err


def test_takeoff_rejects_zero_q(capsys):
    code, _, err = run_cli(capsys, "takeoff", "0.03", "0")
    assert code == EXIT_CONFIG
    assert "q" in err


def test_bass_at_time_zero_is_zero(capsys):
    code, out, _ = run_cli(capsys, "bass", "0.03", "0.4", "--t", "0")
    assert code == EXIT_OK
    assert float(out.strip()) == 0.0


def test_bass_rejects_negative_time(capsys):
    code, _, err = run_cli(capsys, "bass", "0.03", "0.4", "--t", "-1")
    assert code == EXIT_CONFIG
    assert "--t" in err


def test_bass_rejects_nonpositive_p(capsys):
    code, _, err = run_cli(capsys, "bass", "0", "0.4", "--t", "1")
    assert code == EXIT_CONFIG
    assert "p" in err


def test_bass_csv_round_trips_through_fit(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    code, _, _ = run_cli(capsys, "bass", "0.03", "0.4",
                         "--t-max", "40", "--out", str(curve))
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, "fit", str(curve))
    assert code == EXIT_OK
    result = json.loads(out)
    assert abs(result["p"] - 0.03) < 1e-6
    assert abs(result["q"] - 0.4) < 1e-6
    assert result["r_squared"] > 1 - 1e-10


# ---- fit error handling ----


def test_fit_missing_file_is_config_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "fit", str(tmp_path / "nope.csv"))
    assert code == EXIT_CONFIG
    assert "nope.csv" in err


def test_fit_malformed_header_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,share\n0,0.0\n1,0.5\n")
    code, _, err = run_cli(capsys, "fit", str(bad))
    assert code == EXIT_CONFIG


def test_fit_constant_zero_trajectory_is_runtime_failure(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    flat.write_text("tick,proportion\n" +
                    "".join(f"{t},0.0\n" for t in range(6)))
    code, _, err = run_cli(capsys, "fit", str(flat))
    assert code == EXIT_RUNTIME
    assert "degenerate" in err


# ---- simulate ----


def test_simulate_writes_trajectory_and_manifest(tmp_path, capsys):
    config = write_json(tmp_path / "sim.json", SMALL_SIM)
    out = tmp_path / "traj.csv"
    code, _, _ = run_cli(capsys, "simulate", config,
                         "--seed", "7", "--out", str(out))
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "tick,adopters,proportion"
    assert lines[1] == "0,0,0.0"
    manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
    assert manifest["tool"] == "diffusim"
    assert manifest["command"] == "simulate"
    assert manifest["master_seed"] == 7
    assert str(out) in manifest["outputs"]
    assert manifest["parameters"]["gamma"] == 60


def test_simulate_same_seed_is_byte_identical(tmp_path, capsys):
    config = write_json(tmp_path / "sim.json", SMALL_SIM)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "simulate", config, "--seed", "5", "--out", str(a))
    run_cli(capsys, "simulate", config, "--seed", "5", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_simulate_different_seed_changes_output(tmp_path, capsys):
    config = write_json(tmp_path / "sim.json", SMALL_SIM)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "simulate", config, "--seed", "5", "--out", str(a))
    run_cli(capsys, "simulate", config, "--seed", "6", "--out", str(b))
    assert a.read_bytes() != b.read_bytes()


def test_simulate_reproduces_a_sweep_row(tmp_path, capsys):
    # both entry points realize a run the same way, so a sweep row replays
    # from its fields and its recorded seed
    grid = default_grid(
        rows=30, cols=30, k_levels=[8], delta_u_levels=[0.6],
        sigma_levels=[Pattern.UNIFORM], p_r_levels=[0.04], gamma_levels=[9],
    )
    (row,) = run_sweep(grid, master_seed=3, max_ticks=300)
    assert row.saturation_tick > 0
    config = write_json(tmp_path / "sim.json", {
        "rows": 30, "cols": 30, "k": 8, "delta_u": 0.6, "sigma": "uniform",
        "p_r": 0.04, "gamma": 9, "max_ticks": 300,
    })
    out = tmp_path / "traj.csv"
    code, _, _ = run_cli(capsys, "simulate", config,
                         "--seed", str(row.config.seed), "--out", str(out))
    assert code == EXIT_OK
    traj = read_trajectory_csv(out)
    fit = fit_bass(traj)
    assert traj.saturated_at == row.saturation_tick
    assert (fit.params.p, fit.params.q) == (row.p, row.q)


def test_simulate_rejects_out_of_range_key(tmp_path, capsys):
    config = write_json(tmp_path / "sim.json", {**SMALL_SIM, "p_r": 1.5})
    code, _, err = run_cli(capsys, "simulate", config)
    assert code == EXIT_CONFIG
    assert "p_r" in err


def test_simulate_rejects_unknown_key(tmp_path, capsys):
    config = write_json(tmp_path / "sim.json", {**SMALL_SIM, "typo_key": 1})
    code, _, err = run_cli(capsys, "simulate", config)
    assert code == EXIT_CONFIG
    assert "typo_key" in err


def test_simulate_reports_json_parse_line(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text('{\n  "rows": 50,\n  "cols": oops\n}\n')
    code, _, err = run_cli(capsys, "simulate", str(config))
    assert code == EXIT_CONFIG
    assert "line 3" in err


def test_simulate_missing_config_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", str(tmp_path / "nope.json"))
    assert code == EXIT_CONFIG


def test_seed_must_fit_uint64(tmp_path, capsys):
    config = write_json(tmp_path / "sim.json", SMALL_SIM)
    code, _, err = run_cli(capsys, "simulate", config,
                           "--seed", str(2**64))
    assert code == EXIT_CONFIG
    assert "seed" in err


# ---- sweep ----


def test_sweep_restricted_grid(tmp_path, capsys):
    config = write_json(tmp_path / "grid.json", SMALL_GRID)
    out = tmp_path / "run"
    code, _, _ = run_cli(capsys, "sweep", config,
                         "--seed", "11", "--out", str(out))
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    header = ("k,delta_u,sigma,p_r,gamma,seed,replication,"
              "p,q,r_squared,takeoff,saturation_tick")
    assert lines[0] == header
    assert len(lines) == 1 + 4  # 1 k x 1 du x 1 sigma x 2 p_r x 2 gamma
    assert (out / "envelope_k8_du0.8_uniform.csv").exists()
    manifest = json.loads((out / "sweep.csv.manifest.json").read_text())
    assert manifest["parameters"]["gamma_levels"] == [10, 40]
    assert len(manifest["outputs"]) == 2


def test_sweep_csv_reads_back_its_lattice_size(tmp_path, capsys):
    # the CSV does not hold the lattice size; its manifest does
    config = write_json(tmp_path / "grid.json", {
        **SMALL_GRID, "rows": 30, "cols": 30, "p_r_levels": [0.04],
        "gamma_levels": [20],
    })
    out = tmp_path / "run"
    code, _, _ = run_cli(capsys, "sweep", config, "--out", str(out))
    assert code == EXIT_OK
    records = read_sweep_csv(out / "sweep.csv")
    assert len(records) == 1
    assert (records[0].config.lattice.rows, records[0].config.lattice.cols) == (30, 30)


def test_sweep_jobs_do_not_change_bytes(tmp_path, capsys):
    config = write_json(tmp_path / "grid.json", SMALL_GRID)
    serial, parallel = tmp_path / "s", tmp_path / "p"
    run_cli(capsys, "sweep", config, "--seed", "11", "--out", str(serial))
    run_cli(capsys, "sweep", config, "--seed", "11", "--out", str(parallel),
            "--jobs", "2")
    assert (serial / "sweep.csv").read_bytes() == \
        (parallel / "sweep.csv").read_bytes()


def test_sweep_zero_byte_config_is_config_error(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    code, _, err = run_cli(capsys, "sweep", str(empty))
    assert code == EXIT_CONFIG
    assert "line 1" in err


def test_sweep_rejects_empty_level_list(tmp_path, capsys):
    config = write_json(tmp_path / "grid.json",
                        {**SMALL_GRID, "gamma_levels": []})
    code, _, err = run_cli(capsys, "sweep", str(config))
    assert code == EXIT_CONFIG
    assert "gamma_levels" in err


def test_sweep_rejects_bad_sigma_level(tmp_path, capsys):
    config = write_json(tmp_path / "grid.json",
                        {**SMALL_GRID, "sigma_levels": ["diagonal"]})
    code, _, err = run_cli(capsys, "sweep", str(config))
    assert code == EXIT_CONFIG
    assert "sigma" in err


# ---- envelope ----


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    # shared small sweep so envelope tests do not re-simulate
    tmp_path = tmp_path_factory.mktemp("sweep")
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        **SMALL_GRID,
        "p_r_levels": [0.0, 0.02, 0.04],
        "gamma_levels": [10, 20, 40],
    }))
    out = tmp_path / "run"
    code = main(["sweep", str(config), "--seed", "11", "--out", str(out)])
    assert code == EXIT_OK
    return out


def test_envelope_from_sweep_csv(sweep_dir, tmp_path, capsys):
    out = tmp_path / "env.csv"
    code, _, _ = run_cli(capsys, "envelope", str(sweep_dir / "sweep.csv"),
                         "--k", "8", "--delta-u", "0.8", "--sigma", "uniform",
                         "--out", str(out))
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "p,q"
    assert len(lines) >= 4  # at least a triangle


def test_envelope_classifies_points(sweep_dir, tmp_path, capsys):
    points = tmp_path / "pts.csv"
    points.write_text("label,p,q\nfar,0.9,0.05\n")
    code, out, _ = run_cli(capsys, "envelope", str(sweep_dir / "sweep.csv"),
                           "--k", "8", "--delta-u", "0.8",
                           "--sigma", "uniform",
                           "--points", str(points),
                           "--out", str(tmp_path / "env.csv"))
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "label,p,q,location"
    assert lines[1].startswith("far,") and lines[1].endswith(",outside")


def test_envelope_missing_family_is_runtime_failure(sweep_dir, tmp_path,
                                                    capsys):
    # the shared sweep has no k=4 rows, so the filter leaves too few points
    code, _, err = run_cli(capsys, "envelope", str(sweep_dir / "sweep.csv"),
                           "--k", "4", "--delta-u", "0.8",
                           "--sigma", "uniform",
                           "--out", str(tmp_path / "env.csv"))
    assert code == EXIT_RUNTIME
    assert "envelope" in err


def test_envelope_malformed_sweep_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    code, _, err = run_cli(capsys, "envelope", str(bad),
                           "--k", "8", "--delta-u", "0.8",
                           "--sigma", "uniform")
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "k,sigma,named",
    [("6", "compact", "--k"), ("8", "clustered", "sigma")],
)
def test_envelope_checks_arguments_before_reading(tmp_path, capsys, k, sigma,
                                                  named):
    # the sweep CSV does not exist, so only an argument check can name the
    # bad argument
    code, _, err = run_cli(capsys, "envelope", str(tmp_path / "missing.csv"),
                           "--k", k, "--delta-u", "0.6", "--sigma", sigma)
    assert code == EXIT_CONFIG
    assert named in err
    assert "sweep CSV" not in err


# ---- roi ----


def test_roi_reports_gain_fields(capsys):
    code, out, _ = run_cli(
        capsys, "roi",
        "--base-p", "0.01", "--base-q", "0.35",
        "--boost-p", "0.01", "--boost-q", "0.45",
        "--t-star", "15", "--profit-per-adopter", "2.5",
        "--investment", "0", "--roi-min", "0",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert set(report) == {
        "exceeds", "gain_base", "gain_boosted", "delta_gain",
        "adoption_base", "adoption_boosted",
    }
    # zero investment and a pure q boost must come out ahead
    assert report["exceeds"] is True
    assert report["adoption_boosted"] > report["adoption_base"]


def test_roi_rejects_t_star_before_takeoff(capsys):
    code, _, err = run_cli(
        capsys, "roi",
        "--base-p", "0.01", "--base-q", "0.35",
        "--boost-p", "0.01", "--boost-q", "0.45",
        "--t-star", "1", "--profit-per-adopter", "2.5",
        "--investment", "0",
    )
    assert code == EXIT_CONFIG
    assert "t_star" in err


def test_roi_rejects_too_small_lattice(capsys):
    code, _, err = run_cli(
        capsys, "roi",
        "--base-p", "0.01", "--base-q", "0.35",
        "--boost-p", "0.01", "--boost-q", "0.45",
        "--t-star", "15", "--profit-per-adopter", "2.5",
        "--investment", "0", "--rows", "1",
    )
    assert code == EXIT_CONFIG
    assert "--rows" in err


# ---- netstats ----


def test_netstats_reports_exact_lattice_degree(capsys):
    code, out, _ = run_cli(capsys, "netstats", "--rows", "20", "--cols", "20",
                           "--k", "4", "--sample", "400")
    assert code == EXIT_OK
    stats = json.loads(out)
    assert stats["nodes"] == 400
    # bounded 20x20 grid: 2*20*19 edges, so mean degree 2*760/400
    assert stats["mean_degree"] == 3.8
    assert stats["clustering_coefficient"] == 0.0
    assert stats["unreached_pairs"] == 0
    assert stats["mean_path_length"] > 1


def test_netstats_rewiring_shortens_paths(capsys):
    _, out, _ = run_cli(capsys, "netstats", "--rows", "30", "--cols", "30",
                        "--k", "8", "--sample", "900")
    base = json.loads(out)
    _, out, _ = run_cli(capsys, "netstats", "--rows", "30", "--cols", "30",
                        "--k", "8", "--p-r", "0.04", "--seed", "3",
                        "--sample", "900")
    rewired = json.loads(out)
    assert rewired["mean_path_length"] < base["mean_path_length"]


def test_netstats_rejects_bad_rewire_probability(capsys):
    code, _, err = run_cli(capsys, "netstats", "--p-r", "1.5")
    assert code == EXIT_CONFIG
    assert "p-r" in err


def test_netstats_rejects_too_small_lattice(capsys):
    code, _, err = run_cli(capsys, "netstats", "--cols", "1")
    assert code == EXIT_CONFIG
    assert "--cols" in err


def test_netstats_writes_file_with_manifest(tmp_path, capsys):
    out = tmp_path / "stats.json"
    code, _, _ = run_cli(capsys, "netstats", "--rows", "20", "--cols", "20",
                         "--sample", "400", "--out", str(out))
    assert code == EXIT_OK
    assert json.loads(out.read_text())["nodes"] == 400
    assert (tmp_path / "stats.json.manifest.json").exists()


# ---- process-level behaviour ----


def test_module_entry_point_version():
    proc = subprocess.run(
        [sys.executable, "-m", "diffusim.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "diffusim" in proc.stdout


def test_unknown_command_exits_with_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "diffusim.cli", "frobnicate"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_missing_command_exits_with_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "diffusim.cli"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
