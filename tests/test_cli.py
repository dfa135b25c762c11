"""Command-line interface: commands, exit codes, reproducibility."""

import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from diffusim.calibrate import DegenerateTrajectory, fit_bass
from diffusim.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    _sim_config,
    main,
    manifest_path,
)
from diffusim.engine import read_trajectory_csv
from diffusim.network import LatticeSpec, Neighborhood, network_stats
from diffusim.seeding import Pattern
from diffusim.sweep import SimConfig, default_grid, run_sweep

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

# 9 cells: more than the 8 of one pool chunk, so `--jobs 2` starts a pool
NINE_CELL_GRID = {
    **SMALL_GRID,
    "p_r_levels": [0.0, 0.02, 0.04],
    "gamma_levels": [10, 20, 40],
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


@pytest.mark.parametrize("p, q", [
    # q > p(2+sqrt(3)), so the takeoff is positive, but it underflows to 0.0
    ("2e307", "7.464101615137755e307"),
    ("1e308", "1e308"),  # p + q overflows
], ids=["underflow", "overflow"])
def test_takeoff_rejects_p_q_it_cannot_represent(capsys, p, q):
    # either would print a zero of the wrong sign, read as "degenerate"
    code, out, err = run_cli(capsys, "takeoff", p, q)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == (f"error: arguments p, q: takeoff time at p={float(p)}, "
                   f"q={float(q)} is out of float range\n")


def test_bass_at_time_zero_is_zero(capsys):
    code, out, _ = run_cli(capsys, "bass", "0.03", "0.4", "--t", "0")
    assert code == EXIT_OK
    assert float(out.strip()) == 0.0


def test_bass_rejects_negative_time(capsys):
    code, _, err = run_cli(capsys, "bass", "0.03", "0.4", "--t", "-1")
    assert code == EXIT_CONFIG
    assert "--t" in err


def test_bass_rejects_nan_time(capsys):
    code, _, err = run_cli(capsys, "bass", "0.03", "0.4", "--t", "nan")
    assert code == EXIT_CONFIG
    assert "--t" in err


@pytest.mark.parametrize("t_max", ["nan", "inf", "50.7"])
def test_bass_rejects_non_integer_t_max(tmp_path, capsys, t_max):
    with pytest.raises(SystemExit) as exc:
        main(["bass", "0.03", "0.4", "--t-max", t_max,
              "--out", str(tmp_path / "curve.csv")])
    assert exc.value.code == EXIT_CONFIG
    assert "--t-max" in capsys.readouterr().err
    assert not (tmp_path / "curve.csv").exists()


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


@pytest.mark.parametrize("text", [
    "",
    "tick,proportion\n",
    "tick,proportion\n0,0.0\n1,nan\n2,0.3\n3,0.5\n4,0.9\n",
    "tick,proportion\n0,0.0\n1\n",
], ids=["empty", "header-only", "nan-proportion", "short-row"])
def test_fit_malformed_trajectory_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "traj.csv"
    path.write_text(text)
    code, _, err = run_cli(capsys, "fit", str(path))
    assert code == EXIT_CONFIG
    assert f"malformed trajectory {path}" in err


def test_fit_out_text_is_pinned(tmp_path, capsys):
    # key order, indentation and float repr of the fit report
    path = tmp_path / "traj.csv"
    path.write_text("tick,proportion\n" + "".join(
        f"{t},{v}\n" for t, v in enumerate(
            [0.0, 0.01, 0.03, 0.07, 0.15, 0.3, 0.5, 0.7, 0.85, 0.93, 0.97, 0.99])
    ))
    out = tmp_path / "fit.json"
    code, _, _ = run_cli(capsys, "fit", str(path), "--out", str(out))
    assert code == EXIT_OK
    assert out.read_text() == """{
  "p": 0.005198605789163404,
  "q": 0.8465690096205175,
  "r_squared": 0.9999676062881436,
  "residual_sum": 5.979771229652689e-05,
  "iterations": 9,
  "converged": true,
  "p_at_bound": false,
  "q_at_bound": false
}
"""


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
    assert manifest["numpy_version"] == np.__version__
    assert manifest["command"] == "simulate"
    assert manifest["master_seed"] == 7
    assert str(out) in manifest["outputs"]
    assert manifest["parameters"]["gamma"] == 60
    assert manifest["parameters"]["sigma"] == "uniform"
    assert set(manifest["parameters"]) == {
        "config_file", "rows", "cols", "k", "delta_u", "alpha", "sigma",
        "p_r", "gamma", "innovator_fraction", "max_ticks",
    }


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
        max_ticks=300,
    )
    (row,) = run_sweep(grid, master_seed=3)
    assert row.saturation_tick > 0
    config = write_json(tmp_path / "sim.json", {
        "rows": 30, "cols": 30, "k": 8, "delta_u": 0.6, "sigma": "uniform",
        "p_r": 0.04, "gamma": 9, "max_ticks": 300,
    })
    out = tmp_path / "traj.csv"
    code, _, _ = run_cli(capsys, "simulate", config,
                         "--seed", str(row.seed), "--out", str(out))
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


def _no_runs(monkeypatch):
    def run_started(*args, **kwargs):
        raise AssertionError("a run started")

    # both commands reach the engine through SimConfig.simulate
    monkeypatch.setattr("diffusim.sweep.simulate", run_started)


def test_simulate_rejects_uncoverable_max_ticks_before_running(
        tmp_path, capsys, monkeypatch):
    # 40 innovators at one per tick need 40 ticks
    _no_runs(monkeypatch)
    config = write_json(tmp_path / "sim.json", {
        **SMALL_SIM, "rows": 40, "cols": 40, "gamma": 1, "max_ticks": 30,
    })
    out = tmp_path / "traj.csv"
    code, _, err = run_cli(capsys, "simulate", config, "--out", str(out))
    assert code == EXIT_CONFIG
    assert "max_ticks" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_too_small_lattice_names_the_key(tmp_path, capsys, monkeypatch,
                                         command):
    _no_runs(monkeypatch)
    config = write_json(tmp_path / "c.json", {"rows": 1})
    code, _, err = run_cli(capsys, command, config,
                           "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    assert "rows" in err


@pytest.mark.parametrize("value", [30.9, True])
def test_integer_config_key_takes_only_integers(tmp_path, capsys, monkeypatch,
                                                 value):
    _no_runs(monkeypatch)
    config = write_json(tmp_path / "sim.json", {**SMALL_SIM, "rows": value})
    code, _, err = run_cli(capsys, "simulate", config,
                           "--out", str(tmp_path / "traj.csv"))
    assert code == EXIT_CONFIG
    assert "config key 'rows' must be an integer" in err


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "p_r", 10**400),
    ("sweep", "p_r_levels", [0.0, 10**400]),
])
def test_real_too_large_for_a_float_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                      command, key, value):
    _no_runs(monkeypatch)
    config = write_json(tmp_path / "c.json", {key: value})
    code, _, err = run_cli(capsys, command, config, "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    assert f"config key '{key}' must be a number that a float can hold" in err


@pytest.mark.parametrize("command, key, value, shown", [
    ("simulate", "delta_u", "0.6", '"0.6"'),
    ("sweep", "delta_u_levels", [True], "true"),
])
def test_real_config_key_takes_only_numbers(tmp_path, capsys, monkeypatch,
                                            command, key, value, shown):
    _no_runs(monkeypatch)
    config = write_json(tmp_path / "c.json", {key: value})
    code, _, err = run_cli(capsys, command, config, "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    assert f"config key '{key}' must be a number, got {shown}" in err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_config_file_must_hold_an_object(tmp_path, capsys, monkeypatch, command):
    _no_runs(monkeypatch)
    config = write_json(tmp_path / "c.json", [])
    code, _, err = run_cli(capsys, command, config, "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    assert f"config file {config} must hold a JSON object" in err
    assert not (tmp_path / "out").exists()


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


# ---- sweep ----


@pytest.mark.parametrize("make, keys", [
    (_sim_config, [
        ("rows", "int", "200"), ("cols", "int", "200"), ("k", "int", "8"),
        ("delta_u", "float", "0.6"), ("alpha", "float", "0.5"),
        ("sigma", "Pattern", '"uniform"'), ("p_r", "float", "0.0"),
        ("gamma", "int", "1000"), ("innovator_fraction", "float", "0.025"),
        ("max_ticks", "int", "500"),
    ]),
    (default_grid, [
        ("rows", "int", "200"), ("cols", "int", "200"),
        ("k_levels", "Sequence[int]", "[8, 4]"),
        ("delta_u_levels", "Sequence[float]", "[0.6, 0.8]"),
        ("sigma_levels", "Sequence[Pattern]",
         '["compact", "intermediate", "uniform"]'),
        ("p_r_levels", "Sequence[float]",
         "[0.0, 0.0025, 0.005, 0.01, 0.02, 0.04]"),
        ("gamma_levels", "Sequence[int]", "[125, 200, 250, 500, 1000]"),
        ("alpha", "float", "0.5"), ("max_ticks", "int", "500"),
    ]),
], ids=["simulate", "sweep"])
def test_config_format_is_the_builder_s_signature(make, keys):
    # simulate's config keys are _sim_config's parameters, sweep's are
    # default_grid's: a renamed parameter renames a user's key, a retyped
    # one changes its caster, a new default changes every run that omits it
    def as_json(default):
        return json.dumps(default, default=lambda pattern: pattern.value)

    assert [(name, param.annotation, as_json(param.default))
            for name, param in inspect.signature(make).parameters.items()] == keys


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
    assert manifest["numpy_version"] == np.__version__
    assert manifest["parameters"]["gamma_levels"] == [10, 40]
    assert manifest["parameters"]["sigma_levels"] == ["uniform"]
    assert set(manifest["parameters"]) == {
        "config_file", "rows", "cols", "alpha", "max_ticks", "k_levels",
        "delta_u_levels", "sigma_levels", "p_r_levels", "gamma_levels",
        "replications", "jobs", "envelopes_skipped_too_few_points",
    }
    assert len(manifest["outputs"]) == 2


def test_sweep_skips_envelope_of_unfitted_runs(tmp_path, capsys, monkeypatch):
    # two of the family's four runs cannot be fitted: two finite points left
    calls = []

    def fit_or_fail(traj):
        calls.append(traj)
        if len(calls) <= 2:
            raise DegenerateTrajectory("zero variance")
        return fit_bass(traj)

    monkeypatch.setattr("diffusim.sweep.fit_bass", fit_or_fail)
    config = write_json(tmp_path / "grid.json", SMALL_GRID)
    out = tmp_path / "run"
    code, _, _ = run_cli(capsys, "sweep", config, "--out", str(out))
    assert code == EXIT_OK
    assert "nan,nan" in (out / "sweep.csv").read_text()
    name = "envelope_k8_du0.8_uniform.csv"
    assert not (out / name).exists()
    manifest = json.loads((out / "sweep.csv.manifest.json").read_text())
    assert manifest["parameters"]["envelopes_skipped_too_few_points"] == [name]


def test_sweep_rejects_uncoverable_max_ticks_before_running(
        tmp_path, capsys, monkeypatch):
    # the first cell (gamma 40) could run; the second (gamma 1) cannot
    _no_runs(monkeypatch)
    config = write_json(tmp_path / "grid.json", {
        **SMALL_GRID, "p_r_levels": [0.0], "gamma_levels": [40, 1],
        "max_ticks": 30,
    })
    out = tmp_path / "run"
    code, _, err = run_cli(capsys, "sweep", config, "--out", str(out))
    assert code == EXIT_CONFIG
    assert "max_ticks" in err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("command, config", [
    ("simulate", {**SMALL_SIM, "rows": 20, "cols": 20, "sigma": "intermediate",
                  "innovator_fraction": 0.5, "gamma": 200}),
    ("sweep", {**SMALL_GRID, "rows": 2, "cols": 400, "p_r_levels": [0.0],
               "sigma_levels": ["compact", "intermediate"]}),
])
def test_innovator_placement_is_checked_before_running(
        tmp_path, capsys, monkeypatch, command, config):
    # the intermediate pattern's clusters overlap on these lattices
    _no_runs(monkeypatch)
    path = write_json(tmp_path / "c.json", config)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, command, path, "--out", str(out))
    assert code == EXIT_CONFIG
    assert "overlap" in err
    assert not out.exists()


def test_sweep_out_that_is_a_file_fails_before_running(
        tmp_path, capsys, monkeypatch):
    _no_runs(monkeypatch)
    config = write_json(tmp_path / "grid.json", SMALL_GRID)
    out = tmp_path / "taken"
    out.write_text("")
    code, _, err = run_cli(capsys, "sweep", config, "--out", str(out))
    assert code == EXIT_RUNTIME
    assert str(out) in err
    assert "a run started" not in err


def test_sweep_jobs_do_not_change_bytes(tmp_path, capsys):
    config = write_json(tmp_path / "grid.json", NINE_CELL_GRID)
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


def test_sweep_bad_sigma_level_names_the_key(tmp_path, capsys):
    config = write_json(tmp_path / "grid.json",
                        {**SMALL_GRID, "sigma_levels": ["clustered"]})
    code, _, err = run_cli(capsys, "sweep", str(config))
    assert code == EXIT_CONFIG
    assert "config key 'sigma_levels' must be one of" in err


# config files that a run could start from, outside the working directory
GRID = "../config/grid.json"
SIM = "../config/sim.json"


@pytest.mark.parametrize(
    "argv,named,message",
    [(["netstats", "--p-r", "1.5"], "--p-r",
      "p_r must be a real number in [0, 1], finite as a float, got 1.5"),
     (["bass", "0.03", "0.4", "--t-max", "-1", "--out", "curve.csv"], "--t-max",
      "t_max must be an integer >= 0, got -1"),
     # a config file that does not exist: the counts are checked first
     (["sweep", "grid.json", "--replications", "0"], "--replications",
      "replications must be an integer >= 1, got 0"),
     (["sweep", GRID, "--jobs", "0"], "--jobs", "jobs must be an integer >= 1, got 0"),
     (["sweep", GRID, "--jobs", "-2"], "--jobs",
      "jobs must be an integer >= 1, got -2"),
     (["netstats", "--sample", "0"], "--sample",
      "sample must be an integer >= 1, got 0"),
     *[([*command, "--seed", str(seed)], "--seed",
        f"seed must be an integer in [0, {2**64 - 1}], got {seed}")
       for command in (["simulate", SIM], ["sweep", GRID], ["netstats"])
       for seed in (-1, 2**64)]],
    ids=["netstats-p-r", "bass-t-max", "replications", "jobs", "negative-jobs",
         "sample", *(f"{command}-seed-{seed}"
                     for command in ("simulate", "sweep", "netstats")
                     for seed in ("-1", "2**64"))],
)
def test_out_of_range_argument_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                argv, named, message):
    (tmp_path / "config").mkdir()
    write_json(tmp_path / "config" / "grid.json", SMALL_GRID)
    write_json(tmp_path / "config" / "sim.json", SMALL_SIM)
    _no_runs(monkeypatch)
    # run in an empty directory, so that any file the command wrote shows
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert f"error: argument {named}: {message}" in err
    assert out == "" and not os.listdir(work)


@pytest.mark.parametrize("argv", [["sweep", "grid.json", "--jobs", "abc"],
                                  ["netstats", "--sample", "2.5"],
                                  ["netstats", "--seed", "0x1"]])
def test_non_integer_count_or_seed_is_a_usage_error(tmp_path, capsys,
                                                    monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert f"argument {argv[-2]}: invalid int value" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


# ---- envelope ----


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    # shared small sweep so envelope tests do not re-simulate
    tmp_path = tmp_path_factory.mktemp("sweep")
    config = tmp_path / "grid.json"
    config.write_text(json.dumps(NINE_CELL_GRID))
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


def test_envelope_rejects_non_finite_points(sweep_dir, tmp_path, capsys):
    points = tmp_path / "pts.csv"
    points.write_text("label,p,q\nfar,0.9,0.05\nx,nan,nan\n")
    code, out, err = run_cli(capsys, "envelope", str(sweep_dir / "sweep.csv"),
                             "--k", "8", "--delta-u", "0.8",
                             "--sigma", "uniform",
                             "--points", str(points),
                             "--out", str(tmp_path / "env.csv"))
    assert code == EXIT_CONFIG
    assert f"malformed points CSV {points}" in err
    assert "'x' is not finite" in err
    assert "inside" not in out
    assert not (tmp_path / "env.csv").exists()


def test_envelope_missing_family_is_runtime_failure(sweep_dir, tmp_path,
                                                    capsys):
    # the shared sweep has no k=4 rows, so the filter leaves too few points
    code, _, err = run_cli(capsys, "envelope", str(sweep_dir / "sweep.csv"),
                           "--k", "4", "--delta-u", "0.8",
                           "--sigma", "uniform",
                           "--out", str(tmp_path / "env.csv"))
    assert code == EXIT_RUNTIME
    assert "envelope" in err


def test_envelope_needs_no_run_parameters_in_the_manifest(sweep_dir, tmp_path,
                                                          capsys):
    # the sweep CSV's rows hold every field the envelope reads
    sweep_csv = tmp_path / "sweep.csv"
    sweep_csv.write_bytes((sweep_dir / "sweep.csv").read_bytes())
    manifest_path(sweep_csv).write_text('{"parameters": {}}')
    code, _, err = run_cli(capsys, "envelope", str(sweep_csv),
                           "--k", "8", "--delta-u", "0.8", "--sigma", "uniform",
                           "--out", str(tmp_path / "env.csv"))
    assert code == EXIT_OK, err
    assert (tmp_path / "env.csv").read_text().startswith("p,q\n")


def test_envelope_malformed_sweep_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    code, _, err = run_cli(capsys, "envelope", str(bad),
                           "--k", "8", "--delta-u", "0.8",
                           "--sigma", "uniform")
    assert code == EXIT_CONFIG


def test_envelope_short_sweep_row_is_config_error(sweep_dir, tmp_path, capsys):
    bad = tmp_path / "sweep.csv"
    bad.write_text((sweep_dir / "sweep.csv").read_text() + "8,0.6,uniform,0.0,5\n")
    code, _, err = run_cli(capsys, "envelope", str(bad),
                           "--k", "8", "--delta-u", "0.8", "--sigma", "uniform",
                           "--out", str(tmp_path / "env.csv"))
    assert code == EXIT_CONFIG
    assert f"malformed sweep CSV {bad}: line " in err


def test_envelope_short_points_row_is_config_error(sweep_dir, tmp_path, capsys):
    points = tmp_path / "pts.csv"
    points.write_text("label,p,q\nBass,0.03\n")
    code, _, err = run_cli(capsys, "envelope", str(sweep_dir / "sweep.csv"),
                           "--k", "8", "--delta-u", "0.8", "--sigma", "uniform",
                           "--points", str(points),
                           "--out", str(tmp_path / "env.csv"))
    assert code == EXIT_CONFIG
    assert f"malformed points CSV {points}: line 2 has 2 fields" in err
    assert not (tmp_path / "env.csv").exists()


@pytest.mark.parametrize(
    "k,delta_u,sigma,named",
    [("6", "0.6", "compact", "--k"), ("8", "0.6", "clustered", "sigma"),
     # a non-finite delta_u would match no record
     ("8", "nan", "uniform", "--delta-u: delta_u must be a real number"),
     ("8", "-inf", "uniform", "--delta-u: delta_u must be a real number")],
)
def test_envelope_checks_arguments_before_reading(tmp_path, capsys, k, delta_u,
                                                  sigma, named):
    # the sweep CSV does not exist, so only an argument check can name the
    # bad argument
    code, _, err = run_cli(capsys, "envelope", str(tmp_path / "missing.csv"),
                           "--k", k, f"--delta-u={delta_u}", "--sigma", sigma)
    assert code == EXIT_CONFIG
    assert named in err
    assert "sweep CSV" not in err


def test_envelope_bad_sigma_names_the_argument(tmp_path, capsys):
    code, _, err = run_cli(capsys, "envelope", str(tmp_path / "x.csv"),
                           "--k", "8", "--delta-u", "0.6",
                           "--sigma", "clustered")
    assert code == EXIT_CONFIG
    assert "argument --sigma must be one of" in err
    assert "config key" not in err


def test_commands_without_seed_record_a_null_seed(sweep_dir, tmp_path,
                                                  capsys):
    curve = tmp_path / "curve.csv"
    fit = tmp_path / "fit.json"
    hull = tmp_path / "env.csv"
    for argv in (
        ["bass", "0.03", "0.4", "--out", str(curve)],
        ["fit", str(curve), "--out", str(fit)],
        ["envelope", str(sweep_dir / "sweep.csv"), "--k", "8",
         "--delta-u", "0.8", "--sigma", "uniform", "--out", str(hull)],
    ):
        code, _, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
    for out in (curve, fit, hull):
        manifest = json.loads(manifest_path(out).read_text())
        assert manifest["master_seed"] is None
        assert manifest["numpy_version"] == np.__version__


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


def test_roi_rejects_a_pair_without_a_takeoff_time(capsys):
    code, out, err = run_cli(
        capsys, "roi",
        "--base-p", "0.01", "--base-q", "0.35",
        "--boost-p", "1e308", "--boost-q", "1e308",
        "--t-star", "15", "--profit-per-adopter", "2.5", "--investment", "0",
    )
    assert code == EXIT_CONFIG
    assert out == ""
    assert "argument --boost-q: " in err
    assert "p=1e+308, q=1e+308" in err


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


@pytest.mark.parametrize(
    "option", ["--t-star", "--profit-per-adopter", "--investment", "--roi-min"]
)
def test_roi_rejects_nan_argument(capsys, option):
    values = {"--t-star": "15", "--profit-per-adopter": "2.5",
              "--investment": "0", "--roi-min": "0", option: "nan"}
    code, out, err = run_cli(
        capsys, "roi",
        "--base-p", "0.01", "--base-q", "0.35",
        "--boost-p", "0.01", "--boost-q", "0.45",
        *(item for pair in values.items() for item in pair),
    )
    assert code == EXIT_CONFIG
    assert option[2:].replace("-", "_") in err
    assert out == ""


@pytest.mark.parametrize("option", ["--base-q", "--boost-q"])
def test_roi_zero_q_names_its_strategy(capsys, option):
    values = {"--base-q": "0.35", "--boost-q": "0.45", option: "0"}
    code, out, err = run_cli(
        capsys, "roi", "--base-p", "0.01", "--boost-p", "0.01",
        *(item for pair in values.items() for item in pair),
        "--t-star", "15", "--profit-per-adopter", "2.5", "--investment", "0",
    )
    assert code == EXIT_CONFIG
    assert f"argument {option}:" in err
    assert out == ""


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


@pytest.mark.parametrize("k", [4, 8])
@pytest.mark.parametrize("p_r", [0.0, 0.04])
def test_netstats_describes_the_network_a_run_uses(capsys, monkeypatch, k, p_r):
    # netstats repeats realize()'s network step, so at a row's seed it must
    # summarize that row's network
    seen = []

    def spy(net, **kwargs):
        seen.append(net)
        return network_stats(net, **kwargs)

    monkeypatch.setattr("diffusim.cli.network_stats", spy)
    code, _, _ = run_cli(capsys, "netstats", "--rows", "12", "--cols", "12",
                         "--k", str(k), "--p-r", str(p_r), "--seed", "7",
                         "--sample", "4")
    assert code == EXIT_OK
    run_net = SimConfig(LatticeSpec(12, 12, Neighborhood.for_k(k)), 0.6,
                        Pattern.UNIFORM, p_r, 4, seed=7).realize()[0]
    [net] = seen
    assert np.array_equal(net.neighbor_table, run_net.neighbor_table)


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
    manifest = json.loads((tmp_path / "stats.json.manifest.json").read_text())
    assert manifest["numpy_version"] == np.__version__


# ---- options a command does not take ----


@pytest.mark.parametrize(
    "argv",
    [["takeoff", "0.1", "0.4", "--out", "x"],
     ["roi", "--base-p", "0.01", "--base-q", "0.35", "--boost-p", "0.01",
      "--boost-q", "0.45", "--t-star", "15", "--profit-per-adopter", "2.5",
      "--investment", "0", "--seed", "1"],
     ["fit", "trajectory.csv", "--seed", "1"]],
    ids=["takeoff-out", "roi-seed", "fit-seed"],
)
def test_unused_option_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


# ---- process-level behaviour ----


_SCIPY_LOADS_ONLY_FOR_NETSTATS = """
import json, sys
from diffusim import cli
from diffusim.network import LatticeSpec, Neighborhood, build_lattice, network_stats

def modules(prefix):
    return sorted(name for name in sys.modules if name.startswith(prefix))

config, out = sys.argv[1:]
assert cli.main(["sweep", config, "--out", out]) == 0
after_sweep = modules("scipy")
pool_after_sweep = modules("concurrent.futures")
ma_after_sweep = "numpy.ma" in sys.modules
stats = network_stats(build_lattice(LatticeSpec(5, 5, Neighborhood.MOORE)), 25)
print(json.dumps({"after_sweep": after_sweep,
                  "pool_after_sweep": pool_after_sweep,
                  "ma_after_sweep": ma_after_sweep,
                  "after_netstats": modules("scipy"),
                  "mean_degree": stats.mean_degree}))
"""


def test_sweep_loads_no_scipy_until_network_stats(tmp_path):
    # a fresh interpreter, so that no other test has imported scipy already;
    # four compact runs, one of them rewired, give one envelope
    config = write_json(tmp_path / "grid.json", {
        "rows": 20, "cols": 20, "k_levels": [4], "delta_u_levels": [0.6],
        "sigma_levels": ["compact"], "p_r_levels": [0.0, 0.04],
        "gamma_levels": [1, 5], "max_ticks": 200,
    })
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_LOADS_ONLY_FOR_NETSTATS, config,
         str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["after_sweep"] == []
    # a --jobs 1 sweep runs in-process and never loads the process pool
    assert loaded["pool_after_sweep"] == []
    # the hull dedupes its points without loading numpy.ma
    assert (tmp_path / "out" / "envelope_k4_du0.6_compact.csv").exists()
    assert loaded["ma_after_sweep"] is False
    assert "scipy.sparse.csgraph" in loaded["after_netstats"]
    assert loaded["mean_degree"] == pytest.approx(2 * 72 / 25)


# ---- a closed stdout ----

NETSTATS_10x10 = ["netstats", "--k", "8", "--rows", "10", "--cols", "10",
                  "--sample", "5", "--p-r", "0.1"]


class ClosedStdout:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [["takeoff", "0.03", "0.4"], NETSTATS_10x10],
                         ids=["takeoff", "netstats"])
def test_closed_stdout_is_no_failure(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_broken_pipe_elsewhere_is_a_runtime_failure(capsys, monkeypatch):
    def broken(params):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("diffusim.cli.takeoff_time", broken)
    code, _, err = run_cli(capsys, "takeoff", "0.03", "0.4")
    assert code == EXIT_RUNTIME
    assert "runtime failure: [Errno 32] Broken pipe" in err


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_pipe_on_stdout_exits_zero_without_a_traceback(unbuffered):
    # the pipe's read end is closed before the command starts, as `| head -1`
    # closes it after one line; buffered, a failed write would otherwise
    # surface only when the interpreter flushes stdout at exit
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "diffusim.cli", *NETSTATS_10x10],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_OK
    assert proc.stderr == ""


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
