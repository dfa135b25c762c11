"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/selftest.py

The exact-count test runs every workload traced twice at seed 0 and takes
about eight minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import analysis  # noqa: E402
import checks  # noqa: E402
import hostspeed  # noqa: E402
from specs import BENCHMARKED, SPECS  # noqa: E402

EXACT = [
    name for name in analysis.metric_units()
    if name.endswith(".calls") or name in analysis.EXACT_COUNTS
]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tail_is_the_eleventh_largest_sample():
    assert analysis.tail([]) == (0.0, 0.0)
    assert analysis.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = analysis.tail([float(v) for v in range(1, 31)])
    assert value == 20.0  # ten samples (21..30) lie beyond it
    assert pct == pytest.approx(100.0 * 20 / 30)


def test_self_time_subtracts_children_in_the_same_process():
    spans = [
        (1, 0, "cli.main", 0.0, 10.0, None, None),
        (1, 1, "sweep.run_once", 1.0, 4.0, 0, 7),
        (1, 2, "engine.simulate", 2.0, 3.0, 1, 7),
        (2, 1, "engine.simulate", 0.0, 5.0, None, 8),  # same id, other pid
    ]
    times = {(name, dur): own for name, dur, own in analysis.span_times(spans)}
    assert times[("cli.main", 10.0)] == pytest.approx(7.0)
    assert times[("sweep.run_once", 3.0)] == pytest.approx(2.0)
    assert times[("engine.simulate", 5.0)] == pytest.approx(5.0)


def test_speed_log_rescales_each_stretch_by_its_two_probes():
    ref = hostspeed.REFERENCE_S
    log = hostspeed.SpeedLog()
    # probes of ref, 2 ref and ref around stretches of 1 s and 2 s
    log.marks = [(0.0, ref), (1.0 + ref, 1.0 + 3 * ref), (3.0 + 3 * ref, 3.0 + 4 * ref)]
    measured, rescaled = log.work_seconds()
    assert measured == pytest.approx(3.0)
    assert rescaled == pytest.approx(1.0 / 1.5 + 2.0 / 1.5)
    assert log.probe_seconds() == pytest.approx(4 * ref)


def test_reference_tolerance():
    ref = {"index": 0, "replication": 0, "seed": 5, "saturation_tick": 90,
           "ticks": 90, "final_adopters": 40000, "p": 0.01, "q": 1.0,
           "r_squared": 0.99}
    assert checks.reference_problems(dict(ref, p=0.01 * (1 + 7e-4)), ref) == []
    assert checks.reference_problems(dict(ref, r_squared=0.995), ref) == []
    assert checks.reference_problems(dict(ref, p=0.01 * (1 + 2e-3)), ref)
    assert checks.reference_problems(dict(ref, r_squared=0.98), ref)
    assert checks.reference_problems(dict(ref, ticks=91), ref)


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(BENCHMARKED)
    assert all(w["why"] == SPECS[w["name"]].why for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == analysis.metric_units()
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "lattice_sync", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", list(SPECS))
def test_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "1")
    first, second = bench(*args), bench(*args)
    for proc in (first, second):
        assert proc.returncode == 0, proc.stderr
        assert last_json(proc)["correct"]
    a, b = last_json(first)["metrics"], last_json(second)["metrics"]
    assert {n: a[n]["value"] for n in EXACT} == {n: b[n]["value"] for n in EXACT}
