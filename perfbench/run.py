"""Benchmark of the diffusim sweep: end-to-end metrics, or per-layer ones.

    python3 perfbench/run.py --workload grid360 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere inside a source checkout; the package is imported from
the checkout's `src/`. With `--trace 0` it times set-up in fresh
interpreters, then runs the workload's timed passes in another fresh
interpreter and prints every end-to-end metric. With `--trace 1` it adds a
traced pass and prints every per-layer metric instead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Per-run outputs, spans and a result file with the environment go to
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from analysis import metric_units  # noqa: E402
from specs import BENCHMARKED, DEFAULT_SEED, SPECS  # noqa: E402

SETUP_PROBES = 7
# every invocation must end within 180 s; this leaves room to report
DEADLINE_S = 170.0


def environment() -> dict:
    """Machine and software the numbers were measured on."""
    env = {
        "nproc": os.cpu_count(),
        "cpu_model": None,
        "caches": {},
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "load_average": list(os.getloadavg()),
        "commit": None,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            env["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    try:
        if (ROOT / ".git").exists():  # a plain checkout has no commit to report
            env["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return env


def worker_cmd(name: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", name,
            "--seed", str(seed), *extra]


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group. Past the deadline the whole
    group is killed, the sweep's pool workers with it, and reaped."""
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def setup_seconds(name: str, seed: int, deadline: float) -> float:
    """Median wall time of fresh interpreters that import the package and
    build the workload's inputs, then exit. One untimed start first fills
    the bytecode cache, which users pay once. Unlike the passes, set-up is
    not rescaled by host speed: it is mostly loading shared libraries and
    bytecode, which slows far less than the probe when the host is loaded,
    so rescaling would add noise rather than remove it."""
    times = []
    for n in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = run_child(worker_cmd(name, seed, "--setup-only"), deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"{name}: set-up failed\n{proc.stderr.strip()}")
        if n:
            times.append(time.perf_counter() - start)
    return median(times)


def measure(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    spec = SPECS[name]
    setup = None if trace else setup_seconds(name, seed, deadline)
    result_file = HERE / "out" / f"{name}-seed{seed}-worker.json"
    result_file.unlink(missing_ok=True)
    budget = deadline - time.perf_counter() - 5.0
    proc = run_child(
        worker_cmd(name, seed, "--seconds", str(seconds), "--trace", str(int(trace)),
                   "--budget", str(budget), "--result", str(result_file)),
        deadline,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{name}: worker exited with {proc.returncode}\n{proc.stderr.strip()}"
        )
    res = json.loads(result_file.read_text())
    if trace:
        metrics = res["layers"]
    else:
        wall = median(p["norm_wall"] for p in res["passes"])
        metrics = {
            "setup_s": setup,
            "wall_s": wall,
            "runs_per_s": res["runs_per_pass"] / wall,
            "cpu_s": median(p["norm_cpu"] for p in res["passes"]),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }
    return {"workload": name, "spec": spec, "seed": seed, "trace": trace,
            "metrics": metrics, **res}


def units(trace: bool) -> dict[str, str]:
    if trace:
        return metric_units()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"]}


def report(m: dict, env: dict) -> None:
    spec = m["spec"]
    passes = m["passes"]
    print(f"workload {spec.name} (seed {m['seed']}, {'traced' if m['trace'] else 'untraced'}): "
          f"{spec.why}")
    walls = ", ".join(f"{p['wall']:.3f}" for p in passes)
    rescaled = ", ".join(f"{p['norm_wall']:.3f}" for p in passes)
    print(f"  {len(passes)} timed pass(es) of {m['runs_per_pass']} runs; "
          f"pass walls {walls} s; at reference host speed {rescaled} s")
    names = units(m["trace"])
    metrics = m["metrics"]
    for name, unit in names.items():
        value = metrics[name]
        extra = ""
        if name.endswith(".ms_tail"):
            base = name[: -len(".ms_tail")]
            extra = (f"  (p{metrics[base + '.ms_tail_pct']:.2f}, "
                     f"n={metrics.get(base + '.calls', 0)})")
        print(f"  {name:32s} {value:>14.6g} {unit}{extra}")
    share = m["failed"] / m["attempted"]
    print(f"  {'failed_run_share':32s} {share:>14.6g} fraction "
          f"({m['failed']} of {m['attempted']} runs)")
    for line in m["problems"]:
        print(f"    {line}")
    if m["sha256"]:
        if m["seed"] != DEFAULT_SEED:
            verdict = f"the reference is for seed {DEFAULT_SEED}"
        elif m["sha256"] == m["sha256_reference"]:
            verdict = "equals the reference"
        else:
            verdict = "differs from the reference; information only"
        print(f"  sweep.csv sha256 {m['sha256']} ({verdict})")
    print(f"  per-run outputs: {m['runs_file']}")
    out = HERE / "out" / f"{spec.name}-seed{m['seed']}{'-traced' if m['trace'] else ''}.json"
    record = {k: v for k, v in m.items() if k != "spec"}
    out.write_text(json.dumps({**record, "environment": env}, indent=2) + "\n")


def main(argv=None) -> int:
    began = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*SPECS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"master seed (default {DEFAULT_SEED})")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="timed passes repeat until this long has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "diffusim" / "__init__.py").is_file():
        print(f"error: no diffusim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must fit an unsigned 64-bit integer", file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)

    env = environment()
    print(f"environment: {json.dumps(env)}")
    names = list(BENCHMARKED) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            deadline = (time.perf_counter() if len(names) > 1 else began) + DEADLINE_S
            results.append(measure(name, args.seed, args.seconds, bool(args.trace), deadline))
            report(results[-1], env)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    names_units = units(bool(args.trace))
    if len(results) == 1:
        metrics = {n: {"value": results[0]["metrics"][n], "unit": u}
                   for n, u in names_units.items()}
    else:
        metrics = {f"{r['workload']}.{n}": {"value": r["metrics"][n], "unit": u}
                   for r in results for n, u in names_units.items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
