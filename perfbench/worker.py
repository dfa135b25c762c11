"""One measurement of one workload, in a fresh interpreter.

Started by run.py, which times its set-up separately (`--setup-only`). The
worker runs untraced passes until `--seconds` have passed and the workload's
minimum pass count is reached, and checks every pass's per-run outputs.
The host's speed is probed at the start and end of each pass, before each
run and on every tick of a sequential run, and each pass's wall and CPU
time are rescaled to the reference speed (see hostspeed.py). With
`--trace 1` it then runs one traced pass, from which the per-layer metrics
come, and one more untraced pass. It writes a JSON result to `--result`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median

import analysis
import checks
import hostspeed
import tracing
from specs import DEFAULT_SEED, SPECS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# margin per remaining pass against the deadline; a traced run still has a
# slower traced pass and one more untraced pass to go
PASS_MARGIN = 1.3
TRACED_PASS_MARGIN = 1.5 + 1.3


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def timed_pass(workload, tracer) -> dict:
    tracer.runs, tracer.counts, tracer.spans = {}, Counter(), []
    tracer.speed = hostspeed.SpeedLog()
    own0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    with tracer.span("bench.pass"):
        tracer.mark_speed()
        rc = workload.run_pass()
        tracer.mark_speed()
    wall = time.perf_counter() - start
    own1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = _cpu(own1) - _cpu(own0) + _cpu(kids1) - _cpu(kids0)
    # the probes' own time is left out of wall and CPU time alike; CPU time
    # slows with the host as wall time does, so it is rescaled by the same
    # factor as the wall time of the pass
    work, norm_wall = tracer.speed.work_seconds()
    norm_cpu = (cpu - tracer.speed.probe_seconds()) * norm_wall / work

    pid = os.getpid()
    engine_runs = dict(tracer.runs)
    spans = [(pid, *s) for s in tracer.spans]
    counts = Counter(tracer.counts)
    for worker in tracer.collect_workers():
        engine_runs.update({int(k): v for k, v in worker["runs"].items()})
        spans.extend((worker["pid"], *s) for s in worker["spans"])
        counts.update(worker["counts"])
    rows, sha = workload.outputs(engine_runs)
    return {
        "wall": wall,
        "cpu_self": _cpu(own1) - _cpu(own0),
        "cpu_children": _cpu(kids1) - _cpu(kids0),
        "norm_wall": norm_wall,
        "norm_cpu": norm_cpu,
        "speed_scale": norm_wall / work,
        "rc": rc,
        "rows": rows,
        "sha256": sha,
        "spans": spans,
        "counts": counts,
    }


def check(passes: list[dict], expected, reference) -> tuple[int, int, list[str]]:
    """(attempted, failed, problem lines) over all passes. A pass must also
    reproduce the first pass's outputs exactly."""
    attempted = failed = 0
    lines = []
    first = {(r["index"], r["replication"]): r for r in passes[0]["rows"]}
    for n, p in enumerate(passes, 1):
        attempted += len(expected)
        if p["rc"] != 0:
            failed += len(expected)
            lines.append(f"pass {n}: command exited with {p['rc']}")
            continue
        problems = checks.check_pass(p["rows"], expected, reference)
        for row in p["rows"]:
            key = (row["index"], row["replication"])
            if row != first.get(key):
                problems.setdefault(key, []).append("differs from pass 1")
        failed += len(problems)
        lines += [
            f"pass {n} run {key}: " + "; ".join(found)
            for key, found in sorted(problems.items())
        ]
    return attempted, failed, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget", type=float, default=150.0)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    begun = time.perf_counter()

    import diffusim

    src = (ROOT / "src").resolve()
    if src not in Path(diffusim.__file__).resolve().parents:
        print(f"error: imported diffusim from {diffusim.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import workloads

    spec = SPECS[args.workload]
    out_dir = HERE / "out" / f"{spec.name}-seed{args.seed}"
    (out_dir / "workers").mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer(worker_dir=out_dir / "workers")
    workload = workloads.Workload(spec, args.seed, out_dir, tracer)
    if args.setup_only:
        return 0

    tracer.install(tracing.OUTPUT_HOOKS)
    expected = workloads.expected_runs(spec, args.seed)
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = checks.read_runs(HERE / "reference" / f"{spec.reference}.csv")

    deadline = begun + args.budget
    margin = PASS_MARGIN + (TRACED_PASS_MARGIN if args.trace else 0.0)
    passes = []
    while True:
        passes.append(timed_pass(workload, tracer))
        now = time.perf_counter()
        if now - begun >= args.seconds and len(passes) >= spec.min_passes:
            break
        if now + margin * max(p["wall"] for p in passes) > deadline:
            break

    traced = None
    if args.trace:
        tracer.install()
        tracer.spans_on = True
        traced = timed_pass(workload, tracer)
        tracer.spans_on = False
        # an untraced pass on each side, so drift in host speed does not
        # pass for tracing overhead
        passes.append(timed_pass(workload, tracer))
        missing = analysis.missing_layers(traced["spans"], spec.layers)
        if missing:
            print(f"error: traced {spec.name} recorded no calls into "
                  f"layers that do its work: {', '.join(missing)}", file=sys.stderr)
            return 1

    attempted, failed, problems = check(
        passes + ([traced] if traced else []), expected, reference
    )
    runs_file = HERE / "out" / f"{spec.name}-seed{args.seed}-runs.csv"
    checks.write_runs(runs_file, passes[-1]["rows"])
    sha_reference = json.loads((HERE / "reference" / "sha256.json").read_text())

    result = {
        "passes": [
            {k: p[k] for k in ("wall", "cpu_self", "cpu_children", "norm_wall",
                               "norm_cpu", "rc")}
            for p in passes
        ],
        "runs_per_pass": len(expected),
        "peak_rss_kb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ),
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "sha256": passes[-1]["sha256"],
        "sha256_reference": sha_reference.get(spec.reference),
        "runs_file": str(runs_file.relative_to(ROOT)),
        "layers": None,
    }
    if traced is not None:
        spans_file = HERE / "out" / f"{spec.name}-seed{args.seed}-spans.jsonl"
        with open(spans_file, "w") as fh:
            for s in traced["spans"]:
                fh.write(json.dumps(dict(zip(
                    ("pid", "id", "name", "start", "end", "parent", "run"), s
                ))) + "\n")
        # the traced pass against the untraced ones, all at reference host
        # speed, so that a change in host speed does not pass for overhead
        result["layers"] = analysis.layer_metrics(
            traced["spans"], traced["counts"], traced["norm_wall"],
            median(p["norm_wall"] for p in passes),
            traced["speed_scale"],
            analysis.pool_metrics(spec.jobs, passes),
        )
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
