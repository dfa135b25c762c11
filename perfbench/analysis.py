"""Per-layer metrics from a traced pass's spans and exact counts.

A span's self time is its duration minus the durations of its child spans
(children never overlap: each process records from one thread). Spans are
tuples (pid, id, name, start, end, parent id, run id).
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

from specs import LAYERS

# functions whose calls, self time or per-call latency are reported:
# "calls", "s" (total self time), "ms" (p50 and tail of the per-call duration)
FUNCTIONS = (
    ("network.build_lattice", ("calls", "s")),
    ("network.rewire", ("calls", "s", "ms")),
    ("network.SocialNetwork", ("calls", "s")),
    ("seeding.build_plan", ("calls", "s")),
    ("engine.simulate", ("calls", "s", "ms")),
    ("calibrate.fit_bass", ("calls", "s", "ms")),
    ("bass.takeoff_time", ("calls", "s")),
    ("sweep.run_once", ("calls", "ms")),
    ("sweep.envelope", ("s",)),
    ("sweep.write_sweep_csv", ("s",)),
    ("sweep.write_envelope_csv", ("s",)),
)

# counts taken by the tracer's observers; exact for one commit and seed
EXACT_COUNTS = (
    "network.edges_rewired",
    "engine.ticks",
    "engine.unsaturated_runs",
    "calibrate.iterations",
    "calibrate.capped_fits",
    "calibrate.q_at_bound_fits",
    "sweep.output_bytes",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units: dict[str, str] = {}
    for fn, kinds in FUNCTIONS:
        if "calls" in kinds:
            units[f"{fn}.calls"] = "count"
        if "s" in kinds:
            units[f"{fn}.s"] = "s"
        if "ms" in kinds:
            units[f"{fn}.ms_p50"] = "ms"
            units[f"{fn}.ms_tail"] = "ms"
            units[f"{fn}.ms_tail_pct"] = "%"
    for name in EXACT_COUNTS:
        units[name] = "B" if name == "sweep.output_bytes" else "count"
    units.update({
        "engine.us_per_tick": "us",
        "calibrate.us_per_iteration": "us",
        "sweep.self_s": "s",
        "sweep.pool.worker_cpu_s": "s",
        "sweep.pool.utilization": "fraction",
        "sweep.pool.idle_s": "s",
        "cli.main.s": "s",
        "cli.self_s": "s",
    })
    for layer in LAYERS + ("bench", "trace"):
        units[f"layer.{layer}.s"] = "s"
    units["trace.overhead_frac"] = "fraction"
    units["trace.layer_sum_frac"] = "fraction"
    return units


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it: the 11th largest value. With ten samples or fewer no
    percentile qualifies and the maximum is given as p100."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    ordered = sorted(values)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def span_times(spans: list) -> list[tuple[str, float, float]]:
    """(name, duration, self time) for every span."""
    child = defaultdict(float)
    for pid, _sid, _name, start, end, parent, _run in spans:
        if parent is not None:
            child[(pid, parent)] += end - start
    return [
        (name, end - start, end - start - child[(pid, sid)])
        for pid, sid, name, start, end, _parent, _run in spans
    ]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(
    spans: list,
    counts: dict[str, int],
    traced_wall: float,
    untraced_wall: float,
    speed_scale: float,
    pool: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics of one traced pass. The walls are at reference host
    speed; speed_scale takes the pass's raw self times to that speed."""
    times = span_times(spans)
    durations = defaultdict(list)
    self_total = defaultdict(float)
    layer_self = defaultdict(float)
    for name, dur, own in times:
        durations[name].append(dur)
        self_total[name] += own
        layer_self[layer_of(name)] += own

    out: dict[str, float] = {}
    for fn, kinds in FUNCTIONS:
        d = durations.get(fn, [])
        if "calls" in kinds:
            out[f"{fn}.calls"] = len(d)
        if "s" in kinds:
            out[f"{fn}.s"] = self_total.get(fn, 0.0)
        if "ms" in kinds:
            value, pct = tail(d)
            out[f"{fn}.ms_p50"] = 1e3 * median(d) if d else 0.0
            out[f"{fn}.ms_tail"] = 1e3 * value
            out[f"{fn}.ms_tail_pct"] = pct
    for name in EXACT_COUNTS:
        out[name] = int(counts.get(name, 0))

    ticks = out["engine.ticks"]
    iterations = out["calibrate.iterations"]
    out["engine.us_per_tick"] = (
        1e6 * sum(durations.get("engine.simulate", [])) / ticks if ticks else 0.0
    )
    out["calibrate.us_per_iteration"] = (
        1e6 * sum(durations.get("calibrate.fit_bass", [])) / iterations
        if iterations else 0.0
    )
    out["sweep.self_s"] = self_total.get("sweep.run_sweep", 0.0)
    out.update(pool)
    out["cli.main.s"] = sum(durations.get("cli.main", []), 0.0)  # inclusive
    out["cli.self_s"] = layer_self.get("cli", 0.0)
    for layer in LAYERS + ("bench", "trace"):
        out[f"layer.{layer}.s"] = layer_self.get(layer, 0.0)
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    out["trace.layer_sum_frac"] = (
        speed_scale * sum(layer_self.get(layer, 0.0) for layer in LAYERS) / untraced_wall
    )
    return {name: out[name] for name in metric_units()}


def pool_metrics(jobs: int, passes: list[dict]) -> dict[str, float]:
    """Pool work measured from outside: the CPU time of the pass's children
    (RUSAGE_CHILDREN), against jobs x wall. Zero when no pool runs."""
    if jobs <= 1:
        return {
            "sweep.pool.worker_cpu_s": 0.0,
            "sweep.pool.utilization": 0.0,
            "sweep.pool.idle_s": 0.0,
        }
    cpu = median(p["cpu_children"] for p in passes)
    wall = median(p["wall"] for p in passes)
    return {
        "sweep.pool.worker_cpu_s": cpu,
        "sweep.pool.utilization": cpu / (jobs * wall),
        "sweep.pool.idle_s": jobs * wall - cpu,
    }


def missing_layers(spans: list, expected: tuple[str, ...]) -> list[str]:
    seen = {layer_of(s[2]) for s in spans}
    return [layer for layer in expected if layer not in seen]
