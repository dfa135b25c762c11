"""In-memory spans around calls into diffusim's public functions.

`Tracer.install` replaces each public function of the layer modules, matched
by identity, in every loaded `diffusim.*` module namespace, so a call site a
refactor moves to another module stays traced. Nothing under `src/` changes.

A span is (id, name, start, end, parent id, run id). Spans, per-run
outputs and host-speed probes stay in memory; pool workers forked by the
sweep inherit the wrappers and write what they recorded to one JSON file
each when they exit.
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing.util
import os
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import hostspeed
from specs import LAYERS


# classes whose constructor is traced as a function of its layer
TRACED_CONSTRUCTORS = {"network": ("SocialNetwork",)}

# wrapped even when spans are off: the output check needs every run's
# engine result, keyed by the run it belongs to, and a probe of the host's
# speed before each run
OUTPUT_HOOKS = ("engine.simulate", "sweep.run_once")

OBSERVE_SPAN = "trace.observe"
PROBE_SPAN = "bench.probe"


def _modules():
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "diffusim" or name.startswith("diffusim."))
    }


def public_callables() -> dict[str, tuple[object, str, object]]:
    """Span name -> (owner, attribute, original) for every traced callable."""
    found = {}
    mods = _modules()
    for layer in LAYERS:
        mod = mods.get(f"diffusim.{layer}")
        if mod is None:
            raise RuntimeError(f"diffusim.{layer} is not loaded")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            found[f"{layer}.{attr}"] = (mod, attr, obj)
        for cls_name in TRACED_CONSTRUCTORS.get(layer, ()):
            cls = getattr(mod, cls_name)
            found[f"{layer}.{cls_name}"] = (cls, "__init__", cls.__init__)
    return found


class Tracer:
    """Span and observation store for one process.

    spans_on selects whether wrappers record spans; observers (per-run
    outputs and the exact counts) run whenever their function is wrapped.
    Forked pool workers write what they recorded to `worker_dir`.
    """

    def __init__(self, worker_dir: Path):
        self.spans_on = False
        self.worker_dir = worker_dir
        self._wrapped: dict[int, object] = {}  # id(original) -> wrapper
        self._wrappers: set[int] = set()
        self.lattice_keys: dict[int, tuple] = {}  # id(lattice) -> (lattice, keys)
        self._reset()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.run = None
        self.runs: dict[int, dict] = {}
        self.speed = hostspeed.SpeedLog()
        self.counts: Counter = Counter()
        self._next = 0

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed code as one span, when spans are on."""
        if not self.spans_on:
            yield
            return
        sid = self._next
        self._next += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((sid, name, start, end, parent, self.run))

    def mark_speed(self, *_) -> None:
        """Probe the host's speed now (see hostspeed.SpeedLog)."""
        with self.span(PROBE_SPAN):
            self.speed.mark()

    @contextlib.contextmanager
    def run_scope(self, run: int):
        """Attribute the enclosed calls to `run`, after probing the host's
        speed, spans on or off."""
        self.mark_speed()
        outer = self.run
        self.run = run
        try:
            yield
        finally:
            self.run = outer

    def install(self, only: tuple[str, ...] | None = None) -> None:
        """Wrap the selected public callables (all when `only` is None) and
        rebind every namespace entry that holds an original."""
        targets = public_callables()
        if only is not None:
            missing = [name for name in only if name not in targets]
            if missing:
                raise RuntimeError(f"cannot trace missing functions: {missing}")
            targets = {name: targets[name] for name in only}
        for name, (owner, attr, original) in targets.items():
            if id(original) in self._wrappers or id(original) in self._wrapped:
                continue
            wrapper = self._wrap(name, original)
            self._wrapped[id(original)] = wrapper
            self._wrappers.add(id(wrapper))
            setattr(owner, attr, wrapper)
        for mod in _modules().values():
            space = vars(mod)
            for attr, obj in list(space.items()):
                wrapper = self._wrapped.get(id(obj))
                if wrapper is not None:
                    space[attr] = wrapper

    def _wrap(self, name: str, fn):
        tracer = self
        observe = OBSERVERS.get(name)
        run_key = RUN_KEYS.get(name)

        def call(args, kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                with tracer.span(OBSERVE_SPAN):
                    observe(tracer, args, kwargs, result)
            return result

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if run_key is None:
                return call(args, kwargs)
            with tracer.run_scope(run_key(args, kwargs)):
                return call(args, kwargs)

        return traced

    def _after_fork(self) -> None:
        self._reset()
        multiprocessing.util.Finalize(None, self._flush, exitpriority=10)

    def _flush(self) -> None:
        record = {
            "pid": os.getpid(),
            "spans": self.spans,
            "runs": {str(k): v for k, v in self.runs.items()},
            "counts": dict(self.counts),
        }
        (self.worker_dir / f"worker-{os.getpid()}.json").write_text(json.dumps(record))

    def collect_workers(self) -> list[dict]:
        """Read and delete what forked pool workers flushed since last call."""
        out = []
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            out.append(json.loads(path.read_text()))
            path.unlink()
        return out


# -- observers: read a call's result, outside the call's own span -----------


def _observe_simulate(tracer, args, kwargs, traj):
    ticks = len(traj.proportions) - 1
    tracer.counts["engine.ticks"] += ticks
    tracer.counts["engine.unsaturated_runs"] += traj.saturated_at is None
    if tracer.run is not None:
        tracer.runs[tracer.run] = {
            "ticks": ticks,
            "final_adopters": int(round(float(traj.proportions[-1]) * traj.population)),
            "saturation_tick": -1 if traj.saturated_at is None else int(traj.saturated_at),
        }


def _observe_fit(tracer, args, kwargs, fit):
    tracer.counts["calibrate.iterations"] += int(fit.iterations)
    tracer.counts["calibrate.capped_fits"] += not fit.converged
    tracer.counts["calibrate.q_at_bound_fits"] += bool(fit.q_at_bound)


def _edge_keys(net) -> np.ndarray:
    edges = np.asarray(net.edges, dtype=np.int64)
    return edges[:, 0] * net.node_count + edges[:, 1]


def _observe_rewire(tracer, args, kwargs, net):
    """Count the result's edges that are not edges of the input lattice.
    Both edge lists are sorted and duplicate-free, so a stable sort of the
    two merges them in linear time and each shared edge shows as a pair."""
    lattice = args[0] if args else kwargs["net"]
    cached = tracer.lattice_keys.get(id(lattice))
    if cached is None or cached[0] is not lattice:
        cached = tracer.lattice_keys[id(lattice)] = (lattice, _edge_keys(lattice))
    keys = _edge_keys(net)
    merged = np.sort(np.concatenate((cached[1], keys)), kind="stable")
    shared = np.count_nonzero(merged[1:] == merged[:-1])
    tracer.counts["network.edges_rewired"] += int(len(keys) - shared)


def _observe_written(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["sweep.output_bytes"] += os.path.getsize(path)


OBSERVERS = {
    "engine.simulate": _observe_simulate,
    "calibrate.fit_bass": _observe_fit,
    "network.rewire": _observe_rewire,
    "sweep.write_sweep_csv": _observe_written,
    "sweep.write_envelope_csv": _observe_written,
}

RUN_KEYS = {
    "sweep.run_once": lambda args, kwargs: int((args[0] if args else kwargs["config"]).seed),
}
