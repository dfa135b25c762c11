"""The package's public surface: `diffusim.__all__` and what `__init__`
imports agree, so the size of `__all__` counts every public name; every
function the benchmark times by name exists under that name; and the calls
the benchmark makes still bind."""

import dataclasses
import importlib
import inspect
import json
import pathlib

import diffusim
from diffusim import engine, network, seeding, sweep

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_all_has_no_duplicates():
    assert len(diffusim.__all__) == len(set(diffusim.__all__))


def test_every_name_in_all_resolves():
    missing = [name for name in diffusim.__all__ if not hasattr(diffusim, name)]
    assert not missing


def test_every_imported_class_and_function_is_listed():
    public = {
        name for name, obj in vars(diffusim).items()
        if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
    }
    assert public - set(diffusim.__all__) == set()


LAYERS = ("bass", "network", "seeding", "engine", "calibrate", "sweep", "cli")
STATS = ("calls", "s", "ms_p50", "ms_tail", "ms_tail_pct")


def test_benchmark_layer_metrics_name_public_callables():
    """Each per-layer benchmark metric `<module>.<name>.<stat>` is timed by
    wrapping the public callable `diffusim.<module>.<name>` defined in that
    module; a renamed or moved one would otherwise surface only as a failed
    benchmark run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parts = [metric["name"].split(".") for metric in spec["per_layer"]]
    named = sorted({(p[0], p[1]) for p in parts
                    if len(p) == 3 and p[0] in LAYERS and p[2] in STATS})
    assert named
    missing = []
    for module, name in named:
        obj = getattr(importlib.import_module(f"diffusim.{module}"), name, None)
        if (name.startswith("_") or not callable(obj)
                or obj.__module__ != f"diffusim.{module}"):
            missing.append(f"{module}.{name}")
    assert not missing


def first_parameters(fn, count):
    return list(inspect.signature(fn).parameters)[:count]


def test_benchmark_calls_bind():
    """perfbench's sequential workload calls these functions with these
    arguments, and its tracer reads some arguments by name (the network a
    `rewire` started from, the config of a `run_once`, the path a CSV writer
    wrote); a signature change would otherwise surface only as a failed
    benchmark run."""
    inspect.signature(engine.simulate).bind(
        "net", "plan", engine.DecisionParams(delta_u=0.6, alpha=0.5),
        max_ticks=10, rng=None, update=engine.RANDOM_SEQUENTIAL, on_tick=print,
    )
    inspect.signature(network.rewire).bind("net", 0.1, "rng")
    assert first_parameters(network.rewire, 1) == ["net"]
    inspect.signature(seeding.build_plan).bind("spec", "sigma", 10, 2, "rng")
    inspect.signature(seeding.default_innovator_count).bind("spec")
    inspect.signature(sweep.run_once).bind("config")
    assert first_parameters(sweep.run_once, 1) == ["config"]
    for writer in (sweep.write_sweep_csv, sweep.write_envelope_csv):
        inspect.signature(writer).bind("rows", "path")
        assert first_parameters(writer, 2)[1] == "path"
    config = dataclasses.replace(sweep.default_grid()[0], seed=7, replication=2)
    assert (config.seed, config.replication) == (7, 2)
