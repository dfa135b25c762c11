"""The package's public surface: `diffusim.__all__` and what `__init__`
imports agree, so the size of `__all__` counts every public name; and every
function the benchmark times by name exists under that name."""

import importlib
import inspect
import json
import pathlib

import diffusim

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
