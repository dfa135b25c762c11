"""The package's public surface: `diffusim.__all__` and what `__init__`
imports agree, so the size of `__all__` counts every public name."""

import inspect

import diffusim


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
