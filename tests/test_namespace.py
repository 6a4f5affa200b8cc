"""The package namespace: each public name is read from its submodule on
access, and each entry point loads only the submodules it runs."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oplearn
from oplearn import moments


def test_every_public_name_is_its_defining_modules_object():
    for name in oplearn.__all__:
        obj = getattr(oplearn, name)
        assert obj.__module__.startswith("oplearn."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_dir_lists_every_public_name():
    assert set(oplearn.__all__) <= set(dir(oplearn))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from oplearn import *", namespace)
    assert set(oplearn.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'oplearn' has no attribute 'nope'$"):
        oplearn.nope


def test_patched_submodule_attribute_is_what_the_package_returns(monkeypatch):
    # the name is not cached on the package, so a wrapper installed on the
    # submodule (as a call tracer does) is seen through oplearn.<name>
    oplearn.build_arm_moments
    patched = object()
    monkeypatch.setattr(moments, "build_arm_moments", patched)
    assert oplearn.build_arm_moments is patched


def _loaded_after(statement: str) -> set[str]:
    """The ``oplearn.*`` modules a fresh interpreter holds after ``statement``."""
    env = dict(os.environ, PYTHONPATH=str(Path(oplearn.__file__).parents[1]))
    code = f"import sys; {statement}; print(*sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return {name for name in out.split() if name.startswith("oplearn.")}


def test_package_import_loads_no_submodule():
    assert _loaded_after("import oplearn") == set()


@pytest.mark.parametrize(
    "module, unused",
    [
        ("cli", {"oplearn.moments", "oplearn.regression", "oplearn.simulate"}),
        ("simulate", {"oplearn.moments", "oplearn.regression"}),
    ],
)
def test_module_import_skips_the_layers_it_does_not_run(module, unused):
    loaded = _loaded_after(f"import oplearn.{module}")
    assert f"oplearn.{module}" in loaded and not loaded & unused
