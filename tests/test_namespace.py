"""The package namespace: each public name is read from its submodule on
access, and each entry point loads only the submodules it runs. The
``oplearn`` program, run either way, freezes the collector's objects at
exit; ``cli.main`` called in process does not."""

import gc
import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import oplearn
from oplearn import moments
from oplearn.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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


def _python(code: str, *args: str) -> str:
    """Standard output of ``python -c code args`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(oplearn.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    ).stdout


def _loaded_after(statement: str) -> set[str]:
    """The ``oplearn.*`` modules a fresh interpreter holds after ``statement``."""
    out = _python(f"import sys; {statement}; print(*sys.modules)")
    return {name for name in out.split() if name.startswith("oplearn.")}


def test_package_import_loads_no_submodule():
    assert _loaded_after("import oplearn") == set()


@pytest.mark.parametrize(
    "module, unused",
    [
        ("cli", {"oplearn.moments", "oplearn.regression", "oplearn.simulate", "oplearn.values"}),
        ("simulate", {"oplearn.moments", "oplearn.regression", "oplearn.values"}),
    ],
)
def test_module_import_skips_the_layers_it_does_not_run(module, unused):
    loaded = _loaded_after(f"import oplearn.{module}")
    assert f"oplearn.{module}" in loaded and not loaded & unused


def test_console_script_is_the_function_python_m_calls(monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
    module, attr = scripts["oplearn"].split(":")
    callers = []

    def script():
        # the name of the module whose code made the call: __main__.py's own
        # code, not a function that calls this one in turn
        callers.append(sys._getframe(1).f_globals["__name__"])
        return 3

    monkeypatch.setattr(importlib.import_module(module), attr, script)
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("oplearn", run_name="__main__")
    assert (exit_.value.code, callers) == (3, ["__main__"])


def test_program_entry_freezes_the_collector_at_exit(tmp_path):
    code = "import gc; from oplearn.cli import entry; print(entry(), gc.get_freeze_count() > 0)"
    assert _python(code, "report", str(tmp_path / "missing")).split() == ["1", "True"]


def test_main_in_process_leaves_the_collector_alone(tmp_path):
    dgp = {
        "n_units": 50, "n_actions": 2, "n_features": 1,
        "mean_coeffs": [[0.0, 1.0], [1.0, 0.0]], "noise_scale_coeffs": [[0.0, 0.0]] * 2,
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dgp": dgp, "outdir": str(tmp_path / "sim")}))
    frozen = gc.get_freeze_count()
    assert main(["simulate", "--config", str(config)]) == 0
    assert gc.get_freeze_count() == frozen
    # the error path: report on a directory that no fit wrote
    assert main(["report", str(tmp_path)]) == 1
    assert gc.get_freeze_count() == frozen
