"""The package namespace re-exports the public names of its library modules,
and the benchmark finds the names it wraps."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mrquant

# The command-line module's names (main, build_parser) are its entry points,
# not part of the library API.
LIBRARY_MODULES = sorted(
    m.name for m in pkgutil.iter_modules(mrquant.__path__) if m.name != "cli"
)


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_submodule_public_names_are_reexported(module):
    mod = importlib.import_module(f"mrquant.{module}")
    missing = [
        name
        for name in mod.__all__
        if name not in mrquant.__all__ or getattr(mrquant, name) is not getattr(mod, name)
    ]
    assert missing == []


def test_package_names_exist():
    assert [name for name in mrquant.__all__ if not hasattr(mrquant, name)] == []


def test_perfbench_wraps_resolve(monkeypatch):
    # The benchmark's traced run wraps these names by getattr; a rename
    # should fail here, not in `perfbench/run.py --trace 1`.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    importlib.import_module("workloads")
    wraps = importlib.import_module("layers").WRAPS
    missing = [
        (module, attr)
        for module, attr, _ in wraps
        if not hasattr(importlib.import_module(f"mrquant.{module}"), attr)
    ]
    assert wraps and missing == []


def test_import_leaves_scipy_unloaded():
    # scipy costs most of the import time and only quadrature needs it.
    src = str(Path(mrquant.__file__).resolve().parents[1])
    code = "import sys; import mrquant; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "False"
