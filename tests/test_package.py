"""The package namespace re-exports the public names of its library modules,
every public callable is in the argument contract, and the benchmark finds
the names it wraps."""

import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mrquant
from test_arguments import CONTRACT, EXEMPT

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


# The annotations of the parameters that carry scalars, one or several.
SCALAR_ANNOTATIONS = {"float", "int", "Optional[float]", "Sequence[float]", "Tuple[float, float]", "Tuple[int, ...]"}


def test_every_entry_point_is_in_the_argument_contract():
    # A new public callable, or a new scalar parameter of a listed one, must
    # join the table of tests/test_arguments.py (or be exempted there), so
    # that it cannot skip the argument rule unnoticed.
    covered = {}
    for row in CONTRACT:
        covered.setdefault(row.name, set()).add(row.param)
    public = {name for name in mrquant.__all__ if callable(getattr(mrquant, name))}
    assert sorted(public - covered.keys() - EXEMPT.keys()) == []
    assert sorted((covered.keys() | EXEMPT.keys()) - public) == []
    assert sorted(covered.keys() & EXEMPT.keys()) == []
    for name, params in covered.items():
        signature = inspect.signature(getattr(mrquant, name))
        scalar = {p.name for p in signature.parameters.values() if p.annotation in SCALAR_ANNOTATIONS}
        assert sorted(scalar - params) == [], name


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


@pytest.mark.parametrize("module", ["workloads.py", "oracles.py"])
def test_perfbench_imports_are_public_names(module):
    # The benchmark imports these from the package namespace; a rename
    # should fail here, not turn every benchmark run into run_failed.
    source = (Path(__file__).resolve().parents[1] / "perfbench" / module).read_text()
    imported = [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "mrquant"
        for alias in node.names
    ]
    assert imported and sorted(set(imported) - set(mrquant.__all__)) == []


def test_import_leaves_scipy_unloaded():
    # scipy costs most of the import time, and only the tests use it.
    src = str(Path(mrquant.__file__).resolve().parents[1])
    code = "import sys; import mrquant; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}, check=True)
    assert out.stdout.strip() == "False"


def test_verify_needs_numpy_only():
    # With scipy unimportable every verify suite still runs, and only the two
    # convergence checks that fail by design (criteria 4 and 5) fail.
    src = str(Path(mrquant.__file__).resolve().parents[1])
    code = ("import runpy, sys; sys.modules['scipy'] = None; "
            "sys.argv = ['mrquant', 'verify', '--suite', 'all']; "
            "runpy.run_module('mrquant.cli', run_name='__main__')")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}, timeout=300)
    assert out.returncode == 3, out.stderr
    failed = [line.split()[1] for line in out.stdout.splitlines() if line.startswith("FAIL ")]
    assert failed == ["scale.rescaled_cdfs_pairwise", "renewal.matches_closed_form"]
