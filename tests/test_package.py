"""The package namespace re-exports the public names of its library modules."""

import importlib
import pkgutil

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
