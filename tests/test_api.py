"""The public surface: funcdiss re-exports names from each layer module's
__all__, and every __all__ entry exists."""

import ast
import importlib
from pathlib import Path

import pytest

import funcdiss

PACKAGE = Path(funcdiss.__file__).parent
# the exception hierarchy and the python -m entry point are not layers
# and keep no __all__
LAYERS = sorted(p.stem for p in PACKAGE.glob("*.py")
                if p.stem not in ("__init__", "__main__", "errors"))


def _init_imports():
    """(module, names) for each relative import of funcdiss/__init__.py."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [(node.module, [alias.name for alias in node.names])
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1]


def test_init_imports_only_names_in_the_layer_all():
    imports = _init_imports()
    assert {module for module, _ in imports} >= set(LAYERS)
    for module, names in imports:
        if module == "errors":
            continue
        exported = importlib.import_module(f"funcdiss.{module}").__all__
        missing = sorted(set(names) - set(exported))
        assert not missing, f"funcdiss.{module}.__all__ lacks {missing}"


@pytest.mark.parametrize("module", LAYERS)
def test_every_all_entry_exists(module):
    mod = importlib.import_module(f"funcdiss.{module}")
    assert len(set(mod.__all__)) == len(mod.__all__), "duplicate entry"
    stale = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not stale, f"funcdiss.{module}.__all__ names {stale}"
