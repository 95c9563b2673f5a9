"""The public surface: every name a module exports is bound in it, and the
library imports nothing outside the standard library."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import covcat

MODULES = sorted(info.name for info in pkgutil.iter_modules(covcat.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_is_bound(module):
    mod = importlib.import_module(f"covcat.{module}")
    unbound = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert unbound == []



def test_the_library_imports_only_the_standard_library():
    outside = []
    for path in sorted(Path(covcat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names
                        and name.split(".")[0] != "covcat"]
    assert outside == []
