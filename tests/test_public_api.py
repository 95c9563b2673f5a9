"""The public surface: every name a module exports is bound in it."""

import importlib
import pkgutil

import pytest

import covcat

MODULES = sorted(info.name for info in pkgutil.iter_modules(covcat.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_is_bound(module):
    mod = importlib.import_module(f"covcat.{module}")
    unbound = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert unbound == []

