"""Every name a featpde module lists in ``__all__`` exists, so a deleted
function cannot linger in a module's public list."""

import importlib
import pkgutil

import pytest

import featpde

MODULES = ["featpde"] + sorted(
    f"featpde.{m.name}" for m in pkgutil.iter_modules(featpde.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []
