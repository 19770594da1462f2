"""Every name a module lists in ``__all__`` must exist in it."""

import importlib
import pkgutil

import pytest

import cranopt

MODULES = ["cranopt"] + sorted(
    info.name for info in pkgutil.walk_packages(cranopt.__path__, "cranopt."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
    exec(f"from {name} import *", {})
