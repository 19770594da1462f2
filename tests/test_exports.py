"""Every name a module lists in ``__all__`` must exist in it, and every call
the benchmark trace wraps must still be there under the name it wraps."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import cranopt

MODULES = ["cranopt"] + sorted(
    info.name for info in pkgutil.walk_packages(cranopt.__path__, "cranopt."))
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_targets():
    """("layer", "module:attribute") pairs from the benchmark's `TARGETS`."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
    exec(f"from {name} import *", {})


@pytest.mark.parametrize("layer,target", traced_targets())
def test_traced_targets_resolve(layer, target):
    module_name, attr = target.split(":")
    found = getattr(importlib.import_module(module_name), attr, None)
    assert callable(found), f"{layer} trace target {target} does not resolve"
