import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_names_the_largest_iteration_change():
    # Two calls differ, by +1 and -3 iterations: the line names -3.
    old = {"cell": "stock", "F": 1000.0, "seed": 42, "method": "joint", "status": "optimal",
           "rounds": 3, "energy": "5.0", "calls": [["optimal", 10], ["optimal", 12], ["optimal", 9]]}
    new = dict(old, calls=[["optimal", 11], ["optimal", 12], ["optimal", 6]])
    diffs, amplified = load_tool().compare([old], [new])
    assert diffs == ["stock F=1000 seed=42 joint: conic calls 3 -> 3, 2 of the shared ones "
                     "differ, largest iteration change -3"]
    assert amplified == []
