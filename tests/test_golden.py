"""Comparator for the golden sweep in `tests/golden/`, and its own checks.

A fixed-seed sweep is byte-identical between runs on one numpy/BLAS stack
(`emit_records(..., stable_timing=True)`), but its lowest printed digits move
between stacks: the interior-point method stops at a relative duality gap of
`cranopt.conic.solver.GAP_TOL`, so energies below that fraction of the row's
energy are not determined by the solver. The golden contract is therefore:

- the header, the row count and the row order match exactly;
- every column that is not an energy (keys, iterations, status, wall_ms,
  n_ok, n_failed) matches exactly;
- an empty energy cell stays empty;
- every other energy cell is within `GAP_TOL` times the row's energy scale
  (`energy_total_j` in records.csv, `energy_mean_j` in summary.csv).

The checks below need no solver: they mutate text copies of the golden and
show that the comparator rejects what the contract forbids.
"""

import csv
import io
from pathlib import Path

import pytest

from cranopt.conic.solver import GAP_TOL

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_FILES = ("records.csv", "summary.csv")
ENERGY_REL_TOL = GAP_TOL
SCALE_COLUMN = {"records.csv": "energy_total_j", "summary.csv": "energy_mean_j"}
KEY_COLUMNS = ("seed", "method", "value")


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def compare_sweep_csv(name, golden_text, produced_text):
    """Compare one produced sweep CSV with its golden copy.

    Returns `(problems, worst)`: one message per violated cell or row, and the
    largest energy deviation relative to the row's energy scale.
    """
    golden, produced = _rows(golden_text), _rows(produced_text)
    header = golden[0]
    if produced[0] != header:
        return [f"{name}: header {produced[0]} differs from golden {header}"], 0.0
    problems = []
    if len(produced) != len(golden):
        problems.append(f"{name}: {len(produced) - 1} rows, golden has "
                        f"{len(golden) - 1}")
    scale_at = header.index(SCALE_COLUMN[name])
    worst = 0.0
    for number, (want, got) in enumerate(zip(golden[1:], produced[1:]), start=1):
        key = ", ".join(f"{col}={want[header.index(col)]}"
                        for col in KEY_COLUMNS if col in header)
        where = f"{name} row {number} ({key})"
        scale = abs(float(want[scale_at])) if want[scale_at] else 0.0
        for column, g, p in zip(header, want, got):
            if not column.startswith("energy_") or not g or not p:
                if p != g:
                    problems.append(f"{where} {column}: golden {g!r}, "
                                    f"produced {p!r}")
                continue
            diff = abs(float(p) - float(g))
            deviation = diff / scale if scale else (0.0 if diff == 0 else float("inf"))
            worst = max(worst, deviation)
            if deviation > ENERGY_REL_TOL:
                problems.append(f"{where} {column}: golden {g}, produced {p}, "
                                f"relative deviation {deviation:.2e} > {ENERGY_REL_TOL:.0e}")
    return problems, worst


def compare_with_golden(out_dir):
    """Compare records.csv and summary.csv in `out_dir` with the golden copies."""
    problems, worst = [], 0.0
    for name in GOLDEN_FILES:
        found, deviation = compare_sweep_csv(
            name, (GOLDEN / name).read_text(encoding="utf-8"),
            (Path(out_dir) / name).read_text(encoding="utf-8"))
        problems += found
        worst = max(worst, deviation)
    return problems, worst


def _edit(text, row, column, change):
    rows = _rows(text)
    at = rows[0].index(column)
    rows[row][at] = change(rows[row][at])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _scaled(factor):
    return lambda cell: repr(float(cell) * factor)


def _drop_row(text, row):
    lines = text.splitlines(keepends=True)
    return "".join(lines[:row] + lines[row + 1:])


def _golden_text(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_comparator_accepts_golden_itself(name):
    text = _golden_text(name)
    assert compare_sweep_csv(name, text, text) == ([], 0.0)


@pytest.mark.parametrize("name, column", [("records.csv", "energy_cloud_j"),
                                          ("summary.csv", "energy_mean_j")])
def test_comparator_accepts_sub_tolerance_drift(name, column):
    text = _golden_text(name)
    problems, worst = compare_sweep_csv(
        name, text, _edit(text, 1, column, _scaled(1 + 1e-10)))
    assert problems == []
    assert 0.0 < worst <= 1.001e-10


@pytest.mark.parametrize("name, row, column, change", [
    ("records.csv", 5, "energy_cloud_j", _scaled(1 + 1e-6)),
    ("records.csv", 1, "iterations", lambda cell: str(int(cell) + 1)),
    ("records.csv", 3, "status", lambda cell: "max_iterations"),
    ("summary.csv", 2, "n_failed", lambda cell: str(int(cell) + 1)),
])
def test_comparator_rejects_changed_cell(name, row, column, change):
    text = _golden_text(name)
    problems, _ = compare_sweep_csv(name, text, _edit(text, row, column, change))
    assert len(problems) == 1
    assert f"row {row} (" in problems[0] and f" {column}: " in problems[0]


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_comparator_rejects_scale_sized_change_in_any_energy_cell(name):
    """1e-6 of the row's energy scale, added to any energy cell, fails."""
    text = _golden_text(name)
    rows = _rows(text)
    scale_at = rows[0].index(SCALE_COLUMN[name])
    for row in range(1, len(rows)):
        step = 1e-6 * float(rows[row][scale_at])
        for column in rows[0]:
            if column.startswith("energy_"):
                mutated = _edit(text, row, column,
                                lambda cell: repr(float(cell) + step))
                problems, _ = compare_sweep_csv(name, text, mutated)
                assert len(problems) == 1, (row, column)


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_comparator_rejects_dropped_row(name):
    text = _golden_text(name)
    problems, _ = compare_sweep_csv(name, text, _drop_row(text, 2))
    assert any("rows, golden has" in p for p in problems)


def test_comparator_keeps_empty_energy_cells_empty():
    text = _golden_text("records.csv")
    emptied = _edit(text, 1, "energy_tx_j", lambda cell: "")
    problems, _ = compare_sweep_csv("records.csv", emptied, text)
    assert len(problems) == 1 and "energy_tx_j: golden ''" in problems[0]
    problems, _ = compare_sweep_csv("records.csv", text, emptied)
    assert len(problems) == 1 and "produced ''" in problems[0]
