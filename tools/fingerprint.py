#!/usr/bin/env python3
"""Results fingerprint: statuses, round counts, energies and conic calls of a run grid.

Usage, from the root of a checkout:

    python3 tools/fingerprint.py OUT.json [--tree DIR]
    python3 tools/fingerprint.py --compare OLD.json NEW.json

The first form runs ``joint`` and ``separate:0.5`` on 23 points of
``scenarios/smallcell.json`` (46 runs) with one BLAS thread:

- stock cell at F in {1000, 1500, 2000}, seeds 42-44
- 8 RRHs x 2 antennas x 8 UEs, fronthaul 1e9, at F = 1000, seeds 42-43
- fronthaul at C/10 (1e6) at F in {1000, 1500, 2000}, seeds 42-45

For each run it writes the status, the BCD round count, the energy's
``repr`` and the (status, interior-point iterations) of every conic solve.
``--tree DIR`` runs the cranopt and scenario of another checkout, such as
a parent commit.  ``--compare`` prints every difference between two such
files and exits 1 if there is one.  Energy changes of the C/10 runs are
listed apart: a binding fronthaul amplifies last-bit changes, so there they
can stem from rounding alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METHODS = ("joint", "separate:0.5")
# (cell, overrides of the scenario's "system" block, task sizes F, seeds)
CELLS = (
    ("stock", {}, (1000.0, 1500.0, 2000.0), (42, 43, 44)),
    ("8x2x8", {"num_rrh": 8, "num_ue": 8, "fronthaul_limit": 1e9}, (1000.0,), (42, 43)),
    ("C/10", {"fronthaul_limit": 1e6}, (1000.0, 1500.0, 2000.0), (42, 43, 44, 45)),
)
AMPLIFYING_CELL = "C/10"


def run_grid(tree: Path) -> list[dict]:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"   # before numpy loads BLAS
    sys.path.insert(0, str(tree / "src"))
    from cranopt import algorithms, experiments

    base = json.loads((tree / "scenarios" / "smallcell.json").read_text(encoding="utf-8"))
    calls: list = []
    solve = algorithms.solve

    def recorded(*args, **kwargs):
        report = solve(*args, **kwargs)
        calls.append([report.status, report.iterations])
        return report

    algorithms.solve = recorded
    runs = []
    try:
        for cell, system, sizes, seeds in CELLS:
            for value in sizes:
                for seed in seeds:
                    doc = dict(base, system=dict(base["system"], **system),
                               tasks=dict(base["tasks"], cpu_cycles=value))
                    for method in METHODS:
                        calls.clear()
                        record = experiments.run_single(doc, method, seed, "F", value)
                        runs.append({"cell": cell, "F": value, "seed": seed,
                                     "method": method, "status": record.status,
                                     "rounds": record.iterations,
                                     "energy": repr(record.energy_total_j),
                                     "calls": list(calls)})
    finally:
        algorithms.solve = solve
    return runs


def _label(run: dict) -> str:
    return f"{run['cell']} F={run['F']:g} seed={run['seed']} {run['method']}"


def compare(old: list[dict], new: list[dict]) -> tuple[list[str], list[str]]:
    """(differences, C/10 energy differences) between two fingerprints."""
    diffs, amplified = [], []
    new_by_label = {_label(run): run for run in new}
    for run in old:
        label = _label(run)
        other = new_by_label.pop(label, None)
        if other is None:
            diffs.append(f"{label}: missing from the new file")
            continue
        for key in ("status", "rounds", "energy"):
            if run[key] != other[key]:
                line = f"{label}: {key} {run[key]} -> {other[key]}"
                (amplified if key == "energy" and run["cell"] == AMPLIFYING_CELL
                 else diffs).append(line)
        if run["calls"] != other["calls"]:
            changed = sum(a != b for a, b in zip(run["calls"], other["calls"]))
            diffs.append(f"{label}: conic calls {len(run['calls'])} -> "
                         f"{len(other['calls'])}, {changed} of the shared ones differ")
    diffs += [f"{label}: missing from the old file" for label in new_by_label]
    return diffs, amplified


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", type=Path, help="fingerprint file to write")
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout whose src/ and scenarios/ to run")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(p.read_text(encoding="utf-8"))["runs"] for p in args.compare)
        diffs, amplified = compare(old, new)
        for line in diffs:
            print(line)
        if amplified:
            print(f"{AMPLIFYING_CELL} energies (last-bit changes are amplified there):")
            for line in amplified:
                print("  " + line)
        print(f"{len(diffs)} differences, {len(amplified)} {AMPLIFYING_CELL} energy "
              f"differences over {len(old)} runs")
        return 1 if diffs or amplified else 0
    if args.out is None:
        parser.error("give an output file or --compare OLD NEW")
    runs = run_grid(args.tree.resolve())
    args.out.write_text(json.dumps({"runs": runs}, indent=1) + "\n", encoding="utf-8")
    print(f"{len(runs)} runs, {sum(len(r['calls']) for r in runs)} conic calls -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
