#!/usr/bin/env python3
"""Results fingerprint: statuses, round counts, energies and conic calls of a run grid.

Usage, from the root of a checkout:

    python3 tools/fingerprint.py OUT.json [--tree DIR]
    python3 tools/fingerprint.py --compare OLD.json NEW.json

The first form runs ``joint`` and ``separate:0.5`` on 65 points of
``scenarios/smallcell.json`` (130 runs) with one BLAS thread:

- stock cell at F in {1000, 1500, 2000}, seeds 42-44
- 8 RRHs x 2 antennas x 8 UEs, fronthaul 1e9, at F = 1000, seeds 42-43
- 8 RRHs x 2 antennas x 12 UEs, fronthaul 1e9, at F = 1500, seed 42
- 8 RRHs x 2 antennas x 20 UEs, fronthaul 1e9, at F = 1500, seed 42 (the
  largest problems, n = 640, whose KKT matrix is factored by stream)
- fronthaul at C/10 (1e6) at F in {1000, 1500, 2000}, seeds 42-45
- fronthaul at C/30 (1e7/30) and at C/100 (1e5) at F = 1500, seeds 42-45
- 2 RRHs x 1 antenna (more UEs than antennas) at F = 1500, seeds 42-51 and 58
- RRH power at P/100 (1e-2) at F = 1500, seeds 42-51 and 60
- 4 RRHs x 2 antennas x 10 UEs (more UEs than antennas) at F = 1500, seeds 42-43
- deadline T = 2 ms (F/f_max = 1.5 ms) at F = 1500, seeds 42-45
- UEs 1 and 3 of five with no result bits (D = 0) at F = 1500, seeds 42-45

Seeds 58 and 60 hold one energy for many rounds, so the BCD's settle rule
decides their status and round count.

For each run it writes the status, the BCD round count, the energy's
``repr`` and the (status, interior-point iterations) of every conic solve.
It then runs the perturbation probe: the round-2 conic problem of the
2 x 1 x 5 joint run at seed 45 (n = 20, m = 82), and 30 copies of it with
c scaled elementwise by 1 + 1e-15 N(0, 1).  A solver whose outcome flips on
such a perturbation makes every comparison of two trees flaky, so all 31
must reach one status and one iteration count; the tool says so when they
do not.  ``--tree DIR`` runs the cranopt and scenario of another checkout,
such as a parent commit.  ``--compare`` prints every difference between
two such files, the new file's probe spread among them, and exits 1 if
there is one; for a run whose conic calls differ it names the largest
change in one shared call's interior-point iterations (signed, new minus
old), which shows whether the +-1 iteration contract held.  Energy changes
of the C/10, C/30, C/100, 2 x 1 x 5 and P/100 runs are listed apart: there
last-bit changes are amplified (a binding fronthaul, or round counts that
hinge on last bits), so they can stem from rounding alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METHODS = ("joint", "separate:0.5")
# (cell, overrides of the scenario's "system" block, overrides of its "tasks"
# block (a list gives one entry per UE), task sizes F, seeds)
CELLS = (
    ("stock", {}, {}, (1000.0, 1500.0, 2000.0), (42, 43, 44)),
    ("8x2x8", {"num_rrh": 8, "num_ue": 8, "fronthaul_limit": 1e9}, {}, (1000.0,), (42, 43)),
    ("8x2x12", {"num_rrh": 8, "num_ue": 12, "fronthaul_limit": 1e9}, {}, (1500.0,), (42,)),
    ("8x2x20", {"num_rrh": 8, "num_ue": 20, "fronthaul_limit": 1e9}, {}, (1500.0,), (42,)),
    ("C/10", {"fronthaul_limit": 1e6}, {}, (1000.0, 1500.0, 2000.0), (42, 43, 44, 45)),
    ("C/30", {"fronthaul_limit": 1e7 / 30}, {}, (1500.0,), (42, 43, 44, 45)),
    ("C/100", {"fronthaul_limit": 1e5}, {}, (1500.0,), (42, 43, 44, 45)),
    ("2x1x5", {"num_rrh": 2, "antennas_per_rrh": 1}, {}, (1500.0,), (*range(42, 52), 58)),
    ("P/100", {"rrh_power_limit": 1e-2}, {}, (1500.0,), (*range(42, 52), 60)),
    ("4x2x10", {"num_ue": 10}, {}, (1500.0,), (42, 43)),
    ("T=2ms", {}, {"deadline": 2e-3}, (1500.0,), (42, 43, 44, 45)),
    ("D=0 mix", {}, [{}, {"result_bits": 0.0}, {}, {"result_bits": 0.0}, {}],
     (1500.0,), (42, 43, 44, 45)),
)
AMPLIFYING_CELLS = ("C/10", "C/30", "C/100", "2x1x5", "P/100")
# The probe's source: (cell, F, seed, method) and the index of its conic call.
PROBE_RUN, PROBE_CALL = ("2x1x5", 1500.0, 45, "joint"), 1
PROBE_COPIES = 30


def _tasks(base: dict, overrides, cycles: float):
    """The scenario's "tasks" block with a cell's overrides and task size F."""
    if isinstance(overrides, list):
        return [dict(base, **entry, cpu_cycles=cycles) for entry in overrides]
    return dict(base, **overrides, cpu_cycles=cycles)


def run_grid(tree: Path) -> tuple[list[dict], list[list]]:
    """The runs of the grid and the (status, iterations) of each probe problem."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"   # before numpy loads BLAS
    sys.path.insert(0, str(tree / "src"))
    import numpy as np
    from cranopt import algorithms, experiments

    base = json.loads((tree / "scenarios" / "smallcell.json").read_text(encoding="utf-8"))
    calls: list = []
    solve = algorithms.solve

    def recorded(*args, **kwargs):
        report = solve(*args, **kwargs)
        calls.append(([report.status, report.iterations], args, kwargs))
        return report

    algorithms.solve = recorded
    runs, probe_call = [], None
    try:
        for cell, system, tasks, sizes, seeds in CELLS:
            for value in sizes:
                for seed in seeds:
                    doc = dict(base, system=dict(base["system"], **system),
                               tasks=_tasks(base["tasks"], tasks, value))
                    for method in METHODS:
                        calls.clear()
                        record = experiments.run_single(doc, method, seed, "F", value)
                        runs.append({"cell": cell, "F": value, "seed": seed,
                                     "method": method, "status": record.status,
                                     "rounds": record.iterations,
                                     "energy": repr(record.energy_total_j),
                                     "calls": [outcome for outcome, _, _ in calls]})
                        if (cell, value, seed, method) == PROBE_RUN:
                            probe_call = calls[PROBE_CALL]
    finally:
        algorithms.solve = solve
    _, (problem, *args), kwargs = probe_call
    rng = np.random.default_rng(0)
    scales = [1.0] + [1.0 + 1e-15 * rng.standard_normal(problem.c.size)
                      for _ in range(PROBE_COPIES)]
    reports = [solve(dataclasses.replace(problem, c=problem.c * scale), *args, **kwargs)
               for scale in scales]
    return runs, [[report.status, report.iterations] for report in reports]


def probe_summary(probe: list[list]) -> tuple[bool, str]:
    """(whether every probe problem reached one status and iteration count, a summary)."""
    outcomes = sorted({tuple(p) for p in probe})
    summary = ", ".join(f"{sum(tuple(p) == o for p in probe)} {o[0]} at {o[1]}"
                        for o in outcomes)
    return len(outcomes) == 1, f"{summary} iterations"


def _label(run: dict) -> str:
    return f"{run['cell']} F={run['F']:g} seed={run['seed']} {run['method']}"


def compare(old: list[dict], new: list[dict]) -> tuple[list[str], list[str]]:
    """(differences, amplifying cells' energy differences) between two fingerprints."""
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
                (amplified if key == "energy" and run["cell"] in AMPLIFYING_CELLS
                 else diffs).append(line)
        if run["calls"] != other["calls"]:
            shared = list(zip(run["calls"], other["calls"]))
            changed = sum(a != b for a, b in shared)
            largest = max((b[1] - a[1] for a, b in shared), key=abs, default=0)
            diffs.append(f"{label}: conic calls {len(run['calls'])} -> "
                         f"{len(other['calls'])}, {changed} of the shared ones differ, "
                         f"largest iteration change {largest:+d}")
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
        old, new = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        diffs, amplified = compare(old["runs"], new["runs"])
        uniform, summary = probe_summary(new["probe"])
        if old["probe"] != new["probe"]:
            diffs.append(f"probe: {probe_summary(old['probe'])[1]} -> {summary}")
        if not uniform:
            diffs.append(f"probe: not one outcome: {summary}")
        for line in diffs:
            print(line)
        if amplified:
            print(f"{', '.join(AMPLIFYING_CELLS)} energies (last-bit changes are amplified there):")
            for line in amplified:
                print("  " + line)
        print(f"{len(diffs)} differences, {len(amplified)} amplified energy "
              f"differences over {len(old['runs'])} runs")
        return 1 if diffs or amplified else 0
    if args.out is None:
        parser.error("give an output file or --compare OLD NEW")
    runs, probe = run_grid(args.tree.resolve())
    args.out.write_text(json.dumps({"runs": runs, "probe": probe}, indent=1) + "\n",
                        encoding="utf-8")
    print(f"{len(runs)} runs, {sum(len(r['calls']) for r in runs)} conic calls -> {args.out}")
    uniform, summary = probe_summary(probe)
    print(f"probe: {summary}" + ("" if uniform else " -- not one outcome"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
