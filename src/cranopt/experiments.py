"""Seeded experiment runs, parameter sweeps and record emission.

A sweep is the Cartesian product of (grid value, method, seed); each point
is an independent deterministic run, so points fan out over a worker pool
and are re-sorted into (value, method, seed) order before anything is
written.  Failures (infeasible splits, non-converged solves) become status
fields on the record rather than aborting the sweep.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .algorithms import joint_energy_minimization, split_deadline_baseline
from .cloud import InfeasibleError
from .scenario import ValidationError, generate_channels, load_config

__all__ = [
    "SweepSpec",
    "SolutionRecord",
    "run_single",
    "run_sweep",
    "emit_records",
    "aggregate_records",
]

CSV_HEADER = ["scenario", "seed", "method", "param", "value", "energy_total_j",
              "energy_cloud_j", "energy_tx_j", "iterations", "status", "wall_ms"]

SWEEP_PARAMS = ("F", "D", "Tmax", "N")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: which scalar to vary, over which grid, methods and seeds."""

    param: str
    grid: tuple
    methods: tuple
    seeds: tuple
    scenario: dict = field(default_factory=dict)
    scenario_name: str = "scenario"

    def __post_init__(self):
        if self.param not in SWEEP_PARAMS:
            raise ValidationError("param", f"must be one of {SWEEP_PARAMS}")
        if not self.grid or any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValidationError("grid", "must be nonempty and strictly increasing")
        if self.param == "N" and not all(float(v).is_integer() for v in self.grid):
            raise ValidationError("grid", "user counts N must be whole numbers")
        if len(set(self.seeds)) != len(self.seeds) or not self.seeds:
            raise ValidationError("seeds", "must be nonempty and distinct")
        for method in self.methods:
            _parse_method(method)
        for value in self.grid:  # fail before any point runs, e.g. a per-UE list at N
            load_config(_apply_param(self.scenario, self.param, value))


@dataclass
class SolutionRecord:
    scenario: str
    seed: int
    method: str
    param: str
    value: float
    energy_total_j: float | None
    energy_cloud_j: float | None
    energy_tx_j: float | None
    iterations: int
    status: str
    wall_ms: int
    rates_bps: list = field(default_factory=list)

    def csv_row(self) -> list[str]:
        def num(x):
            return "" if x is None else f"{x:.12g}"
        return [self.scenario, str(self.seed), self.method, self.param,
                f"{self.value:.12g}", num(self.energy_total_j),
                num(self.energy_cloud_j), num(self.energy_tx_j),
                str(self.iterations), self.status, str(self.wall_ms)]


def _parse_method(method: str):
    if method == "joint":
        return ("joint", None)
    if method.startswith("separate:"):
        alpha = float(method.split(":", 1)[1])
        if not 0.0 < alpha < 1.0:
            raise ValidationError("method", f"split fraction {alpha} not in (0, 1)")
        return ("separate", alpha)
    raise ValidationError("method", f"unknown method {method!r}")


def _apply_param(doc: dict, param: str, value) -> dict:
    doc = json.loads(json.dumps(doc))  # deep copy, JSON-typed
    if param == "N":
        doc.setdefault("system", {})["num_ue"] = int(value)
        # Explicit UE positions cannot be reused across N; fall back to layout.
        doc.get("geometry", {}).pop("ue_positions", None)
        return doc
    key = {"F": "cpu_cycles", "D": "result_bits", "Tmax": "deadline"}[param]
    tasks = doc.get("tasks", {})
    if isinstance(tasks, list):
        for entry in tasks:
            entry[key] = value
    else:
        tasks = dict(tasks)
        tasks[key] = value
    doc["tasks"] = tasks
    return doc


def _load_doc(source) -> tuple[dict, str]:
    if isinstance(source, dict):
        return source, source.get("name", "inline")
    path = Path(source)
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValidationError("document", "scenario must be a JSON object")
    return doc, path.stem


def run_single(source, method: str, seed: int, param: str = "-",
               value: float = 0.0, scenario_name: str | None = None) -> SolutionRecord:
    """Run one (scenario, method, seed) point and reduce it to a record."""
    doc, name = _load_doc(source)
    if scenario_name is not None:
        name = scenario_name
    kind, alpha = _parse_method(method)
    config, tasks = load_config(doc)
    started = time.perf_counter()
    status = "optimal"
    energy = None
    iterations = 0
    rates: list = []
    try:
        channels = generate_channels(config, seed)
        if kind == "joint":
            sol = joint_energy_minimization(config, tasks, channels)
        else:
            sol = split_deadline_baseline(config, tasks, channels, alpha)
        status = sol.status
        iterations = sol.iterations
        rates = [float(r) for r in sol.ran.rates]
        if sol.status == "optimal" and sol.energy is not None:
            energy = sol.energy
    except InfeasibleError as err:
        status = f"infeasible-{err.side}"
    wall_ms = int(round(1000.0 * (time.perf_counter() - started)))
    return SolutionRecord(
        scenario=name, seed=int(seed), method=method, param=param,
        value=float(value),
        energy_total_j=None if energy is None else energy.total,
        energy_cloud_j=None if energy is None else energy.total_cloud,
        energy_tx_j=None if energy is None else energy.total_transmit,
        iterations=iterations, status=status, wall_ms=wall_ms,
        rates_bps=rates)


def _sweep_point(args):
    doc, name, param, value, method, seed = args
    point_doc = _apply_param(doc, param, value)
    return run_single(point_doc, method, seed, param=param, value=value,
                      scenario_name=name)


def run_sweep(spec: SweepSpec, workers: int | None = None) -> list[SolutionRecord]:
    """Run the full (grid x methods x seeds) product, deterministically ordered."""
    points = [(spec.scenario, spec.scenario_name, spec.param, value, method, seed)
              for value in spec.grid
              for method in spec.methods
              for seed in spec.seeds]
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1 or len(points) == 1:
        records = [_sweep_point(p) for p in points]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_sweep_point, points, chunksize=1))
    records.sort(key=lambda r: (r.value, r.method, r.seed))
    return records


def aggregate_records(records) -> list[dict]:
    """Mean and stdev of total energy per (value, method), order-independent."""
    groups: dict = {}
    for rec in records:
        groups.setdefault((rec.param, rec.value, rec.method), []).append(rec)
    out = []
    for (param, value, method) in sorted(groups):
        recs = groups[(param, value, method)]
        good = [r.energy_total_j for r in recs if r.energy_total_j is not None]
        out.append({
            "param": param, "value": value, "method": method,
            "n_ok": len(good), "n_failed": len(recs) - len(good),
            "energy_mean_j": float(np.mean(good)) if good else None,
            "energy_std_j": float(np.std(good, ddof=1)) if len(good) > 1 else 0.0,
        })
    return out


def emit_records(records, out_dir, stable_timing: bool = False) -> list[Path]:
    """Write records.csv, records.json and the plot-ready summary.csv.

    Returns the three paths in that order.  `stable_timing` zeroes the
    wall-clock column so fixed-seed sweeps emit byte-identical files (used
    by the reproducibility regression).
    """
    records = list(records)
    if not records:
        raise ValueError("no records to emit")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if stable_timing:
        records = [SolutionRecord(**{**asdict(r), "wall_ms": 0}) for r in records]
    csv_path = out_dir / "records.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(rec.csv_row())
    json_path = out_dir / "records.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump([asdict(r) for r in records], fh, indent=1, sort_keys=True)
        fh.write("\n")
    agg_path = out_dir / "summary.csv"
    with open(agg_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["param", "value", "method", "n_ok", "n_failed",
                         "energy_mean_j", "energy_std_j"])
        for row in aggregate_records(records):
            writer.writerow([row["param"], f"{row['value']:.12g}", row["method"],
                             row["n_ok"], row["n_failed"],
                             "" if row["energy_mean_j"] is None
                             else f"{row['energy_mean_j']:.12g}",
                             f"{row['energy_std_j']:.12g}"])
    return [csv_path, json_path, agg_path]

