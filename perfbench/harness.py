"""Workloads, the measured loop over sweep points, and the correctness gate.

A workload is a scenario (``scenarios/smallcell.json`` with some system
fields overridden) and the task sizes F at which each method runs.  Its
items are (seed, F) pairs, seeds consecutive from the base seed; an item
runs a ``joint`` and/or a ``separate:0.5`` point through
``experiments.run_single``, which is what ``run_sweep`` does per point with
``workers=1``.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cranopt import algorithms, experiments
from tracing import SOLUTION_TARGETS, Tracer, layer_metrics, patched, resolve

METHODS = ("joint", "separate:0.5")
REPLAY_TOL = 1e-6   # relative slack allowed on every replayed constraint
SCENARIO = Path("scenarios") / "smallcell.json"


@dataclass(frozen=True)
class Workload:
    name: str
    system: dict          # overrides of the scenario's "system" block
    grid: tuple           # (task size F in CPU cycles, methods) per item of a seed
    compare: bool         # check joint <= separate energy per (F, seed)
    trace_items: int      # items in the traced run


SEPARATE = ("separate:0.5",)
WORKLOADS = {w.name: w for w in (
    # The paper's sweep shape over the README grid: small conic problems,
    # where per-block Python and sparse assembly dominate.
    Workload("stock-sweep", {},
             tuple((f, METHODS) for f in (1000.0, 1250.0, 1500.0, 1750.0, 2000.0)),
             True, 5),
    # Larger KKT systems, denser builder rows, O(N^2) rate accounting; the
    # fronthaul is loose so that fronthaul-joint alone covers a binding one.
    # At F=1000 every seed's joint point takes 4 BCD rounds (2, 3 or 5 at
    # F=1500), so the ~10 joint samples of a run share one cost.
    Workload("large-joint", {"num_rrh": 8, "num_ue": 8, "fronthaul_limit": 1e9},
             ((1000.0, METHODS),), False, 3),
    # Fronthaul at C/10: the joint BCD runs to its 30-round cap with line
    # search and refit shedding.  The cheap separate points are spread over
    # three task sizes so that they too give a steadier median.
    Workload("fronthaul-joint", {"fronthaul_limit": 1e6},
             ((1000.0, SEPARATE), (1500.0, METHODS), (2000.0, SEPARATE)), False, 3),
)}


@dataclass
class Point:
    id: int
    seed: int
    value: float
    method: str
    seconds: float                    # wall time of run_single
    record: object | None = None      # experiments.SolutionRecord
    solution: tuple | None = None     # (config, tasks, channels, solution)
    error: str = ""                   # unexpected exception, if any
    ok: bool = False                  # optimal, finite energy, checks passed
    failure: str = ""                 # why an "optimal" point failed a check

    @property
    def label(self) -> str:
        return f"seed={self.seed} F={self.value:g} {self.method}"


class Capture:
    """Keeps the last solution returned by a solution-returning call."""

    def __init__(self):
        self.last = None

    def replacements(self, base: dict) -> dict:
        out = dict(base)
        for target in SOLUTION_TARGETS:
            module, attr = resolve(target)
            out[target] = self._wrap(out.get(target, getattr(module, attr)))
        return out

    def _wrap(self, fn):
        def capture(config, tasks, channels, *args, **kwargs):
            result = fn(config, tasks, channels, *args, **kwargs)
            self.last = (config, tasks, channels, result)
            return result
        return capture


def scenario_doc(root: Path, workload: Workload) -> dict:
    with open(root / SCENARIO, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["system"].update(workload.system)
    return doc


def items(workload: Workload, base_seed: int):
    """(seed, F, methods) per item, seeds consecutive from the base seed, without end."""
    for seed in itertools.count(base_seed):
        for value, methods in workload.grid:
            yield seed, value, methods


def _run_item(doc, workload, item, first_id, capture, tracer) -> list[Point]:
    seed, value, methods = item
    point_doc = json.loads(json.dumps(doc))
    point_doc["tasks"]["cpu_cycles"] = value
    points = []
    for k, method in enumerate(methods):
        point = Point(first_id + k, seed, value, method, 0.0)
        if tracer is not None:
            tracer.point = point.id
        capture.last = None
        started = time.perf_counter()
        try:
            point.record = experiments.run_single(
                point_doc, method, seed, param="F", value=value,
                scenario_name=workload.name)
        except Exception:  # a crashed point is reported, not fatal
            point.error = traceback.format_exc()
        point.seconds = time.perf_counter() - started
        point.solution = capture.last
        points.append(point)
    return points


def _emit(points, out_dir: Path):
    records = [p.record for p in points if p.record is not None]
    if records:
        experiments.emit_records(records, out_dir)


def measure(root: Path, workload: Workload, seed: int, seconds: float, out_dir: Path):
    """Untraced run: the first seed's items, then items while they are
    expected to end within `seconds`.

    An item is expected to take as long as the mean of the earlier items at
    the same grid position.  Returns the points and the run wall time
    (points plus the one emission).
    """
    doc = scenario_doc(root, workload)
    capture = Capture()
    points: list[Point] = []
    taken: dict = {}   # grid position -> item durations
    started = time.perf_counter()
    with patched(capture.replacements({})):
        for index, item in enumerate(items(workload, seed)):
            position = index % len(workload.grid)
            now = time.perf_counter() - started
            if (index >= len(workload.grid)
                    and now + statistics.fmean(taken[position]) > seconds):
                break
            points += _run_item(doc, workload, item, len(points), capture, None)
            taken.setdefault(position, []).append(time.perf_counter() - started - now)
    _emit(points, out_dir)
    return points, time.perf_counter() - started


def measure_traced(root: Path, workload: Workload, seed: int, out_dir: Path):
    """Traced run over a fixed item list, so its counts repeat exactly.

    Each item runs once untraced and once traced, alternating which goes
    first; ``trace.overhead`` is traced over untraced wall time.  Returns
    the traced points, the tracer and the per-layer metrics.
    """
    doc = scenario_doc(root, workload)
    tracer = Tracer()
    capture = Capture()
    traced_points: list[Point] = []
    untraced_s = 0.0
    for index, item in enumerate(itertools.islice(items(workload, seed), workload.trace_items)):
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            base = tracer.wrappers() if traced else {}
            with patched(capture.replacements(base)):
                pts = _run_item(doc, workload, item, len(traced_points), capture,
                                tracer if traced else None)
            if traced:
                traced_points += pts
            else:
                untraced_s += sum(p.seconds for p in pts)
    tracer.point = None
    with patched(tracer.wrappers()):
        _emit(traced_points, out_dir)
    traced_s = sum(p.seconds for p in traced_points)
    metrics = layer_metrics(tracer, traced_s)
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
    return traced_points, tracer, metrics


# ---------------------------------------------------------------------------
# Correctness gate, run after the measured loop.


def _replay(point: Point) -> str:
    """Empty if the returned solution meets every constraint, else the misses."""
    config, tasks, channels, sol = point.solution
    rates = np.asarray(sol.ran.rates, dtype=float)
    bits = np.array([t.result_bits for t in tasks])
    cycles = np.array([t.cpu_cycles for t in tasks])
    with np.errstate(divide="ignore"):
        total = cycles / np.asarray(sol.clone_capacity) + np.where(
            bits > 0, bits / rates, 0.0)
    viol = algorithms.constraint_violations(config, tasks, channels, sol.ran,
                                            deadline_total=total)
    relative = {
        "power": viol["power"] / max(config.rrh_power_limit),
        "rate": viol["rate_rel"],
        "fronthaul": viol["fronthaul"] / max(config.fronthaul_limit),
        "deadline": viol["deadline"] / min(t.deadline for t in tasks),
    }
    return " ".join(f"{k}={v:+.2e}" for k, v in relative.items()
                    if not v <= REPLAY_TOL)


def check(points: list[Point], workload: Workload) -> None:
    """Set `ok` and `failure` on every point.

    A point is ok when it is optimal with a finite energy and its solution
    replays within REPLAY_TOL.  A point that says optimal but fails a check,
    or that raised, is a failure; other statuses are neither.
    """
    for p in points:
        if p.error:
            p.failure = "raised: " + p.error.strip().splitlines()[-1]
            continue
        if p.record.status != "optimal":
            continue
        energy = p.record.energy_total_j
        if energy is None or not math.isfinite(energy):
            p.failure = f"optimal with energy {energy}"
        elif p.solution is None:
            p.failure = "optimal but no solution was returned"
        else:
            misses = _replay(p)
            p.failure = f"replay {misses}" if misses else ""
        p.ok = not p.failure
    if workload.compare:
        by_item = {}
        for p in points:
            by_item.setdefault((p.seed, p.value), {})[p.method] = p
        for pair in by_item.values():
            joint, separate = pair.get("joint"), pair.get("separate:0.5")
            if not (joint and separate and joint.ok and separate.ok):
                continue
            if joint.record.energy_total_j > separate.record.energy_total_j * (1.0 + 1e-9):
                joint.ok = False
                joint.failure = (f"joint energy {joint.record.energy_total_j:.9g} J "
                                 f"above separate {separate.record.energy_total_j:.9g} J")


# ---------------------------------------------------------------------------
# Summaries.


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    Below 21 samples that percentile would sit under the median, so the
    median is returned instead and labelled as the 50th percentile.
    """
    xs = sorted(values)
    k = len(xs) - 11
    if k + 1 > len(xs) / 2:
        return xs[k], 100.0 * (k + 1) / len(xs)
    return statistics.median(xs), 50.0


def latency(points: list[Point], method: str) -> dict:
    xs = [p.seconds for p in points if p.method == method]
    value, pct = tail(xs)
    return {"p50": statistics.median(xs), "tail": value, "tail_pct": pct,
            "n": len(xs), "beyond": sum(x > value for x in xs)}
