#!/usr/bin/env python3
"""cranopt benchmark: sweep-point latency, throughput and a per-layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stock-sweep --seed 42 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 40 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off: points run
until ``--seconds`` pass.  ``--trace 1`` runs a fixed list of items twice,
untraced and traced, and reports the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it are the readable report.
The full result, with the machine and inputs, goes to
``perfbench/out/<workload>-seed<seed>-trace<k>.json``, and a traced run
also writes its spans there as ``...-spans.jsonl``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COLD_STARTS = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="stock-sweep, large-joint, fronthaul-joint or all")
    parser.add_argument("--seed", required=True, type=int, help="base seed")
    parser.add_argument("--seconds", required=True, type=float,
                        help="measured time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_cranopt():
    """Import cranopt from this checkout's src/ and no other place."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import cranopt
    if Path(cranopt.__file__).resolve().parent != ROOT / "src" / "cranopt":
        raise ImportError(f"cranopt imported from {cranopt.__file__}, "
                          f"not from {ROOT / 'src'}")
    if not (ROOT / "scenarios" / "smallcell.json").is_file():
        raise FileNotFoundError("scenarios/smallcell.json is missing")


def setup_seconds() -> tuple[float, list[float]]:
    """Median wall time from spawning a fresh process to its "ready" line."""
    times = []
    for _ in range(COLD_STARTS):
        started = time.perf_counter()
        with subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "cold_start.py"),
                               str(ROOT)], stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - started)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return statistics.median(times), times


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def machine(seed: int, point_counts: dict) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "base_seed": seed,
        "commit": _git_commit(),
        "points": point_counts,
    }


def end_to_end(harness, workload, seed, seconds, setup) -> dict:
    out_dir = OUT / workload.name
    points, wall = harness.measure(ROOT, workload, seed, seconds, out_dir)
    harness.check(points, workload)
    joint = harness.latency(points, "joint")
    separate = harness.latency(points, "separate:0.5")

    def tail_note(lat):
        if lat["n"] < 21:
            return f"n={lat['n']} < 21: the median"
        return f"p{lat['tail_pct']:.1f} of n={lat['n']}, {lat['beyond']} beyond"

    metrics = {
        "setup_s": (setup[0], "s", f"median of {len(setup[1])} fresh processes"),
        "joint_s_p50": (joint["p50"], "s", f"n={joint['n']}"),
        "joint_s_tail": (joint["tail"], "s", tail_note(joint)),
        "separate_s_p50": (separate["p50"], "s", f"n={separate['n']}"),
        "separate_s_tail": (separate["tail"], "s", tail_note(separate)),
        "points_per_s": (len(points) / wall, "1/s", f"{len(points)} points in {wall:.2f} s"),
        "ok_frac": (sum(p.ok for p in points) / len(points), "ratio",
                    f"{sum(p.ok for p in points)} of {len(points)}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", "benchmark process, peak so far"),
    }
    return {"points": points, "metrics": metrics, "extra": {
        "setup_samples_s": setup[1], "joint": joint, "separate": separate}}


def per_layer(harness, workload, seed) -> dict:
    out_dir = OUT / workload.name
    points, tracer, layers = harness.measure_traced(ROOT, workload, seed, out_dir)
    harness.check(points, workload)
    metrics = {name: (value, unit, "") for name, (value, unit) in layers.items()}
    return {"points": points, "metrics": metrics, "tracer": tracer, "extra": {}}


def _write_spans(path: Path, tracer):
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps({"name": span.name, "start": span.start, "end": span.end,
                                 "parent": span.parent, "point": span.point,
                                 **span.attrs}) + "\n")


def report(workload, seed, trace, result, info) -> None:
    points = result["points"]
    failures = [p for p in points if p.failure]
    print(f"== {workload.name}  base seed {seed}  trace {trace}")
    print(f"   machine: nproc={info['nproc']} python={info['python']} "
          f"numpy={info['numpy']} scipy={info['scipy']} blas={info['blas']} "
          f"threads={info['blas_threads']['OPENBLAS_NUM_THREADS']} "
          f"commit={info['commit'][:12]} points={info['points']}")
    for name, (value, unit, note) in result["metrics"].items():
        print(f"   {name:<26} {value:>14.6g} {unit:<6} {note}")
    gate = "PASS" if not failures else "FAIL"
    print(f"   correctness gate: {gate} ({len(points)} points replayed, "
          f"{sum(p.ok for p in points)} ok, {len(failures)} failed)")
    for p in failures:
        print(f"   FAILED {workload.name} {p.label}: {p.failure}")
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{workload.name}-seed{seed}-trace{trace}"
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "machine": info,
                   "metrics": {k: {"value": v, "unit": u, "note": n}
                               for k, (v, u, n) in result["metrics"].items()},
                   "extra": result["extra"],
                   "failures": [f"{p.label}: {p.failure}" for p in failures],
                   "points": [{"id": p.id, "seed": p.seed, "F": p.value,
                               "method": p.method, "seconds": p.seconds,
                               "status": p.record.status if p.record else "raised",
                               "iterations": p.record.iterations if p.record else 0,
                               "ok": p.ok} for p in points]},
                  fh, indent=1)
    if "tracer" in result:
        _write_spans(Path(f"{stem}-spans.jsonl"), result["tracer"])


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_THREAD_VARS:   # before numpy loads BLAS
        os.environ[var] = "1"
    try:
        _import_cranopt()
    except (ImportError, FileNotFoundError) as err:
        print(f"cannot run the benchmark: {err}", file=sys.stderr)
        return 2
    import harness   # imports numpy and cranopt, so only after the two steps above

    if args.workload == "all":
        chosen = list(harness.WORKLOADS.values())
    elif args.workload in harness.WORKLOADS:
        chosen = [harness.WORKLOADS[args.workload]]
    else:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    setup = setup_seconds() if not args.trace else None
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in chosen:
        if args.trace:
            result = per_layer(harness, workload, args.seed)
        else:
            result = end_to_end(harness, workload, args.seed, args.seconds, setup)
        points = result["points"]
        report(workload, args.seed, args.trace, result,
               machine(args.seed, dict(collections.Counter(p.method for p in points))))
        failed = sum(bool(p.failure) for p in points)
        summary["correct"] = summary["correct"] and failed == 0
        summary["attempted"] += len(points)
        summary["failed"] += failed
        prefix = "" if len(chosen) == 1 else workload.name + "/"
        for name, (value, unit, _) in result["metrics"].items():
            summary["metrics"][prefix + name] = {"value": value, "unit": unit}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
