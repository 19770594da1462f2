"""Command-line front end: single runs and parameter sweeps.

Exit codes: 0 on success, 2 on configuration errors, 3 on I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .experiments import CSV_HEADER, SweepSpec, emit_records, run_single, run_sweep
from .scenario import ValidationError

CONFIG_ERROR = 2
IO_ERROR = 3


def _parse_seeds(text: str) -> tuple[int, ...]:
    """Accept '1,2,7' or a '3..12' inclusive range."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(s) for s in text.split(",") if s)


def _parse_grid(text: str) -> tuple[float, ...]:
    return tuple(float(s) for s in text.split(",") if s)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cranopt",
        description="Joint cloud/radio energy minimization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario/method/seed point")
    run.add_argument("--config", required=True)
    run.add_argument("--method", required=True,
                     help="joint or separate:<alpha>")
    run.add_argument("--seed", required=True, type=int)
    run.add_argument("--out", default=None,
                     help="output file (default: stdout)")
    run.add_argument("--format", choices=("csv", "json"), default="json")

    sweep = sub.add_parser("sweep", help="sweep one parameter over a grid")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--param", required=True, choices=("F", "D", "Tmax", "N"))
    sweep.add_argument("--grid", required=True, type=_parse_grid)
    sweep.add_argument("--methods", required=True,
                       help="comma-separated, e.g. joint,separate:0.5")
    sweep.add_argument("--seeds", required=True, type=_parse_seeds,
                       help="comma list or lo..hi range")
    sweep.add_argument("--out", required=True, help="output directory")
    sweep.add_argument("--workers", type=int, default=None)
    sweep.add_argument("--stable-output", action="store_true",
                       help="zero wall-clock fields for byte-stable files")
    return parser


def _cmd_run(args) -> int:
    record = run_single(args.config, args.method, args.seed)
    if args.format == "json":
        text = json.dumps(asdict(record), indent=1, sort_keys=True) + "\n"
    else:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows([CSV_HEADER, record.csv_row()])
        text = buffer.getvalue()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sweep(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    spec = SweepSpec(
        param=args.param,
        grid=args.grid,
        methods=tuple(m for m in args.methods.split(",") if m),
        seeds=args.seeds,
        scenario=doc,
        scenario_name=Path(args.config).stem,
    )
    records = run_sweep(spec, workers=args.workers)
    paths = emit_records(records, args.out, stable_timing=args.stable_output)
    for path in paths:
        print(path)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
    except (ValidationError, ValueError, json.JSONDecodeError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return CONFIG_ERROR
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
