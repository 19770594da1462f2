"""Spans recorded from outside cranopt, by wrapping each layer's public calls.

Every target is a module attribute under the name its caller looks it up
by (``algorithms`` calls ``solve`` through its own namespace, so the solver
is wrapped as ``cranopt.algorithms.solve``).  Nothing inside ``src/`` is
changed: `patched` swaps the attributes in and puts the originals back when
the block exits, whether it exits normally or by an exception.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass, field

from cranopt.algorithms import MAX_ITERATIONS

# (layer, "module:attribute") for every call the trace times.
TARGETS = (
    ("experiments", "cranopt.experiments:run_single"),
    ("experiments", "cranopt.experiments:emit_records"),
    ("scenario", "cranopt.experiments:load_config"),
    ("scenario", "cranopt.experiments:generate_channels"),
    ("algorithms", "cranopt.experiments:joint_energy_minimization"),
    ("algorithms", "cranopt.experiments:split_deadline_baseline"),
    ("algorithms", "cranopt.algorithms:ran_power_minimization"),
    ("algorithms", "cranopt.algorithms:_refit_on_support"),
    ("conic.build", "cranopt.algorithms:build_wmmse_step_socp"),
    ("conic.build", "cranopt.algorithms:build_power_min_socp"),
    ("conic.build", "cranopt.algorithms:extract_beamformers"),
    ("conic.solver", "cranopt.algorithms:solve"),
    ("ran", "cranopt.ran:rate"),
    ("ran", "cranopt.ran:ue_power"),
    ("ran", "cranopt.ran:rrh_power"),
    ("ran", "cranopt.ran:fronthaul_load"),
    ("ran", "cranopt.ran:fronthaul_weights"),
    ("cloud", "cranopt.algorithms:clone_energy"),
    ("cloud", "cranopt.algorithms:solve_cloud_allocation"),
)

# Solution-returning calls whose results the correctness gate replays.
SOLUTION_TARGETS = ("cranopt.experiments:joint_energy_minimization",
                    "cranopt.experiments:split_deadline_baseline")


def resolve(target: str):
    """The module object and attribute name behind a "module:attribute" target."""
    module_name, attr = target.split(":")
    return importlib.import_module(module_name), attr


@contextlib.contextmanager
def patched(replacements: dict):
    """Install {target: replacement} for the block, then restore the originals."""
    saved = []
    try:
        for target, replacement in replacements.items():
            module, attr = resolve(target)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


@dataclass
class Span:
    name: str            # the wrapped target
    start: float         # perf_counter seconds
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    point: int | None    # benchmark point the span belongs to
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _attrs(target: str, args, result) -> dict:
    """Counts taken from a call's arguments and result at the layer boundary."""
    attr = target.split(":")[1]
    if attr == "solve":
        problem = args[0]
        return {"iterations": result.iterations, "status": result.status,
                "n": problem.num_vars, "m": problem.cone_lhs.shape[0],
                "p": problem.eq_lhs.shape[0],
                "soc": sum(1 for kind, _ in problem.cones if kind == "soc")}
    if attr in ("joint_energy_minimization", "split_deadline_baseline",
                "ran_power_minimization"):
        return {"iterations": result.iterations, "status": result.status,
                "converged": result.converged}
    return {}


class Tracer:
    """Keeps spans in memory; `wrappers` gives the replacements for `patched`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.point: int | None = None
        self._stack: list[int] = []

    def wrap(self, target: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(target, 0.0, 0.0, stack[-1] if stack else -1, self.point)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.attrs = _attrs(target, args, result)
            return result

        return traced

    def wrappers(self) -> dict:
        out = {}
        for _, target in TARGETS:
            module, attr = resolve(target)
            out[target] = self.wrap(target, getattr(module, attr))
        return out

    def self_times(self) -> list[float]:
        """Each span's duration less the time its child spans cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own


LAYER_OF = {target: layer for layer, target in TARGETS}


def layer_metrics(tracer: Tracer, point_seconds: float) -> dict:
    """Per-layer counts and times over every traced span, by metric name.

    `point_seconds` is the summed wall time of the traced points, the base
    of ``solver.share``.
    """
    spans = tracer.spans
    own = tracer.self_times()

    def named(attr):
        return [s for s in spans if s.name.endswith(":" + attr)]

    def total(attr):
        return sum(s.duration for s in named(attr))

    def layer_total(layer):
        return sum(s.duration for s in spans if LAYER_OF[s.name] == layer)

    solves = named("solve")
    iters = sum(s.attrs.get("iterations", 0) for s in solves)
    calls = max(len(solves), 1)
    solver_s = total("solve")
    refits = {i for i, s in enumerate(spans) if s.name.endswith(":_refit_on_support")}
    joints = named("joint_energy_minimization")
    return {
        "solver.calls": (len(solves), "count"),
        "solver.s": (solver_s, "s"),
        "solver.share": (solver_s / point_seconds, "ratio"),
        "solver.ipm_iters": (iters, "count"),
        "solver.iters_per_call": (iters / calls, "count"),
        "solver.ms_per_iter": (1000.0 * solver_s / max(iters, 1), "ms"),
        "solver.nonoptimal": (sum(s.attrs.get("status") != "optimal" for s in solves), "count"),
        "solver.n_mean": (sum(s.attrs.get("n", 0) for s in solves) / calls, "count"),
        "solver.m_mean": (sum(s.attrs.get("m", 0) for s in solves) / calls, "count"),
        "solver.p_mean": (sum(s.attrs.get("p", 0) for s in solves) / calls, "count"),
        "solver.soc_blocks": (sum(s.attrs.get("soc", 0) for s in solves) / calls, "count"),
        "build.wmmse_calls": (len(named("build_wmmse_step_socp")), "count"),
        "build.wmmse_s": (total("build_wmmse_step_socp"), "s"),
        "build.powermin_calls": (len(named("build_power_min_socp")), "count"),
        "build.powermin_s": (total("build_power_min_socp"), "s"),
        "build.extract_s": (total("extract_beamformers"), "s"),
        "algorithms.self_s": (sum(own[i] for i, s in enumerate(spans)
                                  if LAYER_OF[s.name] == "algorithms"), "s"),
        "algorithms.bcd_rounds": (sum(s.attrs.get("iterations", 0) for s in joints), "count"),
        # A conic step that fails also ends the BCD unconverged, before the cap.
        "algorithms.bcd_cap_hits": (sum(s.attrs.get("iterations") == MAX_ITERATIONS
                                        and not s.attrs["converged"] for s in joints),
                                    "count"),
        "algorithms.refit_solves": (sum(s.parent in refits for s in solves), "count"),
        "algorithms.ranpm_rounds": (sum(s.attrs.get("iterations", 0)
                                        for s in named("ran_power_minimization")), "count"),
        "ran.calls": (sum(LAYER_OF[s.name] == "ran" for s in spans), "count"),
        "ran.s": (layer_total("ran"), "s"),
        "cloud.calls": (sum(LAYER_OF[s.name] == "cloud" for s in spans), "count"),
        "cloud.s": (layer_total("cloud"), "s"),
        "scenario.load_s": (total("load_config"), "s"),
        "scenario.channels_s": (total("generate_channels"), "s"),
        "experiments.self_s": (sum(own[i] for i, s in enumerate(spans)
                                   if s.name.endswith(":run_single")), "s"),
        "experiments.emit_s": (total("emit_records"), "s"),
    }
