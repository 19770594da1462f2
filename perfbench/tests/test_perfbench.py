"""Checks of the benchmark's own machinery: wrapping, trace counts, self times.

Run with ``python3 -m pytest perfbench/tests`` from the checkout root.
"""

import dataclasses
from pathlib import Path

import pytest

import harness
from tracing import TARGETS, Span, Tracer, layer_metrics, patched, resolve

ROOT = Path(__file__).resolve().parents[2]
ORIGINALS = {target: getattr(*resolve(target)) for _, target in TARGETS}
STOCK = harness.WORKLOADS["stock-sweep"]
SEED = 42


def _current():
    return {target: getattr(*resolve(target)) for _, target in TARGETS}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two traced runs of one item (a joint and a separate point), same seed."""
    one_item = dataclasses.replace(STOCK, trace_items=1)
    return [harness.measure_traced(ROOT, one_item, SEED, tmp_path_factory.mktemp("out"))
            for _ in range(2)]


def test_wrappers_restore_originals(traced_runs):
    assert all(_current()[t] is ORIGINALS[t] for t in ORIGINALS)
    with pytest.raises(RuntimeError):
        with patched(Tracer().wrappers()):
            assert all(_current()[t] is not ORIGINALS[t] for t in ORIGINALS)
            raise RuntimeError("leave the block by an exception")
    assert all(_current()[t] is ORIGINALS[t] for t in ORIGINALS)


def test_traced_counts_repeat_exactly(traced_runs):
    (_, _, first), (_, _, second) = traced_runs
    for name in ("solver.calls", "solver.ipm_iters", "algorithms.bcd_rounds",
                 "ran.calls"):
        assert first[name][0] > 0
        assert first[name] == second[name], name
    counts = [name for name, (_, unit) in first.items() if unit == "count"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_self_times_nonnegative_and_within_point_time(traced_runs):
    points, tracer, _ = traced_runs[0]
    own = tracer.self_times()
    assert min(own) >= -1e-9
    for point in points:
        spans = [i for i, s in enumerate(tracer.spans) if s.point == point.id]
        assert spans
        assert sum(own[i] for i in spans) <= point.seconds


def test_points_pass_the_correctness_gate(traced_runs):
    points, _, _ = traced_runs[0]
    harness.check(points, STOCK)
    assert [p.ok for p in points] == [True, True]


def test_gate_names_an_optimal_point_that_breaks_a_constraint(traced_runs):
    points, _, _ = traced_runs[0]
    point = dataclasses.replace(points[0])
    config, tasks, channels, sol = point.solution
    tight = dataclasses.replace(
        config, rrh_power_limit=tuple(p * 1e-3 for p in config.rrh_power_limit))
    point.solution = (tight, tasks, channels, sol)
    harness.check([point], harness.WORKLOADS["large-joint"])
    assert not point.ok
    assert point.failure.startswith("replay power=")


def test_cap_hits_count_only_runs_that_reach_the_round_cap():
    tracer = Tracer()
    joint = "cranopt.experiments:joint_energy_minimization"
    for rounds, converged in ((30, False), (6, False), (5, True)):
        tracer.spans.append(Span(joint, 0.0, 1.0, -1, None, {
            "iterations": rounds, "converged": converged,
            "status": "optimal" if converged else "max_iterations"}))
    metrics = layer_metrics(tracer, 3.0)
    assert metrics["algorithms.bcd_cap_hits"] == (1, "count")
    assert metrics["algorithms.bcd_rounds"] == (41, "count")


def test_tail_has_ten_samples_beyond_it():
    assert harness.tail(range(1, 41)) == (30, 75.0)
    assert harness.tail(range(1, 22)) == (11, 100.0 * 11 / 21)
    assert harness.tail(range(1, 21)) == (10.5, 50.0)   # the median below 21
    assert harness.tail([3, 1, 2]) == (2, 50.0)
