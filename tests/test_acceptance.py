"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The heavy stock-scenario solution sets are computed once in module-scoped fixtures
and shared across the criteria that grade them.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from cranopt import ran
from cranopt.algorithms import (
    joint_energy_minimization,
    mmse_receiver,
    mse,
    mse_weight,
    split_deadline_baseline,
)
from cranopt.cloud import InfeasibleError, solve_cloud_allocation
from cranopt.conic import solve, solver
from cranopt.experiments import SweepSpec, emit_records, run_sweep
from cranopt.ran import sinr
from cranopt.scenario import ChannelState, Task, default_config, generate_channels, load_config

from test_conic import brute_force_oracle, random_socp
from test_golden import ENERGY_REL_TOL, GOLDEN_FILES, compare_with_golden
from test_wmmse_kernel import finite_difference_weight, random_instance

REPO = Path(__file__).resolve().parents[1]
SCENARIO = REPO / "scenarios" / "smallcell.json"

SEEDS = tuple(range(42, 62))  # 20 seeds shared by criteria 5-9
ALPHAS = (0.25, 0.5, 0.75)


def report(number, name, passed, detail=""):
    state = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] criterion {number:2d} ({name}): {state} {detail}".rstrip())
    assert passed, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def stock_runs():
    config, tasks = default_config()
    runs = {}
    for seed in SEEDS:
        channels = generate_channels(config, seed)
        joint = joint_energy_minimization(config, tasks, channels)
        baselines = {}
        for alpha in ALPHAS:
            try:
                baselines[alpha] = split_deadline_baseline(config, tasks,
                                                           channels, alpha)
            except InfeasibleError:
                baselines[alpha] = None
        runs[seed] = (channels, joint, baselines)
    return config, tasks, runs


def test_criterion_1_cloud_closed_form():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        cycles = rng.uniform(200, 5e4)
        deadline = rng.uniform(1e-3, 0.5)
        kappa = rng.uniform(1e-12, 1e-10)
        nu = rng.uniform(1.0, 4.0)
        cap = cycles / deadline * rng.uniform(1.0, 3.0)
        [energy] = solve_cloud_allocation([cycles], deadline, cap, kappa, nu).exec_energy
        closed = kappa * cycles ** nu / deadline ** (nu - 1.0)
        worst = max(worst, abs(energy - closed) / closed)
        speeds = np.linspace(cap / 1e4, cap, 10000)
        feasible = speeds[cycles / speeds <= deadline]
        grid = kappa * feasible ** (nu - 1.0) * cycles
        if np.any(grid < energy * (1.0 - 1e-12)):
            report(1, "cloud closed form", False, "grid search beat the closed form")
    report(1, "cloud closed form", worst <= 1e-12,
           f"max relative deviation {worst:.2e}")


def test_criterion_2_solver_oracle_equivalence(monkeypatch):
    # The rule the criterion was set under: gap 1e-8, feas 1e-8, 100 iterations.
    monkeypatch.setattr(solver, "GAP_TOL", 1e-8)
    monkeypatch.setattr(solver, "FEAS_TOL", 1e-8)
    monkeypatch.setattr(solver, "MAX_ITER", 100)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        problem, c, cons = random_socp(rng, n)
        rep = solve(problem)
        ok = (rep.optimal and rep.duality_gap <= 1e-8
              and rep.primal_residual <= 1e-8 and rep.dual_residual <= 1e-8)
        if not ok:
            report(2, "solver oracle equivalence", False,
                   f"report not clean: {rep.status} gap={rep.duality_gap:.1e}")
        oracle = brute_force_oracle(c, cons, n)
        worst = max(worst, abs(rep.primal_objective - oracle))
    report(2, "solver oracle equivalence", worst <= 1e-4,
           f"max |objective - oracle| = {worst:.2e}")


def test_criterion_3_single_link_oracle():
    doc = {"system": {"num_rrh": 1, "num_ue": 1, "antennas_per_rrh": 1},
           "geometry": {"rrh_positions": [[0.0, 0.0]], "ue_positions": [[0.0, 0.01]]},
           "tasks": {"cpu_cycles": 1500, "result_bits": 1000, "deadline": 0.1}}
    config, tasks = load_config(doc)
    worst = 0.0
    for gain in (1e-8, 3e-9, 3e-8):
        channels = ChannelState(
            gains=np.array([[[math.sqrt(gain)]]], dtype=complex),
            noise_power=config.noise_power[:1].copy())
        sol = joint_energy_minimization(config, tasks, channels)
        assert sol.status == "optimal"
        task = tasks[0]
        sigma2, bandwidth, eta = 1e-6, 1e7, 10.0
        r_min = task.result_bits / (task.deadline - task.cpu_cycles / 1e6)
        r_max = bandwidth * math.log2(1.0 + gain / sigma2)
        rates = np.linspace(r_min, r_max, 400001)
        speeds = task.cpu_cycles / (task.deadline - task.result_bits / rates)
        energy = (1e-11 * speeds ** 2 * task.cpu_cycles
                  + eta * (2.0 ** (rates / bandwidth) - 1.0) * sigma2 / gain
                  * task.result_bits / rates)
        worst = max(worst, abs(sol.energy.total - energy.min()) / energy.min())
    report(3, "single-link energy oracle", worst <= 1e-3,
           f"max relative gap to 1-D brute force {worst:.2e}")


def test_criterion_4_wmmse_kernel_identities():
    rng = np.random.default_rng(11)
    # Receiver local optimality and the MSE/SINR identity.
    for _ in range(10):
        channels, beams = random_instance(rng)
        receivers = mmse_receiver(channels, beams)
        base = mse(channels, beams.vectors, receivers)
        for i in range(3):
            for _ in range(100):
                moved = receivers.copy()
                moved[i] += 1e-3 * (rng.standard_normal() + 1j * rng.standard_normal())
                if mse(channels, beams.vectors, moved)[i] < base[i] - 1e-12:
                    report(4, "wmmse kernel identities", False,
                           "perturbation improved the MMSE receiver")
        one_plus_sinr = 1.0 + sinr(channels, beams)
        if np.any(np.abs(1.0 / base - one_plus_sinr) > 1e-9 * one_plus_sinr):
            report(4, "wmmse kernel identities", False, "1/e != 1 + SINR")
    # Weight gradient against high-precision finite differences.
    worst = 0.0
    checked = 0
    while checked < 100:
        task = Task(cpu_cycles=rng.uniform(500, 3000),
                    result_bits=rng.uniform(200, 2000),
                    deadline=rng.uniform(0.05, 0.3))
        bandwidth = rng.uniform(1e6, 2e7)
        nu = rng.uniform(1.5, 3.5)
        cap = rng.uniform(2e5, 2e6)
        if task.deadline <= task.cpu_cycles / cap:
            continue
        floor = task.result_bits / (task.deadline - task.cpu_cycles / cap)
        e = rng.uniform(0.05, 0.95)
        if bandwidth * math.log2(1.0 / e) < 1.05 * floor:
            continue
        phi = float(mse_weight(e, task.cpu_cycles, task.result_bits, task.deadline,
                               bandwidth, 1e-11, nu, cap))
        fd = finite_difference_weight(e, task, bandwidth, 1e-11, nu, cap)
        worst = max(worst, abs(phi - fd) / abs(fd))
        checked += 1
    report(4, "wmmse kernel identities", worst <= 1e-4,
           f"max weight-vs-FD relative error {worst:.2e}")


def test_criterion_5_bcd_monotonicity(stock_runs):
    _, _, runs = stock_runs
    worst = 0.0
    converged = 0
    for seed in SEEDS:
        _, joint, _ = runs[seed]
        converged += joint.converged and joint.iterations <= 30
        for row in joint.surrogate_trace:
            values = [x for x in row if x is not None]
            for before, after in zip(values, values[1:]):
                worst = max(worst, (after - before) / max(1.0, abs(before)))
    passed = worst <= 1e-9 and converged >= 0.9 * len(SEEDS)
    report(5, "BCD monotonicity", passed,
           f"worst per-step increase {worst:.2e}, converged {converged}/{len(SEEDS)}")


def test_criterion_6_constraint_replay(stock_runs):
    config, tasks, runs = stock_runs
    worst = {"power": 0.0, "rate": 0.0, "fronthaul": 0.0, "deadline": 0.0}
    for seed in SEEDS:
        channels, joint, baselines = runs[seed]
        solutions = [("joint", joint)] + [
            (f"separate:{a}", b) for a, b in baselines.items() if b is not None]
        for _, sol in solutions:
            beams = sol.ran.beamformers
            rates = ran.rate(channels, beams, config.bandwidth)
            worst["power"] = max(worst["power"], np.max(ran.rrh_power(beams)) - 1.0)
            load = ran.fronthaul_load(beams, rates)
            worst["fronthaul"] = max(worst["fronthaul"], np.max(load) / 1e7 - 1.0)
            for i in range(config.num_ue):
                worst["rate"] = max(worst["rate"],
                                    1.0 - rates[i] / sol.ran.floors[i])
                total_time = (tasks[i].cpu_cycles / sol.clone_capacity[i]
                              + tasks[i].result_bits / rates[i])
                worst["deadline"] = max(worst["deadline"],
                                        total_time / tasks[i].deadline - 1.0)
    passed = all(v <= 1e-6 for v in worst.values())
    report(6, "constraint replay", passed,
           " ".join(f"{k}={v:+.1e}" for k, v in worst.items()))


def test_criterion_7_joint_beats_separate(stock_runs):
    _, _, runs = stock_runs
    joint_energies = []
    base_energies = {alpha: [] for alpha in ALPHAS}
    per_seed_wins = 0
    usable = 0
    for seed in SEEDS:
        _, joint, baselines = runs[seed]
        if joint.energy is None:
            continue
        joint_energies.append(joint.energy.total)
        mins = []
        for alpha in ALPHAS:
            base = baselines[alpha]
            if base is not None and base.energy is not None:
                base_energies[alpha].append(base.energy.total)
                mins.append(base.energy.total)
        if mins:
            usable += 1
            per_seed_wins += joint.energy.total <= min(mins) + 1e-9
    mean_joint = float(np.mean(joint_energies))
    mean_ok = all(mean_joint <= float(np.mean(base_energies[alpha])) + 1e-12
                  for alpha in ALPHAS if base_energies[alpha])
    share = per_seed_wins / max(usable, 1)
    passed = mean_ok and share >= 0.95 and len(joint_energies) == len(SEEDS)
    detail = (f"mean joint {mean_joint:.2f} vs "
              + ", ".join(f"a={a}: {np.mean(base_energies[a]):.2f}"
                          for a in ALPHAS if base_energies[a])
              + f"; per-seed wins {per_seed_wins}/{usable}")
    report(7, "joint beats separate splits", passed, detail)


def test_criterion_8_parameter_trends():
    doc = json.loads(SCENARIO.read_text())
    seeds = SEEDS

    def run_grid(param, grid):
        spec = SweepSpec(param=param, grid=grid, methods=("joint",),
                         seeds=seeds, scenario=doc, scenario_name="smallcell")
        records = run_sweep(spec, workers=1)
        means = []
        for value in grid:
            good = [r.energy_total_j for r in records
                    if r.value == value and r.energy_total_j is not None]
            means.append(float(np.mean(good)))
        return means

    f_means = run_grid("F", (1000.0, 1250.0, 1500.0, 1750.0, 2000.0))
    d_means = run_grid("D", (500.0, 750.0, 1000.0, 1250.0, 1500.0))
    t_means = run_grid("Tmax", (0.06, 0.08, 0.10, 0.12))
    n_means = run_grid("N", (5.0, 6.0))
    f_ok = all(b >= a for a, b in zip(f_means, f_means[1:]))
    d_ok = all(b >= a for a, b in zip(d_means, d_means[1:]))
    t_ok = all(b <= a for a, b in zip(t_means, t_means[1:]))
    n_ok = n_means[1] > n_means[0]
    passed = f_ok and d_ok and t_ok and n_ok
    detail = (f"F:{[round(m, 2) for m in f_means]} D:{[round(m, 2) for m in d_means]} "
              f"T:{[round(m, 2) for m in t_means]} N:{[round(m, 2) for m in n_means]}")
    report(8, "parameter trends", passed, detail)


def test_criterion_9_fronthaul_sparsification(stock_runs):
    config, tasks, runs = stock_runs
    low_config, _ = default_config(fronthaul_limit=1e6)
    full_sizes, low_sizes = [], []
    for seed in SEEDS:
        channels, joint, _ = runs[seed]
        full_sizes.append(np.mean([len(c) for c in joint.ran.clusters]))
        low = joint_energy_minimization(low_config, tasks, channels)
        low_sizes.append(np.mean([len(c) for c in low.ran.clusters]))
    full_mean = float(np.mean(full_sizes))
    low_mean = float(np.mean(low_sizes))
    report(9, "fronthaul sparsification", low_mean < full_mean,
           f"mean cluster size {full_mean:.2f} -> {low_mean:.2f} at C/10")


def test_criterion_10_golden_reproducibility(tmp_path):
    doc = json.loads(SCENARIO.read_text())
    spec = SweepSpec(param="F", grid=(1000.0, 1500.0),
                     methods=("joint", "separate:0.5"), seeds=(42, 43),
                     scenario=doc, scenario_name="smallcell")
    runs = (tmp_path / "first", tmp_path / "second")
    for out in runs:
        emit_records(run_sweep(spec, workers=1), out, stable_timing=True)
    problems = [f"{name} differs between two runs" for name in GOLDEN_FILES
                if (runs[0] / name).read_bytes() != (runs[1] / name).read_bytes()]
    golden_problems, worst = compare_with_golden(runs[0])
    problems += golden_problems
    report(10, "golden sweep reproducibility", not problems,
           "; ".join(problems) if problems else
           f"rerun byte-identical, max energy deviation from golden {worst:.2e} "
           f"of row energy (tolerance {ENERGY_REL_TOL:.0e})")
