import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from cranopt import algorithms, ran
from cranopt.algorithms import (
    constraint_violations,
    extract_rrh_clusters,
    joint_energy_minimization,
    ran_power_minimization,
    split_deadline_baseline,
)
from cranopt.cloud import InfeasibleError
from cranopt.ran import BeamformerSet
from cranopt.scenario import ChannelState, default_config, generate_channels, load_config

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "smallcell.json"


def single_link_setup(gain=1e-8, cycles=1500.0, bits=1000.0, deadline=0.1):
    doc = {"system": {"num_rrh": 1, "num_ue": 1, "antennas_per_rrh": 1},
           "geometry": {"rrh_positions": [[0.0, 0.0]], "ue_positions": [[0.0, 0.01]]},
           "tasks": {"cpu_cycles": cycles, "result_bits": bits, "deadline": deadline}}
    config, tasks = load_config(doc)
    channels = ChannelState(gains=np.array([[[math.sqrt(gain)]]], dtype=complex),
                            noise_power=config.noise_power[:1].copy())
    return config, tasks, channels


@pytest.fixture(scope="module")
def smallcell():
    config, tasks = default_config()
    return config, tasks


@pytest.fixture(scope="module")
def joint_seed42(smallcell):
    config, tasks = smallcell
    channels = generate_channels(config, 42)
    return config, tasks, channels, joint_energy_minimization(config, tasks, channels)


def joint_at_tenth_fronthaul(seed, cycles=1500.0):
    """The stock cell at fronthaul C/10 and task size F, solved jointly."""
    config, tasks = default_config(fronthaul_limit=1e6)
    tasks = [dataclasses.replace(t, cpu_cycles=cycles) for t in tasks]
    channels = generate_channels(config, seed)
    return config, tasks, channels, joint_energy_minimization(config, tasks, channels)


class TestRanPowerMinimization:
    def test_single_link_closed_form(self):
        config, tasks, channels = single_link_setup()
        budget = 0.05
        sol = ran_power_minimization(config, tasks, channels, budget)
        assert sol.status == "optimal"
        floor = 1000.0 / budget
        expect = (2 ** (floor / 1e7) - 1.0) * 1e-6 / 1e-8
        assert sol.powers[0] == pytest.approx(expect, rel=1e-6)
        # K = 1: the beamformer is a scaled (rotated) copy of the channel.
        v = sol.beamformers.vectors[0, 0, 0]
        h = channels.gains[0, 0, 0]
        assert abs(v / h) == pytest.approx(abs(v) / abs(h), rel=1e-9)
        assert sol.rates[0] >= floor * (1.0 - 1e-9)

    def test_no_traffic_no_power(self, smallcell):
        config, _ = smallcell
        _, tasks = load_config({"tasks": {"result_bits": 0.0}})
        channels = generate_channels(config, 5)
        sol = ran_power_minimization(config, tasks, channels, 0.05)
        assert np.all(sol.powers == 0.0)
        assert np.max(np.abs(sol.beamformers.vectors)) == 0.0

    def test_stock_scenario_constraints_hold(self, smallcell):
        config, tasks = smallcell
        channels = generate_channels(config, 42)
        sol = ran_power_minimization(config, tasks, channels, 0.05)
        assert sol.status == "optimal"
        assert np.all(ran.rrh_power(sol.beamformers) <= 1.0 + 1e-6)
        assert np.all(sol.rates >= sol.floors - 1e-6)
        assert np.all(sol.rates >= sol.floors * (1.0 - 1e-9))


class TestJointEnergyMinimization:
    def test_no_payload_reduces_to_cloud_closed_form(self, smallcell):
        config, _ = smallcell
        _, tasks = load_config({"tasks": {"result_bits": 0.0}})
        channels = generate_channels(config, 3)
        sol = joint_energy_minimization(config, tasks, channels)
        expect = sum(1e-11 * t.cpu_cycles ** 3 / t.deadline ** 2 for t in tasks)
        assert sol.energy.total == pytest.approx(expect, rel=1e-12)
        assert sol.energy.total_transmit == 0.0

    def test_ues_without_payload_raise_no_warning(self, smallcell):
        # Two of five UEs return no bits and get no beamformer: their radio
        # rate is 0, and their lateness must not divide 0 bits by it.
        config, tasks = smallcell
        tasks = [dataclasses.replace(t, result_bits=0.0) if i in (1, 3) else t
                 for i, t in enumerate(tasks)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = joint_energy_minimization(config, tasks, generate_channels(config, 42))
        assert sol.status == "optimal"
        assert np.all(sol.ran.rates[[1, 3]] == 0.0)

    @pytest.mark.parametrize("tasks, ue", [
        ({"cpu_cycles": 2e5, "deadline": 0.1}, 0),
        # UEs 0 and 1 still have time; UEs 2 and 3 spend the whole deadline
        # in the cloud.
        ([{}, {}, {"cpu_cycles": 2e5}, {"cpu_cycles": 2e5}, {}], 2),
    ], ids=["all_late", "ues_2_3_late"])
    def test_deadline_precondition(self, smallcell, tasks, ue):
        config, _ = smallcell
        _, tasks = load_config({"tasks": tasks})
        channels = generate_channels(config, 3)
        with pytest.raises(InfeasibleError) as err:
            joint_energy_minimization(config, tasks, channels)
        assert err.value.side == "deadline" and err.value.ue == ue

    def test_single_link_matches_rate_split_oracle(self):
        config, tasks, channels = single_link_setup()
        sol = joint_energy_minimization(config, tasks, channels)
        assert sol.status == "optimal"
        task = tasks[0]
        gain, sigma2 = 1e-8, 1e-6
        bandwidth, eta = 1e7, 10.0
        r_min = task.result_bits / (task.deadline - task.cpu_cycles / 1e6)
        r_max = bandwidth * math.log2(1.0 + gain * 1.0 / sigma2)
        rates = np.linspace(r_min, r_max, 400001)
        speeds = task.cpu_cycles / (task.deadline - task.result_bits / rates)
        cloud = 1e-11 * speeds ** 2 * task.cpu_cycles
        power = (2.0 ** (rates / bandwidth) - 1.0) * sigma2 / gain
        energy = cloud + eta * power * task.result_bits / rates
        assert sol.energy.total == pytest.approx(energy.min(), rel=1e-3)

    def test_deterministic(self, smallcell):
        config, tasks = smallcell
        channels = generate_channels(config, 44)
        a = joint_energy_minimization(config, tasks, channels)
        b = joint_energy_minimization(config, tasks, channels)
        assert a.energy.total == b.energy.total
        assert np.array_equal(a.ran.beamformers.vectors, b.ran.beamformers.vectors)
        assert a.energy_trace == b.energy_trace

    def test_surrogate_steps_non_increasing(self, joint_seed42):
        _, _, _, sol = joint_seed42
        assert sol.converged
        for row in sol.surrogate_trace:
            values = [x for x in row if x is not None]
            for before, after in zip(values, values[1:]):
                assert after <= before + 1e-9 * max(1.0, abs(before))

    def test_energy_trace_non_increasing(self, joint_seed42):
        _, _, _, sol = joint_seed42
        for before, after in zip(sol.energy_trace, sol.energy_trace[1:]):
            assert after <= before + 1e-9 * max(1.0, abs(before))

    def test_energy_replays_through_energy_model(self, joint_seed42):
        config, tasks, _, sol = joint_seed42
        kappa = config.switched_capacitance
        nu = config.cloud_exponent
        cloud = [kappa[i] * sol.clone_capacity[i] ** (nu[i] - 1.0)
                 * tasks[i].cpu_cycles for i in range(config.num_ue)]
        bits = np.array([t.result_bits for t in tasks])
        replay = ran.EnergyBreakdown.combine(
            cloud, ran.transmit_energy(bits, sol.ran.rates, ran.ue_power(sol.ran.beamformers)),
            config.tradeoff)
        assert replay.total == pytest.approx(sol.energy.total, rel=1e-9)
        assert replay.total_transmit == pytest.approx(
            sol.energy.total_transmit, rel=1e-9)

    def test_constraint_replay(self, joint_seed42):
        config, tasks, channels, sol = joint_seed42
        exec_time = tasks[0].cpu_cycles / sol.clone_capacity
        tx_time = np.array([t.result_bits for t in tasks]) / sol.ran.rates
        viol = constraint_violations(config, tasks, channels, sol.ran,
                                     deadline_total=exec_time + tx_time)
        assert viol["power"] <= 1e-6
        assert viol["rate_rel"] <= 1e-6
        assert viol["fronthaul"] <= 1e-6 * config.fronthaul_limit[0]
        assert viol["deadline"] <= 1e-6
        assert np.all(sol.clone_capacity <= np.asarray(config.clone_capacity_limit))


    def test_no_convergence_with_a_clone_at_its_cap(self):
        # Fronthaul at C/10, seed 44: with the reweighting refreshed every
        # round, rounds 6 and 7 each held three UEs at their rate floors
        # (clones at f_max, ~15,000 J each), different ones, and their totals
        # agreed to 2e-6.  The settle test does not look at the clones: the
        # line search's outside-the-surrogate branch keeps this run off such
        # states (it ends at the round cap near 17.8 J).
        config, _, _, sol = joint_at_tenth_fronthaul(44)
        fmax = np.asarray(config.clone_capacity_limit)
        if sol.converged:
            assert np.all(sol.clone_capacity < fmax * (1.0 - 1e-4))

    def test_binding_fronthaul_converges(self):
        # Fronthaul at C/10, seed 45: with the reweighting held fixed until a
        # round settles on it, the BCD converges; refreshed every round, it
        # orbited to the round cap.
        config, tasks, channels, sol = joint_at_tenth_fronthaul(45)
        assert sol.status == "optimal" and sol.converged
        assert sol.energy.total < 100.0
        finish = tasks[0].cpu_cycles / sol.clone_capacity + np.array(
            [t.result_bits for t in tasks]) / ran.rate(channels, sol.ran.beamformers,
                                                      config.bandwidth)
        viol = constraint_violations(config, tasks, channels, sol.ran, finish)
        assert viol["power"] <= 1e-6 and viol["rate_rel"] <= 1e-6
        assert viol["fronthaul"] <= 1e-6 * max(config.fronthaul_limit)
        assert viol["deadline"] <= 1e-6 * min(t.deadline for t in tasks)

    def test_more_ues_than_antennas_converges(self):
        # 2 RRHs x 1 antenna x 5 UEs at F = 1500, seed 45.  Round 2's conic
        # step factors an H of condition about 1e10; an explicit-inverse
        # reduced solve without a refinement step against H wandered there
        # until H was no longer definite ("KKT factorization failed").
        doc = json.loads(SCENARIO.read_text(encoding="utf-8"))
        doc["system"].update(num_rrh=2, antennas_per_rrh=1)
        doc["tasks"]["cpu_cycles"] = 1500.0
        config, tasks = load_config(doc)
        sol = joint_energy_minimization(config, tasks, generate_channels(config, 45))
        assert sol.status == "optimal" and sol.converged, sol.ran.message
        assert sol.energy.total == pytest.approx(61.0965, rel=1e-5)

    @pytest.mark.parametrize("system, seed, energy", [
        ({"rrh_power_limit": 1e-2}, 60, 75000.03902752078),
        ({"num_rrh": 2, "antennas_per_rrh": 1}, 58, 30442.55125687674),
    ])
    def test_a_flat_run_settles(self, system, seed, energy):
        # P/100 seed 60 and 2 x 1 x 5 seed 58 at F = 1500 hold one energy
        # from round 1 on, with clones at their caps: the run settles in
        # round 2 rather than holding that energy to the round cap.
        doc = json.loads(SCENARIO.read_text(encoding="utf-8"))
        doc["system"].update(system)
        doc["tasks"]["cpu_cycles"] = 1500.0
        config, tasks = load_config(doc)
        sol = joint_energy_minimization(config, tasks, generate_channels(config, seed))
        assert sol.status == "optimal" and sol.converged, sol.ran.message
        assert sol.iterations <= 3
        assert sol.energy.total == pytest.approx(energy, rel=1e-9)

    def test_binding_fronthaul_leaves_no_pinned_orbit(self):
        # A clone pinned at f_max costs ~15,000 J; seed 42 returned 60,003 J
        # when the reweighting moved every round.
        for seed in (42, 43, 44):
            sol = joint_at_tenth_fronthaul(seed)[-1]
            assert sol.energy.total < 1000.0, seed

    def test_round_cap_names_itself(self, smallcell, monkeypatch):
        monkeypatch.setattr(algorithms, "MAX_ITERATIONS", 1)
        config, tasks = smallcell
        channels = generate_channels(config, 42)
        joint = joint_energy_minimization(config, tasks, channels)
        alone = ran_power_minimization(config, tasks, channels,
                                       [0.5 * t.deadline for t in tasks])
        for sol in (joint, alone):
            assert sol.status == "max_iterations" and not sol.converged
        for message in (joint.ran.message, alone.message):
            assert "1-round cap" in message and "relative change" in message


class TestRefreshCadence:
    """Which rounds hand the conic step freshly computed fronthaul weights rho."""

    @staticmethod
    def fresh_rounds(monkeypatch, builder, run):
        """(solution, whether rounds 2, 3, ... got a new rho) of `run()`."""
        handed = []
        real = getattr(algorithms, builder)

        def recorded(*args, **kwargs):
            handed.append(kwargs["rho"])
            return real(*args, **kwargs)
        monkeypatch.setattr(algorithms, builder, recorded)
        sol = run()
        rounds = handed[:sol.iterations]   # the exit refit builds after the loop
        return sol, [new is not old for old, new in zip(rounds, rounds[1:])]

    def test_power_minimization_refreshes_every_round(self, monkeypatch):
        # Fronthaul 3e5, T = 20 ms, F = 1500, seed 44: the separate:0.5
        # power minimization takes 8 rounds; holding rho until a round
        # settles takes it to 14.
        config, tasks = load_config({"system": {"fronthaul_limit": 3e5},
                                     "tasks": {"cpu_cycles": 1500.0, "deadline": 2e-2}})
        channels = generate_channels(config, 44)
        budgets = [0.5 * t.deadline for t in tasks]
        sol, fresh = self.fresh_rounds(monkeypatch, "build_power_min_socp", lambda: (
            ran_power_minimization(config, tasks, channels, budgets)))
        assert sol.status == "optimal" and sol.iterations > 2
        assert all(fresh)

    def test_joint_refreshes_only_after_a_settled_round(self, monkeypatch):
        # C/10, F = 1000, seed 45 (12 rounds): refreshed every round, the
        # joint orbits at a binding fronthaul instead of settling.
        sol, fresh = self.fresh_rounds(monkeypatch, "build_wmmse_step_socp",
                                       lambda: joint_at_tenth_fronthaul(45, 1000.0)[-1])
        trace = sol.energy_trace
        settled = [abs(b - a) <= algorithms.CONV_REL_TOL * max(a, 1e-30)
                   for a, b in zip(trace, trace[1:])]
        assert sol.iterations > 2 and not all(fresh)
        # Round k + 1 gets fresh weights after round 1 and after a settled round k.
        assert fresh == [True] + settled[:len(fresh) - 1]


class TestSeparateBaseline:
    def test_split_arithmetic(self, smallcell):
        config, tasks = smallcell
        channels = generate_channels(config, 42)
        sol = split_deadline_baseline(config, tasks, channels, 0.25)
        # Cloud side gets 0.075 s: clone speed F / 0.075; radio floor D / 0.025.
        assert sol.clone_capacity[0] == pytest.approx(1500.0 / 0.075)
        assert sol.ran.floors[0] == pytest.approx(1000.0 / 0.025)

    def test_invalid_fraction(self, smallcell):
        config, tasks = smallcell
        channels = generate_channels(config, 1)
        with pytest.raises(ValueError):
            split_deadline_baseline(config, tasks, channels, 1.5)

    def test_cloud_side_infeasible(self, smallcell):
        config, tasks = smallcell
        channels = generate_channels(config, 42)
        with pytest.raises(InfeasibleError) as err:
            split_deadline_baseline(config, tasks, channels, 0.99)
        assert err.value.side == "cloud"

    def test_transmit_side_infeasible(self):
        config, tasks = default_config(rrh_power_limit=1e-6)
        channels = generate_channels(config, 42)
        with pytest.raises(InfeasibleError) as err:
            split_deadline_baseline(config, tasks, channels, 0.5)
        assert err.value.side == "transmit"

    def test_failed_transmit_step_keeps_its_status(self, smallcell, monkeypatch):
        # A conic step that stops short is not a certificate of infeasibility:
        # its status comes through, with no energy since it left no rates.
        real_solve = algorithms.solve

        def stopped(problem):
            return dataclasses.replace(real_solve(problem), status="max_iterations",
                                       message="iteration limit reached")
        monkeypatch.setattr(algorithms, "solve", stopped)
        config, tasks = smallcell
        sol = split_deadline_baseline(config, tasks, generate_channels(config, 42), 0.5)
        assert sol.status == "max_iterations" and not sol.converged
        assert sol.energy is None

    def test_polished_steps_meet_working_precision(self, smallcell, monkeypatch):
        # Seed 51's first step leaves a block out of the polish's first
        # active-set guess; Newton settles outside it, the block joins the
        # set, and the retry lands.  Without the retry that step keeps the
        # interior-point answer, 5.8e-9 off.
        real_solve, reports = algorithms.solve, []
        monkeypatch.setattr(algorithms, "solve",
                            lambda problem: reports.append(real_solve(problem))
                            or reports[-1])
        config, tasks = smallcell
        split_deadline_baseline(config, tasks, generate_channels(config, 51), 0.5)
        assert reports
        for r in reports:
            assert r.optimal
            assert max(r.duality_gap, r.primal_residual, r.dual_residual) <= 1e-12

    def test_joint_beats_each_split(self, smallcell):
        config, tasks = smallcell
        for seed in (42, 47, 51):
            channels = generate_channels(config, seed)
            joint = joint_energy_minimization(config, tasks, channels)
            for alpha in (0.25, 0.5, 0.75):
                base = split_deadline_baseline(config, tasks, channels, alpha)
                assert joint.energy.total <= base.energy.total + 1e-9


class TestReplayPostcondition:
    def test_unreplayable_answer_is_not_optimal(self, smallcell, monkeypatch):
        # A refit whose beamformers miss the rate floors must not come back
        # "optimal" from either optimizer: the replay names what it misses.
        real_refit = algorithms._refit_on_support

        def halved(*args):
            bf, rates, powers, clusters = real_refit(*args)
            return BeamformerSet(bf.vectors / 2.0), rates, powers, clusters
        monkeypatch.setattr(algorithms, "_refit_on_support", halved)
        config, tasks = smallcell
        channels = generate_channels(config, 42)
        budgets = [0.5 * t.deadline for t in tasks]
        joint = joint_energy_minimization(config, tasks, channels)
        assert joint.status == joint.ran.status == "replay_failed" and not joint.converged
        assert "deadline" in joint.ran.message   # the slower radio leg runs late
        alone = ran_power_minimization(config, tasks, channels, budgets)
        assert alone.status == "replay_failed" and not alone.converged
        assert "rate_rel" in alone.message


class TestBestVisitFilter:
    """The exit replay the BCD applies to each visit, clustered as the exit clusters it."""

    @pytest.fixture(scope="class")
    def stock_answer(self):
        config, tasks = load_config(json.loads(SCENARIO.read_text(encoding="utf-8")))
        channels = generate_channels(config, 42)
        return config, tasks, channels, joint_energy_minimization(config, tasks, channels).ran

    @staticmethod
    def misses(config, tasks, channels, sol, vectors):
        visit = algorithms._clustered(BeamformerSet(vectors), config.rrh_power_limit)[1]
        return algorithms._replay_misses(config, tasks, channels, dataclasses.replace(
            sol, beamformers=visit))

    @pytest.mark.parametrize("excess, missed", [(5e-7, []), (5e-6, ["power"])])
    def test_power_miss_is_judged_at_the_replay_tolerance(self, stock_answer, excess, missed):
        config, tasks, channels, sol = stock_answer
        v = sol.beamformers.vectors
        peak = np.max(ran.rrh_power(sol.beamformers) / np.asarray(config.rrh_power_limit))
        scaled = v * math.sqrt((1.0 + excess) / peak)
        misses = self.misses(config, tasks, channels, sol, scaled)
        assert [m.split()[0] for m in misses] == missed

    def test_a_block_below_the_cluster_threshold_carries_no_load(self, stock_answer):
        # UE 0's block at RRH 3 is cut to 1e-7 P_j, and each RRH's fronthaul
        # budget is set to the load of the clustered visit, which leaves it out.
        config, tasks, channels, sol = stock_answer
        v = sol.beamformers.vectors.copy()
        limit = config.rrh_power_limit[3]
        v[0, 3] *= math.sqrt(1e-7 * limit / ran.block_power(v[0, 3]))
        visit = algorithms._clustered(BeamformerSet(v), config.rrh_power_limit)[1]
        rates = ran.rate(channels, visit, config.bandwidth)
        loads = ran.fronthaul_load(visit, rates)
        assert loads[3] == pytest.approx(rates[1:].sum(), rel=1e-12)
        tight = dataclasses.replace(config, fronthaul_limit=tuple(loads.tolist()))
        assert self.misses(tight, tasks, channels, sol, v) == []
        unclustered = algorithms._replay_misses(tight, tasks, channels, dataclasses.replace(
            sol, beamformers=BeamformerSet(v)))
        assert [m.split()[0] for m in unclustered] == ["fronthaul"]


class TestClusterExtraction:
    def test_all_zero(self):
        beams = BeamformerSet(np.zeros((2, 2, 2), dtype=complex))
        clusters, zeroed = extract_rrh_clusters(beams, [1.0, 1.0])
        assert clusters == (frozenset(), frozenset())
        assert np.max(np.abs(zeroed.vectors)) == 0.0

    def test_dominant_rrh_singleton(self):
        vecs = np.zeros((1, 2, 1), dtype=complex)
        vecs[0, 0, 0] = math.sqrt(0.5)
        vecs[0, 1, 0] = 1e-6  # squared norm 1e-12, below 1e-6 * P
        clusters, zeroed = extract_rrh_clusters(BeamformerSet(vecs), [1.0, 1.0])
        assert clusters == (frozenset({0}),)
        assert zeroed.vectors[0, 1, 0] == 0.0
        assert zeroed.vectors[0, 0, 0] == vecs[0, 0, 0]
