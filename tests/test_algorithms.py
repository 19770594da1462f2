import dataclasses
import math
import warnings

import numpy as np
import pytest

from cranopt import algorithms, ran
from cranopt.algorithms import (
    BaselineInfeasibleError,
    constraint_violations,
    extract_rrh_clusters,
    joint_energy_minimization,
    ran_power_minimization,
    split_deadline_baseline,
)
from cranopt.ran import BeamformerSet, RateInfeasibleError
from cranopt.ran import sinr
from cranopt.scenario import ChannelState, default_config, generate_channels, load_config


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


def joint_at_tenth_fronthaul(seed):
    """The stock cell at fronthaul C/10 and F = 1500, solved jointly."""
    config, tasks = default_config(fronthaul_limit=1e6)
    tasks = [dataclasses.replace(t, cpu_cycles=1500.0) for t in tasks]
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

    def test_deadline_precondition(self, smallcell):
        config, _ = smallcell
        _, tasks = load_config({"tasks": {"cpu_cycles": 2e5, "deadline": 0.1}})
        channels = generate_channels(config, 3)
        with pytest.raises(RateInfeasibleError):
            joint_energy_minimization(config, tasks, channels)

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
        replay = ran.total_energy(config, tasks, cloud, sol.ran.beamformers,
                                  sol.ran.rates)
        assert replay.total == pytest.approx(sol.energy.total, rel=1e-9)
        assert replay.total_transmit == pytest.approx(
            sol.energy.total_transmit, rel=1e-9)

    def test_mse_state_invariant(self, joint_seed42):
        _, _, channels, sol = joint_seed42
        state = sol.mse_state
        assert np.all(state.weights >= 0.0)
        assert np.all((0.0 < state.mse) & (state.mse <= 1.0))
        s = sinr(channels, sol.ran.beamformers)
        assert 1.0 / state.mse == pytest.approx(1.0 + s, rel=1e-9)

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
        # agreed to 2e-6.  Such a round is not a settled BCD.
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

    def test_binding_fronthaul_leaves_no_pinned_orbit(self):
        # A clone pinned at f_max costs ~15,000 J; seed 42 returned 60,003 J
        # when the reweighting moved every round.
        for seed in (42, 43, 44):
            sol = joint_at_tenth_fronthaul(seed)[-1]
            assert sol.energy.total < 1000.0, seed

    def test_round_cap_names_itself(self, smallcell):
        config, tasks = smallcell
        channels = generate_channels(config, 42)
        joint = joint_energy_minimization(config, tasks, channels, max_iterations=1)
        alone = ran_power_minimization(config, tasks, channels,
                                       [0.5 * t.deadline for t in tasks], max_iterations=1)
        for sol in (joint, alone):
            assert sol.status == "max_iterations" and not sol.converged
        for message in (joint.ran.message, alone.message):
            assert "1-round cap" in message and "relative change" in message


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
        with pytest.raises(BaselineInfeasibleError) as err:
            split_deadline_baseline(config, tasks, channels, 0.99)
        assert err.value.side == "cloud"

    def test_transmit_side_infeasible(self):
        config, tasks = default_config(rrh_power_limit=1e-6)
        channels = generate_channels(config, 42)
        with pytest.raises(BaselineInfeasibleError) as err:
            split_deadline_baseline(config, tasks, channels, 0.5)
        assert err.value.side == "transmit"

    def test_failed_transmit_step_keeps_its_status(self, smallcell, monkeypatch):
        # A conic step that stops short is not a certificate of infeasibility:
        # its status comes through, with no energy since it left no rates.
        real_solve = algorithms.solve

        def stopped(problem, **kw):
            return dataclasses.replace(real_solve(problem, **kw), status="max_iterations",
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
                            lambda problem, **kw: reports.append(real_solve(problem, **kw))
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
