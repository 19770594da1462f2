import math

import numpy as np
import pytest

from cranopt.algorithms import joint_energy_minimization, ran_power_minimization
from cranopt.ran import (
    BeamformerSet,
    EnergyBreakdown,
    RateInfeasibleError,
    fronthaul_load,
    fronthaul_weights,
    rate,
    rrh_power,
    sinr,
    surrogate_fronthaul_load,
    transmit_energy,
    ue_power,
)
from cranopt.scenario import ChannelState, Task, default_config, generate_channels


def single_link(h=1.0, sigma2=0.1):
    ch = ChannelState(gains=np.array([[[h]]], dtype=complex),
                      noise_power=np.array([sigma2]))
    return ch


def bf(array):
    return BeamformerSet(np.asarray(array, dtype=complex))


class TestBeamformerSet:
    def test_freezes_a_private_copy(self):
        v = np.zeros((2, 1, 2), dtype=complex)
        frozen = BeamformerSet(v)
        v[0, 0, 0] = 1.0          # the caller's array stays writable
        assert frozen.vectors[0, 0, 0] == 0.0
        with pytest.raises(ValueError):
            frozen.vectors[0, 0, 0] = 1.0


class TestSinrRate:
    def test_single_user_no_interference(self):
        ch = single_link()
        assert sinr(ch, bf([[[1.0]]]))[0] == pytest.approx(10.0)

    def test_zero_beamformers(self):
        ch = single_link()
        assert sinr(ch, bf([[[0.0]]]))[0] == 0.0

    def test_two_user_symmetric(self):
        # h_1 = h_2 = e_1, v_1 = v_2 = 0.5 e_1, sigma^2 = 0.25: 0.25/(0.25+0.25).
        gains = np.zeros((2, 1, 2), dtype=complex)
        gains[0, 0, 0] = gains[1, 0, 0] = 1.0
        vecs = np.zeros((2, 1, 2), dtype=complex)
        vecs[0, 0, 0] = vecs[1, 0, 0] = 0.5
        ch = ChannelState(gains=gains, noise_power=np.array([0.25, 0.25]))
        assert sinr(ch, bf(vecs)) == pytest.approx([0.5, 0.5])

    def test_rate_values(self):
        ch = single_link(h=1.0, sigma2=1.0)
        assert rate(ch, bf([[[1.0]]]), bandwidth=1e7)[0] == pytest.approx(1e7)
        assert rate(ch, bf([[[0.0]]]), bandwidth=1e7)[0] == 0.0
        ch10 = single_link(h=1.0, sigma2=0.1)
        expect = 1e7 * math.log2(11.0)
        assert rate(ch10, bf([[[1.0]]]), bandwidth=[1e7])[0] == pytest.approx(expect)
        with pytest.raises(ValueError):
            rate(ch, bf([[[1.0]]]), bandwidth=0.0)

    def test_scale_consistency(self):
        rng = np.random.default_rng(3)
        gains = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        vecs = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        noise = rng.uniform(0.1, 1.0, 3)
        alpha = 1.7
        base = ChannelState(gains=gains, noise_power=noise)
        scaled = ChannelState(gains=gains.copy(), noise_power=noise * alpha ** 2)
        assert sinr(scaled, bf(alpha * vecs)) == pytest.approx(
            sinr(base, bf(vecs)), rel=1e-12)


class TestCostsAndLoads:
    def test_transmit_cost(self):
        # p D / r: 0.01 W pushing 1000 bits at 2e4 bit/s (0.05 s) is 5e-4 J;
        # a UE with no result bits spends nothing.
        out = transmit_energy(np.array([1000.0, 0.0]), np.array([2e4, 123.0]),
                              ue_power(bf(np.full((2, 1, 1), 0.1))))
        assert out == pytest.approx([5e-4, 0.0])

    def test_rrh_power(self):
        zero = bf(np.zeros((2, 1, 2)))
        assert rrh_power(zero)[0] == 0.0
        vecs = np.zeros((2, 1, 2), dtype=complex)
        vecs[0, 0] = [1.0, 0.0]
        vecs[1, 0] = [0.0, 1.0]
        assert rrh_power(bf(vecs))[0] == pytest.approx(2.0)
        assert rrh_power(bf([[[0.6, 0.8]]]))[0] == pytest.approx(1.0)

    def test_fronthaul_weights(self):
        assert fronthaul_weights(bf([[[0.0]]]), 1e-10)[0, 0] == pytest.approx(1e10)
        assert fronthaul_weights(bf([[[1e-5]]]), 1e-10)[0, 0] == pytest.approx(5e9)
        assert fronthaul_weights(bf([[[1.0]]]), 1e-10)[0, 0] == pytest.approx(
            1.0, rel=1e-9)
        with pytest.raises(ValueError):
            fronthaul_weights(bf([[[1.0]]]), 0.0)

    def test_fronthaul_weights_range(self):
        rng = np.random.default_rng(2)
        eps = 1e-10
        vecs = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
        vecs[0, 0] = 0.0
        rho = fronthaul_weights(bf(vecs), eps)
        assert np.all(rho > 0)
        assert np.all(rho <= 1.0 / eps)

    def test_fronthaul_load_l0(self):
        vecs = np.zeros((2, 1, 1), dtype=complex)
        vecs[1, 0, 0] = 0.5
        load = fronthaul_load(bf(vecs), [1e6, 2e6])
        assert load[0] == pytest.approx(2e6)

    def test_fronthaul_load_weighted(self):
        zero = bf(np.zeros((2, 1, 1)))
        rho = fronthaul_weights(zero, 1e-10)
        assert surrogate_fronthaul_load(zero, [1e6, 2e6], rho)[0] == 0.0
        # ||v||^2 = 1 >> eps: weighted load approaches the plain rate sum.
        ones = bf(np.ones((2, 1, 1)))
        rho = fronthaul_weights(ones, 1e-10)
        load = surrogate_fronthaul_load(ones, [1e6, 2e6], rho)
        assert load[0] == pytest.approx(3e6, rel=1e-6)

    def test_l0_and_weighted_agree_for_clean_sparsity(self):
        rng = np.random.default_rng(11)
        eps = 1e-10
        for _ in range(50):
            vecs = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
            mask = rng.random((3, 2)) < 0.5
            vecs *= mask[:, :, None]
            # Nonzero blocks all carry at least 1e4 * eps of squared norm.
            sq = np.sum(np.abs(vecs) ** 2, axis=-1)
            if np.any((sq > 0) & (sq < 1e4 * eps)):
                continue
            rates = rng.uniform(1e5, 1e6, 3)
            beams = bf(vecs)
            rho = fronthaul_weights(beams, eps)
            l0 = fronthaul_load(beams, rates)
            weighted = surrogate_fronthaul_load(beams, rates, rho)
            assert weighted == pytest.approx(l0, rel=2e-6, abs=1e-6)


def accounting_instances():
    """Random cells with L*K and N*K above 8 and some all-zero blocks."""
    rng = np.random.default_rng(23)
    for n, l, k in ((3, 2, 2), (5, 4, 2), (8, 8, 2), (6, 3, 4), (10, 4, 2)):
        for _ in range(4):
            gains = rng.standard_normal((n, l, k)) + 1j * rng.standard_normal((n, l, k))
            vecs = rng.standard_normal((n, l, k)) + 1j * rng.standard_normal((n, l, k))
            vecs[rng.random((n, l)) < 0.3] = 0.0
            noise = rng.uniform(0.1, 2.0, n)
            yield ChannelState(gains=gains, noise_power=noise), bf(vecs), rng


class TestWholeArrayAccounting:
    """Each whole-array function against its per-UE or per-RRH formula."""

    def test_rates_and_powers_match_per_index_formulas(self):
        for ch, beams, rng in accounting_instances():
            h, v = ch.gains, beams.vectors
            n, l, _ = v.shape
            bandwidth = rng.uniform(1e6, 2e7, n)
            expect_sinr = np.empty(n)
            for i in range(n):
                amps = np.array([np.sum(np.conj(h[i]) * v[s]) for s in range(n)])
                power = np.abs(amps) ** 2
                interference = np.sum(power) - power[i]
                expect_sinr[i] = power[i] / (interference + ch.noise_power[i])
            expect_rate = [bandwidth[i] * np.log2(1.0 + expect_sinr[i]) for i in range(n)]
            assert np.array_equal(sinr(ch, beams), expect_sinr)
            assert np.array_equal(rate(ch, beams, bandwidth), expect_rate)
            assert np.array_equal(ue_power(beams),
                                  [float(np.sum(np.abs(v[i]) ** 2)) for i in range(n)])
            assert np.array_equal(rrh_power(beams),
                                  [float(np.sum(np.abs(v[:, j, :]) ** 2)) for j in range(l)])

    def test_loads_match_per_rrh_formulas(self):
        for _, beams, rng in accounting_instances():
            v = beams.vectors
            n, l, _ = v.shape
            sq = [np.sum(np.abs(v[:, j, :]) ** 2, axis=-1) for j in range(l)]
            rates = rng.uniform(1e5, 1e7, n)
            expect = [np.sum(rates * (sq[j] > 0.0)) for j in range(l)]
            assert fronthaul_load(beams, rates) == pytest.approx(expect, rel=1e-12, abs=0.0)
            rho = fronthaul_weights(beams, 1e-10)
            expect = [np.sum(rho[:, j] * sq[j] * rates) for j in range(l)]
            assert surrogate_fronthaul_load(beams, rates, rho) == pytest.approx(
                expect, rel=1e-12, abs=0.0)


class TestMinRate:
    """The rate floors the optimizers derive from each task."""

    @pytest.fixture(scope="class")
    def link(self):
        config, tasks = default_config(num_rrh=1, num_ue=1, antennas_per_rrh=1)
        return config, tasks, generate_channels(config, 1)

    def test_budget_form(self, link):
        # D / T_budget: 1000 bits within a 0.05 s transmit budget.
        sol = ran_power_minimization(*link, transmit_budgets=0.05)
        assert sol.floors[0] == pytest.approx(2e4)

    def test_joint_form(self, link):
        # D / (T_max - F / f_max): 1000 bits in what 1500 cycles at 1e6
        # cycles/s leave of 0.1 s.
        sol = joint_energy_minimization(*link)
        assert sol.ran.floors[0] == pytest.approx(1000 / 0.0985)

    def test_joint_form_infeasible(self, link):
        config, _, channels = link
        tasks = [Task(cpu_cycles=1500.0, result_bits=1000.0, deadline=0.001)]
        with pytest.raises(RateInfeasibleError):
            joint_energy_minimization(config, tasks, channels)


class TestTotalEnergy:
    def test_weighted_sum(self):
        config, tasks = default_config(num_rrh=1, num_ue=1, antennas_per_rrh=1)
        # Choose beamformer/rate so p * D / r = 0.05 J: p = 1, r = D / 0.05.
        bits = np.array([tasks[0].result_bits])
        out = EnergyBreakdown.combine(
            [13.5], transmit_energy(bits, bits / 0.05, ue_power(bf([[[1.0]]]))),
            config.tradeoff)
        assert out.weighted[0] == pytest.approx(14.0)
        assert out.total == pytest.approx(14.0)

    def test_tradeoff_off(self):
        config, tasks = default_config(num_rrh=1, num_ue=1, antennas_per_rrh=1,
                                       tradeoff=0.0)
        bits = np.array([tasks[0].result_bits])
        out = EnergyBreakdown.combine(
            [13.5], transmit_energy(bits, np.array([2e4]), ue_power(bf([[[1.0]]]))),
            config.tradeoff)
        assert out.total == pytest.approx(13.5)

    def test_totals_are_sums(self):
        breakdown = EnergyBreakdown.combine([13.5, 0.5], [0.05, 0.05], [10.0, 10.0])
        assert breakdown.weighted[0] == pytest.approx(14.0)
        assert breakdown.weighted[1] == pytest.approx(1.0)
        assert breakdown.total == pytest.approx(15.0)


class TestPhaseInvariance:
    def test_per_ue_common_phase(self):
        rng = np.random.default_rng(5)
        config, tasks = default_config()
        ch = generate_channels(config, 9)
        vecs = 0.1 * (rng.standard_normal((5, 4, 2))
                      + 1j * rng.standard_normal((5, 4, 2)))
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        rotated = vecs * phases[:, None, None]
        a, b = bf(vecs), bf(rotated)
        rates_a = rate(ch, a, bandwidth=1e7)
        rates_b = rate(ch, b, bandwidth=1e7)
        assert sinr(ch, b) == pytest.approx(sinr(ch, a), rel=1e-12)
        assert rates_b == pytest.approx(rates_a, rel=1e-12)
        assert rrh_power(b) == pytest.approx(rrh_power(a), rel=1e-12)
        assert fronthaul_load(b, rates_b) == pytest.approx(
            fronthaul_load(a, rates_a), rel=1e-12)
        cloud, bits = np.ones(5), np.array([t.result_bits for t in tasks])
        ea = EnergyBreakdown.combine(cloud, transmit_energy(bits, rates_a, ue_power(a)),
                                     config.tradeoff)
        eb = EnergyBreakdown.combine(cloud, transmit_energy(bits, rates_b, ue_power(b)),
                                     config.tradeoff)
        assert eb.total == pytest.approx(ea.total, rel=1e-12)


class TestSocEquivalence:
    def test_soc_iff_rate_floor(self):
        # After rotating the own-stream product real, the second-order-cone
        # inequality holds exactly when the rate meets the floor.
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 1000:
            n, l, k = 3, 2, 2
            gains = rng.standard_normal((n, l, k)) + 1j * rng.standard_normal((n, l, k))
            vecs = rng.standard_normal((n, l, k)) + 1j * rng.standard_normal((n, l, k))
            noise = rng.uniform(0.1, 2.0, n)
            ch = ChannelState(gains=gains, noise_power=noise)
            beams = bf(vecs)
            bandwidth = 1e7
            i = int(rng.integers(0, n))
            achieved = rate(ch, beams, bandwidth=bandwidth)[i]
            floor = achieved * rng.uniform(0.5, 1.5)
            if abs(achieved - floor) < 1e-9 * floor:
                continue
            amps = np.array([np.sum(np.conj(gains[i]) * vecs[kk])
                             for kk in range(n)])
            own = amps[i]
            rotation = np.conj(own) / abs(own)
            own_rot = own * rotation
            assert abs(own_rot.imag) < 1e-9 * abs(own_rot.real)
            coef = math.sqrt(1.0 - 2.0 ** (-floor / bandwidth))
            lhs = coef * math.sqrt(np.sum(np.abs(amps) ** 2) + noise[i])
            soc_holds = lhs <= own_rot.real
            assert soc_holds == (achieved >= floor)
            checked += 1
