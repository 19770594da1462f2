import math

import numpy as np
import pytest

from cranopt.conic import (
    build_power_min_socp,
    build_wmmse_step_socp,
    extract_beamformers,
    solve,
)
from cranopt.ran import BeamformerSet, ue_power
from cranopt.scenario import ChannelState


def single_link_channels(gain, sigma2=1e-6):
    return ChannelState(gains=np.array([[[math.sqrt(gain)]]], dtype=complex),
                        noise_power=np.array([sigma2]))


class TestPowerMinStructure:
    def test_minimal_problem_structure(self):
        ch = single_link_channels(1e-8)
        problem = build_power_min_socp(
            ch, rate_floors=[2e4], bandwidths=[1e7], power_limits=[1.0],
            rho=np.array([[1.0]]), frozen_rates=np.array([1.0]),
            fronthaul_limits=[1e7])
        # 2 beamformer reals and the power epigraph; SOC blocks: power
        # epigraph, RRH power, rate floor, fronthaul; one phase equality.
        assert problem.num_vars == 3
        assert problem.cones == (("soc", 4), ("soc", 3), ("soc", 4), ("soc", 4))
        assert problem.eq_lhs.shape == (1, 3)

    def test_decision_reals_scale_with_dims(self):
        rng = np.random.default_rng(0)
        n, l, k = 3, 2, 2
        gains = rng.standard_normal((n, l, k)) + 1j * rng.standard_normal((n, l, k))
        ch = ChannelState(gains=1e-4 * gains, noise_power=np.full(n, 1e-6))
        problem = build_power_min_socp(ch, rate_floors=[1e4] * n,
                                       bandwidths=[1e7] * n,
                                       power_limits=[1.0] * l)
        assert problem.num_vars == 2 * n * l * k + n
        assert problem.cones == ((("soc", 2 + 2 * l * k),) * n
                                 + (("soc", 1 + 2 * n * k),) * l
                                 + (("soc", 2 + 2 * n),) * n)


class TestBeamformerLayout:
    def test_extract_inverts_the_column_layout(self):
        # UE 1 has no RRH, UE 2 only RRH 0: blocks sit in row-major support
        # order, K real parts then K imaginary parts per pair.
        rng = np.random.default_rng(4)
        n, l, k = 3, 2, 2
        support = np.array([[True, True], [False, False], [True, False]])
        gains = rng.standard_normal((n, l, k)) + 1j * rng.standard_normal((n, l, k))
        ch = ChannelState(gains=1e-4 * gains, noise_power=np.full(n, 1e-6))
        problem = build_power_min_socp(ch, rate_floors=[1e4] * n,
                                       bandwidths=[1e7] * n,
                                       power_limits=[1.0] * l, support=support)
        v = rng.standard_normal((n, l, k)) + 1j * rng.standard_normal((n, l, k))
        x = np.zeros(problem.num_vars)
        for p, (i, j) in enumerate(np.argwhere(support)):
            x[2 * k * p:2 * k * p + k] = v[i, j].real
            x[2 * k * p + k:2 * k * (p + 1)] = v[i, j].imag
        got = extract_beamformers(x, support, k)
        assert np.array_equal(got, np.where(support[:, :, None], v, 0.0))
        # The builder reads the same layout: the body of UE i's power
        # epigraph block is 2 * (Re v_i, Im v_i), one block per served UE.
        slack = problem.cone_rhs - problem.cone_lhs @ x
        powers = ue_power(BeamformerSet(got))
        start = 0
        for i, (_, dim) in zip((0, 2), problem.cones):
            body = slack[start + 1:start + dim - 1]
            assert np.sum((body / 2.0) ** 2) == pytest.approx(powers[i], rel=1e-12)
            start += dim


class TestPowerMinSingleUser:
    def test_closed_form_optimal_power(self):
        # Min power for a floor R inverts the rate curve: (2^(R/B)-1) sigma^2/g.
        for gain, limit in [(1e-8, 1.0), (1e-10, 100.0)]:
            ch = single_link_channels(gain)
            problem = build_power_min_socp(ch, rate_floors=[2e4],
                                           bandwidths=[1e7], power_limits=[limit])
            report = solve(problem, gap_tol=1e-10, feas_tol=1e-10)
            assert report.optimal
            v = extract_beamformers(report.x, np.ones((1, 1), bool), 1)
            power = float(np.sum(np.abs(v) ** 2))
            expect = (2 ** (2e4 / 1e7) - 1.0) * 1e-6 / gain
            assert power == pytest.approx(expect, rel=1e-6)

    def test_floor_beyond_power_budget_infeasible(self):
        # The same closed form above the RRH cap certifies as infeasible.
        ch = single_link_channels(1e-10)
        need = (2 ** (2e4 / 1e7) - 1.0) * 1e-6 / 1e-10
        assert need > 1.0
        problem = build_power_min_socp(ch, rate_floors=[2e4], bandwidths=[1e7],
                                       power_limits=[1.0])
        report = solve(problem)
        assert report.status == "infeasible"


class TestWmmseStep:
    def test_structure(self):
        rng = np.random.default_rng(1)
        n, l, k = 2, 2, 2
        gains = rng.standard_normal((n, l, k)) + 1j * rng.standard_normal((n, l, k))
        ch = ChannelState(gains=1e-4 * gains, noise_power=np.full(n, 1e-6))
        problem = build_wmmse_step_socp(ch, [1.0, 1.0], [0.1 + 0j, 0.1 + 0j],
                                        [1.0, 1.0], power_limits=[1.0] * l)
        # Beamformer reals, then one power and one MSE epigraph per UE.
        assert problem.num_vars == 2 * n * l * k + 2 * n
        assert problem.cones == ((("soc", 2 + 2 * l * k),) * n
                                 + (("soc", 2 + 2 * n),) * n
                                 + (("soc", 1 + 2 * n * k),) * l)

    def test_zero_weights_zero_beamformers(self):
        rng = np.random.default_rng(2)
        n, l, k = 2, 2, 2
        gains = rng.standard_normal((n, l, k)) + 1j * rng.standard_normal((n, l, k))
        ch = ChannelState(gains=1e-4 * gains, noise_power=np.full(n, 1e-6))
        problem = build_wmmse_step_socp(ch, [0.0, 0.0], [0.1 + 0j, 0.1 + 0j],
                                        [1.0, 1.0], power_limits=[1.0] * l)
        report = solve(problem)
        assert report.optimal
        v = extract_beamformers(report.x, np.ones((n, l), bool), k)
        assert np.max(np.abs(v)) < 1e-4

    def test_single_user_analytic_minimizer(self):
        # phi (|u v|^2 - 2 Re(u* v) + 1) + w |v|^2 peaks at v = phi u/(phi u^2 + w).
        phi, u, w = 2.0, 0.6, 0.5
        ch = ChannelState(gains=np.array([[[1.0]]], dtype=complex),
                          noise_power=np.array([1.0]))
        problem = build_wmmse_step_socp(ch, [phi], [u], [w], power_limits=[100.0])
        report = solve(problem, gap_tol=1e-10, feas_tol=1e-10)
        assert report.optimal
        v = extract_beamformers(report.x, np.ones((1, 1), bool), 1)[0, 0, 0]
        v_star = phi * u / (phi * u ** 2 + w)
        e_star = u ** 2 * (v_star ** 2 + 1.0) - 2.0 * u * v_star + 1.0
        expect_obj = phi * e_star + w * v_star ** 2
        assert report.primal_objective == pytest.approx(expect_obj, abs=1e-8)
        assert abs(v - v_star) < 1e-4
