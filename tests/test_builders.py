import math

import numpy as np
import pytest

from cranopt.algorithms import mse
from cranopt.conic import build, solver
from cranopt.conic import (
    build_power_min_socp,
    build_wmmse_step_socp,
    extract_beamformers,
    solve,
)
from cranopt.ran import BeamformerSet, amplitudes, rate, rrh_power, ue_power
from cranopt.scenario import ChannelState, default_config, generate_channels


@pytest.fixture(autouse=True, scope="module")
def stopping_rule():
    """The rule these tests were written for: gap 1e-8, feas 1e-8, 100 iterations."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "GAP_TOL", 1e-8)
        mp.setattr(solver, "FEAS_TOL", 1e-8)
        mp.setattr(solver, "MAX_ITER", 100)
        yield


def power_min(channels, rate_floors, bandwidths, power_limits, **given):
    """`build_power_min_socp` with unit weights, no fronthaul rows and the
    full support, unless `given`."""
    n, l = channels.num_ue, channels.num_rrh
    inputs = dict(objective_weights=np.ones(n), rho=None, frozen_rates=None,
                  fronthaul_limits=None, support=np.ones((n, l), bool))
    return build_power_min_socp(channels, rate_floors, bandwidths, power_limits,
                                **(inputs | given))


def wmmse_step(channels, mse_weights, receivers, objective_weights, power_limits,
               **given):
    """`build_wmmse_step_socp` with no rate floors, no fronthaul rows and the
    full support, unless `given`."""
    n, l = channels.num_ue, channels.num_rrh
    inputs = dict(rate_floors=np.zeros(n), bandwidths=np.full(n, 1e7), rho=None,
                  frozen_rates=None, fronthaul_limits=None, support=np.ones((n, l), bool))
    return build_wmmse_step_socp(channels, mse_weights, receivers, objective_weights,
                                 power_limits, **(inputs | given))


def single_link_channels(gain, sigma2=1e-6):
    return ChannelState(gains=np.array([[[math.sqrt(gain)]]], dtype=complex),
                        noise_power=np.array([sigma2]))


class TestPowerMinStructure:
    def test_minimal_problem_structure(self):
        ch = single_link_channels(1e-8)
        problem = power_min(
            ch, rate_floors=[2e4], bandwidths=[1e7], power_limits=[1.0],
            rho=np.array([[1.0]]), frozen_rates=np.array([1.0]),
            fronthaul_limits=[1e7])
        # The 2 beamformer reals only; SOC blocks: RRH power, rate floor,
        # fronthaul.
        assert problem.num_vars == 2
        assert problem.cones == (("soc", 3), ("soc", 4), ("soc", 3))

    def test_decision_reals_scale_with_dims(self):
        rng = np.random.default_rng(0)
        n, l, k = 3, 2, 2
        gains = rng.standard_normal((n, l, k)) + 1j * rng.standard_normal((n, l, k))
        ch = ChannelState(gains=1e-4 * gains, noise_power=np.full(n, 1e-6))
        problem = power_min(ch, rate_floors=[1e4] * n, bandwidths=[1e7] * n,
                            power_limits=[1.0] * l)
        assert problem.num_vars == 2 * n * l * k
        assert problem.cones == ((("soc", 1 + 2 * n * k),) * l
                                 + (("soc", 2 + 2 * n),) * n)


class TestUnpinnedRateFloors:
    def test_power_min_step_meets_floors_with_real_amplitudes(self, monkeypatch):
        # Rotating stream i changes no power, so the minimum of the unpinned
        # step has a real m_ii, and the SOC on Re(m_ii) meets each floor.
        # Solved under the package's rule, as the algorithms solve it.
        monkeypatch.setattr(solver, "FEAS_TOL", 1e-7)
        monkeypatch.setattr(solver, "MAX_ITER", 200)
        config, tasks = default_config()
        channels = generate_channels(config, 42)
        floors = np.array([t.result_bits / (0.5 * t.deadline) for t in tasks])
        problem = power_min(channels, floors, config.bandwidth, config.rrh_power_limit)
        report = solve(problem)
        assert report.optimal
        beams = BeamformerSet(extract_beamformers(
            report.x, np.ones((config.num_ue, config.num_rrh), bool),
            config.antennas_per_rrh))
        own = np.diag(amplitudes(channels, beams.vectors))
        assert np.all(np.abs(own.imag) <= 1e-9 * np.abs(own))
        assert np.all(rate(channels, beams, config.bandwidth) >= floors * (1.0 - 1e-6))


class TestBeamformerLayout:
    def test_extract_inverts_the_column_layout(self):
        # UE 1 has no RRH, UE 2 only RRH 0: blocks sit in row-major support
        # order, K real parts then K imaginary parts per pair.
        rng = np.random.default_rng(4)
        n, l, k = 3, 2, 2
        support = np.array([[True, True], [False, False], [True, False]])
        gains = rng.standard_normal((n, l, k)) + 1j * rng.standard_normal((n, l, k))
        ch = ChannelState(gains=1e-4 * gains, noise_power=np.full(n, 1e-6))
        problem = power_min(ch, rate_floors=[1e4] * n, bandwidths=[1e7] * n,
                            power_limits=[1.0] * l, support=support)
        v = rng.standard_normal((n, l, k)) + 1j * rng.standard_normal((n, l, k))
        x = np.zeros(problem.num_vars)
        for p, (i, j) in enumerate(np.argwhere(support)):
            x[2 * k * p:2 * k * p + k] = v[i, j].real
            x[2 * k * p + k:2 * k * (p + 1)] = v[i, j].imag
        got = extract_beamformers(x, support, k)
        assert np.array_equal(got, np.where(support[:, :, None], v, 0.0))
        # The builder reads the same layout: the body of RRH j's power block
        # is (Re v_ij, Im v_ij) over the UEs it serves, and the objective
        # (1/2) x'Px is the weighted transmit power.
        slack = problem.cone_rhs - problem.cone_lhs @ x
        powers = rrh_power(BeamformerSet(got))
        start = 0
        for j, (_, dim) in enumerate(problem.cones[:l]):
            assert slack[start] == pytest.approx(1.0)
            body = slack[start + 1:start + dim]
            assert np.sum(body ** 2) == pytest.approx(powers[j], rel=1e-12)
            start += dim
        assert 0.5 * x @ problem.P @ x == pytest.approx(
            np.sum(ue_power(BeamformerSet(got))), rel=1e-12)


class TestPowerMinSingleUser:
    def test_closed_form_optimal_power(self, monkeypatch):
        # Min power for a floor R inverts the rate curve: (2^(R/B)-1) sigma^2/g.
        monkeypatch.setattr(solver, "GAP_TOL", 1e-10)
        monkeypatch.setattr(solver, "FEAS_TOL", 1e-10)
        for gain, limit in [(1e-8, 1.0), (1e-10, 100.0)]:
            ch = single_link_channels(gain)
            problem = power_min(ch, rate_floors=[2e4], bandwidths=[1e7],
                                power_limits=[limit])
            report = solve(problem)
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
        problem = power_min(ch, rate_floors=[2e4], bandwidths=[1e7], power_limits=[1.0])
        report = solve(problem)
        assert report.status == "infeasible"


class TestWmmseStep:
    def test_structure(self):
        rng = np.random.default_rng(1)
        n, l, k = 2, 2, 2
        gains = rng.standard_normal((n, l, k)) + 1j * rng.standard_normal((n, l, k))
        ch = ChannelState(gains=1e-4 * gains, noise_power=np.full(n, 1e-6))
        problem = wmmse_step(ch, [1.0, 1.0], [0.1 + 0j, 0.1 + 0j], [1.0, 1.0],
                             power_limits=[1.0] * l)
        # Beamformer reals only: power and MSE live in the objective.
        assert problem.num_vars == 2 * n * l * k
        assert problem.cones == (("soc", 1 + 2 * n * k),) * l

    def test_zero_weights_zero_beamformers(self):
        rng = np.random.default_rng(2)
        n, l, k = 2, 2, 2
        gains = rng.standard_normal((n, l, k)) + 1j * rng.standard_normal((n, l, k))
        ch = ChannelState(gains=1e-4 * gains, noise_power=np.full(n, 1e-6))
        problem = wmmse_step(ch, [0.0, 0.0], [0.1 + 0j, 0.1 + 0j], [1.0, 1.0],
                             power_limits=[1.0] * l)
        report = solve(problem)
        assert report.optimal
        v = extract_beamformers(report.x, np.ones((n, l), bool), k)
        assert np.max(np.abs(v)) < 1e-4

    def test_single_user_analytic_minimizer(self, monkeypatch):
        # phi (|u v|^2 - 2 Re(u* v) + 1) + w |v|^2 peaks at v = phi u/(phi u^2 + w).
        monkeypatch.setattr(solver, "GAP_TOL", 1e-10)
        monkeypatch.setattr(solver, "FEAS_TOL", 1e-10)
        phi, u, w = 2.0, 0.6, 0.5
        ch = ChannelState(gains=np.array([[[1.0]]], dtype=complex),
                          noise_power=np.array([1.0]))
        problem = wmmse_step(ch, [phi], [u], [w], power_limits=[100.0])
        report = solve(problem)
        assert report.optimal
        v = extract_beamformers(report.x, np.ones((1, 1), bool), 1)[0, 0, 0]
        v_star = phi * u / (phi * u ** 2 + w)
        e_star = u ** 2 * (v_star ** 2 + 1.0) - 2.0 * u * v_star + 1.0
        expect_obj = phi * e_star + w * v_star ** 2
        assert report.primal_objective == pytest.approx(expect_obj, abs=1e-8)
        assert abs(v - v_star) < 1e-4


def random_channels(rng, n, l, k):
    gains = rng.standard_normal((n, l, k)) + 1j * rng.standard_normal((n, l, k))
    return ChannelState(gains=1e-4 * gains, noise_power=rng.uniform(0.5e-6, 2e-6, n))


class TestQuadraticObjective:
    def test_objective_is_weighted_mse_plus_power(self):
        # (1/2) v'Pv + c'v + obj_const = sum_i phi_i e_i(v) + w_i ||v_i||^2 at
        # any beamformers, with one UE of zero MSE weight.
        rng = np.random.default_rng(6)
        n, l, k = 3, 2, 2
        ch = random_channels(rng, n, l, k)
        phi = np.array([1.5, 0.0, 0.7])
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = rng.uniform(0.1, 2.0, n)
        problem = wmmse_step(ch, phi, u, w, power_limits=[1.0] * l,
                             rate_floors=[1e4] * n, bandwidths=[1e7] * n)
        support = np.ones((n, l), bool)
        for _ in range(5):
            x = 1e-2 * rng.standard_normal(problem.num_vars)
            v = extract_beamformers(x, support, k)
            got = 0.5 * x @ problem.P @ x + problem.c @ x + problem.obj_const
            want = phi @ mse(ch, v, u) + w @ ue_power(BeamformerSet(v))
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("builder", ["power_min", "wmmse"])
    def test_quadratic_term_symmetric_psd(self, builder):
        rng = np.random.default_rng(7)
        n, l, k = 3, 2, 2
        ch = random_channels(rng, n, l, k)
        if builder == "power_min":
            problem = power_min(ch, rate_floors=[1e4] * n, bandwidths=[1e7] * n,
                                power_limits=[1.0] * l,
                                objective_weights=rng.uniform(0.1, 2.0, n))
        else:
            problem = wmmse_step(ch, [1.0, 2.0, 0.5], [0.3, 0.2j, -0.1],
                                 [0.5, 1.0, 0.1], power_limits=[1.0] * l)
        P = problem.P
        assert P.shape == (problem.num_vars, problem.num_vars)
        assert np.array_equal(P, P.T)
        assert np.linalg.eigvalsh(P).min() >= -1e-12 * np.abs(P).max()


def combined_rows_reference(channels, ue, cols, nv):
    """Re/Im rows of sum_j h~[ue,j]^H v[stream,j], filled one stream and RRH at a time."""
    k = channels.gains.shape[2]
    sigma = np.sqrt(channels.noise_power[ue])
    rows = []
    for stream in range(channels.num_ue):
        re, im = np.zeros(nv), np.zeros(nv)
        for j in np.flatnonzero(cols[stream] >= 0):
            ht = channels.gains[ue, j] / sigma
            col = cols[stream, j]
            re[col:col + k] += ht.real
            re[col + k:col + 2 * k] += ht.imag
            im[col:col + k] -= ht.imag
            im[col + k:col + 2 * k] += ht.real
        rows.append((re, im))
    return np.array(rows)


class TestCombinedRows:
    @pytest.mark.parametrize("seed", range(4))
    def test_bytes_match_the_per_stream_fill(self, seed):
        rng = np.random.default_rng(40 + seed)
        n, l, k = 4, 3, 2
        ch = random_channels(rng, n, l, k)
        # Signed zeros in the channel must come out as the += fill leaves them.
        gains = ch.gains.copy()
        gains[0, 0] = [0.0 + 0.0j, complex(-0.0, -0.0)]
        ch = ChannelState(gains=gains, noise_power=ch.noise_power.copy())
        support = rng.random((n, l)) < 0.7
        support[0, 0] = True
        cols = build._pair_columns(support, k)
        nv = 2 * k * int(support.sum())
        for ue in range(n):
            got = build._combined_rows(ch, ue, cols, nv)
            assert got.shape == (n, 2, nv)
            assert got.tobytes() == combined_rows_reference(ch, ue, cols, nv).tobytes()
