import math

import mpmath
import numpy as np
import pytest

from cranopt.algorithms import cloud_energy_of_rate, mmse_receiver, mse, mse_weight
from cranopt.ran import BeamformerSet, sinr
from cranopt.scenario import ChannelState, Task


def random_instance(rng, n=3, l=2, k=2, scale=1.0):
    gains = scale * (rng.standard_normal((n, l, k))
                     + 1j * rng.standard_normal((n, l, k)))
    vecs = rng.standard_normal((n, l, k)) + 1j * rng.standard_normal((n, l, k))
    noise = rng.uniform(0.5, 2.0, n)
    ch = ChannelState(gains=gains, noise_power=noise)
    return ch, BeamformerSet(vecs)


class TestMmseReceiver:
    def test_zero_beamformers(self):
        ch = ChannelState(gains=np.ones((1, 1, 1), dtype=complex),
                          noise_power=np.array([1.0]))
        u = mmse_receiver(ch, BeamformerSet(np.zeros((1, 1, 1), dtype=complex)))
        assert u[0] == 0.0

    def test_single_user_magnitude(self):
        # |h^H v|^2 = 9, sigma^2 = 1: |u| = 3/10.
        ch = ChannelState(gains=np.array([[[1.0]]], dtype=complex),
                          noise_power=np.array([1.0]))
        u = mmse_receiver(ch, BeamformerSet(np.array([[[3.0]]], dtype=complex)))
        assert abs(u[0]) == pytest.approx(0.3)
        assert mse(ch, np.array([[[3.0]]], dtype=complex), u)[0] == pytest.approx(0.1)

    def test_local_optimality_probe(self):
        rng = np.random.default_rng(3)
        ch, beams = random_instance(rng)
        receivers = mmse_receiver(ch, beams)
        base = mse(ch, beams.vectors, receivers)
        for i in range(3):
            for _ in range(100):
                moved = receivers.copy()
                moved[i] += 1e-3 * (rng.standard_normal() + 1j * rng.standard_normal())
                perturbed = mse(ch, beams.vectors, moved)[i]
                assert perturbed >= base[i] - 1e-12


class TestMseIdentities:
    def test_zero_receiver(self):
        rng = np.random.default_rng(4)
        ch, beams = random_instance(rng)
        assert mse(ch, beams.vectors, np.zeros(3)) == pytest.approx(np.ones(3))

    def test_inverse_mse_is_one_plus_sinr(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ch, beams = random_instance(rng)
            e = mse(ch, beams.vectors, mmse_receiver(ch, beams))
            assert 1.0 / e == pytest.approx(1.0 + sinr(ch, beams), rel=1e-9)

    def test_rate_mse_identity(self):
        rng = np.random.default_rng(6)
        ch, beams = random_instance(rng)
        e = mse(ch, beams.vectors, mmse_receiver(ch, beams))
        rate_via_mse = 1e7 * np.log2(1.0 / e)
        rate_direct = 1e7 * np.log2(1.0 + sinr(ch, beams))
        assert rate_via_mse == pytest.approx(rate_direct, rel=1e-9)


def tau_reference(e, task, bandwidth, kappa, nu, cap):
    """Cloud energy through the MSE map, in high precision (mpmath)."""
    e = mpmath.mpf(e)
    r = bandwidth * mpmath.log(1 / e) / mpmath.log(2)
    floor = mpmath.mpf(task.result_bits) / (
        mpmath.mpf(task.deadline) - mpmath.mpf(task.cpu_cycles) / mpmath.mpf(cap))
    if r < floor:
        r = floor
    speed = mpmath.mpf(task.cpu_cycles) / (
        mpmath.mpf(task.deadline) - mpmath.mpf(task.result_bits) / r)
    if speed > cap:
        speed = mpmath.mpf(cap)
    return mpmath.mpf(kappa) * speed ** (mpmath.mpf(nu) - 1) * task.cpu_cycles


def finite_difference_weight(e, task, bandwidth, kappa, nu, cap, step=1e-7):
    with mpmath.workdps(50):
        hi = tau_reference(e + step, task, bandwidth, kappa, nu, cap)
        lo = tau_reference(e - step, task, bandwidth, kappa, nu, cap)
        return float((hi - lo) / (2 * mpmath.mpf(step)))


class TestMseWeight:
    def test_unit_exponent_gives_zero(self):
        task = Task(cpu_cycles=1500, result_bits=1000, deadline=0.1)
        assert mse_weight(0.5, task, 1e7, 1e-11, 1.0, 1e6) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            task = Task(cpu_cycles=rng.uniform(500, 3000),
                        result_bits=rng.uniform(100, 3000),
                        deadline=rng.uniform(0.05, 0.3))
            e = rng.uniform(1e-4, 0.999)
            assert mse_weight(e, task, 1e7, 1e-11, rng.uniform(1.0, 4.0), 1e6) >= 0.0

    def test_domain_error(self):
        task = Task(cpu_cycles=1500, result_bits=1000, deadline=0.1)
        for bad in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                mse_weight(bad, task, 1e7, 1e-11, 3.0, 1e6)

    def test_reference_point_matches_finite_difference(self):
        task = Task(cpu_cycles=1500, result_bits=1000, deadline=0.1)
        phi = mse_weight(0.5, task, 1e7, 1e-11, 3.0, 1e6)
        fd = finite_difference_weight(0.5, task, 1e7, 1e-11, 3.0, 1e6)
        assert phi == pytest.approx(fd, rel=1e-4)

    def test_random_points_match_finite_difference(self):
        rng = np.random.default_rng(8)
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
            rate = bandwidth * math.log2(1.0 / e)
            # Keep a margin from the clamp kink so the derivative is two-sided.
            if rate < 1.05 * floor:
                continue
            phi = mse_weight(e, task, bandwidth, 1e-11, nu, cap)
            fd = finite_difference_weight(e, task, bandwidth, 1e-11, nu, cap)
            assert phi == pytest.approx(fd, rel=1e-4), (e, task)
            checked += 1

    def test_cloud_energy_of_rate_consistency(self):
        # tau at the implied rate equals the closed-form clone energy.
        task = Task(cpu_cycles=1500, result_bits=1000, deadline=0.1)
        r = 2e4
        expect = 1e-11 * (1500 / (0.1 - 1000 / r)) ** 2 * 1500
        assert cloud_energy_of_rate(r, task, 1e-11, 3.0, 1e6) == pytest.approx(expect)
