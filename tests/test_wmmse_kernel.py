import math

import mpmath
import numpy as np
import pytest

from cranopt.algorithms import (
    _clone_speed,
    cloud_energy_of_rate,
    mmse_receiver,
    mse,
    mse_weight,
)
from cranopt.ran import BeamformerSet, RateInfeasibleError, sinr
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


def task_args(task):
    return task.cpu_cycles, task.result_bits, task.deadline


class TestMseWeight:
    def test_unit_exponent_gives_zero(self):
        task = Task(cpu_cycles=1500, result_bits=1000, deadline=0.1)
        assert mse_weight(0.5, *task_args(task), 1e7, 1e-11, 1.0, 1e6) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        draws = []
        for _ in range(50):
            task = Task(cpu_cycles=rng.uniform(500, 3000),
                        result_bits=rng.uniform(100, 3000),
                        deadline=rng.uniform(0.05, 0.3))
            e = rng.uniform(1e-4, 0.999)
            draws.append((e, *task_args(task), rng.uniform(1.0, 4.0)))
        e, cycles, bits, deadlines, nu = np.array(draws).T
        assert np.all(mse_weight(e, cycles, bits, deadlines, 1e7, 1e-11, nu, 1e6) >= 0.0)

    def test_domain_error(self):
        task = Task(cpu_cycles=1500, result_bits=1000, deadline=0.1)
        for bad in (0.0, 1.0, 1.5, -0.1, np.nan):
            with pytest.raises(ValueError):
                mse_weight(bad, *task_args(task), 1e7, 1e-11, 3.0, 1e6)
            with pytest.raises(ValueError):
                mse_weight(np.array([0.5, bad]), *task_args(task), 1e7, 1e-11, 3.0, 1e6)

    def test_reference_point_matches_finite_difference(self):
        task = Task(cpu_cycles=1500, result_bits=1000, deadline=0.1)
        phi = mse_weight(0.5, *task_args(task), 1e7, 1e-11, 3.0, 1e6)
        fd = finite_difference_weight(0.5, task, 1e7, 1e-11, 3.0, 1e6)
        assert phi == pytest.approx(fd, rel=1e-4)

    def test_random_points_match_finite_difference(self):
        rng = np.random.default_rng(8)
        tasks, draws = [], []
        while len(draws) < 100:
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
            tasks.append(task)
            draws.append((e, *task_args(task), bandwidth, nu, cap))
        e, cycles, bits, deadlines, bandwidth, nu, cap = np.array(draws).T
        phi = mse_weight(e, cycles, bits, deadlines, bandwidth, 1e-11, nu, cap)
        for i, task in enumerate(tasks):
            fd = finite_difference_weight(e[i], task, bandwidth[i], 1e-11, nu[i], cap[i])
            assert phi[i] == pytest.approx(fd, rel=1e-4), (e[i], task)

    def test_cloud_energy_of_rate_consistency(self):
        # tau at the implied rate equals the closed-form clone energy.
        task = Task(cpu_cycles=1500, result_bits=1000, deadline=0.1)
        r = 2e4
        expect = 1e-11 * (1500 / (0.1 - 1000 / r)) ** 2 * 1500
        assert cloud_energy_of_rate(r, *task_args(task), 1e-11, 3.0, 1e6) == \
            pytest.approx(expect)


def speed_reference(r, cycles, bits, deadline, cap):
    """One UE's deadline-tight clone speed, capped."""
    if bits == 0:
        return min(cycles / deadline, cap)
    slack = deadline - bits / r if r > 0 else -math.inf
    return min(cycles / slack, cap) if slack > 0 else cap


def weight_reference(e, cycles, bits, deadline, bandwidth, kappa, nu, cap):
    """One UE's MSE weight, straight from the chain rule."""
    if bits == 0 or nu == 1.0 or kappa == 0.0:
        return 0.0
    r = max(bandwidth * math.log2(1.0 / e), bits / (deadline - cycles / cap))
    f = speed_reference(r, cycles, bits, deadline, cap)
    return kappa * (nu - 1.0) * bits * f ** nu / r ** 2 * bandwidth / (e * math.log(2.0))


def ue_batch(rng, n=400):
    """Per-UE draws mixing D = 0, clamped and capped rates, and r = 0."""
    cycles = rng.uniform(500, 3000, n)
    bits = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(100, 3000, n))
    deadlines = rng.uniform(0.05, 0.3, n)
    cap = rng.uniform(2e5, 2e6, n)
    deadlines = np.maximum(deadlines, 1.01 * cycles / cap)   # some time is left
    floor = bits / (deadlines - cycles / cap)
    # Rates around the floor (clamp), 0, and below D/T (no slack: cap).
    r = floor * rng.uniform(0.5, 3.0, n)
    r[::7] = 0.0
    r[3::11] = 0.9 * bits[3::11] / deadlines[3::11]
    return r, cycles, bits, deadlines, cap


class TestWholeArrayAgainstPerUe:
    def test_clone_speed_and_energy(self):
        rng = np.random.default_rng(30)
        r, cycles, bits, deadlines, cap = ue_batch(rng)
        kappa, nu = rng.uniform(1e-12, 1e-10, r.size), rng.uniform(1.0, 4.0, r.size)
        speed = _clone_speed(r, cycles, bits, deadlines, cap)
        energy = cloud_energy_of_rate(r, cycles, bits, deadlines, kappa, nu, cap)
        ref_speed = np.array([speed_reference(*args) for args
                              in zip(r, cycles, bits, deadlines, cap)])
        ref_energy = np.array([k * f ** (v - 1.0) * c for k, f, v, c
                               in zip(kappa, ref_speed, nu, cycles)])
        assert np.all(np.abs(speed - ref_speed) <= 1e-14 * ref_speed)
        assert np.all(np.abs(energy - ref_energy) <= 1e-14 * ref_energy)
        assert np.any((bits == 0) & (r == 0))
        assert np.all(speed[bits == 0] == (cycles / deadlines)[bits == 0])
        capped = (bits > 0) & ((r == 0) | (np.arange(r.size) % 11 == 3))
        assert np.any(capped) and np.all(speed[capped] == cap[capped])

    def test_scalars_broadcast(self):
        assert _clone_speed(0.0, 1500.0, 0.0, 0.1, 1e6) == 1500.0 / 0.1
        assert _clone_speed(0.0, 1500.0, 1000.0, 0.1, 1e6) == 1e6
        speeds = _clone_speed(np.array([2e4, 4e4]), 1500.0, 1000.0, 0.1, 1e6)
        assert np.array_equal(speeds, [1500.0 / (0.1 - 1000.0 / 2e4),
                                       1500.0 / (0.1 - 1000.0 / 4e4)])

    def test_mse_weight(self):
        rng = np.random.default_rng(31)
        _, cycles, bits, deadlines, cap = ue_batch(rng)
        n = cycles.size
        bandwidth = rng.uniform(1e6, 2e7, n)
        floor = bits / (deadlines - cycles / cap)
        # Every third UE's MSE implies half its rate floor: the clamp.
        e = rng.uniform(1e-4, 0.999, n)
        e[::3] = np.where(bits > 0, 2.0 ** (-0.5 * floor / bandwidth), e)[::3]
        kappa = np.where(rng.random(n) < 0.1, 0.0, 1e-11)
        nu = np.where(rng.random(n) < 0.1, 1.0, rng.uniform(1.5, 3.5, n))
        phi = mse_weight(e, cycles, bits, deadlines, bandwidth, kappa, nu, cap)
        ref = np.array([weight_reference(*args) for args
                        in zip(e, cycles, bits, deadlines, bandwidth, kappa, nu, cap)])
        assert np.all(np.abs(phi - ref) <= 1e-14 * ref)
        assert np.any((bits > 0) & (bandwidth * np.log2(1.0 / e) < floor) & (ref > 0))

    def test_mse_weight_names_the_first_ue_out_of_time(self):
        # UE 0 has nothing to send and UE 1 still has time; UEs 2 and 3
        # spend the whole deadline in the cloud.
        cycles = np.array([2e5, 1500.0, 2e5, 2e5])
        bits = np.array([0.0, 1000.0, 1000.0, 1000.0])
        with pytest.raises(RateInfeasibleError) as err:
            mse_weight(0.5, cycles, bits, 0.1, 1e7, 1e-11, 3.0, 1e6)
        assert err.value.ue == 2
