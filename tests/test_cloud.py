import numpy as np
import pytest

from cranopt.cloud import (
    CloudInfeasibleError,
    clone_energy,
    solve_cloud_allocation,
)


class TestExecModel:
    def test_energy(self):
        assert clone_energy(1500, 3e4, 1e-11, 3) == pytest.approx(13.5)
        assert clone_energy(123.0, 456.0, 0.0, 3) == 0.0
        assert clone_energy(1500, 3e4, 1e-11, 1) == pytest.approx(1.5e-8)
        with pytest.raises(ValueError):
            clone_energy(1500, 3e4, 1e-11, 0.5)

    def test_elementwise_with_per_ue_checks(self):
        cycles = np.array([1500.0, 123.0, 1500.0])
        energy = clone_energy(cycles, [3e4, 456.0, 3e4], [1e-11, 0.0, 1e-11], [3, 3, 1])
        assert energy == pytest.approx([13.5, 0.0, 1.5e-8])
        for bad in ([3e4, 0.0, 3e4], [3e4, 456.0, -1.0]):
            with pytest.raises(ValueError):
                clone_energy(cycles, bad, 1e-11, 3)
        with pytest.raises(ValueError):
            clone_energy(cycles, 3e4, [1e-11, -1e-11, 1e-11], 3)


class TestClosedForm:
    def test_plugin_values(self):
        alloc = solve_cloud_allocation([1500.0, 3000.0], 0.05, 1e6, 1e-11, 3)
        assert alloc.clone_capacity == pytest.approx([3e4, 6e4])
        assert alloc.exec_energy == pytest.approx([13.5, 108.0])
        assert alloc.exec_time == pytest.approx([0.05, 0.05])

    def test_infeasible_identifies_ue(self):
        with pytest.raises(CloudInfeasibleError) as err:
            solve_cloud_allocation([1500, 1500, 1500], [0.05, 0.001, 0.0001],
                                   1e6, 1e-11, 3)
        assert err.value.ue == 1
        assert err.value.required == pytest.approx(1.5e6)

    def test_boundary_feasible(self):
        alloc = solve_cloud_allocation([1e6], 1.0, 1e6, 1e-11, 3)
        assert alloc.clone_capacity == pytest.approx([1e6])

    def test_matches_energy_model_exactly(self):
        rng = np.random.default_rng(0)
        draws = np.array([(rng.uniform(100, 1e5), rng.uniform(1e-3, 1.0),
                           rng.uniform(1e-12, 1e-10), rng.uniform(1.0, 4.0),
                           1.0 + rng.random()) for _ in range(100)])
        f_cycles, deadline, kappa, nu, headroom = draws.T
        cap = f_cycles / deadline * headroom
        alloc = solve_cloud_allocation(f_cycles, deadline, cap, kappa, nu)
        direct = clone_energy(f_cycles, f_cycles / deadline, kappa, nu)
        closed = kappa * f_cycles ** nu / deadline ** (nu - 1.0)
        assert np.array_equal(alloc.exec_energy, direct)
        assert alloc.exec_energy == pytest.approx(closed, rel=1e-12)

    def test_energy_decreasing_in_deadline(self):
        deadlines = np.linspace(0.01, 0.5, 12)
        energies = solve_cloud_allocation(np.full(12, 1500.0), deadlines,
                                          1e9, 1e-11, 3).exec_energy
        assert np.all(np.diff(energies) < 0)

    def test_beats_grid_search(self):
        # Any feasible speed on a dense grid costs at least the closed form.
        rng = np.random.default_rng(7)
        for _ in range(20):
            f_cycles = rng.uniform(500, 5e4)
            deadline = rng.uniform(0.01, 0.3)
            kappa, nu = 1e-11, rng.uniform(1.5, 3.5)
            cap = 2.0 * f_cycles / deadline
            alloc = solve_cloud_allocation([f_cycles], deadline, cap, kappa, nu)
            speeds = np.linspace(cap / 1e4, cap, 10000)
            feasible = speeds[f_cycles / speeds <= deadline]
            grid_energy = kappa * feasible ** (nu - 1.0) * f_cycles
            assert np.all(grid_energy >= alloc.exec_energy * (1 - 1e-12))
