import numpy as np
import pytest

from cranopt.cloud import (
    CloudInfeasibleError,
    clone_energy,
    solve_cloud_allocation,
)
from cranopt.scenario import Task


def make_tasks(cycles, deadline=0.1):
    return [Task(cpu_cycles=c, result_bits=1000.0, deadline=deadline)
            for c in np.atleast_1d(cycles)]


class TestExecModel:
    def test_energy(self):
        assert clone_energy(1500, 3e4, 1e-11, 3) == pytest.approx(13.5)
        assert clone_energy(123.0, 456.0, 0.0, 3) == 0.0
        assert clone_energy(1500, 3e4, 1e-11, 1) == pytest.approx(1.5e-8)
        with pytest.raises(ValueError):
            clone_energy(1500, 3e4, 1e-11, 0.5)


class TestClosedForm:
    def test_plugin_values(self):
        [alloc] = solve_cloud_allocation(make_tasks(1500), 0.05, 1e6, 1e-11, 3)
        assert alloc.clone_capacity == pytest.approx(3e4)
        assert alloc.exec_energy == pytest.approx(13.5)
        assert alloc.exec_time == pytest.approx(0.05)

    def test_infeasible_identifies_ue(self):
        tasks = make_tasks([1500, 1500])
        with pytest.raises(CloudInfeasibleError) as err:
            solve_cloud_allocation(tasks, [0.05, 0.001], 1e6, 1e-11, 3)
        assert err.value.ue == 1
        assert err.value.required == pytest.approx(1.5e6)

    def test_boundary_feasible(self):
        [alloc] = solve_cloud_allocation(make_tasks(1e6, deadline=1.0), 1.0,
                                         1e6, 1e-11, 3)
        assert alloc.clone_capacity == pytest.approx(1e6)

    def test_matches_energy_model_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            f_cycles = rng.uniform(100, 1e5)
            deadline = rng.uniform(1e-3, 1.0)
            kappa = rng.uniform(1e-12, 1e-10)
            nu = rng.uniform(1.0, 4.0)
            cap = f_cycles / deadline * (1.0 + rng.random())
            [alloc] = solve_cloud_allocation(make_tasks(f_cycles, deadline=1.0),
                                             deadline, cap, kappa, nu)
            direct = clone_energy(f_cycles, f_cycles / deadline, kappa, nu)
            closed = kappa * f_cycles ** nu / deadline ** (nu - 1.0)
            assert alloc.exec_energy == direct
            assert alloc.exec_energy == pytest.approx(closed, rel=1e-12)

    def test_energy_decreasing_in_deadline(self):
        deadlines = np.linspace(0.01, 0.5, 12)
        energies = [solve_cloud_allocation(make_tasks(1500), t, 1e9, 1e-11, 3)[0]
                    .exec_energy for t in deadlines]
        assert np.all(np.diff(energies) < 0)

    def test_beats_grid_search(self):
        # Any feasible speed on a dense grid costs at least the closed form.
        rng = np.random.default_rng(7)
        for _ in range(20):
            f_cycles = rng.uniform(500, 5e4)
            deadline = rng.uniform(0.01, 0.3)
            kappa, nu = 1e-11, rng.uniform(1.5, 3.5)
            cap = 2.0 * f_cycles / deadline
            [alloc] = solve_cloud_allocation(make_tasks(f_cycles, deadline=1.0),
                                             deadline, cap, kappa, nu)
            speeds = np.linspace(cap / 1e4, cap, 10000)
            feasible = speeds[f_cycles / speeds <= deadline]
            grid_energy = kappa * feasible ** (nu - 1.0) * f_cycles
            assert np.all(grid_energy >= alloc.exec_energy * (1 - 1e-12))
