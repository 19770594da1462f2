"""Mobile-clone execution model and the closed-form cloud-only optimization.

A clone running at f cycles/s finishes F cycles in F/f seconds and burns
kappa * f^(nu-1) * F joules.  Under a hard execution deadline the energy
minimum is the slowest feasible speed f = F/T, provided that speed fits
under the clone's capacity cap; otherwise the instance is infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scenario import Task

__all__ = [
    "CloudAllocation",
    "CloudInfeasibleError",
    "clone_energy",
    "solve_cloud_allocation",
]


class CloudInfeasibleError(ValueError):
    """Deadline requires a clone speed above the capacity cap."""

    def __init__(self, ue: int, required: float, limit: float):
        self.ue = ue
        self.required = required
        self.limit = limit
        super().__init__(
            f"UE {ue}: deadline needs {required:.6g} cycles/s "
            f"but the clone is capped at {limit:.6g}"
        )


@dataclass(frozen=True)
class CloudAllocation:
    clone_capacity: float  # cycles/s
    exec_time: float       # s
    exec_energy: float     # J


def clone_energy(cycles: float, speed: float, kappa: float, exponent: float) -> float:
    """Joules for `cycles` at `speed`: kappa * speed^(exponent-1) * cycles."""
    if speed <= 0 or cycles <= 0:
        raise ValueError("cycles and speed must be > 0")
    if exponent < 1:
        raise ValueError("cloud energy exponent must be >= 1")
    if kappa < 0:
        raise ValueError("switched capacitance must be >= 0")
    return kappa * speed ** (exponent - 1.0) * cycles


def solve_cloud_allocation(
    tasks: list[Task],
    deadlines,
    capacity_limits,
    kappa,
    exponent,
) -> list[CloudAllocation]:
    """Minimum-energy clone speeds for per-UE execution deadlines.

    The deadline constraint is tight at the optimum: f* = F/T, with energy
    kappa * F^nu / T^(nu-1).  Raises CloudInfeasibleError naming the first
    UE whose required speed exceeds its cap.
    """
    n = len(tasks)
    deadlines = _per_ue(deadlines, n)
    capacity_limits = _per_ue(capacity_limits, n)
    kappa = _per_ue(kappa, n)
    exponent = _per_ue(exponent, n)

    out = []
    for i, task in enumerate(tasks):
        if deadlines[i] <= 0:
            raise ValueError(f"UE {i}: cloud deadline must be > 0")
        f_star = task.cpu_cycles / deadlines[i]
        if f_star > capacity_limits[i]:
            raise CloudInfeasibleError(i, f_star, capacity_limits[i])
        energy = clone_energy(task.cpu_cycles, f_star, kappa[i], exponent[i])
        out.append(CloudAllocation(clone_capacity=f_star,
                                   exec_time=deadlines[i],
                                   exec_energy=energy))
    return out


def _per_ue(value, n):
    if hasattr(value, "__len__"):
        if len(value) != n:
            raise ValueError(f"expected {n} per-UE values, got {len(value)}")
        return [float(v) for v in value]
    return [float(value)] * n
