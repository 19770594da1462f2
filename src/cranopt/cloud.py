"""Mobile-clone execution model and the closed-form cloud-only optimization.

A clone running at f cycles/s finishes F cycles in F/f seconds and burns
kappa * f^(nu-1) * F joules.  Under a hard execution deadline the energy
minimum is the slowest feasible speed f = F/T, provided that speed fits
under the clone's capacity cap; otherwise the instance is infeasible.
Both functions work on per-UE arrays; scalar arguments broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CloudAllocation",
    "InfeasibleError",
    "clone_energy",
    "solve_cloud_allocation",
]


class InfeasibleError(ValueError):
    """No allocation meets the deadlines; `side` is "cloud", "transmit" or "deadline"."""

    def __init__(self, side: str, detail: str, ue: int | None = None):
        self.side = side
        self.ue = ue  # the first UE at fault, where one is known
        where = "" if ue is None else f" at UE {ue}"
        super().__init__(f"{side} side infeasible{where}: {detail}")


@dataclass(frozen=True)
class CloudAllocation:
    """Per-UE clone speeds and execution energies."""

    clone_capacity: np.ndarray  # cycles/s
    exec_energy: np.ndarray     # J


def clone_energy(cycles, speed, kappa, exponent) -> np.ndarray:
    """Joules for `cycles` at `speed`: kappa * speed^(exponent-1) * cycles, elementwise."""
    cycles, speed, kappa, exponent = (np.asarray(a, dtype=float)
                                      for a in (cycles, speed, kappa, exponent))
    if (speed <= 0).any() or (cycles <= 0).any():
        raise ValueError("cycles and speed must be > 0")
    if (exponent < 1).any():
        raise ValueError("cloud energy exponent must be >= 1")
    if (kappa < 0).any():
        raise ValueError("switched capacitance must be >= 0")
    return kappa * speed ** (exponent - 1.0) * cycles


def solve_cloud_allocation(cycles, deadlines, capacity_limits, kappa,
                           exponent) -> CloudAllocation:
    """Minimum-energy clone speeds for per-UE cycle counts and execution deadlines.

    The deadline constraint is tight at the optimum: f* = F/T, with energy
    kappa * F^nu / T^(nu-1).  Raises InfeasibleError with side "cloud"
    naming the first UE whose required speed exceeds its cap.
    """
    cycles = np.atleast_1d(np.asarray(cycles, dtype=float))
    deadlines, limits = (np.broadcast_to(np.asarray(a, dtype=float), cycles.shape)
                         for a in (deadlines, capacity_limits))
    if np.any(deadlines <= 0):
        raise ValueError(f"UE {int(np.argmax(deadlines <= 0))}: "
                         "cloud deadline must be > 0")
    f_star = cycles / deadlines
    over = f_star > limits
    if np.any(over):
        i = int(np.argmax(over))
        raise InfeasibleError("cloud", f"deadline needs {f_star[i]:.6g} cycles/s "
                              f"but the clone is capped at {limits[i]:.6g}", i)
    return CloudAllocation(clone_capacity=f_star,
                           exec_energy=clone_energy(cycles, f_star, kappa, exponent))
