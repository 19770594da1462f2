"""Downlink SINR/rate/energy accounting, per-RRH power and fronthaul loads.

Beamformers are stored as a complex array v[i, j] in C^K per (UE i, RRH j).
Rates use base-2 logs throughout so everything is in bits and bit/s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import ChannelState, SystemConfig, Task

__all__ = [
    "BeamformerSet",
    "EnergyBreakdown",
    "RateInfeasibleError",
    "sinr",
    "rate",
    "rrh_power",
    "fronthaul_weights",
    "fronthaul_load",
    "total_energy",
]


class RateInfeasibleError(ValueError):
    """Deadline leaves no time for transmission (cloud alone exhausts it)."""

    def __init__(self, ue: int, detail: str):
        self.ue = ue
        super().__init__(f"UE {ue}: {detail}")


@dataclass(frozen=True)
class BeamformerSet:
    """Transmit vectors v[i, j] in C^K for every (UE, RRH) pair."""

    vectors: np.ndarray  # complex, shape (num_ue, num_rrh, antennas)

    def __post_init__(self):
        if self.vectors.ndim != 3:
            raise ValueError("beamformers must have shape (num_ue, num_rrh, antennas)")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("beamformers must be finite")
        self.vectors.setflags(write=False)

    @property
    def num_ue(self) -> int:
        return self.vectors.shape[0]

    @property
    def num_rrh(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-UE cloud/transmit energies and their weighted combination."""

    cloud: np.ndarray      # J per UE
    transmit: np.ndarray   # J per UE (unweighted radio energy)
    weighted: np.ndarray   # J per UE: cloud + tradeoff * transmit
    total_cloud: float
    total_transmit: float
    total: float

    @staticmethod
    def combine(cloud, transmit, tradeoff) -> "EnergyBreakdown":
        cloud = np.asarray(cloud, dtype=float)
        transmit = np.asarray(transmit, dtype=float)
        tradeoff = np.asarray(tradeoff, dtype=float)
        weighted = cloud + tradeoff * transmit
        return EnergyBreakdown(
            cloud=cloud,
            transmit=transmit,
            weighted=weighted,
            total_cloud=float(cloud.sum()),
            total_transmit=float(transmit.sum()),
            total=float(weighted.sum()),
        )


def sinr(ue: int, channels: ChannelState, beamformers: BeamformerSet) -> float:
    """Receiver-side SINR: both desired and interfering streams ride UE `ue`'s channel.

    Stream k reaches UE `ue` with amplitude sum_j h[ue,j]^H v[k,j].
    """
    h = channels.gains[ue]
    amps = np.array([complex(np.sum(np.conj(h) * beamformers.vectors[k]))
                     for k in range(channels.num_ue)])
    signal = abs(amps[ue]) ** 2
    interference = float(np.sum(np.abs(amps) ** 2) - signal)
    return signal / (interference + float(channels.noise_power[ue]))


def rate(ue: int, channels: ChannelState, beamformers: BeamformerSet,
         bandwidth: float) -> float:
    """Achievable rate B * log2(1 + SINR) in bit/s."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be > 0")
    return bandwidth * np.log2(1.0 + sinr(ue, channels, beamformers))


def rrh_power(rrh: int, beamformers: BeamformerSet) -> float:
    """Total transmit power sum_i ||v[i, rrh]||^2 at one radio head."""
    v = beamformers.vectors[:, rrh, :]
    return float(np.sum(np.abs(v) ** 2))


def ue_power(ue: int, beamformers: BeamformerSet) -> float:
    """Power spent on UE `ue` across all RRHs."""
    return float(np.sum(np.abs(beamformers.vectors[ue]) ** 2))


def fronthaul_weights(beamformers: BeamformerSet, epsilon: float) -> np.ndarray:
    """Reweighting factors rho[i, j] = 1 / (||v[i, j]||^2 + epsilon)."""
    if epsilon <= 0:
        raise ValueError("stability epsilon must be > 0")
    sq = np.sum(np.abs(beamformers.vectors) ** 2, axis=-1)
    return 1.0 / (sq + epsilon)


def fronthaul_load(rrh: int, beamformers: BeamformerSet, rates,
                   mode: str = "l0", weights: np.ndarray | None = None,
                   zero_threshold: float = 0.0) -> float:
    """Fronthaul traffic into one RRH in bit/s.

    ``l0`` counts the full rate of every UE whose beamformer block at this
    RRH is active (above `zero_threshold` in squared norm); ``weighted``
    sums rho[i, j] * ||v[i, j]||^2 * r_i, the convex surrogate used inside
    the solvers.
    """
    rates = np.asarray(rates, dtype=float)
    if np.any(rates < 0):
        raise ValueError("rates must be >= 0")
    sq = np.sum(np.abs(beamformers.vectors[:, rrh, :]) ** 2, axis=-1)
    if mode == "l0":
        return float(np.sum(rates * (sq > zero_threshold)))
    if mode == "weighted":
        if weights is None:
            raise ValueError("weighted mode needs rho weights")
        return float(np.sum(weights[:, rrh] * sq * rates))
    raise ValueError(f"unknown fronthaul mode {mode!r}")


def total_energy(config: SystemConfig, tasks: list[Task], cloud_energies,
                 beamformers: BeamformerSet, rates) -> EnergyBreakdown:
    """Weighted system energy: E_i = E_i^cloud + eta_i * p_i * D_i / r_i."""
    n = config.num_ue
    cloud = np.asarray(cloud_energies, dtype=float)
    rates = np.asarray(rates, dtype=float)
    transmit = np.zeros(n)
    for i in range(n):
        d = tasks[i].result_bits
        if d == 0:
            continue
        if rates[i] <= 0:
            raise RateInfeasibleError(i, "zero rate with bits pending")
        p = ue_power(i, beamformers)
        transmit[i] = p * d / rates[i]
    return EnergyBreakdown.combine(cloud, transmit, config.tradeoff)
