"""Downlink SINR/rate/energy accounting, per-RRH power and fronthaul loads.

Beamformers are stored as a complex array v[i, j] in C^K per (UE i, RRH j).
Rates use base-2 logs throughout so everything is in bits and bit/s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import ChannelState

__all__ = [
    "BeamformerSet",
    "EnergyBreakdown",
    "RateInfeasibleError",
    "amplitudes",
    "sinr",
    "rate",
    "ue_power",
    "rrh_power",
    "block_power",
    "fronthaul_weights",
    "fronthaul_load",
    "surrogate_fronthaul_load",
    "transmit_energy",
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
        vectors = np.array(self.vectors)  # a private copy: the caller's stays writable
        if vectors.ndim != 3:
            raise ValueError("beamformers must have shape (num_ue, num_rrh, antennas)")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("beamformers must be finite")
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)


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


def amplitudes(channels: ChannelState, vectors) -> np.ndarray:
    """Amplitude m[i, k] = sum_j h[i,j]^H v[k,j] of stream k at UE i, v as (N, L, K)."""
    return np.sum(np.conj(channels.gains)[:, None] * vectors[None], axis=(2, 3))


def sinr(channels: ChannelState, beamformers: BeamformerSet) -> np.ndarray:
    """Receiver-side SINR |m_ii|^2 / (sum_{k != i} |m_ik|^2 + sigma_i^2) per UE."""
    power = np.abs(amplitudes(channels, beamformers.vectors)) ** 2
    signal = np.diag(power)
    interference = np.sum(power, axis=1) - signal
    return signal / (interference + channels.noise_power)


def rate(channels: ChannelState, beamformers: BeamformerSet, bandwidth) -> np.ndarray:
    """Achievable rate B * log2(1 + SINR) per UE in bit/s (B shared or per UE)."""
    bandwidth = np.asarray(bandwidth, dtype=float)
    if np.any(bandwidth <= 0):
        raise ValueError("bandwidth must be > 0")
    return bandwidth * np.log2(1.0 + sinr(channels, beamformers))


def ue_power(beamformers: BeamformerSet) -> np.ndarray:
    """Power per UE across all RRHs, each summed as one row like np.sum(v[i])."""
    v = beamformers.vectors
    return np.sum(np.abs(v.reshape(v.shape[0], -1)) ** 2, axis=1)


def rrh_power(beamformers: BeamformerSet) -> np.ndarray:
    """Power sum_i ||v[i, j]||^2 per RRH, each summed as one row like np.sum(v[:, j])."""
    v = beamformers.vectors
    return np.sum(np.abs(v.transpose(1, 0, 2).reshape(v.shape[1], -1)) ** 2, axis=1)


def block_power(vectors) -> np.ndarray:
    """||v[i, j]||^2 per (UE, RRH) pair of a (num_ue, num_rrh, antennas) array."""
    return np.sum(np.abs(vectors) ** 2, axis=-1)


def fronthaul_weights(beamformers: BeamformerSet, epsilon: float) -> np.ndarray:
    """Reweighting factors rho[i, j] = 1 / (||v[i, j]||^2 + epsilon)."""
    if epsilon <= 0:
        raise ValueError("stability epsilon must be > 0")
    return 1.0 / (block_power(beamformers.vectors) + epsilon)


def fronthaul_load(beamformers: BeamformerSet, rates) -> np.ndarray:
    """Fronthaul traffic into each RRH in bit/s: the full rate of every UE it serves.

    A UE is served wherever its block at the RRH is nonzero.
    """
    active = block_power(beamformers.vectors) > 0.0
    return np.sum(np.asarray(rates, dtype=float)[:, None] * active, axis=0)


def surrogate_fronthaul_load(beamformers: BeamformerSet, rates, weights) -> np.ndarray:
    """The solvers' convex surrogate of `fronthaul_load`, per RRH.

    sum_i rho[i, j] ||v[i, j]||^2 r_i, with `weights` rho from `fronthaul_weights`.
    """
    rates = np.asarray(rates, dtype=float)
    return np.sum(weights * block_power(beamformers.vectors) * rates[:, None], axis=0)


def transmit_energy(bits, rates, powers) -> np.ndarray:
    """p_i D_i / r_i per UE, zero for a UE without result bits."""
    return powers * bits / np.where(bits > 0, rates, 1.0)
