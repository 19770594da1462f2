"""Scenario configuration, geometry and randomized channel generation.

Unit conventions are fixed here for the whole package: CPU cycles, bits,
seconds, hertz, watts, joules.  The only non-SI inputs are the noise power
spectral density (dBm/Hz) and positions (km); both are converted to linear
SI quantities at this module boundary.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemConfig",
    "Task",
    "ChannelState",
    "ValidationError",
    "load_config",
    "default_config",
    "path_loss_db",
    "generate_channels",
]

# Stock small-cell defaults used whenever a scenario file omits a field.
DEFAULTS = {
    "num_rrh": 4,
    "antennas_per_rrh": 2,
    "num_ue": 5,
    "rrh_power_limit": 1.0,          # W
    "clone_capacity_limit": 1e6,     # cycles/s
    "tradeoff": 10.0,
    "bandwidth": 1e7,                # Hz
    "fronthaul_limit": 1e7,          # bit/s
    "cloud_exponent": 3.0,
    "switched_capacitance": 1e-11,   # J per (cycles/s)^(exponent-1) per cycle
    "stability_epsilon": 1e-10,
    "noise_psd_dbm_hz": -100.0,
}

DEFAULT_TASK = {"cpu_cycles": 1500.0, "result_bits": 1000.0, "deadline": 0.1}

# Default deployment: RRHs on the corners of a square, UEs uniform inside.
# The side length is chosen so the stock power budgets can actually meet
# the stock deadline rate floors (at 30 dBm per RRH and -30 dBm noise over 10 MHz the
# link budget only closes for tens-of-metre cells under the 127+25*log10(d)
# loss model).
DEFAULT_SQUARE_SIDE_KM = 0.02
DEFAULT_LAYOUT_SEED = 7


class ValidationError(ValueError):
    """Raised when a scenario file or constructed config violates an invariant."""

    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        super().__init__(f"{fieldname}: {message}")


@dataclass(frozen=True)
class Task:
    """One offloaded workload: cycles to execute, result bits to return."""

    cpu_cycles: float       # F, CPU cycles
    result_bits: float      # D, bits
    deadline: float         # T_max, seconds

    def __post_init__(self):
        # Written as "not v > 0" so that NaN fails them.
        if not self.cpu_cycles > 0:
            raise ValidationError("cpu_cycles", "must be > 0")
        if not self.result_bits >= 0:
            raise ValidationError("result_bits", "must be >= 0")
        if not self.deadline > 0:
            raise ValidationError("deadline", "must be > 0")


@dataclass(frozen=True)
class SystemConfig:
    """All scenario constants; per-UE / per-RRH fields are stored as tuples."""

    num_rrh: int
    antennas_per_rrh: int
    num_ue: int
    rrh_power_limit: tuple[float, ...]       # W, per RRH
    clone_capacity_limit: tuple[float, ...]  # cycles/s, per UE
    tradeoff: tuple[float, ...]              # energy trade-off weight, per UE
    bandwidth: tuple[float, ...]             # Hz, per UE
    fronthaul_limit: tuple[float, ...]       # bit/s, per RRH
    cloud_exponent: tuple[float, ...]        # per UE, >= 1
    switched_capacitance: tuple[float, ...]  # per UE, >= 0
    stability_epsilon: float
    noise_psd_dbm_hz: float
    rrh_positions: tuple[tuple[float, float], ...]  # km
    ue_positions: tuple[tuple[float, float], ...]   # km

    def __post_init__(self):
        _integer("num_rrh", self.num_rrh, 1)
        _integer("antennas_per_rrh", self.antennas_per_rrh, 1)
        _integer("num_ue", self.num_ue, 1)
        _all_positive("rrh_power_limit", self.rrh_power_limit, self.num_rrh)
        _all_positive("clone_capacity_limit", self.clone_capacity_limit, self.num_ue)
        _all_nonnegative("tradeoff", self.tradeoff, self.num_ue)
        _all_positive("bandwidth", self.bandwidth, self.num_ue)
        _all_positive("fronthaul_limit", self.fronthaul_limit, self.num_rrh)
        if len(self.cloud_exponent) != self.num_ue or any(not v >= 1 for v in self.cloud_exponent):
            raise ValidationError("cloud_exponent", "needs num_ue entries, all >= 1")
        _all_nonnegative("switched_capacitance", self.switched_capacitance, self.num_ue)
        if not self.stability_epsilon > 0:
            raise ValidationError("stability_epsilon", "must be > 0")
        if len(self.rrh_positions) != self.num_rrh:
            raise ValidationError("rrh_positions", "needs one (x, y) pair per RRH")
        if len(self.ue_positions) != self.num_ue:
            raise ValidationError("ue_positions", "needs one (x, y) pair per UE")

    @property
    def noise_power(self) -> np.ndarray:
        """Per-UE noise power in watts: 10^((psd_dBm/Hz - 30)/10) * bandwidth."""
        psd_w_per_hz = 10.0 ** ((self.noise_psd_dbm_hz - 30.0) / 10.0)
        return psd_w_per_hz * np.asarray(self.bandwidth, dtype=float)

    def distances_km(self) -> np.ndarray:
        """(num_ue, num_rrh) UE-to-RRH distances."""
        ue = np.asarray(self.ue_positions, dtype=float)
        rrh = np.asarray(self.rrh_positions, dtype=float)
        return np.linalg.norm(ue[:, None, :] - rrh[None, :, :], axis=-1)


@dataclass(frozen=True)
class ChannelState:
    """Complex channel vectors h[i, j] in C^K for every (UE i, RRH j) pair."""

    gains: np.ndarray        # complex, shape (num_ue, num_rrh, antennas)
    noise_power: np.ndarray  # W, shape (num_ue,)

    def __post_init__(self):
        if self.gains.ndim != 3:
            raise ValidationError("gains", "expected shape (num_ue, num_rrh, antennas)")
        if np.any(np.asarray(self.noise_power) <= 0):
            raise ValidationError("noise_power", "must be > 0")
        self.gains.setflags(write=False)
        self.noise_power.setflags(write=False)

    @property
    def num_ue(self) -> int:
        return self.gains.shape[0]

    @property
    def num_rrh(self) -> int:
        return self.gains.shape[1]


def path_loss_db(distance_km) -> float | np.ndarray:
    """Path plus penetration loss in dB for a distance in km: 127 + 25*log10(d)."""
    d = np.asarray(distance_km, dtype=float)
    if np.any(d <= 0):
        raise ValueError("path_loss_db: distance must be > 0 km")
    out = 127.0 + 25.0 * np.log10(d)
    return float(out) if out.ndim == 0 else out


def linear_gain(loss_db) -> float | np.ndarray:
    """dB loss to linear power gain, 10^(-dB/10)."""
    return 10.0 ** (-np.asarray(loss_db, dtype=float) / 10.0)


def generate_channels(config: SystemConfig, seed: int) -> ChannelState:
    """Draw one i.i.d. Rayleigh-faded channel realization.

    h[i, j] = sqrt(g_ij) * w with w ~ CN(0, I_K), g_ij the linear path gain
    at the UE i / RRH j distance.  A fixed (config, seed) pair is bit
    reproducible.
    """
    d = config.distances_km()
    if np.any(d <= 0):
        raise ValueError("generate_channels: coincident UE and RRH positions")
    g = linear_gain(path_loss_db(d))  # (N, L)
    n, l, k = config.num_ue, config.num_rrh, config.antennas_per_rrh
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, l, k)) + 1j * rng.standard_normal((n, l, k))
    h = np.sqrt(g)[:, :, None] * w / math.sqrt(2.0)
    return ChannelState(gains=h, noise_power=config.noise_power)


def default_layout(num_rrh: int, num_ue: int, side_km: float, seed: int):
    """RRHs on corners of a square (extra RRHs on edge midpoints), UEs uniform inside."""
    corners = [(0.0, 0.0), (side_km, 0.0), (side_km, side_km), (0.0, side_km)]
    mids = [(side_km / 2, 0.0), (side_km, side_km / 2),
            (side_km / 2, side_km), (0.0, side_km / 2)]
    ring = corners + mids
    if num_rrh > len(ring):
        raise ValidationError("num_rrh", f"default layout supports at most {len(ring)} RRHs")
    rng = np.random.default_rng(seed)
    # Keep UEs off the exact boundary so UE/RRH distances stay positive.
    ue = rng.uniform(0.05 * side_km, 0.95 * side_km, size=(num_ue, 2))
    return tuple(ring[:num_rrh]), tuple(map(tuple, ue.tolist()))


def _integer(name, v, least):
    if isinstance(v, bool) or not isinstance(v, int) or v < least:
        raise ValidationError(name, f"must be an integer >= {least}")
    return v


def _number(name, v):
    """`v` as a float; it must be a finite real number, and not a bool."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
        raise ValidationError(name, f"must be a finite number, got {v!r}")
    return float(v)


def _as_tuple(name, value, count):
    if not isinstance(value, (list, tuple, np.ndarray)):
        return (_number(name, value),) * count
    vals = tuple(_number(name, v) for v in value)
    if len(vals) != count:
        raise ValidationError(name, f"expected {count} entries, got {len(vals)}")
    return vals


def _positions(name, pairs):
    if not isinstance(pairs, (list, tuple)) or not all(
            isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs):
        raise ValidationError(name, "must be a list of (x, y) pairs")
    return tuple((_number(name, x), _number(name, y)) for x, y in pairs)


def _all_positive(name, vals, count):
    if len(vals) != count or any(not v > 0 for v in vals):
        raise ValidationError(name, f"needs {count} entries, all > 0")


def _all_nonnegative(name, vals, count):
    if len(vals) != count or any(not v >= 0 for v in vals):
        raise ValidationError(name, f"needs {count} entries, all >= 0")


def _build_config(system: dict, geometry: dict, seed: int) -> SystemConfig:
    unknown = set(system) - set(DEFAULTS)
    if unknown:
        raise ValidationError(sorted(unknown)[0], "unknown field")
    merged = {**DEFAULTS, **system}

    l = _integer("num_rrh", merged["num_rrh"], 1)
    n = _integer("num_ue", merged["num_ue"], 1)

    side = _number("square_side_km", geometry.get("square_side_km", DEFAULT_SQUARE_SIDE_KM))
    if not side > 0:
        raise ValidationError("square_side_km", "must be > 0")
    rrh_pos = geometry.get("rrh_positions")
    ue_pos = geometry.get("ue_positions")
    if rrh_pos is None or ue_pos is None:
        auto_rrh, auto_ue = default_layout(l, n, side, seed)
        rrh_pos = rrh_pos if rrh_pos is not None else auto_rrh
        ue_pos = ue_pos if ue_pos is not None else auto_ue

    return SystemConfig(
        num_rrh=l,
        antennas_per_rrh=merged["antennas_per_rrh"],
        num_ue=n,
        rrh_power_limit=_as_tuple("rrh_power_limit", merged["rrh_power_limit"], l),
        clone_capacity_limit=_as_tuple("clone_capacity_limit", merged["clone_capacity_limit"], n),
        tradeoff=_as_tuple("tradeoff", merged["tradeoff"], n),
        bandwidth=_as_tuple("bandwidth", merged["bandwidth"], n),
        fronthaul_limit=_as_tuple("fronthaul_limit", merged["fronthaul_limit"], l),
        cloud_exponent=_as_tuple("cloud_exponent", merged["cloud_exponent"], n),
        switched_capacitance=_as_tuple("switched_capacitance", merged["switched_capacitance"], n),
        stability_epsilon=_number("stability_epsilon", merged["stability_epsilon"]),
        noise_psd_dbm_hz=_number("noise_psd_dbm_hz", merged["noise_psd_dbm_hz"]),
        rrh_positions=_positions("rrh_positions", rrh_pos),
        ue_positions=_positions("ue_positions", ue_pos),
    )


def _section(doc: dict, key: str, default):
    """The `key` section of a scenario document, which must be a JSON object."""
    value = doc.get(key, default)
    if not isinstance(value, dict):
        raise ValidationError(key, "must be a JSON object")
    return value


def _build_tasks(spec, num_ue: int) -> list[Task]:
    if isinstance(spec, dict):
        spec = [spec] * num_ue
    if not (isinstance(spec, list) and all(isinstance(entry, dict) for entry in spec)):
        raise ValidationError("tasks", "must be a JSON object or a list of them")
    if len(spec) != num_ue:
        raise ValidationError("tasks", f"expected {num_ue} tasks, got {len(spec)}")
    tasks = []
    for entry in spec:
        unknown = set(entry) - set(DEFAULT_TASK)
        if unknown:
            raise ValidationError(sorted(unknown)[0], "unknown task field")
        merged = {**DEFAULT_TASK, **entry}
        tasks.append(Task(**{key: _number(key, v) for key, v in merged.items()}))
    return tasks


def load_config(source) -> tuple[SystemConfig, list[Task]]:
    """Parse a scenario from a dict or a JSON file path (`str` or `os.PathLike`).

    Top-level keys: ``system``, ``tasks``, ``geometry``, ``seed``; every
    absent field falls back to the stock defaults above.
    """
    doc = source
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValidationError("document", "scenario must be a JSON object")

    seed = _integer("seed", doc.get("seed", DEFAULT_LAYOUT_SEED), 0)
    config = _build_config(_section(doc, "system", {}), _section(doc, "geometry", {}), seed)
    tasks = _build_tasks(doc.get("tasks", dict(DEFAULT_TASK)), config.num_ue)
    return config, tasks


def default_config(**system_overrides) -> tuple[SystemConfig, list[Task]]:
    """Stock defaults with optional system-field overrides (test convenience)."""
    return load_config({"system": system_overrides})
