"""Builders that write beamforming subproblems straight into conic form.

Each builder fills ``c, P, G, h, A, b`` and the cone list of a
`ConicProblem` from the channel arrays.  x is the beamformer block and
nothing else: one complex K-vector v[i, j] per supported (UE i, RRH j) pair,
in row-major order of the (N, L) `support` mask, each stored as its K real
parts followed by its K imaginary parts, so ``x.size == 2 * K *
support.sum()`` (`extract_beamformers` scatters x back).

Under this embedding squared norms are quadratic forms in x and
``Re(h^H v)``, ``Im(h^H v)`` are linear ones, so transmit power and receive
MSE go straight into the objective (1/2) x'P x + c'x.  All channel rows are
normalized by the per-UE noise standard deviation before entering the
matrices, which keeps coefficient magnitudes near unity.  Every cone block
is a second-order cone written first as its slack s = E x + f, then stored
as G = -E, h = f.
"""

from __future__ import annotations

import numpy as np

from .solver import ConicProblem

__all__ = [
    "build_power_min_socp",
    "build_wmmse_step_socp",
    "extract_beamformers",
]


def _active_pairs(num_ue, num_rrh, support):
    if support is None:
        support = np.ones((num_ue, num_rrh), dtype=bool)
    return np.asarray(support, dtype=bool)


def _pair_columns(support, k):
    """First column of each supported pair's 2K reals; -1 off the support."""
    cols = np.full(support.shape, -1)
    cols[support] = 2 * k * np.arange(int(support.sum()))
    return cols


def _block_columns(starts, k):
    """Every column of the pairs whose blocks start at `starts`, in order."""
    return (np.asarray(starts, dtype=int)[:, None] + np.arange(2 * k)).ravel()


def _selector(nv, columns, values=1.0):
    """One row per listed column, holding `values` in that column."""
    rows = np.zeros((len(columns), nv))
    rows[np.arange(len(columns)), columns] += values
    return rows


def _norm_le(entries, bound):
    """||entries x|| <= bound as one SOC block; returns its slack (E, f)."""
    consts = np.zeros(1 + entries.shape[0])
    consts[0] = bound
    return np.vstack([np.zeros(entries.shape[1]), entries]), consts


def _combined_rows(channels, ue, cols, nv):
    """(N, 2, nv) Re and Im rows of sum_j h~[ue,j]^H v[stream,j], noise-normalized."""
    n, _, k = channels.gains.shape
    ht = channels.gains[ue] / np.sqrt(channels.noise_power[ue])
    streams, rrhs = np.nonzero(cols >= 0)
    re_cols = cols[streams, rrhs][:, None] + np.arange(k)
    at, h = streams[:, None], ht[rrhs]
    rows = np.zeros((n, 2, nv))
    rows[at, 0, re_cols] += h.real
    rows[at, 0, re_cols + k] += h.imag
    rows[at, 1, re_cols] -= h.imag
    rows[at, 1, re_cols + k] += h.real
    return rows


def _power_quadratic(weights, support, k):
    """P of sum_i w_i ||v_i||^2 = (1/2) x'P x: 2 w_i on each of UE i's reals."""
    return np.diag(2.0 * np.repeat(weights[np.nonzero(support)[0]], 2 * k))


def _rrh_power(nv, cols, support, k, power_limits):
    """||(v_1j, ..., v_Nj)|| <= sqrt(P_j) per RRH with a supported pair."""
    blocks = []
    for j in range(support.shape[1]):
        if support[:, j].any():
            entries = _selector(nv, _block_columns(cols[support[:, j], j], k))
            blocks.append(_norm_le(entries, float(np.sqrt(power_limits[j]))))
    return blocks


def _stream_rows(channels, needed, cols, nv):
    """`_combined_rows` of every stream at each needed UE, None elsewhere."""
    return [_combined_rows(channels, i, cols, nv) if needed[i] else None
            for i in range(channels.num_ue)]


def _rate_socs(rate_floors, bandwidths, ue_rows, nv):
    """Per-UE QoS floor as sqrt(1 - 2^(-R/B)) ||(m_1..m_N, sigma)|| <= Re(m_ii).

    Each floor also pins the phase with the equality row Im(m_ii) = 0.  Only
    UEs with `_stream_rows` get one.  Returns the blocks and the equality rows.
    """
    n = len(ue_rows)
    blocks, eq_rows = [], []
    for i, rows in enumerate(ue_rows):
        if rows is None or not rate_floors[i] > 0:
            continue
        gamma = 2.0 ** (rate_floors[i] / bandwidths[i]) - 1.0
        coef = float(np.sqrt(gamma / (1.0 + gamma)))
        # The last entry is the normalized noise term.
        consts = np.zeros(2 * n + 2)
        consts[-1] = coef
        blocks.append((np.vstack([rows[i, 0], coef * rows.reshape(2 * n, nv),
                                  np.zeros(nv)]), consts))
        eq_rows.append(rows[i, 1])
    return blocks, eq_rows


def _fronthaul(nv, cols, support, k, rho, frozen_rates, fronthaul_limits):
    """sum_i rho_ij * r_i * ||v_ij||^2 <= C_j, one SOC per RRH with active rows.

    Each is ||E x|| <= 1 with E holding sqrt(rho_ij r_i / C_j): the division
    by C_j keeps coefficients near unity regardless of the rate scale.
    """
    if rho is None:
        return []
    blocks = []
    for j in range(support.shape[1]):
        scale = rho[:, j] * np.asarray(frozen_rates) / fronthaul_limits[j]
        rows = support[:, j] & (scale > 0)
        if rows.any():
            entries = _selector(nv, _block_columns(cols[rows, j], k),
                                np.repeat(np.sqrt(scale[rows]), 2 * k))
            blocks.append(_norm_le(entries, 1.0))
    return blocks


def _problem(c, quad, blocks, eq_rows, obj_const) -> ConicProblem:
    """Stack SOC blocks (E, f), slack s = E x + f, into a ConicProblem."""
    empty = np.zeros((0, c.shape[0]))
    return ConicProblem(
        c=c,
        P=quad,
        cone_lhs=-np.vstack([empty, *(rows for rows, _ in blocks)]),
        cone_rhs=np.concatenate([np.zeros(0), *(consts for _, consts in blocks)]),
        eq_lhs=np.vstack([empty, *eq_rows]),
        eq_rhs=np.zeros(len(eq_rows)),
        cones=tuple(("soc", rows.shape[0]) for rows, _ in blocks),
        obj_const=obj_const,
    )


def build_power_min_socp(channels, rate_floors, bandwidths, power_limits,
                         objective_weights=None, rho=None, frozen_rates=None,
                         fronthaul_limits=None, support=None) -> ConicProblem:
    """Weighted power minimization under QoS rate floors.

    minimize sum_i w_i ||v_i||^2 subject to per-RRH power, per-UE rate SOCs
    and (when `rho` is given) the reweighted fronthaul surrogate at frozen
    rates.  `objective_weights` defaults to 1 (pure transmit power).
    """
    n, l, k = channels.gains.shape
    support = _active_pairs(n, l, support)
    bandwidths = np.asarray(bandwidths, dtype=float)
    w = np.ones(n) if objective_weights is None else np.asarray(objective_weights, float)
    nv = 2 * k * int(support.sum())
    cols = _pair_columns(support, k)

    blocks = _rrh_power(nv, cols, support, k, power_limits)
    floored = support.any(axis=1) & (np.asarray(rate_floors, dtype=float) > 0)
    rate_blocks, eq_rows = _rate_socs(rate_floors, bandwidths,
                                      _stream_rows(channels, floored, cols, nv), nv)
    blocks += rate_blocks
    blocks += _fronthaul(nv, cols, support, k, rho, frozen_rates, fronthaul_limits)
    return _problem(np.zeros(nv), _power_quadratic(w, support, k), blocks, eq_rows, 0.0)


def build_wmmse_step_socp(channels, mse_weights, receivers, objective_weights,
                          power_limits, rate_floors=None, bandwidths=None,
                          rho=None, frozen_rates=None, fronthaul_limits=None,
                          support=None) -> ConicProblem:
    """One transmit-beamformer block update of the MSE-weighted descent.

    minimize sum_i phi_i e_i(v) + w_i ||v_i||^2 for fixed receivers u and
    MSE weights phi, where e_i is the receive MSE expanded as a convex
    quadratic in v (its quadratic part in P, linear part in c, constant in
    obj_const); constraints are the same power/fronthaul set plus the
    deadline-derived rate floors.
    """
    n, l, k = channels.gains.shape
    support = _active_pairs(n, l, support)
    phi = np.asarray(mse_weights, dtype=float)
    u = np.asarray(receivers, dtype=complex)
    w = np.asarray(objective_weights, dtype=float)
    served = support.any(axis=1)
    active = served & (phi != 0.0)
    nv = 2 * k * int(support.sum())
    cols = _pair_columns(support, k)
    if rate_floors is None:
        rate_floors = np.zeros(n)
    elif bandwidths is None:
        raise ValueError("rate floors require per-UE bandwidths")
    floored = served & (np.asarray(rate_floors, dtype=float) > 0)
    ue_rows = _stream_rows(channels, active | floored, cols, nv)

    c = np.zeros(nv)
    quad = _power_quadratic(w, support, k)
    const = 0.0
    sigma = np.sqrt(np.asarray(channels.noise_power, dtype=float))
    for i in range(n):
        if not active[i]:
            if phi[i] > 0.0:
                const += phi[i]  # e_i = 1 with no transmission
            continue
        # e_i = |u~|^2 (sum_k |m~_ik|^2 + 1) - 2 Re(u~* m~_ii) + 1, u~ = sigma u.
        ut = sigma[i] * u[i]
        entries = ue_rows[i].reshape(2 * n, nv)
        quad += (2.0 * phi[i] * abs(ut) ** 2) * (entries.T @ entries)
        re_own, im_own = ue_rows[i][i]
        c -= (2.0 * phi[i]) * (ut.real * re_own + ut.imag * im_own)
        const += phi[i] * (abs(ut) ** 2 + 1.0)

    blocks = _rrh_power(nv, cols, support, k, power_limits)
    rate_blocks, eq_rows = _rate_socs(rate_floors, bandwidths, ue_rows, nv)
    blocks += rate_blocks
    blocks += _fronthaul(nv, cols, support, k, rho, frozen_rates, fronthaul_limits)
    return _problem(c, quad, blocks, eq_rows, float(const))


def extract_beamformers(x, support, antennas) -> np.ndarray:
    """Scatter a solution x into an (N, L, K) beamformer array.

    `support` is the (N, L) mask the problem was built with; pairs off it
    come back as exact zeros.
    """
    support = np.asarray(support, dtype=bool)
    block = x.reshape(-1, 2, antennas)
    v = np.zeros(support.shape + (antennas,), dtype=complex)
    v[support] = block[:, 0] + 1j * block[:, 1]
    return v
