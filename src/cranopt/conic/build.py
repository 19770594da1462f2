"""Builders that write beamforming subproblems straight into conic form.

Each builder fills ``c, P, G, h`` and the cone list of a `ConicProblem`
from the channel arrays.  x is the beamformer block and nothing else: one
complex K-vector v[i, j] per supported (UE i, RRH j) pair, in row-major
order of the (N, L) `support` mask, each stored as its K real parts
followed by its K imaginary parts, so ``x.size == 2 * K * support.sum()``
(`extract_beamformers` scatters x back).

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


def _pair_columns(support, k):
    """First column of each supported pair's 2K reals; -1 off the support."""
    cols = np.full(support.shape, -1)
    cols[support] = 2 * k * np.arange(int(support.sum()))
    return cols


def _pairs_norm_le(nv, starts, k, bound, values=1.0):
    """||(values * x over the pairs whose blocks start at `starts`)|| <= bound.

    Returns the slack (E, f) of that one SOC block: a zero head row, then
    one row per column of those pairs, in order.
    """
    columns = (np.asarray(starts, dtype=int)[:, None] + np.arange(2 * k)).ravel()
    entries = np.zeros((1 + columns.size, nv))
    entries[1 + np.arange(columns.size), columns] += values
    consts = np.zeros(1 + columns.size)
    consts[0] = bound
    return entries, consts


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


def build_power_min_socp(channels, rate_floors, bandwidths, power_limits,
                         objective_weights, rho, frozen_rates, fronthaul_limits,
                         support) -> ConicProblem:
    """Weighted power minimization under QoS rate floors.

    minimize sum_i w_i ||v_i||^2 subject to per-RRH power, per-UE rate SOCs
    and (when `rho` is not None) the reweighted fronthaul surrogate at frozen
    rates: the WMMSE step with every MSE weight 0.  Every input is
    required; `rho=None` means no fronthaul rows.
    """
    n = channels.num_ue
    return build_wmmse_step_socp(channels, np.zeros(n), np.zeros(n), objective_weights,
                                 power_limits, rate_floors, bandwidths, rho, frozen_rates,
                                 fronthaul_limits, support)


def build_wmmse_step_socp(channels, mse_weights, receivers, objective_weights,
                          power_limits, rate_floors, bandwidths, rho, frozen_rates,
                          fronthaul_limits, support) -> ConicProblem:
    """One transmit-beamformer block update of the MSE-weighted descent.

    minimize sum_i phi_i e_i(v) + w_i ||v_i||^2 for fixed receivers u and
    MSE weights phi, where e_i is the receive MSE expanded as a convex
    quadratic in v (its quadratic part in P, linear part in c, constant in
    obj_const), subject to, in this block order (every input is required):

    * ||(v_1j, ..., v_Nj)|| <= sqrt(P_j) per RRH j with a supported pair;
    * sqrt(1 - 2^(-R_i/B_i)) ||(m_1..m_N, sigma)|| <= Re(m_ii) per served
      UE with a rate floor R_i > 0: as |m_ii| >= Re(m_ii) it implies the
      SINR floor with no row pinning m_ii's phase, which a power objective
      leaves free (rotating stream i changes no power and no constraint);
    * when `rho` is not None, the reweighted fronthaul surrogate
      sum_i rho_ij r_i ||v_ij||^2 <= C_j at the frozen rates r, one SOC per
      RRH with active rows, as ||E x|| <= 1 with E holding
      sqrt(rho_ij r_i / C_j): the division by C_j keeps coefficients near
      unity regardless of the rate scale.  `rho=None` means no fronthaul
      rows, and then `frozen_rates` and `fronthaul_limits` are not read.
    """
    n, l, k = channels.gains.shape
    support = np.asarray(support, dtype=bool)
    phi = np.asarray(mse_weights, dtype=float)
    u = np.asarray(receivers, dtype=complex)
    w = np.asarray(objective_weights, dtype=float)
    served = support.any(axis=1)
    active = served & (phi != 0.0)
    nv = 2 * k * int(support.sum())
    cols = _pair_columns(support, k)
    floored = served & (np.asarray(rate_floors, dtype=float) > 0)
    # An MSE term couples only the columns of one stream, so P is
    # block-diagonal by stream, and a stream's columns are consecutive.
    width = 2 * k * support.sum(axis=1)
    streams = [(s, slice(end - w, end)) for s, (w, end) in enumerate(zip(width, np.cumsum(width)))
               if w]

    blocks = [_pairs_norm_le(nv, cols[support[:, j], j], k, float(np.sqrt(power_limits[j])))
              for j in range(l) if support[:, j].any()]
    c = np.zeros(nv)
    # Transmit power: 2 w_i on each of UE i's reals.
    quad = np.diag(2.0 * np.repeat(w[np.nonzero(support)[0]], 2 * k))
    const = 0.0
    sigma = np.sqrt(np.asarray(channels.noise_power, dtype=float))
    for i in range(n):
        if active[i] or floored[i]:
            rows = _combined_rows(channels, i, cols, nv)
            entries = rows.reshape(2 * n, nv)
        if active[i]:
            # e_i = |u~|^2 (sum_k |m~_ik|^2 + 1) - 2 Re(u~* m~_ii) + 1, u~ = sigma u.
            ut = sigma[i] * u[i]
            weight = 2.0 * phi[i] * abs(ut) ** 2
            for s, cs in streams:
                quad[cs, cs] += weight * (rows[s, :, cs].T @ rows[s, :, cs])
            c -= (2.0 * phi[i]) * (ut.real * rows[i, 0] + ut.imag * rows[i, 1])
            const += phi[i] * (abs(ut) ** 2 + 1.0)
        elif phi[i] > 0.0:
            const += phi[i]  # e_i = 1 with no transmission
        if floored[i]:
            gamma = 2.0 ** (rate_floors[i] / bandwidths[i]) - 1.0
            coef = float(np.sqrt(gamma / (1.0 + gamma)))
            consts = np.zeros(2 * n + 2)
            consts[-1] = coef   # the normalized noise term
            blocks.append((np.vstack([rows[i, 0], coef * entries, np.zeros(nv)]), consts))

    for j in range(l if rho is not None else 0):
        scale = rho[:, j] * np.asarray(frozen_rates) / fronthaul_limits[j]
        on = support[:, j] & (scale > 0)
        if on.any():
            blocks.append(_pairs_norm_le(nv, cols[on, j], k, 1.0,
                                         np.repeat(np.sqrt(scale[on]), 2 * k)))
    return ConicProblem(
        c=c,
        P=quad,
        cone_lhs=-np.vstack([np.zeros((0, nv)), *(rows for rows, _ in blocks)]),
        cone_rhs=np.concatenate([np.zeros(0), *(consts for _, consts in blocks)]),
        cones=tuple(("soc", rows.shape[0]) for rows, _ in blocks),
        obj_const=float(const),
    )


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
