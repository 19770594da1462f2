"""Iterative energy-minimization procedures and the MSE-descent kernels.

Two entry points:

* ``ran_power_minimization`` - transmit-side minimization under fixed rate
  floors, alternating an SOCP step with reweighting of the fronthaul
  surrogate (clusters sparsify as weights grow on weak beamformer blocks).
* ``joint_energy_minimization`` - block coordinate descent on the
  MSE-reformulated joint cloud+radio energy objective: closed-form receiver
  update, closed-form MSE weight from the cloud-energy utility gradient,
  then a conic transmit-beamformer step; the fronthaul reweighting and its
  frozen rates are refreshed only when a round settles.

Both return solutions with serving clusters extracted and a final refit on
the reduced support, and replay an "optimal" answer against the model
constraints (`constraint_violations`) before returning it.  Every per-UE
quantity (rate floors, clone speeds, cloud energies, MSE weights) is
computed on whole per-UE arrays: each entry point turns its task list into
(F, D, T) arrays once, and the kernels broadcast scalars against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ran
from .cloud import CloudInfeasibleError, clone_energy, solve_cloud_allocation
from .conic import build_power_min_socp, build_wmmse_step_socp, extract_beamformers, solve
from .ran import BeamformerSet, EnergyBreakdown, RateInfeasibleError
from .scenario import ChannelState, SystemConfig, Task

__all__ = [
    "MseState",
    "RanSolution",
    "JointSolution",
    "BaselineInfeasibleError",
    "mmse_receiver",
    "mse",
    "mse_weight",
    "cloud_energy_of_rate",
    "ran_power_minimization",
    "joint_energy_minimization",
    "split_deadline_baseline",
    "extract_rrh_clusters",
    "constraint_violations",
]

MAX_ITERATIONS = 30
CONV_REL_TOL = 1e-4
CLUSTER_THRESHOLD = 1e-6   # of P_j, on ||v_ij||^2
CULL_THRESHOLD = 1e-8      # of P_j: blocks this weak leave the working support
FRONTHAUL_MARGIN = 0.9     # keep surrogate rows only where the l0 load could bind
REFIT_FLOOR_SLACK = 1e-4   # relative rate slack allowed when refitting on a support
REPLAY_TOL = 1e-6          # relative constraint miss an "optimal" answer may replay with
SOLVE_KW = dict(gap_tol=1e-8, feas_tol=1e-7, max_iter=200)


class BaselineInfeasibleError(ValueError):
    """One side of a fixed deadline split cannot meet its share."""

    def __init__(self, side: str, detail: str):
        self.side = side
        super().__init__(f"{side} side infeasible: {detail}")


@dataclass
class MseState:
    receivers: np.ndarray   # complex scalar per UE
    mse: np.ndarray         # in (0, 1] with MMSE receivers
    weights: np.ndarray     # >= 0


@dataclass
class RanSolution:
    beamformers: BeamformerSet
    rates: np.ndarray
    clusters: tuple
    powers: np.ndarray          # per-UE transmit power over the serving set
    floors: np.ndarray
    objective_trace: list = field(default_factory=list)
    status: str = "optimal"
    iterations: int = 0
    converged: bool = True
    message: str = ""


@dataclass
class JointSolution:
    ran: RanSolution
    clone_capacity: np.ndarray
    energy: EnergyBreakdown | None
    energy_trace: list = field(default_factory=list)
    surrogate_trace: list = field(default_factory=list)  # (S0, S1, S2, S3) rows
    status: str = "optimal"
    iterations: int = 0
    converged: bool = True
    mse_state: MseState | None = None


# ---------------------------------------------------------------------------
# MSE kernels.


def mmse_receiver(channels: ChannelState, beamformers: BeamformerSet) -> np.ndarray:
    """Scalar receivers u_i = m_ii / (sum_k |m_ik|^2 + sigma_i^2)."""
    amps = ran.amplitudes(channels, beamformers.vectors)
    denom = np.sum(np.abs(amps) ** 2, axis=1) + channels.noise_power
    return np.diag(amps) / denom


def mse(channels: ChannelState, vectors: np.ndarray, receivers) -> np.ndarray:
    """Receive MSE per UE at (N, L, K) beamformers and one receiver per UE."""
    return _mse_of_amplitudes(channels, ran.amplitudes(channels, vectors), receivers)


def _mse_of_amplitudes(channels, amps, receivers) -> np.ndarray:
    """e_i = |u_i|^2 (sum_k |m_ik|^2 + sigma_i^2) - 2 Re(u_i* m_ii) + 1."""
    # add.reduce and .diagonal() skip np.sum's and np.diag's call overhead:
    # every trial step of the line search runs this.
    total = np.add.reduce(np.abs(amps) ** 2, axis=1) + channels.noise_power
    return (np.abs(receivers) ** 2 * total
            - 2.0 * (np.conj(receivers) * amps.diagonal()).real + 1.0)


def _task_arrays(tasks: list[Task]):
    """Per-UE arrays (F, D, T): CPU cycles, result bits and deadlines."""
    return np.array([(t.cpu_cycles, t.result_bits, t.deadline) for t in tasks],
                    dtype=float).reshape(-1, 3).T


def _rate_floor(cycles, bits, deadlines, capacity_limit):
    """D / (T - F / f_max): the slowest radio leg the deadline allows, 0 when D = 0."""
    room = deadlines - cycles / capacity_limit
    return np.where(bits > 0, bits / np.where(room > 0, room, np.inf), 0.0)


def _clone_speed(r, cycles, bits, deadlines, capacity_limit):
    """Deadline-tight clone speed F / (T - D/r), capped at the clone capacity.

    A task without result bits runs at F / T; a radio leg that leaves no
    time (including r = 0) puts the clone at the cap.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        slack = deadlines - np.where(bits > 0, bits / np.asarray(r, dtype=float), 0.0)
        speed = np.where(slack > 0, cycles / slack, capacity_limit)
    return np.minimum(speed, capacity_limit)


def cloud_energy_of_rate(r, cycles, bits, deadlines, kappa, exponent,
                         capacity_limit):
    """Clone energy when the radio leg runs at rate r and the deadline is tight.

    The clone must cover F cycles in T - D/r seconds; speeds are capped at
    the clone capacity (rates below the implied floor evaluate at the cap).
    """
    speed = _clone_speed(r, cycles, bits, deadlines, capacity_limit)
    return clone_energy(cycles, speed, kappa, exponent)


def mse_weight(e, cycles, bits, deadlines, bandwidth, kappa, exponent,
               capacity_limit):
    """Gradient of the cloud-energy utility through the MSE map, per UE.

    With tau(e) = gamma(B log2(1/e)) and gamma the deadline-tight clone
    energy as a function of the radio rate, the chain rule gives

        d tau / d e = kappa (nu - 1) D f^nu / r^2 * B / (e ln 2),

    where f = F / (T - D/r) is the implied clone speed.  The rate is
    clamped at the deadline floor, which puts the speed at the clone
    capacity and bounds the weight at infeasible iterates.  The weight is 0
    without result bits, at nu = 1 or at kappa = 0; otherwise a UE whose
    cloud execution alone exhausts its deadline raises RateInfeasibleError.
    """
    e = np.asarray(e, dtype=float)
    if not np.all((e > 0.0) & (e < 1.0)):
        raise ValueError("mse weight needs e in (0, 1)")
    live = (bits > 0) & (exponent != 1.0) & (kappa != 0.0)
    late = live & (deadlines <= cycles / capacity_limit)
    if np.any(late):
        raise RateInfeasibleError(int(np.argmax(late)),
                                  "cloud execution alone exhausts the deadline")
    r = np.maximum(bandwidth * np.log2(1.0 / e),
                   _rate_floor(cycles, bits, deadlines, capacity_limit))
    speed = _clone_speed(r, cycles, bits, deadlines, capacity_limit)
    grad_gamma = kappa * (exponent - 1.0) * bits * speed ** exponent / r ** 2
    return np.where(live, grad_gamma * bandwidth / (e * math.log(2.0)), 0.0)


# ---------------------------------------------------------------------------
# Shared pieces of the iterative loops.


def _initial_beamformers(config: SystemConfig, channels: ChannelState,
                         support: np.ndarray) -> np.ndarray:
    """Matched-filter directions at half the per-RRH power budget."""
    h = channels.gains
    active = max(1, int(support.any(axis=1).sum()))
    share = np.asarray(config.rrh_power_limit, dtype=float) / (2.0 * active)
    # ||h_ij|| from the dot products Re'Re + Im'Im that np.linalg.norm takes
    # per vector (its axis form sums in another order).
    norm = np.sqrt(sum((a[..., None, :] @ a[..., :, None])[..., 0, 0]
                       for a in (h.real, h.imag)))
    on = support & (norm > 0)
    v = np.sqrt(share)[None, :, None] * h / np.where(on, norm, 1.0)[..., None]
    return np.where(on[..., None], v, 0.0)


def _cs_rate_bound(config, channels, ue_powers, support) -> np.ndarray:
    """Per-UE interference-free rate bound at the previous power level.

    B log2(1 + sum_j ||h_ij||^2 p_i / sigma_i^2), the concave envelope used
    as the frozen denominator of the transmit-energy surrogate.
    """
    gain = np.where(support, ran.block_power(channels.gains), 0.0).sum(axis=1)
    b = np.asarray(config.bandwidth)
    return b * np.log2(1.0 + gain * ue_powers / channels.noise_power)


def _clustered(beamformers: BeamformerSet, power_limits):
    """Mask of the blocks ||v_ij||^2 > CLUSTER_THRESHOLD * P_j, and v zeroed off it."""
    v = beamformers.vectors
    keep = ran.block_power(v) > CLUSTER_THRESHOLD * np.asarray(power_limits, dtype=float)[None]
    return keep, BeamformerSet(np.where(keep[:, :, None], v, 0.0))


def extract_rrh_clusters(beamformers: BeamformerSet, power_limits):
    """Serving sets C_i = {j : ||v_ij||^2 > CLUSTER_THRESHOLD * P_j}; small blocks zeroed."""
    keep, zeroed = _clustered(beamformers, power_limits)
    return tuple(frozenset(np.flatnonzero(row).tolist()) for row in keep), zeroed


def _iterate_feasible(config, bf, rates, floors, slack=1e-9):
    """Quick replay of the hard constraint set at an in-loop iterate."""
    limits = np.asarray(config.rrh_power_limit)
    loads = ran.fronthaul_load(bf, rates, zero_threshold=CLUSTER_THRESHOLD * limits)
    return not (np.any(rates < floors * (1.0 - 1e-6))
                or np.any(ran.rrh_power(bf) > limits * (1.0 + slack))
                or np.any(loads > np.asarray(config.fronthaul_limit) * (1.0 + slack)))


def _fronthaul_rows(config, bf, frozen_rates, support):
    """Reweighting factors with rows zeroed where the load cannot bind.

    If serving every supported UE at the frozen rates already fits under
    FRONTHAUL_MARGIN * C_j, the surrogate row for RRH j is pure numerical
    load (enormous weights on dying blocks) with no effect, so it is
    dropped for this round; the exit replay checks the hard form.
    """
    rho = ran.fronthaul_weights(bf, config.stability_epsilon)
    caps = np.asarray(config.fronthaul_limit)
    ceiling = (np.where(support, frozen_rates[:, None], 0.0)).sum(axis=0)
    inactive = ceiling <= FRONTHAUL_MARGIN * caps
    rho[:, inactive] = 0.0
    return rho


def _cull_support(vectors, support, power_limits):
    """Drop blocks far below the extraction threshold (keeping one per UE)."""
    sq = ran.block_power(vectors)
    keep = support & (sq > CULL_THRESHOLD * np.asarray(power_limits)[None, :])
    lost = support.any(axis=1) & ~keep.any(axis=1)
    keep[lost, np.argmax(sq[lost], axis=1)] = True
    return keep


def constraint_violations(config, tasks, channels, solution,
                          deadline_total=None) -> dict:
    """Worst-case constraint slacks of a returned solution (positive = violated).

    Rates/loads are recomputed from the stored beamformers, so this is an
    independent replay rather than trust in solver bookkeeping.
    """
    bf = solution.beamformers
    rates = ran.rate(channels, bf, config.bandwidth)
    floors = np.asarray(solution.floors)
    served = floors > 0
    out = {
        "power": float(np.max(ran.rrh_power(bf) - np.asarray(config.rrh_power_limit))),
        "rate_rel": float(np.max((floors - rates)[served] / floors[served], initial=0.0)),
        "fronthaul": float(np.max(ran.fronthaul_load(bf, rates)
                                  - np.asarray(config.fronthaul_limit))),
    }
    if deadline_total is not None:
        _, bits, deadlines = _task_arrays(tasks)
        late = np.asarray(deadline_total) - deadlines
        out["deadline"] = float(np.max(late[bits > 0], initial=0.0))
    return out


def _replay_checked(config, tasks, channels, solution, deadline_total=None):
    """Restamp an "optimal" `solution` "replay_failed" if it misses a constraint.

    Each violation is taken relative as the benchmark gate takes it: power
    to the largest P_j, fronthaul to the largest C_j and lateness to the
    shortest deadline; more than REPLAY_TOL on any of them fails.
    """
    if solution.status != "optimal":
        return solution
    viol = constraint_violations(config, tasks, channels, solution, deadline_total)
    scale = {"power": max(config.rrh_power_limit), "rate_rel": 1.0,
             "fronthaul": max(config.fronthaul_limit),
             "deadline": min(t.deadline for t in tasks)}
    missed = [f"{k} {v / scale[k]:+.2e}" for k, v in viol.items()
              if not v / scale[k] <= REPLAY_TOL]
    if missed:
        solution.status, solution.converged = "replay_failed", False
        solution.message = "returned solution violates " + ", ".join(missed)
    return solution


def _cap_message(trace, cap):
    """Why a loop ran out of rounds: the cap and the last round's relative change."""
    change = abs(trace[-1] - trace[-2]) / max(abs(trace[-2]), 1e-30) if trace[1:] else math.nan
    return f"no settled round within the {cap}-round cap; last relative change {change:.2e}"


# ---------------------------------------------------------------------------
# Transmit-side minimization under fixed rate floors.


def ran_power_minimization(config: SystemConfig, tasks: list[Task],
                           channels: ChannelState, transmit_budgets,
                           max_iterations: int = MAX_ITERATIONS) -> RanSolution:
    """Iterative reweighted power minimization meeting per-UE rate floors.

    Per round: conic solve at the current fronthaul weights -> refresh rates
    -> refresh weights -> refresh the surrogate power metric, until the
    metric settles.  The first round runs with the fronthaul surrogate
    inactive so the reweighting has a point to start from.
    """
    n = config.num_ue
    _, bits, _ = _task_arrays(tasks)
    floors = bits / np.asarray(transmit_budgets, dtype=float)
    support = np.repeat((floors > 0)[:, None], config.num_rrh, axis=1)
    if not support.any():
        zero = BeamformerSet(np.zeros_like(channels.gains))
        return RanSolution(zero, np.zeros(n), (frozenset(),) * n,
                           np.zeros(n), floors, [0.0], "optimal", 0, True)

    v = _initial_beamformers(config, channels, support)
    powers = ran.ue_power(BeamformerSet(v))
    bound = _cs_rate_bound(config, channels, powers, support)
    rho = frozen = None
    metric_prev = None
    trace = []
    status, converged, it = "max_iterations", False, 0

    for it in range(1, max_iterations + 1):
        # `bound` holds the rate bound at the current v and support.
        weights = np.where(floors > 0, _safe_div(bits, bound), 0.0)
        problem = build_power_min_socp(
            channels, floors, config.bandwidth, config.rrh_power_limit,
            objective_weights=weights, rho=rho, frozen_rates=frozen,
            fronthaul_limits=config.fronthaul_limit, support=support)
        report = solve(problem, **SOLVE_KW)
        if not report.optimal:
            return RanSolution(BeamformerSet(v), np.zeros(n), (frozenset(),) * n,
                               powers, floors, trace, report.status, it, False,
                               f"conic step failed: {report.message or report.status}; "
                               f"floors={floors.tolist()}")
        v = extract_beamformers(report.x, support, config.antennas_per_rrh)
        support = _cull_support(v, support, config.rrh_power_limit)
        v = np.where(support[:, :, None], v, 0.0)
        bf = BeamformerSet(v)
        rates, powers = ran.rate(channels, bf, config.bandwidth), ran.ue_power(bf)
        rho = _fronthaul_rows(config, bf, rates, support)
        frozen = rates
        bound = _cs_rate_bound(config, channels, powers, support)
        metric = float(np.sum(np.where(floors > 0, powers * _safe_div(bits, bound), 0.0)))
        trace.append(metric)
        if metric_prev is not None and abs(metric - metric_prev) <= CONV_REL_TOL * max(
                metric_prev, 1e-30):
            status, converged = "optimal", True
            break
        metric_prev = metric

    bf, rates, powers, clusters = _refit_on_support(
        config, channels, BeamformerSet(v), floors,
        np.where(floors > 0, 1.0, 0.0) * _safe_div(bits, bound), support)
    return _replay_checked(config, tasks, channels, RanSolution(
        bf, rates, clusters, powers, floors, trace, status, it, converged,
        "" if converged else _cap_message(trace, max_iterations)))


def _safe_div(a, b):
    b = np.asarray(b, dtype=float)
    return np.divide(a, np.where(b > 0, b, 1.0), where=b > 0,
                     out=np.zeros_like(b))


def _refit_on_support(config, channels, bf, floors, weights, support):
    """Re-solve on the extracted clusters so zeroed blocks are exactly zero.

    Clusters are extracted from `bf` within `support`.  Floors are held at
    max(original floor, achieved rate less a small relative slack): cluster
    extraction may shave a little amplitude, and the refit re-tightens
    feasibility on the kept blocks only.  Passes repeat while extraction
    changes the mask; a failed solve ends them at the last clustered point,
    which the caller's constraint replay judges.
    """
    limits = config.rrh_power_limit
    mask, bf = _clustered(bf, limits)
    mask &= support

    rates = ran.rate(channels, bf, config.bandwidth)
    target = np.where(floors > 0,
                      np.maximum(floors, rates * (1.0 - REFIT_FLOOR_SLACK)), 0.0)
    frozen = np.maximum(rates, floors)
    obj = np.where(floors > 0, np.maximum(weights, 1e-12), 0.0)
    caps = np.asarray(config.fronthaul_limit)
    for _ in range(10):
        if not mask.any():   # bf is zero off the mask
            break
        # Every served UE costs its full rate on the hard per-RRH form, and a
        # power-min refit lands on its targets, so shed targets until the
        # planned load fits each masked RRH.
        for _shed in range(16):
            planned = (mask * target[:, None]).sum(axis=0)
            over = planned > caps * (1.0 - 1e-9)
            if not over.any():
                break
            for j in np.flatnonzero(over):
                scale = caps[j] * (1.0 - 1e-6) / planned[j]
                rows = mask[:, j] & (floors > 0)
                target[rows] = np.maximum(floors[rows], target[rows] * scale)
        rho = _fronthaul_rows(config, bf, frozen, mask)
        problem = build_power_min_socp(
            channels, target, config.bandwidth, config.rrh_power_limit,
            objective_weights=obj, rho=rho, frozen_rates=frozen,
            fronthaul_limits=config.fronthaul_limit, support=mask)
        report = solve(problem, **SOLVE_KW)
        if not report.optimal:
            break
        vec = extract_beamformers(report.x, mask, config.antennas_per_rrh)
        new_mask, bf = _clustered(BeamformerSet(vec), limits)
        if np.array_equal(new_mask, mask):
            break
        mask = new_mask
    rates, powers = ran.rate(channels, bf, config.bandwidth), ran.ue_power(bf)
    clusters, bf = extract_rrh_clusters(bf, limits)
    return bf, rates, powers, clusters


# ---------------------------------------------------------------------------
# Joint cloud + radio energy minimization.


def joint_energy_minimization(config: SystemConfig, tasks: list[Task],
                              channels: ChannelState,
                              max_iterations: int = MAX_ITERATIONS) -> JointSolution:
    """Block coordinate descent on the joint energy objective.

    Round n: (1) receivers from the current beamformers, (2) MSE weights
    from the cloud-utility gradient, (3) transmit beamformers by a conic
    step under rate floors / per-RRH power / fronthaul surrogate.  A round
    settles when the total energy does with no clone at its cap.  The first
    round sets the fronthaul weights and frozen rates; after it they are
    refreshed only when a round settles, so the descent runs on one fixed
    surrogate at a time, and a round that settles on fresh weights, or with
    no fronthaul row active, ends the loop.  On exit clone speeds are
    recovered from the final rates, making the deadline exactly tight per UE.
    """
    n, l = config.num_ue, config.num_rrh
    kappa = np.asarray(config.switched_capacitance)
    nu = np.asarray(config.cloud_exponent)
    fmax = np.asarray(config.clone_capacity_limit)
    bw = np.asarray(config.bandwidth)
    eta = np.asarray(config.tradeoff)
    cycles, bits, deadlines = _task_arrays(tasks)

    late = deadlines <= cycles / fmax
    if np.any(late):
        i = int(np.argmax(late))
        raise RateInfeasibleError(
            i, f"cloud execution needs {cycles[i] / fmax[i]:.6g} s "
               f"of a {deadlines[i]:.6g} s deadline")

    floors = _rate_floor(cycles, bits, deadlines, fmax)
    support = np.repeat((bits > 0)[:, None], l, axis=1)

    if not support.any():
        alloc = solve_cloud_allocation(cycles, deadlines, fmax, kappa, nu)
        energy = EnergyBreakdown.combine(alloc.exec_energy, np.zeros(n), eta)
        zero = BeamformerSet(np.zeros_like(channels.gains))
        ransol = RanSolution(zero, np.zeros(n), (frozenset(),) * n,
                             np.zeros(n), floors, [], "optimal", 0, True)
        return JointSolution(ransol, alloc.clone_capacity,
                             energy, [energy.total], [], "optimal", 0, True)

    v = _initial_beamformers(config, channels, support)
    bf = BeamformerSet(v)
    rates, powers = ran.rate(channels, bf, bw), ran.ue_power(bf)
    rho = frozen = None
    u = None
    energy_prev, fresh = None, False
    energy_trace, surrogate_trace = [], []
    status, converged, it = "max_iterations", False, 0
    best_total, best_state = np.inf, None

    def true_surrogate(e_vec, powers, weights):
        rates = np.maximum(bw * np.log2(1.0 / e_vec), floors)
        taus = cloud_energy_of_rate(rates, cycles, bits, deadlines, kappa, nu, fmax)
        return float(taus.sum() + weights @ powers)

    def recover_cloud(rates, powers):
        """Clone speeds from the rates (deadline tight), plus both energy legs."""
        speeds = _clone_speed(rates, cycles, bits, deadlines, fmax)
        return (speeds, clone_energy(cycles, speeds, kappa, nu),
                ran.transmit_energy(bits, rates, powers))

    for it in range(1, max_iterations + 1):
        # bf, rates and powers hold the current v, measured when it was set.
        bound = _cs_rate_bound(config, channels, powers, support)
        weights = np.where(bits > 0, eta * _safe_div(bits, bound), 0.0)

        s0 = None
        if u is not None:
            e_stale = np.clip(mse(channels, v, u), 1e-300, 1.0 - 1e-15)
            s0 = true_surrogate(e_stale, powers, weights)

        u = mmse_receiver(channels, bf)
        e = np.clip(mse(channels, v, u), 1e-300, 1.0 - 1e-15)
        s1 = true_surrogate(e, powers, weights)

        phi = mse_weight(e, cycles, bits, deadlines, bw, kappa, nu, fmax)
        s2 = s1  # the weight refresh re-anchors phi; the surrogate value is unchanged

        problem = build_wmmse_step_socp(
            channels, phi, u, weights, config.rrh_power_limit,
            rate_floors=floors, bandwidths=bw, rho=rho, frozen_rates=frozen,
            fronthaul_limits=config.fronthaul_limit, support=support)
        report = solve(problem, **SOLVE_KW)
        if not report.optimal:
            ransol = RanSolution(bf, rates, (frozenset(),) * n, powers,
                                 floors, [], report.status, it, False,
                                 f"conic step failed: {report.message or report.status}")
            return JointSolution(ransol, np.zeros(n), None, energy_trace,
                                 surrogate_trace, report.status, it, False)
        v_cand = extract_beamformers(report.x, support, config.antennas_per_rrh)
        # The conic step minimizes the tangent model of the cloud-energy
        # utility, which under-estimates it where tau is convex in the MSE;
        # a line search on the true surrogate keeps the descent honest.
        v, s3 = _surrogate_line_search(
            config, channels, u, weights, v, v_cand, rho, frozen,
            true_surrogate, s2)
        surrogate_trace.append((s0, s1, s2, s3))

        support = _cull_support(v, support, config.rrh_power_limit)
        v = np.where(support[:, :, None], v, 0.0)
        bf = BeamformerSet(v)
        rates, powers = ran.rate(channels, bf, bw), ran.ue_power(bf)

        speeds, cloud_e, tx_e = recover_cloud(rates, powers)
        total = float(np.sum(cloud_e + eta * tx_e))
        energy_trace.append(total)
        if total < best_total and _iterate_feasible(config, bf, rates, floors):
            best_total, best_state = total, (v.copy(), support.copy(), powers)
        # A clone at its cap (its UE held at the rate floor) costs the most
        # cloud energy, ~15,000 J in the stock cell; a tolerance relative to
        # such a total absorbs the other UEs' whole energy, or a swap of which
        # UEs sit at their floors, so the round does not count as settled.
        pinned = np.any((bits > 0) & (speeds >= fmax * (1.0 - CONV_REL_TOL)))
        settled = energy_prev is not None and not pinned and abs(
            total - energy_prev) <= CONV_REL_TOL * max(energy_prev, 1e-30)
        if settled and (fresh or not np.any(rho)):
            status, converged = "optimal", True
            break
        fresh = settled or rho is None
        if fresh:
            rho = _fronthaul_rows(config, bf, rates, support)
            frozen = rates.copy()
        energy_prev = total

    if best_state is not None:
        # Under a binding fronthaul budget the loop can orbit the optimum;
        # return the best load-feasible visit rather than the last.
        v, support, powers = best_state
    bf, rates, powers, clusters = _refit_on_support(
        config, channels, BeamformerSet(v), floors,
        np.where(bits > 0, eta * _safe_div(bits, _cs_rate_bound(
            config, channels, powers, support)), 0.0), support)
    speeds, cloud_e, tx_e = recover_cloud(rates, powers)
    energy = EnergyBreakdown.combine(cloud_e, tx_e, eta)
    with np.errstate(divide="ignore"):  # lateness at the rates bf gives, not `rates`
        finish = cycles / speeds + np.divide(bits, ran.rate(channels, bf, bw),
                                             where=bits > 0, out=np.zeros(n))
    ransol = _replay_checked(config, tasks, channels, RanSolution(
        bf, rates, clusters, powers, floors, energy_trace, status, it, converged,
        "" if converged else _cap_message(energy_trace, max_iterations)), finish)
    receivers = mmse_receiver(channels, bf)
    mses = np.clip(mse(channels, bf.vectors, receivers), 1e-300, 1.0)
    weights_out = mse_weight(np.minimum(mses, 1.0 - 1e-15), cycles, bits, deadlines,
                             bw, kappa, nu, fmax)
    return JointSolution(ransol, speeds, energy, energy_trace, surrogate_trace,
                         ransol.status, it, ransol.converged,
                         mse_state=MseState(receivers, mses, weights_out))


def _surrogate_line_search(config, channels, receivers, weights, v_prev, v_cand,
                           rho, frozen, surrogate_fn, s_incumbent):
    """Step from v_prev toward the conic candidate, minimizing the true surrogate.

    Along the segment every constraint stays satisfied (the feasible set is
    convex and both ends are feasible) and the surrogate is convex, so a
    golden section bracket finds the minimum.  The received amplitudes are
    affine in the step length, so each trial evaluates the MSE on a + alpha b.
    Returns the new point and its value.
    """
    if rho is not None and np.any(
            ran.surrogate_fronthaul_load(BeamformerSet(v_prev), frozen, rho)
            > np.asarray(config.fronthaul_limit) * (1.0 + 1e-9)):
        # Incumbent end is outside this round's surrogate set: only the full
        # step is known feasible.
        e1 = np.clip(mse(channels, v_cand, receivers), 1e-300, 1.0 - 1e-15)
        p1 = np.sum(np.abs(v_cand) ** 2, axis=(1, 2))
        return v_cand, surrogate_fn(e1, p1, weights)

    dv = v_cand - v_prev
    a = ran.amplitudes(channels, v_prev)
    b = ran.amplitudes(channels, dv)
    p2 = np.sum(np.abs(dv) ** 2, axis=(1, 2))
    p1c = 2.0 * np.sum(np.real(np.conj(v_prev) * dv), axis=(1, 2))
    p0 = np.sum(np.abs(v_prev) ** 2, axis=(1, 2))

    def value(alpha):
        e = _mse_of_amplitudes(channels, a + alpha * b, receivers)
        p = p0 + p1c * alpha + p2 * alpha * alpha
        return surrogate_fn(e.clip(1e-300, 1.0 - 1e-15), p, weights)

    lo, hi = 0.0, 1.0
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - golden * (hi - lo)
    x2 = lo + golden * (hi - lo)
    f1, f2 = value(x1), value(x2)
    for _ in range(40):
        if hi - lo < 1e-6:
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - golden * (hi - lo)
            f1 = value(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + golden * (hi - lo)
            f2 = value(x2)
    candidates = [(s_incumbent, 0.0), (value(1.0), 1.0),
                  (f1, x1), (f2, x2)]
    best_val, best_alpha = min(candidates, key=lambda t: t[0])
    return v_prev + best_alpha * dv, best_val


# ---------------------------------------------------------------------------
# Fixed-split baseline.


def split_deadline_baseline(config: SystemConfig, tasks: list[Task],
                            channels: ChannelState, alpha: float) -> JointSolution:
    """Separate optimization with the deadline split T_tx = alpha * T_max.

    The cloud side gets (1 - alpha) * T_max and is solved in closed form;
    the radio side gets alpha * T_max as a hard transmit budget.  Raises
    BaselineInfeasibleError naming the side that cannot meet its share; a
    transmit side that stops for another reason keeps its status.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("split fraction must be in (0, 1)")
    cycles, bits, deadlines = _task_arrays(tasks)
    try:
        alloc = solve_cloud_allocation(cycles, (1.0 - alpha) * deadlines,
                                       config.clone_capacity_limit,
                                       config.switched_capacitance,
                                       config.cloud_exponent)
    except CloudInfeasibleError as err:
        raise BaselineInfeasibleError("cloud", str(err)) from err

    ransol = ran_power_minimization(config, tasks, channels, alpha * deadlines)
    if ransol.status == "infeasible":
        raise BaselineInfeasibleError("transmit", ransol.message or ransol.status)
    energy, trace = None, []
    if np.all(ransol.rates[bits > 0] > 0):  # a failed conic step leaves no rates
        energy = EnergyBreakdown.combine(
            alloc.exec_energy, ran.transmit_energy(bits, ransol.rates, ransol.powers),
            config.tradeoff)
        trace = [energy.total]
    return JointSolution(ransol, alloc.clone_capacity, energy, trace, [],
                         ransol.status, ransol.iterations, ransol.converged)
