"""Iterative energy-minimization procedures and the MSE-descent kernels.

Two entry points run one reweighted-l1 support loop, alternating a conic
step with reweighting of the fronthaul surrogate (clusters sparsify as
weights grow on weak beamformer blocks):

* ``ran_power_minimization`` - transmit-side minimization under fixed rate
  floors; the fronthaul weights are refreshed every round (held, they
  change no status but add rounds where the fronthaul binds).
* ``joint_energy_minimization`` - block coordinate descent on the
  MSE-reformulated joint cloud+radio energy objective: closed-form receiver
  update, closed-form MSE weight from the cloud-energy utility gradient,
  then a conic transmit-beamformer step; the fronthaul weights and their
  frozen rates are refreshed only when a round settles (refreshed every
  round, the descent orbits where the fronthaul binds).

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
from .cloud import InfeasibleError, clone_energy, solve_cloud_allocation
from .conic import build_power_min_socp, build_wmmse_step_socp, extract_beamformers, solve
from .ran import BeamformerSet, EnergyBreakdown
from .scenario import ChannelState, SystemConfig, Task

__all__ = [
    "RanSolution",
    "JointSolution",
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


@dataclass
class RanSolution:
    beamformers: BeamformerSet
    rates: np.ndarray
    clusters: tuple
    powers: np.ndarray          # per-UE transmit power over the serving set
    floors: np.ndarray
    status: str = "optimal"
    iterations: int = 0
    message: str = ""

    @property
    def converged(self) -> bool:
        return self.status == "optimal"


@dataclass
class JointSolution:
    ran: RanSolution
    clone_capacity: np.ndarray
    energy: EnergyBreakdown | None
    energy_trace: list = field(default_factory=list)
    surrogate_trace: list = field(default_factory=list)  # (S0, S1, S3) rows

    @property
    def status(self) -> str:
        return self.ran.status

    @property
    def iterations(self) -> int:
        return self.ran.iterations

    @property
    def converged(self) -> bool:
        return self.ran.converged


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
    without result bits, at nu = 1 or at kappa = 0.  A UE whose cloud
    execution alone exhausts its deadline (T <= F/f_max) has no floor, and
    gets the finite weight of a clone at the cap; `joint_energy_minimization`
    refuses such a UE before it asks for a weight.
    """
    e = np.asarray(e, dtype=float)
    if not np.all((e > 0.0) & (e < 1.0)):
        raise ValueError("mse weight needs e in (0, 1)")
    live = (bits > 0) & (exponent != 1.0) & (kappa != 0.0)
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


def _energy_weights(config, channels, bits, ue_powers, support) -> np.ndarray:
    """Per-UE weights D_i / R_i of the transmit-energy surrogate, 0 where R_i = 0.

    R_i = B log2(1 + sum_j ||h_ij||^2 p_i / sigma_i^2) is the interference-free
    rate bound at the previous power level, the concave envelope used as the
    frozen denominator of the surrogate.
    """
    gain = np.where(support, ran.block_power(channels.gains), 0.0).sum(axis=1)
    bound = np.asarray(config.bandwidth) * np.log2(1.0 + gain * ue_powers / channels.noise_power)
    return np.divide(bits, np.where(bound > 0, bound, 1.0), where=bound > 0,
                     out=np.zeros_like(bound))


def _clustered(beamformers: BeamformerSet, power_limits):
    """Mask of the blocks ||v_ij||^2 > CLUSTER_THRESHOLD * P_j, and v zeroed off it."""
    v = beamformers.vectors
    keep = ran.block_power(v) > CLUSTER_THRESHOLD * np.asarray(power_limits, dtype=float)[None]
    return keep, BeamformerSet(np.where(keep[:, :, None], v, 0.0))


def extract_rrh_clusters(beamformers: BeamformerSet, power_limits):
    """Serving sets C_i = {j : ||v_ij||^2 > CLUSTER_THRESHOLD * P_j}; small blocks zeroed."""
    keep, zeroed = _clustered(beamformers, power_limits)
    return tuple(frozenset(np.flatnonzero(row).tolist()) for row in keep), zeroed


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


def _replay_misses(config, tasks, channels, solution, deadline_total=None):
    """The constraints `solution` misses by more than REPLAY_TOL, as "name miss" strings.

    Each violation is taken relative as the benchmark gate takes it: power
    to the largest P_j, fronthaul to the largest C_j and lateness to the
    shortest deadline.
    """
    viol = constraint_violations(config, tasks, channels, solution, deadline_total)
    scale = {"power": max(config.rrh_power_limit), "rate_rel": 1.0,
             "fronthaul": max(config.fronthaul_limit),
             "deadline": min(t.deadline for t in tasks)}
    return [f"{k} {v / scale[k]:+.2e}" for k, v in viol.items()
            if not v / scale[k] <= REPLAY_TOL]


def _replay_checked(config, tasks, channels, solution, deadline_total=None):
    """Restamp an "optimal" `solution` "replay_failed" if it misses a constraint."""
    if solution.status != "optimal":
        return solution
    missed = _replay_misses(config, tasks, channels, solution, deadline_total)
    if missed:
        solution.status = "replay_failed"
        solution.message = "returned solution violates " + ", ".join(missed)
    return solution


def _cap_message(trace):
    """Why a loop ran out of rounds: the cap and the last round's relative change."""
    change = abs(trace[-1] - trace[-2]) / max(abs(trace[-2]), 1e-30) if trace[1:] else math.nan
    return (f"no settled round within the {MAX_ITERATIONS}-round cap; "
            f"last relative change {change:.2e}")


def _support_loop(config, tasks, channels, floors, support, cost, step, measure,
                  hold_rho):
    """The reweighted-l1 support loop of both entry points.

    Per round: `step(v, powers, weights, rho, frozen, support)` gives the
    conic report and, if optimal, the next v; dead blocks are culled, and
    `measure(rates, powers, weights)` values the new point, with weights
    cost * D / (rate bound).  The fronthaul weights rho are set after round
    1, then refreshed after every round or (`hold_rho`) after a settled one;
    a settled round on fresh weights, or with no rho row active, ends the
    loop.  Returns (solution, values, whether a step failed); a failed step
    leaves the point before it, unclustered.
    """
    bits = _task_arrays(tasks)[1]
    v = _initial_beamformers(config, channels, support)
    bf = BeamformerSet(v)
    rates, powers = ran.rate(channels, bf, config.bandwidth), ran.ue_power(bf)
    weights = cost * _energy_weights(config, channels, bits, powers, support)
    rho = frozen = None
    fresh = False
    trace = []
    status, it = "max_iterations", 0
    best_value, best_state = np.inf, None

    for it in range(1, MAX_ITERATIONS + 1):
        # bf, rates, powers and weights hold the current v, measured when it was set.
        report, v = step(v, powers, weights, rho, frozen, support)
        if not report.optimal:
            return RanSolution(bf, rates, (frozenset(),) * config.num_ue, powers, floors,
                               report.status, it, "conic step failed: "
                               f"{report.message or report.status}"), trace, True
        support = _cull_support(v, support, config.rrh_power_limit)
        v = np.where(support[:, :, None], v, 0.0)
        bf = BeamformerSet(v)
        rates, powers = ran.rate(channels, bf, config.bandwidth), ran.ue_power(bf)
        weights = cost * _energy_weights(config, channels, bits, powers, support)
        trace.append(measure(rates, powers, weights))
        if trace[-1] < best_value and not _replay_misses(config, tasks, channels, RanSolution(
                _clustered(bf, config.rrh_power_limit)[1], rates, (), powers, floors)):
            best_value, best_state = trace[-1], (v, support, weights)
        settled = len(trace) > 1 and abs(
            trace[-1] - trace[-2]) <= CONV_REL_TOL * max(trace[-2], 1e-30)
        if settled and (fresh or not np.any(rho)):
            status = "optimal"
            break
        fresh = settled or rho is None or not hold_rho
        if fresh:
            rho, frozen = _fronthaul_rows(config, bf, rates, support), rates

    if best_state is not None:
        # Under a binding fronthaul budget the loop can orbit the optimum;
        # return the best visit that, clustered, passes the exit replay.
        v, support, weights = best_state
    bf, rates, powers, clusters = _refit_on_support(
        config, channels, BeamformerSet(v), floors, weights, support)
    return RanSolution(bf, rates, clusters, powers, floors, status, it,
                       "" if status == "optimal" else _cap_message(trace)), trace, False


# ---------------------------------------------------------------------------
# Transmit-side minimization under fixed rate floors.


def ran_power_minimization(config: SystemConfig, tasks: list[Task],
                           channels: ChannelState, transmit_budgets) -> RanSolution:
    """Iterative reweighted power minimization meeting per-UE rate floors.

    The support loop with a power-min SOCP step, until the surrogate power
    metric sum_i p_i D_i / (rate bound) settles.  Round 1 runs with the
    fronthaul surrogate inactive; after it the weights are refreshed every
    round.  Held until a round settles, as in the joint loop, they keep the
    statuses but take more rounds: 6/5/8/7 -> 10/8/14/12 at fronthaul 3e5,
    T = 20 ms, F = 1500, seeds 42-45.
    """
    n = config.num_ue
    _, bits, _ = _task_arrays(tasks)
    floors = bits / np.asarray(transmit_budgets, dtype=float)
    support = np.repeat((floors > 0)[:, None], config.num_rrh, axis=1)
    if not support.any():
        zero = BeamformerSet(np.zeros_like(channels.gains))
        return RanSolution(zero, np.zeros(n), (frozenset(),) * n, np.zeros(n), floors)

    def step(v, powers, weights, rho, frozen, support):
        report = solve(build_power_min_socp(
            channels, floors, config.bandwidth, config.rrh_power_limit,
            objective_weights=weights, rho=rho, frozen_rates=frozen,
            fronthaul_limits=config.fronthaul_limit, support=support))
        return report, extract_beamformers(report.x, support, config.antennas_per_rrh)

    sol, _, failed = _support_loop(config, tasks, channels, floors, support, 1.0, step,
                                   lambda rates, powers, weights: float(np.sum(powers * weights)),
                                   hold_rho=False)
    if failed:   # a failed conic step leaves no rates
        sol.rates, sol.message = np.zeros(n), f"{sol.message}; floors={floors.tolist()}"
    return _replay_checked(config, tasks, channels, sol)


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
        report = solve(problem)
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
                              channels: ChannelState) -> JointSolution:
    """Block coordinate descent on the joint energy objective.

    The support loop, round n: (1) receivers from the current beamformers,
    (2) MSE weights from the cloud-utility gradient, (3) transmit
    beamformers by a conic step under rate floors / per-RRH power /
    fronthaul surrogate.  A round settles when the total energy does.  The
    fronthaul weights are refreshed only when a round settles, so the
    descent runs on one fixed surrogate at a time (refreshed every round,
    6 C/10 and C/100 fingerprint runs orbit to the cap).  On exit clone
    speeds are recovered from the final rates, making the deadline exactly
    tight per UE.
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
        raise InfeasibleError("deadline", f"cloud execution needs {cycles[i] / fmax[i]:.6g} s "
                              f"of a {deadlines[i]:.6g} s deadline", i)

    floors = _rate_floor(cycles, bits, deadlines, fmax)
    support = np.repeat((bits > 0)[:, None], l, axis=1)

    if not support.any():
        alloc = solve_cloud_allocation(cycles, deadlines, fmax, kappa, nu)
        energy = EnergyBreakdown.combine(alloc.exec_energy, np.zeros(n), eta)
        zero = BeamformerSet(np.zeros_like(channels.gains))
        ransol = RanSolution(zero, np.zeros(n), (frozenset(),) * n, np.zeros(n), floors)
        return JointSolution(ransol, alloc.clone_capacity, energy, [energy.total])

    surrogate_trace = []
    u = None

    def true_surrogate(e_vec, powers, weights):
        rates = np.maximum(bw * np.log2(1.0 / e_vec), floors)
        taus = cloud_energy_of_rate(rates, cycles, bits, deadlines, kappa, nu, fmax)
        return float(taus.sum() + weights @ powers)

    def recover_cloud(rates, powers):
        """Clone speeds from the rates (deadline tight), and the energy at them."""
        speeds = _clone_speed(rates, cycles, bits, deadlines, fmax)
        return speeds, EnergyBreakdown.combine(clone_energy(cycles, speeds, kappa, nu),
                                               ran.transmit_energy(bits, rates, powers), eta)

    def step(v, powers, weights, rho, frozen, support):
        nonlocal u
        s0 = None
        if u is not None:
            e_stale = np.clip(mse(channels, v, u), 1e-300, 1.0 - 1e-15)
            s0 = true_surrogate(e_stale, powers, weights)

        u = mmse_receiver(channels, BeamformerSet(v))
        e = np.clip(mse(channels, v, u), 1e-300, 1.0 - 1e-15)
        s1 = true_surrogate(e, powers, weights)

        phi = mse_weight(e, cycles, bits, deadlines, bw, kappa, nu, fmax)

        report = solve(build_wmmse_step_socp(
            channels, phi, u, weights, config.rrh_power_limit,
            rate_floors=floors, bandwidths=bw, rho=rho, frozen_rates=frozen,
            fronthaul_limits=config.fronthaul_limit, support=support))
        if not report.optimal:
            return report, None
        v_cand = extract_beamformers(report.x, support, config.antennas_per_rrh)
        # The conic step minimizes the tangent model of the cloud-energy
        # utility, which under-estimates it where tau is convex in the MSE;
        # a line search on the true surrogate keeps the descent honest.
        v, s3 = _surrogate_line_search(
            config, channels, u, weights, v, v_cand, rho, frozen,
            true_surrogate, s1)
        surrogate_trace.append((s0, s1, s3))
        return report, v

    ransol, energy_trace, failed = _support_loop(
        config, tasks, channels, floors, support, eta, step,
        lambda rates, powers, _: recover_cloud(rates, powers)[1].total, hold_rho=True)
    if failed:
        return JointSolution(ransol, np.zeros(n), None, energy_trace, surrogate_trace)
    speeds, energy = recover_cloud(ransol.rates, ransol.powers)
    # The replay's lateness takes the rates of the returned bf, not the refit's
    # own `rates`: equal when the refit is right, and independent of it.
    with np.errstate(divide="ignore"):
        finish = cycles / speeds + np.divide(
            bits, ran.rate(channels, ransol.beamformers, bw), where=bits > 0, out=np.zeros(n))
    ransol = _replay_checked(config, tasks, channels, ransol, finish)
    return JointSolution(ransol, speeds, energy, energy_trace, surrogate_trace)


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
    while hi - lo >= 1e-6:
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
    InfeasibleError with side "cloud" or "transmit" when that side cannot meet
    its share; a transmit side that stops short of a certificate keeps its status.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("split fraction must be in (0, 1)")
    cycles, bits, deadlines = _task_arrays(tasks)
    alloc = solve_cloud_allocation(cycles, (1.0 - alpha) * deadlines,
                                   config.clone_capacity_limit,
                                   config.switched_capacitance,
                                   config.cloud_exponent)

    ransol = ran_power_minimization(config, tasks, channels, alpha * deadlines)
    if ransol.status == "infeasible":
        raise InfeasibleError("transmit", ransol.message or ransol.status)
    energy, trace = None, []
    if np.all(ransol.rates[bits > 0] > 0):  # a failed conic step leaves no rates
        energy = EnergyBreakdown.combine(
            alloc.exec_energy, ran.transmit_energy(bits, ransol.rates, ransol.powers),
            config.tradeoff)
        trace = [energy.total]
    return JointSolution(ransol, alloc.clone_capacity, energy, trace)
