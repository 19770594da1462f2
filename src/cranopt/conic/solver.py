"""Second-order cone programming by a primal-dual interior-point method.

Problem form:

    minimize    (1/2) x'P x + c'x
    subject to  G x + s = h,   s in K        (cone rows)

where P is symmetric positive semidefinite (zero for an LP or SOCP) and K is
an ordered product of nonnegative-orthant blocks and second-order cone
blocks partitioning the slack vector s.  The solver runs Nesterov-Todd
scaled predictor-corrector steps on the homogeneous self-dual embedding of
this quadratic cone program (as in Clarabel, Goulart & Chen 2024), so
primal/dual infeasibility is certified rather than inferred from stalling.

Cone blocks are segments of the slack vector, kept in the caller's row
order (see `_Cones`): each cone operation is a fixed number of array
operations over all blocks, and the Nesterov-Todd scaling is applied as a
rank-one update per block (see `_Scaling`), as in CVXOPT and ECOS.  Each
Newton system is reduced to a definite system H x = r and solved by one
dense Cholesky routine (`_Saddle`).

An optimal answer is then polished by Newton's method on the KKT system of
its active cone blocks, which the interior-point iterate only approaches as
the square root of its duality gap.  Each polish step solves its Newton
system with the same `_Saddle` routine, its boundary gradients as the
equality rows A of a saddle-point system [[H, A'], [A, 0]] (the "chol2"
reduction of CVXOPT's coneqp, Vandenberghe 2010), and the active set grows
by every block that a settled polish point leaves.

The solver knows variables only by position: a `ConicProblem` holds the
arrays above and no names.  `SolveReport.x` comes back in the caller's
column order, and `z` and `s` in the caller's cone row order.

Data is Ruiz-equilibrated before solving; the reported residuals and
duality gap are those of the returned answer on the normalized problem (the
polished point, else the iterate that stopped the loop, or at a
`max_iterations` exit the iterate of least merit max(pres, dres) / feas_tol,
gap / gap_tol), while objective values are in the caller's units.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

__all__ = ["ConicProblem", "SolveReport", "SolverError", "solve"]

STEP_BACKOFF = 0.99
REG = 1e-9             # static KKT regularization (undone by refinement)
REFINE_STEPS = 4       # iterative-refinement steps per KKT solve, at most
RUIZ_ITERS = 8         # equilibration sweeps
POLISH_STEPS = 8       # Newton steps before a polish is given up
STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_MAXITER = "max_iterations"


class SolverError(ValueError):
    """Malformed problem data (dimension or cone bookkeeping mismatch)."""


@dataclass(frozen=True)
class ConicProblem:
    """Conic program data: the arrays of the form above and the cone list.

    ``cones`` lists ("nonneg", dim) and ("soc", dim) blocks in row order;
    their dims must sum to the number of cone rows.  Columns carry no
    names: whoever builds a problem defines what they mean
    (`cranopt.conic.build` documents the beamforming layout).
    """

    c: np.ndarray
    P: np.ndarray          # (n, n), symmetric PSD
    cone_lhs: np.ndarray   # G, (m, n)
    cone_rhs: np.ndarray   # h, (m,)
    cones: tuple[tuple[str, int], ...]
    obj_const: float = 0.0

    def __post_init__(self):
        n = self.c.shape[0]
        m = self.cone_lhs.shape[0]
        if self.P.shape != (n, n):
            raise SolverError("quadratic term shape mismatch")
        if not np.array_equal(self.P, self.P.T):
            raise SolverError("quadratic term must be symmetric")
        if self.cone_lhs.shape != (m, n) or self.cone_rhs.shape != (m,):
            raise SolverError("cone system shape mismatch")
        if sum(d for _, d in self.cones) != m:
            raise SolverError("cone dims must sum to the slack dimension")
        for kind, d in self.cones:
            if kind not in ("nonneg", "soc") or d < 1:
                raise SolverError(f"bad cone block ({kind}, {d})")
        if m == 0:
            raise SolverError("need at least one cone row")

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]

    @property
    def eq_lhs(self) -> np.ndarray:
        """The (0, n) equality system: the form has no equality rows.

        `perfbench/tracing.py` reads its row count as the trace's ``p``.
        """
        return np.zeros((0, self.num_vars))


@dataclass
class SolveReport:
    status: str
    x: np.ndarray
    z: np.ndarray
    s: np.ndarray
    primal_objective: float
    dual_objective: float
    duality_gap: float
    primal_residual: float
    dual_residual: float
    iterations: int
    message: str = ""
    trace: list = field(default_factory=list)

    @property
    def optimal(self) -> bool:
        return self.status == STATUS_OPTIMAL


# ---------------------------------------------------------------------------
# Cone algebra.  Blocks are segments of the slack vector; see `_Cones`.


class _Cones:
    """The cone blocks as segments of the slack vector, in the caller's row order.

    A ("nonneg", d) entry is d blocks of dimension 1 (the second-order cone
    of dimension 1 is {x0 >= 0}).  Block k is rows ``starts[k]`` to
    ``starts[k] + dims[k] - 1``, head row first; ``owner`` maps each row to
    its block, and ``sign`` is the diagonal of J = diag(1, -1, ..., -1) over
    all blocks.  A per-block sum is one ``np.add.reduceat(., starts)``, and
    ``[owner]`` spreads a per-block value back over the block's rows, so
    every cone operation is a fixed number of array operations.
    """

    def __init__(self, cones):
        self.dims = np.array([dim for kind, d in cones
                              for dim in ([1] * d if kind == "nonneg" else [d])], dtype=np.intp)
        self.starts = np.cumsum(self.dims) - self.dims
        self.owner = np.repeat(np.arange(self.dims.size), self.dims)
        self.sign = -np.ones(self.owner.size)
        self.sign[self.starts] = 1.0
        self.tail = (1.0 - self.sign) / 2.0   # 1 on the rows below each head
        self.degree = self.dims.size

    def tail_dot(self, u, v):
        """u1'v1 per block, the inner product of the rows below the heads."""
        return np.add.reduceat(u * v * self.tail, self.starts)

    def margins(self, v):
        """v0 - ||v1|| per block; > 0 iff v is strictly inside the block."""
        return v[self.starts] - np.sqrt(self.tail_dot(v, v))


def _cone_margin(v, cones):
    """Smallest interior margin; > 0 iff strictly inside every block."""
    return np.min(cones.margins(v))


def _max_step(v, dv, cones):
    """Largest t with v + t*dv still in the cone (np.inf if unbounded).

    Blocks take the first positive root of a t^2 + b t + c = (u0 + t d0)^2 -
    ||u1 + t d1||^2 (c > 0 inside), except in dimension 1, where that root is
    double and round-off can hide it behind a negative discriminant.
    """
    u0, d0 = v[cones.starts], dv[cones.starts]
    a = d0 ** 2 - cones.tail_dot(dv, dv)
    b = 2.0 * (u0 * d0 - cones.tail_dot(v, dv))
    c = u0 ** 2 - cones.tail_dot(v, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(b * b - 4.0 * a * c)   # nan: the line stays inside
        roots = np.where(np.abs(a) < 1e-300, -c / b,
                         [(-b - sq) / (2 * a), (-b + sq) / (2 * a)])
        roots = np.where(cones.dims == 1, np.where(d0 < 0, -u0 / d0, np.inf), roots)
    return roots[roots > 0].min(initial=np.inf)


def _jordan_mul(u, v, cones):
    """u o v = (u'v, u0 v1 + v0 u1), blockwise."""
    heads, owner = cones.starts, cones.owner
    out = u[heads][owner] * v + v[heads][owner] * u
    out[heads] = np.add.reduceat(u * v, heads)
    return out


def _jordan_solve(lam, d, cones):
    """x with lam o x = d, blockwise."""
    heads, owner = cones.starts, cones.owner
    l0 = lam[heads]
    x0 = (l0 * d[heads] - cones.tail_dot(lam, d)) / (l0 ** 2 - cones.tail_dot(lam, lam))
    out = (d - x0[owner] * lam) / l0[owner]
    out[heads] = x0
    return out


class _Scaling:
    """Nesterov-Todd scaling W per cone block: W z = W^{-1} s = lambda.

    Block k is W_k = beta_k T(w_k), where T(w) = u u'/u0 - J with u = w + e
    (so u0 = 1 + w0), and W_k^{-1} = J T(w_k) J / beta_k.  Only u, u0 and
    beta are kept: W and W^{-1} act as a rank-one update of J, one per-block
    inner product and O(m) elementwise work per vector.
    """

    def __init__(self, s, z, cones):
        self.cones = cones
        heads, owner = cones.starts, cones.owner
        rs = np.sqrt(np.maximum(s[heads] ** 2 - cones.tail_dot(s, s), 1e-300))
        rz = np.sqrt(np.maximum(z[heads] ** 2 - cones.tail_dot(z, z), 1e-300))
        sn, zn = s / rs[owner], z / rz[owner]
        gamma = np.sqrt(np.maximum((1.0 + np.add.reduceat(sn * zn, heads)) / 2.0, 1e-300))
        self.u = (sn + cones.sign * zn) / (2.0 * gamma)[owner]
        self.u[heads] += 1.0
        self.u0 = self.u[heads]
        self.ju = cones.sign * self.u
        self.beta = np.sqrt(rs / rz)[owner]   # per row

    def mul_w(self, v):
        coef = np.add.reduceat(self.u * v, self.cones.starts) / self.u0
        return self.beta * (self.u * coef[self.cones.owner] - self.cones.sign * v)

    def mul_winv(self, v):
        return self.winv_of_j(self.cones.sign * v)

    def mul_w2(self, v):
        return self.mul_w(self.mul_w(v))

    def winv_of_j(self, jv):
        """W^{-1} v = (Ju (u'Jv)/u0 - Jv) / beta from Jv, an (m,) or (m, r) array."""
        col = (slice(None),) + (None,) * (jv.ndim - 1)
        coef = np.add.reduceat(self.u[col] * jv, self.cones.starts, axis=0)
        coef /= self.u0[col]
        out = coef[self.cones.owner]
        out *= self.ju[col]
        out -= jv
        out /= self.beta[col]
        return out


# ---------------------------------------------------------------------------
# Equilibration.


def _ruiz_equilibrate(c, P, G, h, cones):
    """Row/column scaling; SOC row blocks share one scale to keep cone shape.

    The column scaling D, taken over the columns of P and G, scales the
    objective to D P D and D c; one cost scale then brings both to at most
    unit size.
    """
    m, n = G.shape
    dr_g = np.ones(m)
    dc = np.ones(n)
    Ps, Gs = P.copy(), G.copy()
    for _ in range(RUIZ_ITERS):
        rg = np.sqrt(np.maximum(np.abs(Gs).max(axis=1), 1e-16))
        rg = np.maximum(np.maximum.reduceat(rg, cones.starts)[cones.owner], 1e-8)
        Gs /= rg[:, None]
        dr_g /= rg
        colmax = np.maximum(np.abs(Ps).max(axis=0, initial=0.0), np.abs(Gs).max(axis=0))
        cnorm = np.maximum(np.sqrt(np.maximum(colmax, 1e-16)), 1e-8)
        Ps /= np.outer(cnorm, cnorm)
        Gs /= cnorm[None, :]
        dc /= cnorm
    cs = c * dc
    cost_scale = max(1.0, np.abs(cs).max(initial=0.0), np.abs(Ps).max(initial=0.0))
    return cs / cost_scale, Ps / cost_scale, Gs, h * dr_g, dc, dr_g, cost_scale


# ---------------------------------------------------------------------------
# Polishing.


def _polish(P, c, G, h, cones, x, z, feas_tol):
    """Newton's method on the KKT system of the blocks active at (x, z).

    An interior-point iterate at duality gap g can sit O(sqrt(g)) from the
    solution along the boundary of an active cone (the primal and dual
    blocks are not yet exactly opposite).  Holding each active block k on
    its boundary with z_k = nu_k (1, -s_k1 / ||s_k1||), s = h - G x,
    Newton's method on stationarity and those boundaries converges to
    working precision.  The active set starts as the blocks whose z_k0
    exceeds the margin s_k0 - ||s_k1||; a block that the settled point
    leaves by more than feas_tol joins it, and Newton restarts from (x, z).
    Returns the polished (x, z), or None when Newton does not settle or a
    multiplier nu_k falls below -feas_tol (a block held on its boundary
    with nu_k = 0 is weakly active).
    """
    heads = cones.starts
    active = z[heads] > cones.margins(h - G @ x)
    while True:
        settled = _boundary_newton(P, c, G, h, cones, active, x, z[heads[active]])
        if settled is None:
            return None
        xp, zp, nu = settled
        margins = cones.margins(h - G @ xp)
        left = ~active & (margins <= -feas_tol)
        if not left.any():
            break
        active |= left
    if np.all(nu > -feas_tol) and margins.min() > -feas_tol:
        return xp, zp
    return None


def _boundary_newton(P, c, G, h, cones, active, x, nu):
    """Newton from (x, nu) with the `active` blocks on their boundaries.

    Returns (x, z, nu) once the KKT residual is below 1e-13, or None.
    """
    act = _Cones([("soc", d) for d in cones.dims[active]])
    rows = active[cones.owner]
    Ga, ha = G[rows], h[rows]
    n = x.size
    for step in range(POLISH_STEPS + 1):
        s = ha - Ga @ x
        norm1 = np.maximum(np.sqrt(act.tail_dot(s, s)), 1e-300)
        u = -s / norm1[act.owner]
        u[act.starts] = 1.0
        # Block k adds nu_k (g1'g1 - g1'u1 u1'g1) / ||s_k1|| to the Hessian,
        # where g1 is its tail rows of G; a dimension-1 block has no tail.
        g1u = np.add.reduceat((act.tail * u)[:, None] * Ga, act.starts, axis=0)
        weight = np.where(act.dims > 1, nu / norm1, 0.0)
        hess = P + (Ga * (act.tail * weight[act.owner])[:, None]).T @ Ga \
            - (g1u * weight[:, None]).T @ g1u
        grads = g1u + Ga[act.starts]
        resid = norm1 - s[act.starts]
        z = np.zeros(G.shape[0])
        z[rows] = nu[act.owner] * u
        f = np.concatenate([P @ x + c + G.T @ z, resid])
        if np.max(np.abs(f)) <= 1e-13:
            return x, z, nu
        if step == POLISH_STEPS:
            return None
        try:
            dx, dnu = _Saddle(hess, grads).solve(-f[:n], -f[n:])
        except ValueError:  # np.linalg.LinAlgError, or non-finite entries
            return None
        x, nu = x + dx, nu + dnu


# ---------------------------------------------------------------------------
# KKT assembly and solution.


def _cho_solve(upper, rhs):
    """Solve with an upper Cholesky factor from `scipy.linalg.cho_factor`.

    LAPACK's dpotrs rejects a 0 x 0 factor, the Schur complement of a
    system without equality rows; its empty right side is the solution.
    """
    return scipy.linalg.lapack.dpotrs(upper, rhs)[0] if upper.size else rhs


class _Saddle:
    """Factors of the saddle-point matrix [[H, A'], [A, 0]], H symmetric PSD.

    Dense Cholesky factors of H + REG I and of the Schur complement
    A (H + REG I)^{-1} A' + REG I: the "chol2" reduction of CVXOPT's coneqp.
    The interior-point method passes A with no rows, the polish its
    boundary gradients.  H's diagonal is shifted in place.  Raises
    np.linalg.LinAlgError when either matrix is not definite.
    """

    def __init__(self, h, A):
        h.flat[::h.shape[0] + 1] += REG
        self.A = A
        self.h_factor = scipy.linalg.cho_factor(h)[0]
        self.h_at = _cho_solve(self.h_factor, A.T)
        schur = A @ self.h_at
        schur.flat[::A.shape[0] + 1] += REG
        self.schur_factor = scipy.linalg.cho_factor(schur)[0]

    def solve(self, rx, ry):
        """(x, y) with H x + A'y = rx and A x = ry, up to the regularization."""
        x = _cho_solve(self.h_factor, rx)
        y = _cho_solve(self.schur_factor, self.A @ x - ry)
        x -= self.h_at @ y
        return x, y


class _KktSolver:
    """Solve [[P G'], [G -W^2]] (x, z) = (rx, rz), reduced.

    The cone rows give z = W^{-2}(G x - rz).  With Ghat = W^{-1} G what
    remains is H x = rx + Ghat'W^{-1} rz for H = P + Ghat'Ghat, which
    `factor` hands to `_Saddle`.  J G is kept for the whole solve, so Ghat
    is one rank-one update per block of it.  `solve` refines against the
    full, unregularized system, which takes the regularization back out.
    """

    def __init__(self, P, G, cones):
        self.P, self.G = P, G
        self.n = G.shape[1]
        self._no_rows = np.zeros((0, self.n))
        self._jg = cones.sign[:, None] * G

    def factor(self, scaling: _Scaling):
        """Raises np.linalg.LinAlgError when the reduced matrix is not definite."""
        ghat = scaling.winv_of_j(self._jg)
        self._saddle = _Saddle(self.P + ghat.T @ ghat, self._no_rows)
        self._ghat, self._scaling = ghat, scaling

    def _solve_reduced(self, rx, rz):
        winv_rz = self._scaling.mul_winv(rz)
        x, _ = self._saddle.solve(rx + self._ghat.T @ winv_rz, np.zeros(0))
        z = self._scaling.mul_winv(self._ghat @ x - winv_rz)
        return np.concatenate([x, z])

    def _apply_unreg(self, u):
        x, z = u[:self.n], u[self.n:]
        top = self.P @ x + self.G.T @ z
        bot = self.G @ x - self._scaling.mul_w2(z)
        return np.concatenate([top, bot])

    def solve(self, rx, rz):
        """Refine until the residual's max-norm stops halving; keep the best."""
        n = self.n
        rhs = np.concatenate([rx, rz])
        tol = 1e-14 * max(1.0, np.max(np.abs(rhs)))
        u = self._solve_reduced(rx, rz)
        resid = rhs - self._apply_unreg(u)
        err = np.max(np.abs(resid))
        for _ in range(REFINE_STEPS):
            if err < tol:
                break
            step = u + self._solve_reduced(resid[:n], resid[n:])
            step_resid = rhs - self._apply_unreg(step)
            step_err = np.max(np.abs(step_resid))
            if step_err < err:
                u, resid = step, step_resid
            if not step_err <= 0.5 * err:
                break
            err = step_err
        return u[:n], u[n:]


def solve(problem: ConicProblem, gap_tol: float = 1e-8, feas_tol: float = 1e-8,
          max_iter: int = 100) -> SolveReport:
    """Run the interior-point method; see module docstring for the form."""
    with np.errstate(all="ignore"):
        return _solve_impl(problem, gap_tol, feas_tol, max_iter)


def _solve_impl(problem: ConicProblem, gap_tol: float, feas_tol: float,
                max_iter: int) -> SolveReport:
    cones = _Cones(problem.cones)
    c, P, G, h, dc, drg, cost_scale = _ruiz_equilibrate(
        problem.c, problem.P, problem.cone_lhs, problem.cone_rhs, cones)
    n, m = c.shape[0], G.shape[0]
    e = np.zeros(m)
    e[cones.starts] = 1.0
    deg = cones.degree
    norm_h = max(1.0, np.linalg.norm(h))
    norm_c = max(1.0, np.linalg.norm(c))

    kkt = _KktSolver(P, G, cones)

    # Initial point: least-squares style starts shifted into the cone.
    try:
        kkt.factor(_Scaling(e, e, cones))
    except ValueError:  # np.linalg.LinAlgError, or non-finite entries
        return _report(problem, STATUS_MAXITER, message="KKT factorization failed",
                       iterations=0)
    x, z_init = kkt.solve(np.zeros(n), h.copy())
    s = -z_init
    margin = _cone_margin(s, cones)
    if margin <= 0:
        s = s + (1.0 - margin) * e
    _, z = kkt.solve(-c, np.zeros(m))
    margin = _cone_margin(z, cones)
    if margin <= 0:
        z = z + (1.0 - margin) * e
    tau, kappa = 1.0, 1.0

    trace = []
    status, message = STATUS_MAXITER, "iteration limit reached"
    it = 0
    best = None
    best_merit = np.inf
    for it in range(1, max_iter + 1):
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(z))
                and np.isfinite(tau) and tau > 0 and np.isfinite(kappa)):
            status, message = STATUS_MAXITER, "numerical breakdown (non-finite iterate)"
            break
        px = P @ x
        xpx = x @ px
        rx = px + G.T @ z + c * tau
        rz = G @ x + s - h * tau
        rt = kappa + c @ x + h @ z + xpx / tau
        mu = (s @ z + tau * kappa) / (deg + 1)

        # The quadratic adds +-(1/2) x'P x / tau^2 to the two objectives.
        pcost = (c @ x + 0.5 * xpx / tau) / tau
        dcost = -(h @ z + 0.5 * xpx / tau) / tau
        # Normalized duality gap: absolute complementarity on the equilibrated
        # problem, relative once the objective exceeds unit scale.
        gap = (s @ z / tau ** 2) / max(1.0, abs(pcost))
        pres = np.linalg.norm(rz) / norm_h / tau
        dres = np.linalg.norm(rx) / norm_c / tau
        trace.append({"pcost": pcost, "dcost": dcost, "gap": gap,
                      "pres": pres, "dres": dres, "mu": mu})

        merit = max(pres / feas_tol, dres / feas_tol, gap / gap_tol)
        if np.isfinite(merit) and merit < best_merit:
            best_merit = merit
            best = (x.copy(), z.copy(), s.copy(), tau, kappa, gap, pres, dres)

        if pres <= feas_tol and dres <= feas_tol and gap <= gap_tol:
            status, message = STATUS_OPTIMAL, ""
            break

        hz = h @ z
        if hz < -1e-12:
            cert = np.linalg.norm(G.T @ z) / norm_c
            if cert / (-hz) <= feas_tol and _cone_margin(z, cones) > -feas_tol:
                z = z / (-hz)
                status, message = STATUS_INFEASIBLE, "primal infeasibility certified"
                break
        cx = c @ x
        if cx < -1e-12:
            resid = max(np.linalg.norm(G @ x + s) / norm_h,
                        np.linalg.norm(px) / norm_c)
            if resid / (-cx) <= feas_tol and _cone_margin(s, cones) > -feas_tol:
                x, s = x / (-cx), s / (-cx)
                status, message = STATUS_UNBOUNDED, "dual infeasibility certified"
                break

        scaling = _Scaling(s, z, cones)
        lam = scaling.mul_w(z)
        try:
            kkt.factor(scaling)
        except ValueError:  # np.linalg.LinAlgError, or non-finite entries
            status, message = STATUS_MAXITER, "KKT factorization failed"
            break
        x1, z1 = kkt.solve(-c, h.copy())
        # The tau row linearizes to (c + 2 P xi)'dx - xi'P xi dtau + ... with
        # xi = x / tau.  At the exact KKT solution (c + 2 P xi)'x1 - xi'P xi
        # + h'z1 equals -(x1 - xi)'P(x1 - xi) - ||W z1||^2; the identity
        # form keeps den strictly negative under round-off.
        xi = x / tau
        c_tau = c + 2.0 * (P @ xi)
        dxi = x1 - xi
        den = -(dxi @ P @ dxi + np.sum(scaling.mul_w(z1) ** 2) + kappa / tau)
        if not np.isfinite(den) or den >= 0:
            status, message = STATUS_MAXITER, "numerical breakdown (degenerate step)"
            break

        def direction(eta, d_s, d_kappa):
            wl = scaling.mul_w(_jordan_solve(lam, d_s, cones))
            bz = -eta * rz + wl
            x2, z2 = kkt.solve(-eta * rx, bz)
            num = -eta * rt + d_kappa / tau - (c_tau @ x2 + h @ z2)
            dtau = num / den
            dx = x2 + dtau * x1
            dz = z2 + dtau * z1
            ds = -(wl + scaling.mul_w2(dz))
            dkappa = -(d_kappa + kappa * dtau) / tau
            return dx, dz, ds, dtau, dkappa

        # Predictor.
        d_s_aff = _jordan_mul(lam, lam, cones)
        dxa, dza, dsa, dta, dka = direction(1.0, d_s_aff, tau * kappa)
        alpha_aff = min(1.0, _max_step(s, dsa, cones), _max_step(z, dza, cones))
        if dta < 0:
            alpha_aff = min(alpha_aff, -tau / dta)
        if dka < 0:
            alpha_aff = min(alpha_aff, -kappa / dka)
        mu_aff = ((s + alpha_aff * dsa) @ (z + alpha_aff * dza)
                  + (tau + alpha_aff * dta) * (kappa + alpha_aff * dka)) / (deg + 1)
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

        # Corrector.
        corr = _jordan_mul(scaling.mul_winv(dsa), scaling.mul_w(dza), cones)
        d_s = d_s_aff + corr - sigma * mu * e
        d_kappa = tau * kappa + dta * dka - sigma * mu
        dx, dz, ds, dtau, dkappa = direction(1.0 - sigma, d_s, d_kappa)

        alpha = min(_max_step(s, ds, cones), _max_step(z, dz, cones))
        if dtau < 0:
            alpha = min(alpha, -tau / dtau)
        if dkappa < 0:
            alpha = min(alpha, -kappa / dkappa)
        alpha = min(1.0, STEP_BACKOFF * alpha)
        if not np.isfinite(alpha) or alpha <= 1e-12:
            status, message = STATUS_MAXITER, "step length collapsed"
            break

        x += alpha * dx
        z += alpha * dz
        s += alpha * ds
        tau += alpha * dtau
        kappa += alpha * dkappa

    gap_rep = pres_rep = dres_rep = np.nan
    if trace:
        gap_rep, pres_rep, dres_rep = (trace[-1]["gap"], trace[-1]["pres"],
                                       trace[-1]["dres"])
    if status == STATUS_MAXITER and best is not None:
        # Report the best iterate seen; it met no stopping test, or the
        # loop would have stopped there as optimal.
        x, z, s, tau, kappa, gap_rep, pres_rep, dres_rep = best

    if status in (STATUS_INFEASIBLE, STATUS_UNBOUNDED):
        xs, zs, ss = x, z, s
    else:
        t = tau if tau > 1e-300 else 1.0
        xs, zs, ss = x / t, z / t, s / t
        if status == STATUS_OPTIMAL:
            polished = _polish(P, c, G, h, cones, xs, zs, feas_tol)
            if polished is not None:
                # Report the polished point's own residuals and gap; a point
                # strictly inside every block has no primal residual.
                xs, zs = polished
                ss = h - G @ xs
                gap_rep = abs(ss @ zs) / max(1.0, abs(c @ xs + 0.5 * xs @ P @ xs))
                pres_rep = max(0.0, -_cone_margin(ss, cones) / norm_h)
                dres_rep = np.linalg.norm(P @ xs + c + G.T @ zs) / norm_c

    # Undo equilibration.
    x_orig = dc * xs
    z_orig = cost_scale * drg * zs
    s_orig = ss / drg

    quad = 0.5 * float(xs @ P @ xs)
    pcost = (float(c @ xs) + quad) * cost_scale
    dcost = (float(-(h @ zs)) - quad) * cost_scale
    return SolveReport(
        status=status,
        x=x_orig, z=z_orig, s=s_orig,
        primal_objective=pcost + problem.obj_const,
        dual_objective=dcost + problem.obj_const,
        duality_gap=float(gap_rep),
        primal_residual=float(pres_rep),
        dual_residual=float(dres_rep),
        iterations=it,
        message=message,
        trace=trace,
    )


def _report(problem, status, message, iterations):
    n = problem.num_vars
    m = problem.cone_lhs.shape[0]
    return SolveReport(
        status=status,
        x=np.zeros(n), z=np.zeros(m), s=np.zeros(m),
        primal_objective=np.nan, dual_objective=np.nan,
        duality_gap=np.nan, primal_residual=np.nan, dual_residual=np.nan,
        iterations=iterations, message=message,
    )
