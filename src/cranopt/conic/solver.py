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
Newton system is reduced to a definite system H x = r with
H = P + G'W^{-2} G.  G and P's pattern are read once per solve from
their nonzeros (`_ConeRows`): H is P, a weighted sum of each block's tail
Gram and the products of two rows per block, with no dense product over G.
P and the tail Grams couple only the columns within the blocks of one
partition of the columns into consecutive ranges, so H is a
block-diagonal B plus rank rows.  Each tail row is kept once, stacked by
those blocks and padded to one shape, so the weighted Gram sum is one
batched product that returns B's blocks.  They are Cholesky-factored
together and the rank rows are added in two Woodbury stages with definite
capacitances; below 128 columns H is one dense block with the Grams and
the rank rows added in (the size rule of `_ConeRows`).  Each solve applies
G and W^{-1} to vectors and the factors, refines once against H, and
corrects the stationarity rows once against the full system (`_KktSolver`).

An optimal answer is then polished by Newton's method on the KKT system of
its active cone blocks, which the interior-point iterate only approaches as
the square root of its duality gap.  Each polish step solves the
regularized saddle-point system [[H + REG I, A'], [A, -REG I]] of its
boundary gradients A, which is quasi-definite (Vanderbei 1995), with one
dense LU solve; its Hessian H takes the same stacked tail rows.  The
active set grows by every block that a settled polish point leaves.

The solver knows variables only by position: a `ConicProblem` holds the
arrays above and no names.  `SolveReport.x` comes back in the caller's
column order, and `z` and `s` in the caller's cone row order.

Data is Ruiz-equilibrated, over the nonzeros of P and G, before solving;
the reported residuals and duality gap are those of the returned answer on
the normalized problem (the polished point, else the iterate that stopped
the loop, as measured by the loop), while objective values are in the
caller's units.  The stopping rule is three module constants: `GAP_TOL` on
the gap, `FEAS_TOL` on the residuals, the infeasibility certificates and the
polish's active set, and `MAX_ITER` iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ConicProblem", "SolveReport", "SolverError", "solve"]

GAP_TOL = 1e-8         # normalized duality gap of an optimal exit
FEAS_TOL = 1e-7        # normalized residuals of an optimal exit and of certificates
MAX_ITER = 200         # interior-point iterations before a max_iterations exit
STEP_BACKOFF = 0.99
REG = 1e-9             # static KKT regularization (undone by the full-system correction)
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
        jv = self.cones.sign * v
        coef = np.add.reduceat(self.u * jv, self.cones.starts) / self.u0
        return (self.ju * coef[self.cones.owner] - jv) / self.beta


# ---------------------------------------------------------------------------
# Equilibration.


def _runs(keys):
    """(first index, value) of each run of equal values in the sorted `keys`."""
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    return first, keys[first]


def _nonzeros(A):
    """Row, column and value of each nonzero of A, in row-major order."""
    at = np.flatnonzero(A != 0)   # faster than np.flatnonzero(A)
    return *np.divmod(at, A.shape[1]), A.ravel()[at]


def _scale(maxima):
    """Ruiz scales from largest |entries|: the root, floored at 1e-8, and 1
    for all-zero entries (a floor would scale h or c by 1e8 per sweep)."""
    return np.where(maxima > 0, np.maximum(np.sqrt(np.maximum(maxima, 1e-16)), 1e-8), 1.0)


def _ruiz_equilibrate(c, P, G, h, cones):
    """Row/column scaling; SOC row blocks share one scale to keep cone shape.

    The column scaling D, taken over the columns of P and G, scales the
    objective to D P D and D c; one cost scale then brings both to at most
    unit size.  The sweeps run over the nonzeros of P and G alone and do the
    arithmetic of dense sweeps on each entry; P is symmetric, so its column
    maxima are its row maxima.
    """
    m, n = G.shape
    dr_g = np.ones(m)
    dc = np.ones(n)
    gr, gc, gv = _nonzeros(G)
    pr, pc, pv = _nonzeros(P)
    bycol = np.argsort(gc, kind="stable")
    g_rows, g_cols, p_rows = _runs(gr), _runs(gc[bycol]), _runs(pr)
    for _ in range(RUIZ_ITERS):
        rowmax = np.zeros(m)
        rowmax[g_rows[1]] = np.maximum.reduceat(np.abs(gv), g_rows[0])
        rg = _scale(np.maximum.reduceat(rowmax, cones.starts))[cones.owner]
        gv /= rg[gr]
        dr_g /= rg
        colmax = np.zeros(n)
        colmax[p_rows[1]] = np.maximum.reduceat(np.abs(pv), p_rows[0])
        colmax[g_cols[1]] = np.maximum(colmax[g_cols[1]],
                                       np.maximum.reduceat(np.abs(gv)[bycol], g_cols[0]))
        cnorm = _scale(colmax)
        pv /= cnorm[pr] * cnorm[pc]
        gv /= cnorm[gc]
        dc /= cnorm
    cs = c * dc
    cost_scale = max(1.0, np.abs(cs).max(initial=0.0), np.abs(pv).max(initial=0.0))
    Ps, Gs = np.zeros((n, n)), np.zeros((m, n))
    Ps[pr, pc] = pv / cost_scale
    Gs[gr, gc] = gv
    return cs / cost_scale, Ps, Gs, h * dr_g, dc, dr_g, cost_scale


# ---------------------------------------------------------------------------
# The rows of G by cone block.


def _column_blocks(n, lo, hi):
    """Ends of the finest partition of range(n) into consecutive ranges that
    no span lo[i]..hi[i] (lo[i] <= hi[i]) crosses."""
    reach = np.arange(n)
    np.maximum.at(reach, lo, hi)
    return np.flatnonzero(np.maximum.accumulate(reach) == np.arange(n)) + 1


class _ConeRows:
    """G read by cone block, and the columns partitioned, once per solve.

    Block k has head row g0 (``heads[k]``) and tail rows G1.  The KKT
    matrix and the polish Hessian need P, a weighted sum of the blocks'
    tail Grams G1'G1, and per-block sums u1'G1 of the tail rows.  The
    columns are cut into the finest consecutive ranges that no tail row and
    no nonzero of P crosses, so P and every tail Gram lie on the diagonal
    blocks of that one partition.  Where P couples columns that no tail row
    couples, those blocks are coarser than the tail rows need; the builders
    build P by stream, so theirs never are.

    Each nonzero tail row is kept once: ``tails[b]`` holds the tail rows in
    partition block b, cut to its columns and padded with zero rows and
    columns to one shape (blocks x rows x width).  ``_cone`` gives each
    row's cone block, and a pad row an appended zero weight, so `gram_sum`
    is one batched product T'(wT), the partition's diagonal blocks in the
    padded layout that `_KktSolver` factors by blocks.  Its entries
    ``inside`` are the entries ``at`` of an n x n matrix, which scatters
    them into a dense H.

    ``sizes`` are the sizes of the diagonal blocks of B that `_KktSolver`
    factors: the partition's, or one block of all n columns where the size
    rule says so: below n = 128 columns, or where B would not be definite
    by itself (a column in no tail row and off P's diagonal).  Measured on
    the builders' problems (blocks of 16 or 32 columns), one interior-point
    iteration by blocks takes 0.62x the dense time at n = 256, 0.81x at
    n = 128, 0.93-0.96x at n = 80 and 1.15x at n = 20 with blocks of 4.
    """

    def __init__(self, P, G, cones):
        n = G.shape[1]
        self.G, self.cones = G, cones
        self.heads = G[cones.starts]
        rows, cols, vals = _nonzeros(G)
        in_tail = cones.tail[rows] > 0
        self._rows, cols, self._vals = rows[in_tail], cols[in_tail], vals[in_tail]
        self._block_col = cones.owner[self._rows] * n + cols
        first = _runs(self._rows)[0]
        count = np.diff(first, append=self._rows.size)
        pr, pc, _ = _nonzeros(P)
        ends = _column_blocks(n, np.concatenate([cols[first], pr]),
                              np.concatenate([cols[first + count - 1], pc]))
        self.live = np.flatnonzero(self.heads.any(axis=1))   # blocks with a nonzero head row
        sizes = np.diff(ends, prepend=0)
        definite = (np.bincount(cols, minlength=n) > 0) | (np.diag(P) != 0)
        self.sizes = sizes if n >= 128 and definite.all() else np.array([n])
        width, start = sizes.max(initial=0), ends - sizes
        real = np.arange(width) < sizes[:, None]
        self.inside = np.flatnonzero(real[:, :, None] & real[:, None, :])
        b, i, j = np.unravel_index(self.inside, (sizes.size, width, width))
        self.at = (start[b] + i) * n + start[b] + j
        # Tail row r lies in partition block part[r], at slot[r] of its rows there.
        part = np.searchsorted(ends, cols[first], side="right")
        order = np.argsort(part, kind="stable")
        slot = np.empty_like(part)
        slot[order] = np.arange(part.size) - np.searchsorted(part[order], part[order])
        self.tails = np.zeros((sizes.size, slot.max(initial=-1) + 1, width))
        row = np.repeat(np.arange(first.size), count)
        self.tails[part[row], slot[row], cols - start[part[row]]] = self._vals
        self._cone = np.full(self.tails.shape[:2], cones.degree)
        self._cone[part, slot] = cones.owner[self._rows[first]]

    def tail_sums(self, u):
        """(K, n) array of u1'G1 per block."""
        k, n = self.heads.shape
        return np.bincount(self._block_col, weights=u[self._rows] * self._vals,
                           minlength=k * n).reshape(k, n)

    def gram_sum(self, weights):
        """sum_k weights[k] G1_k'G1_k as the partition's padded diagonal blocks."""
        w = np.append(weights, 0.0)[self._cone][..., None]
        return _t(self.tails) @ (w * self.tails)


# ---------------------------------------------------------------------------
# Polishing.


def _polish(P, c, rows, h, x, z):
    """Newton's method on the KKT system of the blocks active at (x, z).

    An interior-point iterate at duality gap g can sit O(sqrt(g)) from the
    solution along the boundary of an active cone (the primal and dual
    blocks are not yet exactly opposite).  Holding each active block k on
    its boundary with z_k = nu_k (1, -s_k1 / ||s_k1||), s = h - G x,
    Newton's method on stationarity and those boundaries converges to
    working precision.  The active set starts as the blocks whose z_k0
    exceeds the margin s_k0 - ||s_k1||; a block that the settled point
    leaves by more than FEAS_TOL joins it, and Newton restarts from (x, z).
    Returns the polished (x, z), or None when Newton does not settle or a
    multiplier nu_k falls below -FEAS_TOL (a block held on its boundary
    with nu_k = 0 is weakly active).
    """
    G, cones = rows.G, rows.cones
    heads = cones.starts
    active = z[heads] > cones.margins(h - G @ x)
    while True:
        settled = _boundary_newton(P, c, rows, h, active, x, z[heads[active]])
        if settled is None:
            return None
        xp, zp, nu = settled
        margins = cones.margins(h - G @ xp)
        left = ~active & (margins <= -FEAS_TOL)
        if not left.any():
            break
        active |= left
    if np.all(nu > -FEAS_TOL) and margins.min() > -FEAS_TOL:
        return xp, zp
    return None


def _boundary_newton(P, c, rows, h, active, x, nu):
    """Newton from (x, nu) with the `active` blocks on their boundaries.

    Returns (x, z, nu) once the KKT residual is below 1e-13, or None.
    """
    G, cones = rows.G, rows.cones
    on = active[cones.owner]
    n = x.size
    nu_all = np.zeros(cones.degree)
    for step in range(POLISH_STEPS + 1):
        s = h - G @ x
        norm1 = np.maximum(np.sqrt(cones.tail_dot(s, s)), 1e-300)
        u = -s / norm1[cones.owner]
        u[cones.starts] = 1.0
        nu_all[active] = nu
        z = np.zeros(G.shape[0])
        z[on] = (nu_all[cones.owner] * u)[on]
        resid = (norm1 - s[cones.starts])[active]
        f = np.concatenate([P @ x + c + G.T @ z, resid])
        if np.max(np.abs(f)) <= 1e-13:
            return x, z, nu
        if step == POLISH_STEPS:
            return None
        # Block k adds nu_k (g1'g1 - g1'u1 u1'g1) / ||s_k1|| to the Hessian,
        # where g1 is its tail rows of G; a dimension-1 block has no tail.
        weight = np.where(cones.dims > 1, nu_all / norm1, 0.0)
        g1u = rows.tail_sums(u)[active]
        hess = P - (g1u * weight[active, None]).T @ g1u
        hess.reshape(-1)[rows.at] += rows.gram_sum(weight).reshape(-1)[rows.inside]
        grads = g1u + rows.heads[active]
        # With hess + REG I definite, the -REG I block keeps the bordered
        # matrix nonsingular even when the active gradients are dependent.
        hess.flat[::n + 1] += REG
        kkt = np.block([[hess, grads.T], [grads, -REG * np.eye(grads.shape[0])]])
        try:
            delta = np.linalg.solve(kkt, -f)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(delta)):  # a non-finite system solves silently
            return None
        x, nu = x + delta[:n], nu + delta[n:]


# ---------------------------------------------------------------------------
# KKT assembly and solution.


def _t(a):
    """The transpose of each matrix in a stack."""
    return np.swapaxes(a, -1, -2)


def _chol_inv(H):
    """inv(L) for the Cholesky factor L of a definite H = L L', by halves.

    H may be a stack of matrices of one size, factored together.  With
    H = [[A, B'], [B, C]], A = L1 L1', M = B inv(L1)' and C - M M' = L2 L2':
    L = [[L1, 0], [M, L2]], and
    inv(L) = [[inv(L1), 0], [-inv(L2) M inv(L1), inv(L2)]].  Blocks of at
    most 32 rows go to np.linalg.cholesky, which raises
    np.linalg.LinAlgError on one that is not definite, and to np.linalg.inv.
    The rest is matrix products, which from about 128 rows up take less time
    than np.linalg.cholesky alone takes on the whole of H.
    """
    n = H.shape[-1]
    if n <= 32:
        return np.linalg.inv(np.linalg.cholesky(H))
    k = n // 2
    a_inv = _chol_inv(H[..., :k, :k])
    m = H[..., k:, :k] @ _t(a_inv)
    c_inv = _chol_inv(H[..., k:, k:] - m @ _t(m))
    out = np.zeros_like(H)
    out[..., :k, :k] = a_inv
    out[..., k:, k:] = c_inv
    out[..., k:, :k] = -c_inv @ (m @ a_inv)
    return out


class _KktSolver:
    """Solve [[P G'], [G -W^2]] (x, z) = (rx, rz), reduced.

    The cone rows give W z = W^{-1}(G x - rz).  What remains is
    H x = rx + Ghat'W^{-1} rz for H = P + Ghat'Ghat, Ghat = W^{-1} G, which
    `factor` shifts by REG I.  Ghat is never formed.  With the NT point w
    of block k's scaling (w0 = u0 - 1, w1 = u1), head row g0, tail rows G1,
    t = u1'G1 and a = w0 g0 - t, W_k^{-2} = J (2 w w' - J) J / beta^2, so

        Ghat_k'Ghat_k = (G1'G1 + 2 a a' - g0 g0') / beta^2.

    The tail Grams G1'G1, like P, couple only the columns of one block of
    the partition that `_ConeRows` finds (for the builders, one block per
    stream).  So H = B + A'A - M'M: B is block-diagonal (P, the weighted
    tail Grams and REG I), and the rank rows are A, the rows
    sqrt(2) a / beta, and M, the nonzero rows g0 / beta.

    `factor` Cholesky-factors B's blocks together (`_chol_inv`), padded with
    identity to one size: the layout in which `rows.gram_sum` returns the
    weighted Grams.  It then adds A by Woodbury's identity, whose
    capacitance I + A inv(B) A' is definite, and subtracts M by a second
    stage, whose capacitance I - M inv(B + A'A) M' is definite because H is:
    inv(H) = inv(B) - Yh Yh' + Zh Zh', where Yh is inv(B) A' and Zh is
    inv(B + A'A) M', each times the inverse transposed Cholesky factor of
    its stage's capacitance.  Where the size rule keeps the columns one
    block (``rows.sizes``), B is all of H: the Grams are scattered into it
    and the rank rows go into it, in the form a a' + v1 v1' - p p' with
    p = t/|u1| and v1 = p - |u1| (g0 - t/u0), which is more accurate in one
    dense sum, and no Woodbury stage is left.  `_rank_rows` gives either
    form.

    A reduced solve applies inv(H) and refines once against the shifted H,
    applied as B plus the rank rows, which makes the solve backward stable
    (Skeel 1980).  `solve` applies G, G' and W^{-1} to vectors, as
    Ghat'y = G'W^{-1} y, and corrects the stationarity rows once against
    the full, unregularized system, which takes REG back out.
    """

    def __init__(self, P, rows):
        self.P, self.G, self.rows = P, rows.G, rows
        sizes = rows.sizes
        # Column j sits at self._at[j] of the blocks padded to one size
        # (None when no block is padded), and a padded vector meets the
        # blocks in shape self._shape.  One block, H itself, takes no stack
        # axis, whose matrix products cost time at small n.  P's entries
        # are those at ``rows.at``: by blocks they go to ``rows.inside``.
        width = sizes.max()
        real = np.arange(width) < sizes[:, None]
        self._at = None if real.all() else np.flatnonzero(real)
        self._shape = (P.shape[0],) if sizes.size == 1 else (sizes.size, width, 1)
        self._p_blocks = np.zeros((sizes.size, width, width))
        to = rows.at if sizes.size == 1 else rows.inside
        self._p_blocks.reshape(-1)[to] = P.reshape(-1)[rows.at]
        pad = np.flatnonzero(~real)
        self._p_blocks.reshape(-1)[pad * width + pad % width] = 1.0

    def _rank_rows(self, scaling):
        """The rows added (plus) and subtracted (minus) to B to make H.

        One block takes a, v1 / beta and p / beta; blocks take the
        definite form, sqrt(2) a and the nonzero g0 / beta.
        """
        rows, cones = self.rows, self.rows.cones
        beta = scaling.beta[cones.starts][:, None]
        t = rows.tail_sums(scaling.u)
        a = ((scaling.u0[:, None] - 1.0) * rows.heads - t) / beta
        if self._p_blocks.shape[0] > 1:
            return np.sqrt(2.0) * a, rows.heads[rows.live] / beta[rows.live]
        norm1 = np.sqrt(cones.tail_dot(scaling.u, scaling.u))[:, None]
        tail = norm1[:, 0] > 0
        proj = t[tail] / norm1[tail]
        v1 = proj - norm1[tail] * (rows.heads[tail] - t[tail] / scaling.u0[tail, None])
        return np.vstack([a, v1 / beta[tail]]), proj / beta[tail]

    def factor(self, scaling: _Scaling):
        """Raises np.linalg.LinAlgError when the reduced matrix is not finite and definite."""
        rows, cones = self.rows, self.rows.cones
        blocks, width = self._p_blocks.shape[:2]
        plus, minus = self._rank_rows(scaling)
        gram = rows.gram_sum(1.0 / scaling.beta[cones.starts] ** 2)
        if blocks == 1:
            # One block is all of H: the rank rows and the Grams go into it.
            h = plus.T @ plus
            h -= minus.T @ minus
            h += self._p_blocks[0]
            h.reshape(-1)[rows.at] += gram.reshape(-1)[rows.inside]
            plus, minus = plus[:0], minus[:0]
        else:
            h = self._p_blocks + gram
        h.reshape(blocks, -1)[:, ::width + 1] += REG
        rank = self._padded(np.vstack([plus, minus]))
        # np.linalg.cholesky factors a matrix with NaN or inf entries silently.
        if not (np.isfinite(h).all() and np.isfinite(rank).all()):
            raise np.linalg.LinAlgError("reduced KKT matrix has non-finite entries")
        self._h, self._scaling, self._linv, self._rank = h, scaling, _chol_inv(h), rank
        self._linv_t = _t(self._linv)
        if not rank.size:
            return
        self._sign = np.repeat([1.0, -1.0], [plus.shape[0], minus.shape[0]])
        plus, minus = rank[:plus.shape[0]], rank[plus.shape[0]:]
        binv = lambda v: (self._linv_t @ (self._linv @ v.reshape(blocks, width, v.shape[1]))
                          ).reshape(v.shape)
        y = binv(plus.T)
        yh = y @ _t(_chol_inv(np.eye(y.shape[1]) + plus @ y))
        z = binv(minus.T) - yh @ (yh.T @ minus.T)
        zh = z @ _t(_chol_inv(np.eye(z.shape[1]) - minus @ z))
        self._u = np.hstack([yh, zh])

    def _padded(self, v):
        """v (..., n) with each column at its place in B's padded blocks."""
        if self._at is None:
            return v
        out = np.zeros(v.shape[:-1] + (self._p_blocks.shape[0] * self._p_blocks.shape[1],))
        out[..., self._at] = v
        return out

    def _mul_hinv(self, v):
        """inv(H) v for v in B's shape: inv(B) v - Yh Yh'v + Zh Zh'v."""
        x = self._linv_t @ (self._linv @ v)
        if self._rank.size:
            x -= (self._u @ (self._sign * (self._u.T @ v.reshape(-1)))).reshape(x.shape)
        return x

    def _solve_reduced(self, r):
        r = self._padded(r).reshape(self._shape)
        x = self._mul_hinv(r)
        hx = self._h @ x
        if self._rank.size:
            hx += (self._rank.T @ (self._sign * (self._rank @ x.reshape(-1)))).reshape(x.shape)
        x += self._mul_hinv(r - hx)
        x = x.reshape(-1)
        return x if self._at is None else x[self._at]

    def solve(self, rx, rz):
        """The reduced solve plus one correction of the stationarity rows."""
        winv, G = self._scaling.mul_winv, self.G
        q = winv(rz)
        x = self._solve_reduced(rx + G.T @ winv(q))
        wz = winv(G @ x) - q
        # The cone rows G x - W^2 z = rz hold as W z = W^{-1}(G x - rz) by
        # construction, so only the stationarity rows carry a residual, REG's.
        dx = self._solve_reduced(rx - self.P @ x - G.T @ winv(wz))
        return x + dx, winv(wz + winv(G @ dx))


@np.errstate(all="ignore")
def solve(problem: ConicProblem) -> SolveReport:
    """Run the interior-point method; see module docstring for the form."""
    cones = _Cones(problem.cones)
    c, P, G, h, dc, drg, cost_scale = _ruiz_equilibrate(
        problem.c, problem.P, problem.cone_lhs, problem.cone_rhs, cones)
    n, m = c.shape[0], G.shape[0]
    e = np.zeros(m)
    e[cones.starts] = 1.0
    deg = cones.degree
    norm_h = max(1.0, np.linalg.norm(h))
    norm_c = max(1.0, np.linalg.norm(c))

    rows = _ConeRows(P, G, cones)
    kkt = _KktSolver(P, rows)

    # Initial point: least-squares style starts shifted into the cone.
    try:
        kkt.factor(_Scaling(e, e, cones))
    except np.linalg.LinAlgError:
        return SolveReport(STATUS_MAXITER, np.zeros(n), np.zeros(m), np.zeros(m),
                           *[np.nan] * 5, iterations=0, message="KKT factorization failed")
    x, z_init = kkt.solve(np.zeros(n), h)
    s = -z_init
    margin = cones.margins(s).min()
    if margin <= 0:
        s = s + (1.0 - margin) * e
    _, z = kkt.solve(-c, np.zeros(m))
    margin = cones.margins(z).min()
    if margin <= 0:
        z = z + (1.0 - margin) * e
    tau, kappa = 1.0, 1.0

    trace = []
    status, message = STATUS_MAXITER, "iteration limit reached"
    it = 0
    for it in range(1, MAX_ITER + 1):
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

        if pres <= FEAS_TOL and dres <= FEAS_TOL and gap <= GAP_TOL:
            status, message = STATUS_OPTIMAL, ""
            break

        hz = h @ z
        if hz < -1e-12:
            cert = np.linalg.norm(G.T @ z) / norm_c
            if cert / (-hz) <= FEAS_TOL and cones.margins(z).min() > -FEAS_TOL:
                z = z / (-hz)
                status, message = STATUS_INFEASIBLE, "primal infeasibility certified"
                break
        cx = c @ x
        if cx < -1e-12:
            resid = max(np.linalg.norm(G @ x + s) / norm_h,
                        np.linalg.norm(px) / norm_c)
            if resid / (-cx) <= FEAS_TOL and cones.margins(s).min() > -FEAS_TOL:
                x, s = x / (-cx), s / (-cx)
                status, message = STATUS_UNBOUNDED, "dual infeasibility certified"
                break
        if it == MAX_ITER:  # stop on the iterate just measured, not one step past it
            break

        scaling = _Scaling(s, z, cones)
        lam = scaling.mul_w(z)
        try:
            kkt.factor(scaling)
        except np.linalg.LinAlgError:
            status, message = STATUS_MAXITER, "KKT factorization failed"
            break
        x1, z1 = kkt.solve(-c, h)
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
            ds = -(wl + scaling.mul_w(scaling.mul_w(dz)))
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

    if status in (STATUS_INFEASIBLE, STATUS_UNBOUNDED):
        xs, zs, ss = x, z, s
    else:
        t = tau if tau > 1e-300 else 1.0
        xs, zs, ss = x / t, z / t, s / t
        if status == STATUS_OPTIMAL:
            polished = _polish(P, c, rows, h, xs, zs)
            if polished is not None:
                # Report the polished point's own residuals and gap; a point
                # strictly inside every block has no primal residual.
                xs, zs = polished
                ss = h - G @ xs
                gap_rep = abs(ss @ zs) / max(1.0, abs(c @ xs + 0.5 * xs @ P @ xs))
                pres_rep = max(0.0, -cones.margins(ss).min() / norm_h)
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

