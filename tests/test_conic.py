import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cranopt.conic import ConicProblem, SolverError, solve, solver


def conic(c, G, h, cones, P=None):
    """Problem data for min x'Px/2 + c'x s.t. G x + s = h, s in `cones`."""
    c = np.asarray(c, dtype=float)
    return ConicProblem(
        c=c, P=np.zeros((c.size, c.size)) if P is None else np.asarray(P, dtype=float),
        cone_lhs=np.asarray(G, dtype=float), cone_rhs=np.asarray(h, dtype=float),
        cones=tuple(cones))


NONNEG = ("nonneg", 1)


class TestSmallProblems:
    def test_one_variable_lp(self):
        # min x s.t. x >= 1.
        report = solve(conic([1.0], [[-1.0]], [-1.0], [NONNEG]))
        assert report.optimal
        assert report.primal_objective == pytest.approx(1.0, abs=1e-8)
        assert report.x[0] == pytest.approx(1.0, abs=1e-7)

    def test_euclidean_norm(self):
        # min t s.t. ||(3, 4)|| <= t.
        report = solve(conic([1.0], [[-1.0], [0.0], [0.0]], [0.0, 3.0, 4.0],
                             [("soc", 3)]))
        assert report.optimal
        assert report.x[0] == pytest.approx(5.0, abs=1e-7)

    def test_infeasible_certified(self):
        # x >= 2 and x <= 1.
        report = solve(conic([1.0], [[-1.0], [1.0]], [-2.0, 1.0], [NONNEG, NONNEG]))
        assert report.status == "infeasible"

    def test_unbounded_certified(self):
        # min x s.t. x <= 1.
        report = solve(conic([1.0], [[1.0]], [1.0], [NONNEG]))
        assert report.status == "unbounded"

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(SolverError):
            ConicProblem(c=np.ones(2), P=np.zeros((2, 2)), cone_lhs=np.ones((2, 2)),
                         cone_rhs=np.ones(2), cones=(("nonneg", 1),))
        with pytest.raises(SolverError):
            conic([1.0, 1.0], -np.eye(2), [0.0, 0.0], [NONNEG, NONNEG], P=np.eye(3))


def ball(c, P, radius):
    """min x'Px/2 + c'x s.t. ||x|| <= radius."""
    n = len(c)
    return conic(c, -np.vstack([np.zeros((1, n)), np.eye(n)]),
                 np.concatenate([[radius], np.zeros(n)]), [("soc", n + 1)], P=P)


class TestQuadraticObjective:
    @pytest.mark.parametrize("reach", [0.5, 2.0])
    def test_ball_closed_form(self, reach):
        # With P = a I the minimizer is -c/a when that lies in the ball
        # (||c||/a = reach * radius < radius), and -radius c/||c|| on its
        # boundary otherwise.
        rng = np.random.default_rng(12)
        for _ in range(5):
            a, radius = rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0)
            c = rng.standard_normal(3)
            c *= reach * radius * a / np.linalg.norm(c)
            report = solve(ball(c, a * np.eye(3), radius))
            assert report.optimal
            x_star = -c / a if reach < 1 else -radius * c / np.linalg.norm(c)
            assert report.x == pytest.approx(x_star, abs=1e-9)
            f_star = 0.5 * a * x_star @ x_star + c @ x_star
            assert report.primal_objective == pytest.approx(f_star, abs=1e-9)
            assert report.dual_objective == pytest.approx(f_star, abs=1e-7)

    def test_polish_lands_on_the_active_cone(self):
        # On the ball's boundary the interior-point iterate stops ~1e-9 from
        # the answer; the Newton polish lands on it, and the reported gap and
        # residuals are those of the polished point.
        rng = np.random.default_rng(12)
        for _ in range(3):
            a, radius = rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0)
            c = rng.standard_normal(3)
            c *= 2.0 * radius * a / np.linalg.norm(c)
            report = solve(ball(c, a * np.eye(3), radius))
            assert report.x == pytest.approx(-radius * c / np.linalg.norm(c), abs=1e-13)
            assert max(report.duality_gap, report.primal_residual,
                       report.dual_residual) <= 1e-13

    def test_polish_projects_onto_the_lorentz_cone(self):
        # min ||x - p||^2 / 2 s.t. x in the cone: for |p0| < ||p1|| the
        # answer ((p0 + ||p1||) / 2)(1, p1 / ||p1||) is on the boundary with
        # the head row of G = -I in play, so the polish's Newton Hessian has
        # to weight the block's tail rows only.
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = int(rng.integers(2, 8))
            p = rng.standard_normal(d)
            norm1 = np.linalg.norm(p[1:])
            p[0] = rng.uniform(-0.9, 0.9) * norm1
            report = solve(conic(-p, -np.eye(d), np.zeros(d), [("soc", d)],
                                 P=np.eye(d)))
            assert report.optimal
            expect = (p[0] + norm1) / 2.0 * np.concatenate([[1.0], p[1:] / norm1])
            assert report.x == pytest.approx(expect, abs=1e-13)

    def test_polish_grows_its_active_set(self):
        # Project p onto the unit ball starting from a guess with no active
        # block: Newton settles at p, outside the ball, so the ball's block
        # joins the active set and the restarted Newton lands on p / ||p||.
        rng = np.random.default_rng(14)
        for _ in range(5):
            d = int(rng.integers(2, 6))
            p = rng.standard_normal(d)
            p *= rng.uniform(1.5, 4.0) / np.linalg.norm(p)
            G = np.vstack([np.zeros(d), -np.eye(d)])
            h = np.concatenate([[1.0], np.zeros(d)])
            cones = solver._Cones([("soc", d + 1)])
            x0 = 0.99 * p / np.linalg.norm(p)
            polished = solver._polish(np.eye(d), -p, G, h, cones, x0, np.zeros(d + 1), 1e-8)
            assert polished is not None
            x, z = polished
            assert x == pytest.approx(p / np.linalg.norm(p), abs=1e-13)
            assert z[0] == pytest.approx(np.linalg.norm(p) - 1.0, abs=1e-12)

    def test_polish_rejects_a_negative_multiplier(self):
        # min (x - 0.5)^2 / 2 s.t. x <= 1, started with the bound active: held
        # on the boundary, stationarity needs nu = -0.5 < -feas_tol.
        cones = solver._Cones([NONNEG])
        assert solver._polish(np.eye(1), np.array([-0.5]), np.eye(1), np.ones(1), cones,
                              np.array([0.99]), np.ones(1), 1e-8) is None

    def test_rejected_polish_reports_the_last_iterate(self, monkeypatch):
        # With no Newton step allowed the polish never settles; the answer is
        # the optimal iterate, with its own gap and residuals.
        monkeypatch.setattr(solver, "POLISH_STEPS", 0)
        c = np.array([2.0, -1.0, 0.5])
        report = solve(ball(c, np.eye(3), 1.0))
        assert report.optimal
        last = report.trace[-1]
        assert (report.duality_gap, report.primal_residual, report.dual_residual) == (
            last["gap"], last["pres"], last["dres"])
        assert max(last["gap"], last["pres"], last["dres"]) > 1e-13

    def test_polish_accepts_a_zero_multiplier(self):
        # min (x - 1)^2 / 2 s.t. x <= 1: the bound holds at the optimum with
        # multiplier 0, where the iterate is still O(sqrt(gap)) short of 1.
        report = solve(conic([-1.0], [[1.0]], [1.0], [NONNEG], P=[[1.0]]))
        assert report.optimal
        assert report.x[0] == pytest.approx(1.0, abs=1e-13)

    def test_quadratic_bounds_an_unbounded_linear_part(self):
        # min x^2/2 - x s.t. x <= 10: -x alone is unbounded below, the
        # quadratic puts the optimum at x = 1.
        report = solve(conic([-1.0], [[1.0]], [10.0], [NONNEG], P=[[1.0]]))
        assert report.optimal
        assert report.x[0] == pytest.approx(1.0, abs=1e-9)
        assert report.primal_objective == pytest.approx(-0.5, abs=1e-9)

    def test_unbounded_along_null_space_of_P(self):
        # min x1^2/2 + x2 s.t. x2 <= 1: x2 -> -inf costs nothing quadratic.
        report = solve(conic([0.0, 1.0], [[0.0, 1.0]], [1.0], [NONNEG],
                             P=np.diag([1.0, 0.0])))
        assert report.status == "unbounded"
        assert report.x[1] < 0
        assert abs(report.x[0]) <= 1e-6 * abs(report.x[1])


def random_socp(rng, n):
    """Bounded random SOCP: min c'x, ||x|| <= 3, two random SOC constraints."""
    c = rng.standard_normal(n)
    rows = [np.zeros((1, n)), np.eye(n)]   # slack s = rows x + h, so G = -rows
    h = [3.0] + [0.0] * n
    cons = []
    for _ in range(2):
        mat = rng.standard_normal((3, n))
        off = rng.standard_normal(3)
        lin = rng.standard_normal(n) * 0.5
        rhs = np.linalg.norm(off) + 1.0 + rng.random()
        # ||mat x + off|| <= lin x + rhs
        rows += [lin[None, :], mat]
        h += [rhs, *off]
        cons.append((mat, off, lin, rhs))
    problem = conic(c, -np.vstack(rows), h, [("soc", n + 1), ("soc", 4), ("soc", 4)])
    return problem, c, cons


def _grid_best(center, step, reach, c, cons):
    """Best feasible point of a dense grid centered at `center`."""
    n = center.shape[0]
    axes = [center[d] + step * np.arange(-reach, reach + 1) for d in range(n)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    feas = np.linalg.norm(mesh, axis=1) <= 3.0
    for mat, off, lin, rhs in cons:
        lhs = np.linalg.norm(mesh @ mat.T + off, axis=1)
        feas &= lhs <= mesh @ lin + rhs
    if not feas.any():
        return None, np.inf
    vals = mesh[feas] @ c
    idx = np.argmin(vals)
    return mesh[feas][idx], float(vals[idx])


def brute_force_oracle(c, cons, n):
    """Projected-gradient/grid oracle, fully independent of the cone solver.

    A dense feasibility-filtered grid localizes the (convex) problem's
    basin; gradient-based constrained refinement from the grid point and a
    spread of other starts then polishes the value.  The oracle is the best
    feasible value either stage finds.
    """
    import scipy.optimize as opt

    best_x, best_val = np.zeros(n), np.inf
    step = 0.75
    for _ in range(6):
        for _ in range(40):  # slide the window at this resolution
            x, val = _grid_best(best_x, step, 4, c, cons)
            if x is None or val >= best_val - 1e-15:
                break
            best_x, best_val = x, val
        step /= 3.0

    constraints = [{"type": "ineq", "fun": lambda x: 9.0 - x @ x}]
    for mat, off, lin, rhs in cons:
        constraints.append({
            "type": "ineq",
            "fun": lambda x, m=mat, o=off, l=lin, r=rhs:
                (l @ x + r) - np.linalg.norm(m @ x + o)})

    def feasible(x):
        return all(con["fun"](x) >= -1e-9 for con in constraints)

    rng = np.random.default_rng(0)
    starts = [best_x] + [rng.standard_normal(n) * 0.5 for _ in range(6)]
    refined = best_val
    for x0 in starts:
        res = opt.minimize(lambda x: c @ x, x0, constraints=constraints,
                           method="SLSQP",
                           options={"maxiter": 400, "ftol": 1e-14})
        if res.success and feasible(res.x) and res.fun < refined:
            refined = float(res.fun)
    assert refined <= best_val + 1e-9
    assert best_val - refined < 0.2  # the grid localized the same basin
    return refined


class TestRandomAgainstOracle:
    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(2024)
        for trial in range(20):
            n = int(rng.integers(2, 5))
            prob, c, cons = random_socp(rng, n)
            report = solve(prob)
            assert report.optimal, f"trial {trial}: {report.status}"
            assert report.duality_gap <= 1e-8
            assert report.primal_residual <= 1e-8
            assert report.dual_residual <= 1e-8
            oracle = brute_force_oracle(c, cons, n)
            assert report.primal_objective == pytest.approx(oracle, abs=1e-4)

    def test_iteration_limit_reports_the_best_merit_iterate(self):
        # Seed 7's third iterate scores worse than its second: an exit at the
        # iteration limit reports the iterate of least merit
        # max(pres, dres) / feas_tol, gap / gap_tol, not the last one.
        prob, _, _ = random_socp(np.random.default_rng(7), 3)
        report = solve(prob, gap_tol=1e-8, feas_tol=1e-8, max_iter=3)
        assert report.status == "max_iterations" and len(report.trace) == 3
        merits = [max(t["pres"], t["dres"], t["gap"]) / 1e-8 for t in report.trace]
        best = report.trace[int(np.argmin(merits))]
        assert best is not report.trace[-1]
        assert (report.duality_gap, report.primal_residual, report.dual_residual) == (
            best["gap"], best["pres"], best["dres"])

    def test_weak_duality_along_iterates(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            prob, _, _ = random_socp(rng, 3)
            report = solve(prob)
            for entry in report.trace:
                assert entry["gap"] >= -1e-9
            assert report.primal_objective >= report.dual_objective - 1e-9


def min_norm_problem(h, rhs):
    """min ||v||^2 s.t. Re(h^H v) >= rhs over v in C^k.

    Columns: Re v (k), Im v (k), then the epigraph t >= ||v||^2, held by
    ||(2 Re v, 2 Im v, t - 1)|| <= t + 1.
    """
    k = h.shape[0]
    n = 2 * k + 1
    epi = np.zeros((1, n))
    epi[0, -1] = 1.0
    G = -np.vstack([epi, 2.0 * np.eye(n)[:2 * k], epi,
                    np.concatenate([h.real, h.imag, [0.0]])[None, :]])
    h_vec = np.zeros(2 * k + 3)
    h_vec[0], h_vec[2 * k + 1], h_vec[-1] = 1.0, -1.0, -rhs
    return conic(epi[0], G, h_vec, [("soc", 2 * k + 2), NONNEG])


class TestEmbedding:
    def test_hyperplane_projection(self):
        report = solve(min_norm_problem(np.array([1.0 + 0j, 0.0]), 1.0))
        assert report.optimal
        assert report.primal_objective == pytest.approx(1.0, abs=1e-7)
        v = report.x[:2] + 1j * report.x[2:4]
        assert v == pytest.approx(np.array([1.0, 0.0]), abs=1e-6)

    def test_min_norm_closed_form(self):
        # min ||v||^2 s.t. Re(h^H v) >= 1 has optimum 1/||h||^2.
        rng = np.random.default_rng(9)
        for _ in range(10):
            k = int(rng.integers(1, 5))
            h = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            report = solve(min_norm_problem(h, 1.0), gap_tol=1e-10, feas_tol=1e-10)
            assert report.optimal
            expect = 1.0 / np.linalg.norm(h) ** 2
            assert report.primal_objective == pytest.approx(expect, rel=1e-8,
                                                            abs=1e-8)

    def test_slack_and_multipliers_in_caller_row_order(self):
        # The blocks differ in dimension and are not sorted by it; s and z
        # come back in the caller's row order.
        prob = min_norm_problem(np.array([1.0 + 1.0j, 2.0]), 1.0)
        report = solve(prob)
        assert report.optimal
        assert report.s == pytest.approx(prob.cone_rhs - prob.cone_lhs @ report.x, abs=1e-9)
        assert prob.c + prob.cone_lhs.T @ report.z == pytest.approx(0.0, abs=1e-9)

    def test_norm_cap_and_im_constraint(self):
        # max Re(v) s.t. |v| <= 2 over v = x[0] + 1j x[1]: the cap alone
        # puts Im(v) at 0.
        report = solve(conic([-1.0, 0.0], [[0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]],
                             [2.0, 0.0, 0.0], [("soc", 3)]))
        assert report.optimal
        assert report.x[0] + 1j * report.x[1] == pytest.approx(2.0 + 0.0j, abs=1e-6)


class TestMalformedData:
    def test_asymmetric_quadratic_term_rejected(self):
        with pytest.raises(SolverError):
            conic([1.0, 1.0], -np.eye(2), [0.0, 0.0], [NONNEG, NONNEG],
                  P=[[1.0, 0.5], [0.0, 1.0]])

    def test_failed_factorization_reported(self):
        # A negative definite P leaves the reduced KKT matrix indefinite at
        # the very first factorization; that comes back as a report.
        report = solve(conic([1.0], [[-1.0]], [-1.0], [NONNEG], P=[[-10.0]]))
        assert report.status == "max_iterations"
        assert report.message == "KKT factorization failed"
        assert report.iterations == 0


# ---------------------------------------------------------------------------
# The segment cone kernels and the reduced KKT solve, against per-block
# reference formulas, over drawn cone lists.


def _distinct_dims(cone_list):
    return {1 if kind == "nonneg" else d for kind, d in cone_list}


# Dims 1-25 in any order, with runs of dimension-1 blocks ("nonneg", d) and
# 1-6 distinct block dimensions.
CONE_LISTS = st.lists(
    st.tuples(st.just("soc"), st.integers(1, 25)) | st.tuples(st.just("nonneg"), st.integers(1, 6)),
    min_size=1, max_size=8).filter(lambda cl: len(_distinct_dims(cl)) <= 6)


def blocks(cone_list):
    """The row slice of every block, read off the public cone list."""
    out, row = [], 0
    for kind, d in cone_list:
        for dim in ([1] * d if kind == "nonneg" else [d]):
            out.append(slice(row, row + dim))
            row += dim
    return out


def interior(rng, cone_list, spread=1.0):
    """A random point strictly inside every block."""
    v = rng.standard_normal(sum(d for _, d in cone_list)) * spread
    for r in blocks(cone_list):
        v[r.start] = np.linalg.norm(v[r.start + 1:r.stop]) + rng.uniform(0.1, 2.0)
    return v


def nt_block(s, z):
    """Nesterov-Todd scaling matrix W of one block, from its textbook formula."""
    if s.size == 1:
        return np.sqrt(s / z)[:, None]
    jnorm = lambda v: np.sqrt(v[0] ** 2 - v[1:] @ v[1:])
    sn, zn = s / jnorm(s), z / jnorm(z)
    gamma = np.sqrt((1.0 + sn @ zn) / 2.0)
    w = np.concatenate([[sn[0] + zn[0]], sn[1:] - zn[1:]]) / (2.0 * gamma)
    t = np.empty((s.size, s.size))
    t[0, 0], t[0, 1:], t[1:, 0] = w[0], w[1:], w[1:]
    t[1:, 1:] = np.eye(s.size - 1) + np.outer(w[1:], w[1:]) / (1.0 + w[0])
    return np.sqrt(jnorm(s) / jnorm(z)) * t


def nt_matrix(s, z, cone_list):
    """Block-diagonal W over every block."""
    w = np.zeros((s.size, s.size))
    for r in blocks(cone_list):
        w[r, r] = nt_block(s[r], z[r])
    return w


def jordan_ref(u, v, cone_list):
    out = np.empty_like(u)
    for r in blocks(cone_list):
        head, tail = r.start, slice(r.start + 1, r.stop)
        out[head] = u[r] @ v[r]
        out[tail] = u[head] * v[tail] + v[head] * u[tail]
    return out


def margin_ref(v, cone_list):
    return min(v[r.start] - np.linalg.norm(v[r.start + 1:r.stop]) for r in blocks(cone_list))


def step_by_bisection(v, dv, cone_list, hi=1e3):
    """Largest t in [0, hi] with v + t dv inside the cones (hi when never left)."""
    if margin_ref(v + hi * dv, cone_list) >= 0:
        return hi
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if margin_ref(v + mid * dv, cone_list) >= 0 else (lo, mid)
    return lo


class TestStackedKernels:
    @settings(max_examples=40, deadline=None)
    @given(CONE_LISTS, st.integers(0, 2 ** 32 - 1))
    def test_scaling_identities(self, cone_list, seed):
        rng = np.random.default_rng(seed)
        cones = solver._Cones(cone_list)
        s, z = interior(rng, cone_list), interior(rng, cone_list)
        v = rng.standard_normal(s.size)
        scaling = solver._Scaling(s, z, cones)
        lam = scaling.mul_w(z)
        close = np.testing.assert_allclose
        close(lam, scaling.mul_winv(s), rtol=1e-10, atol=1e-12)
        close(scaling.mul_w(v), nt_matrix(s, z, cone_list) @ v, rtol=1e-10, atol=1e-12)
        close(scaling.mul_winv(scaling.mul_w(v)), v, rtol=1e-10, atol=1e-12)
        close(scaling.mul_w2(v), scaling.mul_w(scaling.mul_w(v)), rtol=1e-12, atol=1e-14)
        mat = rng.standard_normal((s.size, 3))
        close(scaling.winv_of_j(cones.sign[:, None] * mat),
              np.linalg.solve(nt_matrix(s, z, cone_list), mat), rtol=1e-9, atol=1e-11)
        close(solver._jordan_mul(lam, v, cones), jordan_ref(lam, v, cone_list),
              rtol=1e-12, atol=1e-14)
        close(solver._jordan_solve(lam, jordan_ref(lam, v, cone_list), cones), v,
              rtol=1e-9, atol=1e-11)
        assert solver._cone_margin(s, cones) == pytest.approx(margin_ref(s, cone_list),
                                                              rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(CONE_LISTS, st.integers(0, 2 ** 32 - 1))
    def test_max_step_matches_bisection(self, cone_list, seed):
        rng = np.random.default_rng(seed)
        cones = solver._Cones(cone_list)
        v = interior(rng, cone_list)
        dv = rng.standard_normal(v.size)
        t = solver._max_step(v, dv, cones)
        expect = step_by_bisection(v, dv, cone_list)
        if expect == 1e3:
            assert t >= 1e3
        else:
            assert t == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("value,slope", [(0.1, -0.7), (0.4, -0.7), (0.6, -0.8), (1.0, -0.25)])
    def test_max_step_exact_on_a_dimension_one_block(self, value, slope):
        # The quadratic of a dimension-1 block, (u0 + t d0)^2, has a double
        # root; for the first three pairs round-off puts its discriminant
        # below zero.  The step must still stop exactly at -u0 / d0.
        cones = solver._Cones((("soc", 3), ("soc", 1)))
        v = np.array([2.0, 0.5, -0.5, value])
        dv = np.array([0.01, 0.0, 0.0, slope])   # the first block never leaves
        assert solver._max_step(v, dv, cones) == -value / slope


def full_kkt(P, G, w):
    """The unreduced [[P, G'], [G, -W^2]]."""
    return np.block([[P, G.T], [G, -w @ w]])


def kkt_system(rng, cone_list, s, z, n=20):
    """A reduced KKT solver at scaling (s, z) with random data, and a right side.

    P has rank n/2 when G has at least n rows, whose full column rank then
    makes P + G'W^-2 G definite; with fewer rows P is itself definite.
    """
    m = s.size
    B = rng.standard_normal((n, n // 2 if m >= n else 2 * n))
    P, G = B @ B.T, rng.standard_normal((m, n))
    cones = solver._Cones(cone_list)
    kkt = solver._KktSolver(P, G, cones)
    kkt.factor(solver._Scaling(s, z, cones))
    rhs = (rng.standard_normal(n), rng.standard_normal(m))
    return kkt, (P, G), rhs


class TestReducedKkt:
    @settings(max_examples=30, deadline=None)
    @given(CONE_LISTS, st.integers(0, 2 ** 32 - 1))
    def test_solve_matches_the_full_system(self, cone_list, seed):
        rng = np.random.default_rng(seed)
        s, z = interior(rng, cone_list, 0.3), interior(rng, cone_list, 0.3)
        kkt, (P, G), rhs = kkt_system(rng, cone_list, s, z)
        got = np.concatenate(kkt.solve(*rhs))
        expect = np.linalg.solve(full_kkt(P, G, nt_matrix(s, z, cone_list)),
                                 np.concatenate(rhs))
        # Refinement takes the regularization out: without it the error
        # here is 1e-11 to 1e-8.
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * np.abs(expect).max())

    @pytest.mark.parametrize("seed", range(4))
    def test_refinement_stops_when_it_stalls(self, seed):
        # s and z 1e-8 inside opposite sides of each block, as near the end
        # of a solve: W^2 is so ill-conditioned that refinement stalls far
        # above its 1e-14 target.  It stops before its 4 steps and returns
        # the iterate with the smallest residual, so no worse than the first
        # reduced solve.
        cone_list = (("soc", 12), ("nonneg", 3), ("soc", 5), ("soc", 21))
        rng = np.random.default_rng(seed)
        s = rng.standard_normal(41)
        for r in blocks(cone_list):
            s[r.start] = np.linalg.norm(s[r.start + 1:r.stop]) + 1e-8
        z = s * solver._Cones(cone_list).sign
        kkt, _, rhs = kkt_system(rng, cone_list, s, z)
        full_rhs = np.concatenate(rhs)
        reduced, apply_unreg, seen = kkt._solve_reduced, kkt._apply_unreg, []
        resid = lambda u: np.max(np.abs(full_rhs - apply_unreg(u)))
        kkt._apply_unreg = lambda u: seen.append(resid(u)) or apply_unreg(u)
        got = np.concatenate(kkt.solve(*rhs))
        assert resid(got) > 1e-14 * np.abs(full_rhs).max()   # never converged
        assert 2 <= len(seen) < 5   # the first solve and 1-3 refinement steps
        assert resid(got) == min(seen) <= resid(reduced(*rhs))


def test_import_leaves_scipy_sparse_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = "import sys, cranopt; print('scipy.sparse' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"
