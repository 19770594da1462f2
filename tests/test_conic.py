import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cranopt.conic import ConicProblem, SolverError, solve, solver


@pytest.fixture(autouse=True, scope="module")
def stopping_rule():
    """The rule these tests were written for: gap 1e-8, feas 1e-8, 100 iterations."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "GAP_TOL", 1e-8)
        mp.setattr(solver, "FEAS_TOL", 1e-8)
        mp.setattr(solver, "MAX_ITER", 100)
        yield


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
            P = np.eye(d)
            polished = solver._polish(P, -p, solver._ConeRows(P, G, cones), h, x0,
                                      np.zeros(d + 1))
            assert polished is not None
            x, z = polished
            assert x == pytest.approx(p / np.linalg.norm(p), abs=1e-13)
            assert z[0] == pytest.approx(np.linalg.norm(p) - 1.0, abs=1e-12)

    def test_polish_rejects_a_negative_multiplier(self):
        # min (x - 0.5)^2 / 2 s.t. x <= 1, started with the bound active: held
        # on the boundary, stationarity needs nu = -0.5 < -FEAS_TOL.
        cones = solver._Cones([NONNEG])
        P = np.eye(1)
        assert solver._polish(P, np.array([-0.5]), solver._ConeRows(P, np.eye(1), cones),
                              np.ones(1), np.array([0.99]), np.ones(1)) is None

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

    def test_iteration_limit_reports_the_last_iterate(self, monkeypatch):
        # Seed 7's third iterate scores worse than its second; an exit at the
        # iteration limit still reports the iterate the loop stopped on.
        monkeypatch.setattr(solver, "MAX_ITER", 3)
        prob, _, _ = random_socp(np.random.default_rng(7), 3)
        report = solve(prob)
        assert report.status == "max_iterations" and len(report.trace) == 3
        last = report.trace[-1]
        assert (report.duality_gap, report.primal_residual, report.dual_residual) == (
            last["gap"], last["pres"], last["dres"])
        # The objectives are the traced ones in the caller's units, one scale
        # factor apart, so x and z are that iterate too, not one step past it.
        assert report.primal_objective * last["dcost"] == pytest.approx(
            report.dual_objective * last["pcost"], rel=1e-12)

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

    def test_min_norm_closed_form(self, monkeypatch):
        # min ||v||^2 s.t. Re(h^H v) >= 1 has optimum 1/||h||^2.
        monkeypatch.setattr(solver, "GAP_TOL", 1e-10)
        monkeypatch.setattr(solver, "FEAS_TOL", 1e-10)
        rng = np.random.default_rng(9)
        for _ in range(10):
            k = int(rng.integers(1, 5))
            h = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            report = solve(min_norm_problem(h, 1.0))
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

    def test_non_finite_reduced_matrix_reported(self):
        # An infinite P leaves NaN in the equilibrated reduced KKT matrix,
        # which np.linalg.cholesky would factor without complaint.
        report = solve(conic([1.0], [[-1.0]], [-1.0], [NONNEG], P=[[np.inf]]))
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
        close(scaling.mul_winv(v), np.linalg.solve(nt_matrix(s, z, cone_list), v),
              rtol=1e-9, atol=1e-11)
        close(solver._jordan_mul(lam, v, cones), jordan_ref(lam, v, cone_list),
              rtol=1e-12, atol=1e-14)
        close(solver._jordan_solve(lam, jordan_ref(lam, v, cone_list), cones), v,
              rtol=1e-9, atol=1e-11)
        assert cones.margins(s).min() == pytest.approx(margin_ref(s, cone_list), rel=1e-12)

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


def dense_ruiz(c, P, G, h, cones):
    """Ruiz equilibration by dense sweeps over P and G, as the solver once
    did, with scale 1 for an all-zero cone block or column."""
    m, n = G.shape
    dr_g = np.ones(m)
    dc = np.ones(n)
    Ps, Gs = P.copy(), G.copy()
    for _ in range(solver.RUIZ_ITERS):
        rg = np.sqrt(np.maximum(np.abs(Gs).max(axis=1), 1e-16))
        rg = np.maximum(np.maximum.reduceat(rg, cones.starts)[cones.owner], 1e-8)
        rg[(np.add.reduceat(np.abs(Gs).sum(axis=1), cones.starts) == 0)[cones.owner]] = 1.0
        Gs /= rg[:, None]
        dr_g /= rg
        colmax = np.maximum(np.abs(Ps).max(axis=0, initial=0.0), np.abs(Gs).max(axis=0))
        cnorm = np.maximum(np.sqrt(np.maximum(colmax, 1e-16)), 1e-8)
        cnorm[colmax == 0] = 1.0
        Ps /= np.outer(cnorm, cnorm)
        Gs /= cnorm[None, :]
        dc /= cnorm
    cs = c * dc
    cost_scale = max(1.0, np.abs(cs).max(initial=0.0), np.abs(Ps).max(initial=0.0))
    return cs / cost_scale, Ps / cost_scale, Gs, h * dr_g, dc, dr_g, cost_scale


class TestEquilibration:
    @settings(max_examples=40, deadline=None)
    @given(CONE_LISTS, st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_sweeps_over_nonzeros_match_dense_sweeps(self, cone_list, seed, zero_p):
        # Entries over six orders of magnitude, an all-zero row and column of
        # G, a column that P and G both leave empty, and P = 0.
        rng = np.random.default_rng(seed)
        cones = solver._Cones(cone_list)
        m, n = cones.owner.size, 9
        G = (rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3, 3, (m, n))
             * (rng.random((m, n)) < 0.4))
        G[rng.integers(m)] = 0.0
        G[:, rng.integers(n)] = 0.0
        B = rng.standard_normal((n, 3)) * (rng.random((n, 3)) < 0.6) * (not zero_p)
        empty = rng.integers(n)
        B[empty], G[:, empty] = 0.0, 0.0
        c, h = rng.standard_normal(n), rng.standard_normal(m)
        got = solver._ruiz_equilibrate(c, B @ B.T, G, h, cones)
        expect = dense_ruiz(c, B @ B.T, G, h, cones)
        assert all(np.array_equal(a, b) for a, b in zip(got, expect))

    # An all-zero cone block or column takes scale 1.  A floored scale of
    # 1e-8 would multiply its h or c entry by 1e8 on every sweep.
    @pytest.mark.parametrize("h_const", [10.0, 1e-3])
    def test_constant_row_keeps_its_right_side(self, h_const):
        # min x s.t. x >= -1 and 0 x <= h_const.
        report = solve(conic([1.0], [[-1.0], [0.0]], [1.0, h_const], [("nonneg", 2)]))
        assert report.optimal
        assert report.x[0] == pytest.approx(-1.0, abs=1e-7)

    def test_all_zero_soc_block(self):
        # min x s.t. x >= -1, and a ("soc", 2) block that x does not enter.
        report = solve(conic([1.0], [[-1.0], [0.0], [0.0]], [1.0, 1.0, 0.5],
                             [NONNEG, ("soc", 2)]))
        assert report.optimal
        assert report.x[0] == pytest.approx(-1.0, abs=1e-7)

    def test_empty_column_is_unbounded(self):
        # min x1 + x2 s.t. x1 >= -1, with x2 in neither P nor G.
        report = solve(conic([1.0, 1.0], [[-1.0, 0.0]], [1.0], [NONNEG]))
        assert report.status == "unbounded"


def full_kkt(P, G, w, dtype=np.float64):
    """The unreduced [[P, G'], [G, -W^2]], with W^2 formed in `dtype`."""
    w = w.astype(dtype)
    return np.block([[P.astype(dtype), G.T.astype(dtype)], [G.astype(dtype), -w @ w]])


def nt_inverse(s, z, cone_list):
    """W^-1 from `nt_matrix`: each block W = beta T(w) has inverse J W J / beta^2."""
    w = nt_matrix(s, z, cone_list)
    jnorm2 = lambda v: v[0] ** 2 - v[1:] @ v[1:]
    inv = np.zeros_like(w)
    for r in blocks(cone_list):
        j = -np.eye(r.stop - r.start)
        j[0, 0] = 1.0
        inv[r, r] = j @ w[r, r] @ j * np.sqrt(jnorm2(z[r]) / jnorm2(s[r]))
    return inv


def near_boundary(rng, cone_list, margin):
    """s `margin` inside every block and z = J s, inside on the opposite side."""
    s = rng.standard_normal(sum(d for _, d in cone_list))
    for r in blocks(cone_list):
        s[r.start] = np.linalg.norm(s[r.start + 1:r.stop]) + margin
    return s, s * solver._Cones(cone_list).sign


def kkt_system(rng, cone_list, s, z, n=20):
    """A reduced KKT solver at scaling (s, z) with random data, and a right side.

    P has rank n/2 when G has at least n rows, whose full column rank then
    makes P + G'W^-2 G definite; with fewer rows P is itself definite.
    """
    m = s.size
    B = rng.standard_normal((n, n // 2 if m >= n else 2 * n))
    P, G = B @ B.T, rng.standard_normal((m, n))
    cones = solver._Cones(cone_list)
    kkt = solver._KktSolver(P, solver._ConeRows(P, G, cones))
    kkt.factor(solver._Scaling(s, z, cones))
    rhs = (rng.standard_normal(n), rng.standard_normal(m))
    return kkt, (P, G), rhs


def assert_as_accurate_as_lu(kkt, P, G, w, rhs, factor=4):
    """The solve's residual on the full system is within `factor` times a
    dense LU solve's, both measured in long double."""
    full, full_rhs = full_kkt(P, G, w, np.longdouble), np.concatenate(rhs)
    resid = lambda u: np.abs(full_rhs - full @ u).max()
    got = np.concatenate(kkt.solve(*rhs))
    assert resid(got) <= factor * resid(np.linalg.solve(full.astype(np.float64), full_rhs))


# Cone lists for problems factored by blocks: few enough blocks that the
# rank rows stay well below the column count.
STREAM_CONE_LISTS = st.lists(st.tuples(st.just("soc"), st.integers(2, 25)), min_size=1, max_size=8)


def block_problem(rng, cone_list, sizes):
    """P and G whose columns fall into blocks of `sizes`, as in the builders'
    problems: P is block-diagonal (and definite), each tail row lies in one
    block, drawn at random, and the head rows are dense."""
    cones = solver._Cones(cone_list)
    ends = np.cumsum(sizes)
    n, m = int(ends[-1]), cones.owner.size
    G = rng.standard_normal((m, n))
    block = rng.integers(len(sizes), size=m)
    for row in np.flatnonzero(cones.tail):
        end = ends[block[row]]
        G[row, :end - sizes[block[row]]] = 0.0
        G[row, end:] = 0.0
    P = np.zeros((n, n))
    for end, size in zip(ends, sizes):
        B = rng.standard_normal((size, 2 * size))
        P[end - size:end, end - size:end] = B @ B.T / (2 * size)
    return P, G


def rate_cone_rows(rng, sizes, coef):
    """The rows of one cone of dimension 6 per block, shaped like the
    builders' rate-floor cones: block b holds the head row g0 and the tail
    rows coef g0 and coef r, with r orthogonal to g0 and of its norm (the
    real and imaginary parts of one complex gain); the other 3 tail rows
    lie in block b + 1.  With coef near 1, subtracting g0 g0' takes nearly
    all of what the cone adds to B along g0."""
    ends = np.cumsum(sizes)
    out = np.zeros((6 * len(sizes), int(ends[-1])))
    for b, (end, size) in enumerate(zip(ends, sizes)):
        g0, r = rng.standard_normal((2, size))
        r -= (r @ g0) / (g0 @ g0) * g0
        r *= np.linalg.norm(g0) / np.linalg.norm(r)
        rows = out[6 * b:6 * b + 6]
        rows[:3, end - size:end] = g0, coef * g0, coef * r
        nb = (b + 1) % len(sizes)
        rows[3:, ends[nb] - sizes[nb]:ends[nb]] = rng.standard_normal((3, sizes[nb]))
    return out


def stream_system(rng, cone_list, sizes, s, z, rate_coef=None):
    """A reduced KKT solver for a `block_problem` at scaling (s, z), factored
    by its blocks.  With `rate_coef`, the last cones of `cone_list`, one per
    block, take `rate_cone_rows`."""
    P, G = block_problem(rng, cone_list, sizes)
    if rate_coef is not None:
        G[-6 * len(sizes):] = rate_cone_rows(rng, sizes, rate_coef)
    cones = solver._Cones(cone_list)
    kkt = solver._KktSolver(P, solver._ConeRows(P, G, cones))
    kkt.factor(solver._Scaling(s, z, cones))
    assert kkt._h.shape[0] == len(sizes)   # the size rule factors by blocks
    return kkt, P, G


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
        # The correction against the full system takes the regularization
        # out: without it the error here is 1e-11 to 1e-8.
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * np.abs(expect).max())

    @settings(max_examples=40, deadline=None)
    @given(CONE_LISTS, st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["identity", "interior", "near the boundary"]))
    def test_reduced_matrix_is_the_dense_product(self, cone_list, seed, where):
        # H is built from per-block Grams and a few rank-one terms; it must
        # equal P + (W^-1 G)'(W^-1 G) formed densely.  G is sparse and each
        # block leaves about half the columns empty.  At W = I the tails of
        # u vanish.  1e-8 from the boundary, W^-1 has norm about 1e4 and the
        # NT point w that (s, z) define is known only to about 1e-9: the
        # textbook inverse J W J / beta^2 misses W^-1 by that much.  There
        # W^-1 G is the solver's own W^-1, applied to each column of G.
        rng = np.random.default_rng(seed)
        cones = solver._Cones(cone_list)
        m, n = cones.owner.size, 12
        if where == "identity":
            s = z = (cones.sign + 1.0) / 2.0
        elif where == "interior":
            s, z = interior(rng, cone_list), interior(rng, cone_list)
        else:
            s, z = near_boundary(rng, cone_list, 1e-8)
        G = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.5)
        G[(rng.random((cones.degree, n)) < 0.5)[cones.owner]] = 0.0
        B = rng.standard_normal((n, 2 * n))
        P = B @ B.T
        scaling = solver._Scaling(s, z, cones)
        kkt = solver._KktSolver(P, solver._ConeRows(P, G, cones))
        kkt.factor(scaling)
        if where == "near the boundary":
            ghat = np.column_stack([scaling.mul_winv(col) for col in G.T])
        else:
            ghat = nt_inverse(s, z, cone_list) @ G
        expect = P + ghat.T @ ghat
        got = kkt._h - solver.REG * np.eye(n)
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()

    @pytest.mark.parametrize("seed", range(8))
    def test_stalled_systems_solve_as_accurately_as_a_dense_solve(self, seed):
        # s and z 1e-8 inside opposite sides of each block, as near the end
        # of a solve: W^2 is so ill-conditioned that no refinement reaches
        # working precision.  The solve's residual on the full system stays
        # within a small multiple of a dense LU solve's (2.2x at worst over
        # seeds 0-199, at seed 87).  W^2 and the residuals are formed in
        # long double, so that their own rounding does not enter the
        # comparison.
        cone_list = (("soc", 12), ("nonneg", 3), ("soc", 5), ("soc", 21))
        rng = np.random.default_rng(seed)
        s, z = near_boundary(rng, cone_list, 1e-8)
        kkt, (P, G), rhs = kkt_system(rng, cone_list, s, z)
        assert_as_accurate_as_lu(kkt, P, G, nt_matrix(s, z, cone_list), rhs)

    @settings(max_examples=20, deadline=None)
    @given(STREAM_CONE_LISTS, st.lists(st.integers(12, 24), min_size=12, max_size=12),
           st.integers(0, 2 ** 32 - 1))
    def test_solve_by_blocks_matches_the_full_system(self, cone_list, sizes, seed):
        # Unequal blocks are padded with identity to one size.
        rng = np.random.default_rng(seed)
        s, z = interior(rng, cone_list, 0.3), interior(rng, cone_list, 0.3)
        kkt, P, G = stream_system(rng, cone_list, sizes, s, z)
        rhs = (rng.standard_normal(P.shape[0]), rng.standard_normal(G.shape[0]))
        got = np.concatenate(kkt.solve(*rhs))
        expect = np.linalg.solve(full_kkt(P, G, nt_matrix(s, z, cone_list)),
                                 np.concatenate(rhs))
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * np.abs(expect).max())

    @settings(max_examples=20, deadline=None)
    @given(STREAM_CONE_LISTS, st.lists(st.integers(12, 24), min_size=12, max_size=12),
           st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["identity", "interior", "near the boundary"]))
    def test_matrix_by_blocks_is_the_dense_product(self, cone_list, sizes, seed, where):
        # B's blocks plus the rank rows A'A - M'M make P + Ghat'Ghat, as in
        # test_reduced_matrix_is_the_dense_product.
        rng = np.random.default_rng(seed)
        cones = solver._Cones(cone_list)
        if where == "identity":
            s = z = (cones.sign + 1.0) / 2.0
        elif where == "interior":
            s, z = interior(rng, cone_list), interior(rng, cone_list)
        else:
            s, z = near_boundary(rng, cone_list, 1e-8)
        kkt, P, G = stream_system(rng, cone_list, sizes, s, z)
        scaling, n = kkt._scaling, P.shape[0]
        if where == "near the boundary":
            ghat = np.column_stack([scaling.mul_winv(col) for col in G.T])
        else:
            ghat = nt_inverse(s, z, cone_list) @ G
        expect = P + ghat.T @ ghat
        blocks, width = kkt._h.shape[:2]
        padded = (kkt._rank.T * kkt._sign) @ kkt._rank
        for k in range(blocks):
            padded[k * width:(k + 1) * width, k * width:(k + 1) * width] += kkt._h[k]
        at = np.arange(n) if kkt._at is None else kkt._at
        got = padded[np.ix_(at, at)] - solver.REG * np.eye(n)
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("rate_cones", [False, True])
    def test_stalled_systems_by_blocks_solve_as_accurately_as_a_dense_solve(self, seed,
                                                                             rate_cones):
        # As test_stalled_systems_solve_as_accurately_as_a_dense_solve, on
        # 8 blocks of 16 columns and more rows than columns, as in the
        # builders' problems.  The rank rows reach 1e4 there while B stays
        # near 1, and the two Woodbury stages keep their capacitances
        # definite.  One stage over the rows v0, v1 and t/|u1| with signs
        # +1, +1, -1 (see `_KktSolver`) fails this test.  With rate_cones,
        # 8 more cones take `rate_cone_rows` at a rate floor with
        # 2^(R/B) - 1 = 1e4 (1.1x at worst over seeds 0-199, at seed 106).
        cone_list = (("soc", 40), ("nonneg", 3), ("soc", 30), ("soc", 60), ("soc", 20))
        cone_list += (("soc", 6),) * 8 * rate_cones
        rng = np.random.default_rng(seed)
        s, z = near_boundary(rng, cone_list, 1e-8)
        coef = np.sqrt(1e4 / (1.0 + 1e4)) if rate_cones else None
        kkt, P, G = stream_system(rng, cone_list, [16] * 8, s, z, coef)
        rhs = (rng.standard_normal(P.shape[0]), rng.standard_normal(G.shape[0]))
        assert_as_accurate_as_lu(kkt, P, G, nt_matrix(s, z, cone_list), rhs)

    @pytest.mark.parametrize("sizes,change,blocks", [
        ([16] * 5, None, 1),       # n = 80: below the size rule's crossover
        ([16] * 8, None, 8),
        ([16] * 8, "bare", 1),     # B would be singular without the rank rows
        ([16] * 8, "coupled", 7),  # P couples blocks 2 and 3, which no tail row does
    ])
    def test_size_rule(self, sizes, change, blocks):
        # Each choice also solves as test_solve_by_blocks_matches_the_full_system
        # does.  Coupled by P, columns 40-55 take one block of 32 columns, to
        # whose size the other 6 blocks are padded; bare, column 0 is a
        # partition block of its own, padded to 16 columns.  Each choice also
        # checks `gram_sum` at signed and zero weights, as the polish passes
        # them, against the dense sum: scattered into an n x n matrix, and
        # by blocks as B's padded blocks.  Tail rows fall into the blocks at
        # random, so the blocks hold unequal row counts and take pad rows.
        cone_list = (("soc", 40), ("soc", 30), ("soc", 60))
        cones = solver._Cones(cone_list)
        rng = np.random.default_rng(0)
        P, G = block_problem(rng, cone_list, sizes)
        if change == "bare":   # column 0 in no tail row and off P's diagonal
            P[0, :], P[:, 0] = 0.0, 0.0
            G[cones.tail > 0, 0] = 0.0
        elif change == "coupled":   # a rank-one term on columns 40-55
            v = np.zeros(P.shape[0])
            v[40:56] = rng.standard_normal(16)
            P = P + np.outer(v, v) / 16
        rows = solver._ConeRows(P, G, cones)
        kkt = solver._KktSolver(P, rows)
        assert kkt._p_blocks.shape[0] == blocks
        w = rng.standard_normal(cones.degree) * (rng.random(cones.degree) < 0.7)
        weighted = lambda a, v: (a * (v[cones.owner] * cones.tail)[:, None]).T @ a
        expect, scale = weighted(G, w), weighted(np.abs(G), np.abs(w)).max()
        stacked = rows.gram_sum(w)
        got = np.zeros_like(P)
        got.reshape(-1)[rows.at] = stacked.reshape(-1)[rows.inside]
        assert np.abs(got - expect).max() <= 1e-14 * scale
        if blocks > 1:
            at = np.arange(P.shape[0]) if kkt._at is None else kkt._at
            padded = np.zeros((stacked.shape[0] * stacked.shape[1],) * 2)
            for k, block in enumerate(stacked):
                padded[k * block.shape[0]:(k + 1) * block.shape[0],
                       k * block.shape[0]:(k + 1) * block.shape[0]] = block
            assert np.abs(padded[np.ix_(at, at)] - expect).max() <= 1e-14 * scale
            padded[np.ix_(at, at)] = 0.0
            assert not padded.any()   # pad rows and columns stay zero
        s, z = interior(rng, cone_list, 0.3), interior(rng, cone_list, 0.3)
        kkt.factor(solver._Scaling(s, z, cones))
        rhs = (rng.standard_normal(P.shape[0]), rng.standard_normal(G.shape[0]))
        got = np.concatenate(kkt.solve(*rhs))
        expect = np.linalg.solve(full_kkt(P, G, nt_matrix(s, z, cone_list)),
                                 np.concatenate(rhs))
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * np.abs(expect).max())

    def test_one_factorization_per_newton_system(self, monkeypatch):
        # Each interior-point Newton system is factored once (one Cholesky
        # block at n = 3), and the polish takes no Cholesky factor.
        calls = {"cholesky": 0, "factor": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        monkeypatch.setattr(solver._KktSolver, "factor",
                            counted("factor", solver._KktSolver.factor))
        p = np.array([2.0, 1.0, -1.0])
        report = solve(ball(-p, np.eye(3), 1.0))
        assert report.x == pytest.approx(p / np.linalg.norm(p), abs=1e-12)
        assert calls["factor"] > 0
        assert calls["cholesky"] == calls["factor"]

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 63, 64, 65, 80, 256, 384])
    def test_cholesky_inverse_as_accurate_as_lapack(self, n):
        # Sizes on both sides of the 32-row leaf and up to four levels above
        # it.  inv(L) H inv(L)' = I, against np.linalg's factor and inverse.
        rng = np.random.default_rng(n)
        B = rng.standard_normal((n, n))
        H = B @ B.T / n + 1e-3 * np.eye(n)
        err = lambda inv: np.abs(inv @ H @ inv.T - np.eye(n)).max()
        lapack = err(np.linalg.inv(np.linalg.cholesky(H)))
        assert err(solver._chol_inv(H)) <= 8 * max(lapack, np.finfo(float).eps)

    @pytest.mark.parametrize("seed", range(4))
    def test_ill_conditioned_solve_matches_a_dense_solve(self, seed):
        # H = P + G'G with eigenvalues of P from 1e6 down to 1e-4 (cond
        # about 1e10), far above REG, so the full-system correction can take
        # REG back out.
        # Both solves are backward stable; their residuals differ by rounding.
        n, m = 80, 20
        rng = np.random.default_rng(seed)
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        P = (Q * np.logspace(6, -4, n)) @ Q.T
        P = (P + P.T) / 2
        G = rng.standard_normal((m, n))
        cone_list = (("nonneg", m),)
        cones, e = solver._Cones(cone_list), np.ones(m)
        kkt = solver._KktSolver(P, solver._ConeRows(P, G, cones))
        kkt.factor(solver._Scaling(e, e, cones))
        full = full_kkt(P, G, nt_matrix(e, e, cone_list))
        rhs = rng.standard_normal(n + m)
        resid = lambda u: np.abs(rhs - full @ u).max()
        got = np.concatenate(kkt.solve(rhs[:n], rhs[n:]))
        assert resid(got) <= 2 * resid(np.linalg.solve(full, rhs))


def run_fresh(code):
    """Stdout of `code` run in a fresh interpreter that imports this checkout's cranopt."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.strip()


def test_import_leaves_scipy_unloaded():
    assert run_fresh("import sys, cranopt; print('scipy' in sys.modules)") == "False"


def test_joint_solve_runs_without_scipy():
    # Every scipy import fails, as on an install with the runtime
    # dependencies alone.
    code = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is not installed")

sys.meta_path.insert(0, NoScipy())
from cranopt import default_config, generate_channels, joint_energy_minimization

config, tasks = default_config()
print(joint_energy_minimization(config, tasks, generate_channels(config, seed=42)).status)
"""
    assert run_fresh(code) == "optimal"
