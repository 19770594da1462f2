import numpy as np
import pytest

from cranopt.conic import ConicProblem, SolverError, solve


def conic(c, G, h, cones, A=None, b=None):
    """Problem data for min c'x s.t. A x = b, G x + s = h, s in `cones`."""
    c = np.asarray(c, dtype=float)
    return ConicProblem(
        c=c, cone_lhs=np.asarray(G, dtype=float), cone_rhs=np.asarray(h, dtype=float),
        eq_lhs=np.zeros((0, c.size)) if A is None else np.asarray(A, dtype=float),
        eq_rhs=np.zeros(0) if b is None else np.asarray(b, dtype=float),
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

    def test_equality_rows(self):
        # min x + 2y s.t. x + y = 1, x >= 0, y >= 0.
        report = solve(conic([1.0, 2.0], -np.eye(2), [0.0, 0.0], [NONNEG, NONNEG],
                             A=[[1.0, 1.0]], b=[1.0]))
        assert report.optimal
        assert report.x == pytest.approx([1.0, 0.0], abs=1e-7)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(SolverError):
            ConicProblem(c=np.ones(2), cone_lhs=np.ones((2, 2)),
                         cone_rhs=np.ones(2), eq_lhs=np.zeros((0, 2)),
                         eq_rhs=np.zeros(0), cones=(("nonneg", 1),))


class TestPresolve:
    def test_dependent_consistent_row_dropped(self):
        # min y s.t. x + y = 1, 2x + 2y = 2 (a duplicate row), x, y >= 0.
        report = solve(conic([0.0, 1.0], -np.eye(2), [0.0, 0.0], [NONNEG, NONNEG],
                             A=[[1.0, 1.0], [2.0, 2.0]], b=[1.0, 2.0]))
        assert report.optimal
        assert "presolve dropped rows" in report.message
        assert report.x[1] == pytest.approx(0.0, abs=1e-7)

    def test_dependent_inconsistent_rows_infeasible(self):
        # x = 1 and 2x = 3.
        report = solve(conic([1.0], [[-1.0]], [0.0], [NONNEG],
                             A=[[1.0], [2.0]], b=[1.0, 3.0]))
        assert report.status == "infeasible"
        assert "presolve" in report.message


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

    def test_norm_cap_and_im_constraint(self):
        # max Re(v) s.t. |v| <= 2, Im(v) = 0, over v = x[0] + 1j x[1].
        report = solve(conic([-1.0, 0.0], [[0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]],
                             [2.0, 0.0, 0.0], [("soc", 3)],
                             A=[[0.0, 1.0]], b=[0.0]))
        assert report.optimal
        assert report.x[0] + 1j * report.x[1] == pytest.approx(2.0 + 0.0j, abs=1e-6)
