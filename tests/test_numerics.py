from __future__ import annotations

import numpy as np
import pytest

from gridshock.errors import SingularMatrix
from gridshock.numerics import LinearProgram, LpSolution, lp_solve, lu_solve

from oracles import enumerate_lp, gauss_jordan_solve, random_box_lp


def lp_from_parts(parts):
    c, a_eq, b_eq, a_ub, b_ub, lo, hi = parts
    bounds = np.column_stack([lo, hi])
    return LinearProgram(objective=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, bounds=bounds)


class TestLuSolve:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_independent_elimination(self, seed):
        rng = np.random.default_rng([7, seed])
        n = int(rng.integers(1, 13))
        a = rng.uniform(-10, 10, (n, n))
        b = rng.uniform(-10, 10, n)
        x = lu_solve(a, b)
        x_ref = gauss_jordan_solve(a, b)
        assert np.allclose(x, x_ref, rtol=1e-9, atol=1e-9)

    def test_identity(self):
        b = np.array([3.0, -1.0, 0.5])
        assert np.array_equal(lu_solve(np.eye(3), b), b)

    def test_requires_pivoting(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([2.0, 5.0])
        assert np.allclose(lu_solve(a, b), [5.0, 2.0])

    def test_residual_bound(self):
        rng = np.random.default_rng(42)
        a = rng.uniform(-1, 1, (30, 30))
        b = rng.uniform(-1, 1, 30)
        x = lu_solve(a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-9 * (1 + np.max(np.abs(b)))

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrix):
            lu_solve(a, np.array([1.0, 2.0]))

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrix):
            lu_solve(np.zeros((3, 3)), np.zeros(3))

    @pytest.mark.parametrize("seed", range(8))
    def test_island_without_slack_raises(self, seed):
        # Reduced susceptance matrix of a grid whose second island has no
        # slack bus: the island's Laplacian block is singular, though
        # rounding may leave its last pivot tiny rather than zero.
        rng = np.random.default_rng([43, seed])
        n = int(rng.integers(2, 12))
        a = np.zeros((n + 1, n + 1))
        a[n, n] = 10.0
        for k in range(1, n):
            for j in {int(rng.integers(0, k)), int(rng.integers(0, n))} - {k}:
                b = float(np.round(rng.uniform(1.0, 20.0), 3))
                a[[k, j], [k, j]] += b
                a[[k, j], [j, k]] -= b
        perm = rng.permutation(n + 1)
        with pytest.raises(SingularMatrix):
            lu_solve(a[perm][:, perm], rng.uniform(-5.0, 5.0, n + 1))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            lu_solve(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            lu_solve(np.eye(2), np.ones(3))

    def test_nonfinite_raises(self):
        with pytest.raises(ValueError):
            lu_solve(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))


class TestLpSolveBasics:
    def test_single_variable_box(self):
        sol = lp_solve(LinearProgram(objective=np.array([1.0]), bounds=np.array([[2.0, 5.0]])))
        assert sol.status == "optimal"
        assert sol.x[0] == 2.0
        assert sol.objective_value == 2.0

    def test_negative_lower_bound(self):
        sol = lp_solve(LinearProgram(objective=np.array([1.0]), bounds=np.array([[-3.0, 5.0]])))
        assert sol.status == "optimal"
        assert sol.objective_value == -3.0

    def test_simple_inequality(self):
        lp = LinearProgram(
            objective=np.array([-1.0, -1.0]),
            a_ub=np.array([[1.0, 1.0]]),
            b_ub=np.array([1.0]),
        )
        sol = lp_solve(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)

    def test_simple_equality(self):
        lp = LinearProgram(
            objective=np.array([1.0, 0.0]),
            a_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([1.0]),
        )
        sol = lp_solve(lp)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(0.0, abs=1e-9)
        assert sol.x[1] == pytest.approx(1.0, abs=1e-9)

    def test_infeasible(self):
        lp = LinearProgram(
            objective=np.array([1.0]),
            a_ub=np.array([[1.0]]),
            b_ub=np.array([-1.0]),
        )
        assert lp_solve(lp).status == "infeasible"

    def test_unbounded_without_rows(self):
        assert lp_solve(LinearProgram(objective=np.array([-1.0]))).status == "unbounded"

    def test_unbounded_with_rows(self):
        lp = LinearProgram(
            objective=np.array([-1.0, 0.0]),
            a_ub=np.array([[0.0, 1.0]]),
            b_ub=np.array([1.0]),
        )
        assert lp_solve(lp).status == "unbounded"

    def test_free_variable(self):
        lp = LinearProgram(
            objective=np.array([1.0]),
            a_ub=np.array([[-1.0]]),
            b_ub=np.array([-2.0]),
            bounds=np.array([[-np.inf, np.inf]]),
        )
        sol = lp_solve(lp)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(2.0, abs=1e-9)

    def test_fixed_variable(self):
        lp = LinearProgram(
            objective=np.array([1.0, 1.0]),
            a_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([4.0]),
            bounds=np.array([[3.0, 3.0], [0.0, 10.0]]),
        )
        sol = lp_solve(lp)
        assert sol.status == "optimal"
        assert sol.x[0] == 3.0
        assert sol.x[1] == pytest.approx(1.0, abs=1e-9)

    def test_zero_objective_feasible(self):
        lp = LinearProgram(
            objective=np.zeros(2),
            a_ub=np.array([[1.0, 1.0]]),
            b_ub=np.array([3.0]),
            bounds=np.array([[0.0, 2.0], [0.0, 2.0]]),
        )
        sol = lp_solve(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == 0.0

    def test_inconsistent_shapes_raise(self):
        with pytest.raises(ValueError):
            lp_solve(LinearProgram(objective=np.array([1.0]), a_ub=np.ones((1, 2)), b_ub=np.ones(1)))
        with pytest.raises(ValueError):
            lp_solve(LinearProgram(objective=np.array([1.0]), a_ub=np.ones((1, 1)), b_ub=None))
        with pytest.raises(ValueError):
            lp_solve(LinearProgram(objective=np.array([1.0]), bounds=np.array([[5.0, 2.0]])))

    def test_stalling_program_terminates(self):
        # Classic construction on which greedy pricing can cycle without
        # an anti-cycling fallback.
        lp = LinearProgram(
            objective=np.array([-0.75, 150.0, -0.02, 6.0]),
            a_ub=np.array(
                [
                    [0.25, -60.0, -0.04, 9.0],
                    [0.5, -90.0, -0.02, 3.0],
                    [0.0, 0.0, 1.0, 0.0],
                ]
            ),
            b_ub=np.array([0.0, 0.0, 1.0]),
        )
        sol = lp_solve(lp)
        assert sol.status == "optimal"
        lo = np.zeros(4)
        hi = np.full(4, 100.0)
        _, ref_obj, _ = enumerate_lp(lp.objective, None, None, lp.a_ub, lp.b_ub, lo, hi)
        assert sol.objective_value == pytest.approx(ref_obj, abs=1e-8)


class TestLpSolveAgainstOracle:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_feasible_boxes(self, seed):
        rng = np.random.default_rng([11, seed])
        parts = random_box_lp(rng)
        sol = lp_solve(lp_from_parts(parts))
        status, obj, _ = enumerate_lp(*parts)
        assert status == "optimal"
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(obj, abs=1e-8 * (1 + abs(obj)))

    def test_degenerate_vertex(self):
        # Three redundant constraints meet at the optimum.
        lp = LinearProgram(
            objective=np.array([-1.0, -1.0]),
            a_ub=np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [2.0, 2.0]]),
            b_ub=np.array([1.0, 2.0, 1.0, 4.0]),
        )
        sol = lp_solve(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(-2.0, abs=1e-9)


class TestLpSolveAgainstScipy:
    def test_moderate_dense_programs(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        for seed in range(8):
            rng = np.random.default_rng([13, seed])
            n, mu = 30, 18
            c = rng.uniform(-2, 2, n)
            lo = np.zeros(n)
            hi = rng.uniform(1, 6, n)
            interior = lo + rng.uniform(0.2, 0.8, n) * (hi - lo)
            a_ub = rng.uniform(-1, 1, (mu, n))
            b_ub = a_ub @ interior + rng.uniform(0.05, 2, mu)
            a_eq = rng.uniform(-1, 1, (2, n))
            b_eq = a_eq @ interior
            lp = LinearProgram(
                objective=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                bounds=np.column_stack([lo, hi]),
            )
            sol = lp_solve(lp)
            ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                          bounds=list(zip(lo, hi)), method="highs")
            assert sol.status == "optimal" and ref.status == 0
            assert sol.objective_value == pytest.approx(ref.fun, abs=1e-7 * (1 + abs(ref.fun)))


class TestLpSolutionContract:
    def test_solution_fields_none_unless_optimal(self):
        sol = lp_solve(LinearProgram(objective=np.array([-1.0])))
        assert sol == LpSolution(status="unbounded", x=None, objective_value=None)

    def test_residuals_within_tolerance(self):
        rng = np.random.default_rng(99)
        parts = random_box_lp(rng)
        c, a_eq, b_eq, a_ub, b_ub, lo, hi = parts
        sol = lp_solve(lp_from_parts(parts))
        assert sol.status == "optimal"
        assert (sol.x >= lo - 1e-9).all() and (sol.x <= hi + 1e-9).all()
        if a_eq is not None:
            assert np.max(np.abs(a_eq @ sol.x - b_eq)) <= 1e-8 * (1 + np.max(np.abs(b_eq)))
        if a_ub is not None:
            assert np.max(a_ub @ sol.x - b_ub) <= 1e-8 * (1 + np.max(np.abs(b_ub)))
