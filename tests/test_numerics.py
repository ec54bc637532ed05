from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import gridshock.numerics as numerics_module
from gridshock.errors import NumericalBreakdown, SingularMatrix
from gridshock.numerics import (
    Basis,
    LinearProgram,
    LpSolution,
    lp_solve,
    lp_solve_stack,
    lu_solve,
)

import oracles
from helpers import assert_same_lp_solution, assert_same_solve
from oracles import (
    enumerate_lp,
    gauss_jordan_solve,
    random_box_lp,
    random_infeasible_lp,
    random_unbounded_lp,
    reference_lp_solve,
)


def lp_from_parts(parts):
    c, a_eq, b_eq, a_ub, b_ub, lo, hi = parts
    bounds = np.column_stack([lo, hi])
    return LinearProgram(objective=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, bounds=bounds)


# Beale's program: greedy pricing cycles on it without an anti-cycling rule.
BEALE = LinearProgram(
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
        sol = lp_solve(BEALE)
        assert sol.status == "optimal"
        lo = np.zeros(4)
        hi = np.full(4, 100.0)
        _, ref_obj, _ = enumerate_lp(BEALE.objective, None, None, BEALE.a_ub, BEALE.b_ub, lo, hi)
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


def random_pivot_lp(rng):
    """A random program with integer data, so that ratio-test ties and
    degenerate vertices are common: equality rows, boxed, lower-bounded,
    free and fixed variables, and inequality rows of which about half are
    tight at the point the right-hand sides are built from. One program in
    about seven gets a first row no point can meet."""
    n = int(rng.integers(2, 21))
    me = int(rng.integers(0, min(n - 1, 4) + 1))
    mu = int(rng.integers(0, 16))
    point = rng.integers(-3, 4, n).astype(float)
    kind = rng.choice(4, n, p=[0.55, 0.2, 0.15, 0.1])  # boxed, lower only, free, fixed
    lo = point - rng.integers(0, 3, n)
    hi = point + rng.integers(0, 4, n)
    lo[kind == 2] = -np.inf
    hi[(kind == 1) | (kind == 2)] = np.inf
    lo[kind == 3] = hi[kind == 3] = point[kind == 3]
    a_eq = rng.integers(-3, 4, (me, n)).astype(float)
    a_ub = rng.integers(-3, 4, (mu, n)).astype(float)
    b_eq = a_eq @ point
    b_ub = a_ub @ point + rng.integers(0, 3, mu) * (rng.random(mu) < 0.5)
    if mu and rng.random() < 0.15:
        b_ub[0] = -20.0 * np.abs(a_ub[0]).sum() - 1.0
    return LinearProgram(
        objective=rng.integers(-5, 6, n).astype(float),
        a_eq=a_eq if me else None,
        b_eq=b_eq if me else None,
        a_ub=a_ub if mu else None,
        b_ub=b_ub if mu else None,
        bounds=np.column_stack([lo, hi]),
    )


class TestPivotPathAgainstReference:
    """lp_solve takes the pivots of `oracles.reference_lp_solve`, the
    kernel before its iteration bookkeeping was made lean, from the same
    arithmetic: status, x and objective agree bit for bit."""

    def test_random_programs(self):
        statuses = set()
        for seed in range(200):
            lp = random_pivot_lp(np.random.default_rng([17, seed]))
            ours = lp_solve(lp)
            assert_same_lp_solution(ours, reference_lp_solve(lp))
            statuses.add(ours.status)
        assert statuses == {"optimal", "infeasible", "unbounded"}

    @pytest.mark.parametrize(
        "draw", [random_box_lp, random_infeasible_lp, random_unbounded_lp]
    )
    def test_oracle_programs(self, draw):
        for seed in range(30):
            lp = lp_from_parts(draw(np.random.default_rng([19, seed])))
            assert_same_lp_solution(lp_solve(lp), reference_lp_solve(lp))

    def test_dense_programs_past_refactorization(self):
        # 40 equality rows and 60 inequality rows over 120 boxed variables
        # take more pivots than REFACTOR_INTERVAL
        rng = np.random.default_rng(23)
        n = 120
        lo = np.zeros(n)
        hi = rng.uniform(1, 6, n)
        interior = rng.uniform(0.2, 0.8, n) * hi
        a_eq = rng.uniform(-1, 1, (40, n))
        a_ub = rng.uniform(-1, 1, (60, n))
        lp = LinearProgram(
            objective=rng.uniform(-2, 2, n),
            a_eq=a_eq,
            b_eq=a_eq @ interior,
            a_ub=a_ub,
            b_ub=a_ub @ interior + rng.uniform(0.05, 2, 60),
            bounds=np.column_stack([lo, hi]),
        )
        assert_same_lp_solution(lp_solve(lp), reference_lp_solve(lp))

    def test_degenerate_vertex(self):
        lp = LinearProgram(
            objective=np.array([-1.0, -1.0]),
            a_ub=np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [2.0, 2.0]]),
            b_ub=np.array([1.0, 2.0, 1.0, 4.0]),
        )
        assert_same_lp_solution(lp_solve(lp), reference_lp_solve(lp))

    def test_cycling_program_reaches_bland(self, monkeypatch):
        assert_same_lp_solution(lp_solve(BEALE), reference_lp_solve(BEALE))
        # without the switch to Bland's rule the same program cycles until
        # the iteration budget runs out
        monkeypatch.setattr(numerics_module, "STALL_WINDOW", 10**9)
        monkeypatch.setattr(numerics_module, "ITERATION_FACTOR", 100)
        with pytest.raises(NumericalBreakdown, match="exceeded 1000 iterations"):
            lp_solve(BEALE)


def capped_stack(rng, lp, size):
    """Programs that differ from lp only in upper bounds, on columns with a
    finite lower bound: about 40% of those columns per program are capped
    at the lower bound, a few units above it, or not at all (an inf cap,
    which frees a fixed or boxed column and can make the program
    unbounded). Caps at the lower bound often leave a row unmet."""
    lo, hi = lp.bounds[:, 0], lp.bounds[:, 1]
    programs = []
    for _ in range(size):
        caps = hi.copy()
        pick = np.isfinite(lo) & (rng.random(lo.size) < 0.4)
        kind = rng.integers(0, 3, lo.size)
        caps[pick & (kind == 0)] = lo[pick & (kind == 0)]
        above = pick & (kind == 1)
        caps[above] = lo[above] + rng.integers(1, 5, lo.size)[above]
        caps[pick & (kind == 2)] = np.inf
        programs.append(replace(lp, bounds=np.column_stack([lo, caps])))
    return programs


class TestStackAgainstReference:
    """lp_solve_stack solves every member as `oracles.reference_lp_solve`
    does, bit for bit, and as its own stack of one, iterations and basis
    included, whatever else the stack holds, and whether it starts cold
    or on the first program's recorded pivot path."""

    def check_mixed_stacks(self, seeds):
        statuses, mixed, replayed = set(), 0, 0
        for seed in seeds:
            rng = np.random.default_rng([31, seed])
            lp = random_pivot_lp(rng)
            programs = [lp, *capped_stack(rng, lp, int(rng.integers(1, 8)))]
            solutions = lp_solve_stack(programs)
            assert len(solutions) == len(programs)
            recorded = lp_solve(lp)
            assert_same_solve(recorded, solutions[0])
            resumed = lp_solve_stack(programs, path=recorded.path)
            for program, ours, on_path in zip(programs, solutions, resumed):
                assert_same_lp_solution(ours, reference_lp_solve(program))
                alone = lp_solve_stack([program])[0]
                assert_same_solve(ours, alone)
                assert_same_solve(on_path, alone)
                assert 0 <= on_path.replayed <= on_path.iterations
                replayed += on_path.replayed > 0
            # the recorded program itself resumes at the closing pricing
            assert resumed[0].replayed == resumed[0].iterations
            found = {solution.status for solution in solutions}
            statuses |= found
            mixed += len(found) > 1
        assert statuses == {"optimal", "infeasible", "unbounded"}
        assert mixed > 10
        assert replayed > len(seeds)

    def test_mixed_stacks(self):
        self.check_mixed_stacks(range(120))

    @pytest.mark.parametrize("window", [1, 2])
    def test_mixed_stacks_with_early_bland_and_refactorizations(self, monkeypatch, window):
        # Bland's rule after one or two iterations without progress, and a
        # refactorization every third pivot: both fire at a different
        # lockstep pass for each member of a stack
        for module in (numerics_module, oracles):
            monkeypatch.setattr(module, "STALL_WINDOW", window)
            monkeypatch.setattr(module, "REFACTOR_INTERVAL", 3)
        self.check_mixed_stacks(range(60))

    def test_lp_solve_is_a_stack_of_one(self):
        for seed in range(40):
            lp = random_pivot_lp(np.random.default_rng([37, seed]))
            assert_same_solve(lp_solve(lp), lp_solve_stack([lp])[0])

    def test_members_diverge_in_phase_one(self):
        # PHASE_ONE takes x0 in, then x1 for a step of 2; capped at 1, x1
        # flips to its cap instead and x2 enters
        shocked = with_caps(PHASE_ONE, x1=1.0)
        ours = lp_solve_stack([PHASE_ONE, shocked, PHASE_ONE])
        assert ours[1].x.tolist() == [1.0, 1.0, 1.0]
        for program, solution in zip([PHASE_ONE, shocked, PHASE_ONE], ours):
            assert_same_lp_solution(solution, reference_lp_solve(program))
            assert_same_solve(solution, lp_solve(program))

    def test_path_diverges_in_phase_one(self):
        path = lp_solve(PHASE_ONE).path
        assert path.entering[:2].tolist() == [0, 1]
        assert path.step[1] == 2.0
        shocked = with_caps(PHASE_ONE, x1=1.0)
        [entry] = path.resume_entries(shocked.bounds[None, :, 1])
        assert entry == 1 and path.states["stage"][entry] == 0
        ours = lp_solve_stack([shocked, PHASE_ONE], path=path)
        assert ours[0].replayed == 1
        assert ours[1].replayed == ours[1].iterations
        for program, solution in zip([shocked, PHASE_ONE], ours):
            assert_same_lp_solution(solution, reference_lp_solve(program))
            assert_same_solve(solution, lp_solve(program))

    def test_path_with_an_empty_range_resumes_at_entry_zero(self):
        # x1 is fixed at 0 on the recorded path, so phase 1 takes x2; a
        # program that lets x1 move could price it in at any pass
        fixed = with_caps(PHASE_ONE, x1=0.0)
        path = lp_solve(fixed).path
        assert 1 not in path.entering.tolist()
        assert path.resume_entries(PHASE_ONE.bounds[None, :, 1]).tolist() == [0]
        [ours] = lp_solve_stack([PHASE_ONE], path=path)
        assert ours.replayed == 0
        assert_same_lp_solution(ours, reference_lp_solve(PHASE_ONE))
        assert_same_solve(ours, lp_solve(PHASE_ONE))

    def test_empty_and_row_free_stacks(self):
        assert lp_solve_stack([]) == []
        box = LinearProgram(objective=np.array([-1.0, 1.0]), bounds=np.array([[0, 3.0], [1, 2.0]]))
        stack = [box, with_caps(box, x0=1.0), with_caps(box, x0=np.inf)]
        for program, ours in zip(stack, lp_solve_stack(stack)):
            assert_same_solve(ours, lp_solve(program))
        assert [s.status for s in lp_solve_stack(stack)] == ["optimal", "optimal", "unbounded"]


# Two rows that need artificial columns: phase 1 takes x0 in, then x1.
PHASE_ONE = LinearProgram(
    objective=np.array([1.0, 2.0, 3.0]),
    a_ub=np.array([[-1.0, 0.0, 0.0], [0.0, -1.0, -1.0]]),
    b_ub=np.array([-1.0, -2.0]),
    bounds=np.array([[0.0, 10.0], [0.0, 10.0], [0.0, 10.0]]),
)


def with_caps(lp, **caps):
    bounds = lp.bounds.copy()
    for name, cap in caps.items():
        bounds[int(name[1:]), 1] = cap
    return replace(lp, bounds=bounds)


class TestStackRefused:
    def test_other_programs_refused(self):
        changes = {
            "objective": replace(PHASE_ONE, objective=np.array([1.0, 2.0, 4.0])),
            "inequality matrix": replace(PHASE_ONE, a_ub=PHASE_ONE.a_ub * 2.0),
            "inequality vector": replace(PHASE_ONE, b_ub=np.array([-1.0, -3.0])),
            "lower bounds": replace(
                PHASE_ONE, bounds=PHASE_ONE.bounds + np.array([[0.5, 0.0], [0.0, 0.0], [0.0, 0.0]])
            ),
        }
        path = lp_solve(PHASE_ONE).path
        for name, lp in changes.items():
            with pytest.raises(ValueError, match=f"differs from the first in its {name}"):
                lp_solve_stack([PHASE_ONE, lp])
            with pytest.raises(ValueError, match=f"differs from the recorded one in its {name}"):
                lp_solve_stack([with_caps(PHASE_ONE, x1=1.0), lp], path=path)

    def test_changed_cap_without_finite_lower_bound_refused(self):
        free = LinearProgram(
            objective=np.array([1.0, 1.0]),
            a_ub=np.array([[-1.0, -1.0]]),
            b_ub=np.array([-2.0]),
            bounds=np.array([[-np.inf, 5.0], [0.0, 5.0]]),
        )
        capped = with_caps(free, x1=4.0)
        for program, ours in zip([free, capped], lp_solve_stack([free, capped])):
            assert_same_lp_solution(ours, reference_lp_solve(program))
        with pytest.raises(ValueError, match="needs a finite lower bound"):
            lp_solve_stack([free, with_caps(free, x0=4.0)])
        path = lp_solve(free).path
        with pytest.raises(ValueError, match="needs a finite lower bound"):
            lp_solve_stack([with_caps(free, x0=4.0)], path=path)


def solve_in_batches(lp, rng, batches):
    """Solve lp's equality rows cold, then add its inequality rows in
    `batches` consecutive groups, each solve warm from the last basis.
    Yields (program, warm solution) until one is not optimal."""
    rows = 0 if lp.a_ub is None else lp.a_ub.shape[0]
    cuts = sorted(rng.choice(np.arange(1, rows + 1), size=min(rows, batches), replace=False))
    base = lp_solve(replace(lp, a_ub=None, b_ub=None))
    if base.status != "optimal" or base.basis is None:
        return
    start = base.basis
    for k in cuts:
        program = replace(lp, a_ub=lp.a_ub[:k], b_ub=lp.b_ub[:k])
        warm = lp_solve(program, start=start)
        yield program, warm
        if warm.status != "optimal":
            return
        start = warm.basis


def extra_rows(rng, parts):
    """random_box_lp's program with up to six more random rows, some
    cutting off its optimum and some no point can meet."""
    c, a_eq, b_eq, a_ub, b_ub, lo, hi = parts
    n = c.size
    k = int(rng.integers(1, 7))
    rows = np.round(rng.uniform(-3, 3, (k, n)), 2)
    point = lo + rng.uniform(0, 1, n) * (hi - lo)
    rhs = rows @ point + np.round(rng.uniform(-1.5, 3, k), 2)
    if a_ub is not None:
        rows, rhs = np.vstack([a_ub, rows]), np.concatenate([b_ub, rhs])
    return c, a_eq, b_eq, rows, rhs, lo, hi


def highs(lp):
    linprog = pytest.importorskip("scipy.optimize").linprog
    return linprog(
        lp.objective, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
        bounds=lp.bounds, method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )


def assert_agrees_with_highs(lp, ours):
    ref = highs(lp)
    assert (ours.status, ref.status) in (("optimal", 0), ("infeasible", 2))
    if ours.status == "optimal":
        assert ours.objective_value == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)


class TestWarmDualSimplex:
    """lp_solve warm from the basis of the program without its last rows
    (the bounded dual simplex) against vertex enumeration and HiGHS, with
    the rows added in one to three batches."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_boxes_against_the_oracles(self, seed):
        rng = np.random.default_rng([71, seed])
        lp = lp_from_parts(extra_rows(rng, random_box_lp(rng)))
        solves = list(solve_in_batches(lp, rng, int(rng.integers(1, 4))))
        assert solves
        for program, warm in solves:
            c, a_eq, b_eq, a_ub, b_ub, bounds = (
                program.objective, program.a_eq, program.b_eq, program.a_ub, program.b_ub,
                program.bounds,
            )
            status, obj, _ = enumerate_lp(c, a_eq, b_eq, a_ub, b_ub, bounds[:, 0], bounds[:, 1])
            assert warm.status == status
            if status == "optimal":
                assert warm.objective_value == pytest.approx(obj, rel=1e-9, abs=1e-9)
            assert_agrees_with_highs(program, warm)

    def test_degenerate_integer_programs_against_highs(self):
        # boxed, lower-bounded, free and fixed variables, ties everywhere
        statuses = set()
        solves = 0
        for seed in range(300):
            rng = np.random.default_rng([73, seed])
            lp = random_pivot_lp(rng)
            for program, warm in solve_in_batches(lp, rng, int(rng.integers(1, 4))):
                assert_agrees_with_highs(program, warm)
                statuses.add(warm.status)
                solves += 1
        assert statuses == {"optimal", "infeasible"} and solves >= 200

    def test_lowest_index_rule_after_a_stall(self, monkeypatch):
        # with a stall window of one, every iteration without progress
        # switches both choices to the lowest index
        monkeypatch.setattr(numerics_module, "STALL_WINDOW", 1)
        for seed in range(60):
            rng = np.random.default_rng([73, seed])
            for program, warm in solve_in_batches(random_pivot_lp(rng), rng, 2):
                assert_agrees_with_highs(program, warm)

    def test_solution_is_a_start_for_more_rows(self):
        rng = np.random.default_rng(5)
        lp = lp_from_parts(extra_rows(rng, random_box_lp(rng, max_vars=6)))
        for program, warm in solve_in_batches(lp, rng, 3):
            if warm.status == "optimal":
                # the optimal basis restarts its own program with no pivot
                again = lp_solve(program, start=warm.basis)
                assert again.iterations == 0
                assert again.objective_value == warm.objective_value

    def test_budget_exhausted(self, monkeypatch):
        lp = LinearProgram(
            objective=np.array([1.0, 2.0]),
            a_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([1.0]),
            a_ub=np.array([[1.0, 0.0]]),
            b_ub=np.array([0.5]),
            bounds=np.array([[0.0, 1.0], [0.0, 1.0]]),
        )
        start = lp_solve(replace(lp, a_ub=None, b_ub=None)).basis
        assert lp_solve(lp, start=start).x.tolist() == [0.5, 0.5]
        monkeypatch.setattr(numerics_module, "ITERATION_FACTOR", 0)
        with pytest.raises(NumericalBreakdown, match="dual simplex exceeded 0 iterations"):
            lp_solve(lp, start=start)


class TestWarmStartRefused:
    LP = LinearProgram(
        objective=np.array([1.0, 2.0, 0.0]),
        a_eq=np.array([[1.0, 1.0, 1.0]]),
        b_eq=np.array([1.0]),
        a_ub=np.array([[1.0, 0.0, 0.0]]),
        b_ub=np.array([0.5]),
        bounds=np.array([[0.0, 1.0], [0.0, 1.0], [0.0, np.inf]]),
    )

    def test_not_dual_feasible(self):
        # x1 basic prices x0 and x2 below zero at their lower bounds
        with pytest.raises(ValueError, match="not dual feasible"):
            lp_solve(self.LP, start=Basis(np.array([1]), np.zeros(3, dtype=bool)))

    @pytest.mark.parametrize(
        "basic, at_upper, message",
        [
            (np.array([0, 1, 2]), np.zeros(5, dtype=bool), "does not fit"),
            (np.array([0]), np.zeros(4, dtype=bool), "does not fit"),
            (np.array([], dtype=int), np.zeros(2, dtype=bool), "does not fit"),
            (np.array([3]), np.zeros(3, dtype=bool), "outside its rows"),
            (np.array([0]), np.array([False, False, True]), "infinite upper bound"),
        ],
    )
    def test_start_that_does_not_fit(self, basic, at_upper, message):
        with pytest.raises(ValueError, match=message):
            lp_solve(self.LP, start=Basis(basic, at_upper))

    @pytest.mark.parametrize("basic", [[0, 1], [0, 0]])
    def test_singular_start(self, basic):
        # the inequality row repeats the equality row
        lp = replace(self.LP, a_ub=np.array([[1.0, 1.0, 1.0]]), b_ub=np.array([2.0]))
        with pytest.raises(ValueError, match="singular"):
            lp_solve(lp, start=Basis(np.array(basic), np.zeros(4, dtype=bool)))


class TestBasisOfColdSolves:
    def test_nonbasic_columns_at_upper_marked(self):
        lp = LinearProgram(
            objective=np.array([-1.0, -2.0, 1.0]),
            a_eq=np.array([[1.0, 1.0, 1.0]]),
            b_eq=np.array([2.5]),
            bounds=np.array([[0.0, 2.0], [0.0, 1.0], [0.0, 4.0]]),
        )
        sol = lp_solve(lp)
        assert sol.x.tolist() == [1.5, 1.0, 0.0]
        assert sol.basis.basic.tolist() == [0]
        assert sol.basis.at_upper.tolist() == [False, True, False]

    def test_no_rows(self):
        lp = LinearProgram(objective=np.array([-1.0, 1.0]), bounds=np.array([[0, 3.0], [1, 2.0]]))
        sol = lp_solve(lp)
        assert sol.basis.basic.size == 0
        assert sol.basis.at_upper.tolist() == [True, False]

    def test_none_unless_optimal(self):
        assert lp_solve(PHASE_ONE).basis is not None
        infeasible = replace(PHASE_ONE, b_ub=np.array([-11.0, -2.0]))
        assert lp_solve(infeasible).basis is None
