"""Dense linear-algebra and linear-programming kernels.

Two solvers used everywhere else in the package: a checked dense linear
solve for the power-flow systems, and a bounded-variable revised simplex
method for the dispatch and economic optimizations, two-phase from a cold
start and dual from a warm one. The linear
solve and the simplex's basis inverse rest on numpy's LAPACK/BLAS
routines, so results are not promised bit-identical across platforms or
numpy builds. What does hold: on one machine, repeated runs and any worker
count give identical bytes, because pricing and basis bookkeeping are
deterministic and every worker runs the same arithmetic. The cold
simplex's pivot rule and the arithmetic behind each pivot are pinned by
`tests/oracles.reference_lp_solve`, which the test suite holds it to bit
for bit.

The simplex can record its pivot path and replay it for a program that
differs only in upper bounds (`lp_solve(lp, record=True)`, then
`lp_solve(other, path=...)`). Up to the first iteration whose decision
the new bounds could change, the new program's cold solve takes the
recorded pivots with the same arithmetic, so the replay restores the
state before that iteration and runs the same loop from there: the
result is the cold solve's bit for bit. A changed bound can change a
decision only where a basic column moving toward it would reach it
within the recorded step (ties count), or where its column enters and
then flips, or would flip, or could not enter at all; one vectorised
pass over the recorded ratio tests finds the first such iteration.

A program that extends a solved one by inequality rows appended after its
rows is re-solved warm (`lp_solve(lp, start=solution.basis)`): the solved
program's optimal basis, with the slack of every new row basic, stays dual
feasible, so a bounded dual simplex with a bound-flipping ratio test
(Koberstein & Suhl, Computational Optimization and Applications, 2007;
Bixby, Operations Research 50(1), 2002) pivots from it until the new rows
hold. Any dual feasible basis will do as a start, such as a closed-form
optimum the caller knows. Unlike the replay, a warm solve may end on
another optimal vertex than the cold solve; its status and optimal value
are the program's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NumericalBreakdown, SingularMatrix

__all__ = [
    "Basis",
    "LinearProgram",
    "LpSolution",
    "PivotPath",
    "lu_solve",
    "lp_solve",
]

# simplex tolerances and limits
FEASIBILITY_TOL = 1e-8
OPTIMALITY_TOL = 1e-9
PIVOT_TOL = 1e-10
ITERATION_FACTOR = 10_000
STALL_WINDOW = 100
REFACTOR_INTERVAL = 100


def lu_solve(a, b) -> np.ndarray:
    """Solve the dense square system a @ x = b with LAPACK's LU solve.

    b may be a vector or a matrix of stacked right-hand-side columns. One
    step of iterative refinement must bring the residual below
    1e-9 * (1 + max|b|). Raises SingularMatrix when the factorization
    meets a zero pivot or the residual stays above that bound, which for
    the power-flow systems means the network is disconnected or degenerate.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    if b.shape[:1] != (n,) or b.ndim > 2:
        raise ValueError(f"right-hand side shape {b.shape} does not match matrix order {n}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("matrix and right-hand side must be finite")
    if n == 0:
        return np.zeros(b.shape)

    tol = 1e-9 * (1.0 + float(np.max(np.abs(b))))
    try:
        x = np.linalg.solve(a, b)
        residual = b - a @ x
        if float(np.max(np.abs(residual))) > tol:
            x = x + np.linalg.solve(a, residual)
            residual = b - a @ x
    except np.linalg.LinAlgError:
        raise SingularMatrix(f"matrix of order {n} has a zero pivot") from None
    worst = float(np.max(np.abs(residual)))
    if not worst <= tol:
        raise SingularMatrix(f"residual {worst:.3e} exceeds {tol:.3e} after refinement")
    return x


@dataclass(frozen=True)
class LinearProgram:
    """min objective @ x subject to a_eq @ x = b_eq, a_ub @ x <= b_ub, bounds.

    `bounds` is an (n, 2) array of per-variable [lower, upper] with +-inf
    allowed; when omitted every variable is constrained to [0, +inf).
    Instances are treated as immutable once constructed.
    """

    objective: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    bounds: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class Basis:
    """A simplex basis in `lp_solve`'s column order: the structural
    variables, then one slack per inequality row.

    basic holds the basic column of each row, equality rows first.
    at_upper marks, over the structural columns and the slacks of the rows
    the basis covers, the nonbasic columns resting at their upper bound;
    every other nonbasic column rests where a cold solve starts it (its
    lower bound if finite, else its upper bound if finite, else zero).
    Entries at basic columns are ignored.
    """

    basic: np.ndarray
    at_upper: np.ndarray


@dataclass(frozen=True)
class LpSolution:
    """Outcome of lp_solve: status is "optimal", "infeasible" or "unbounded".

    x and objective_value are None unless status is "optimal". iterations
    counts the simplex iterations (pivots and bound flips; in a warm solve,
    pivots, each with the bound flips of its ratio test) this solve ran,
    and replayed those it took from a recorded path instead; together they
    are the iterations of the cold solve. path is the recorded pivot path
    when the solve was asked to record one. basis is the optimal basis, a
    start for the program with rows appended; None unless optimal, or
    when a cold solve ends with an artificial column basic. None of the
    last four takes part in equality.
    """

    status: str
    x: np.ndarray | None = None
    objective_value: float | None = None
    iterations: int = field(default=0, compare=False)
    replayed: int = field(default=0, compare=False)
    path: PivotPath | None = field(default=None, compare=False, repr=False)
    basis: Basis | None = field(default=None, compare=False, repr=False)


class _State(NamedTuple):
    """The simplex state before one iteration of `_Simplex.optimize`.

    stage is 0 for phase 1, 1 for phase 2 and 2 for the re-optimization
    after the final refactorization; index is the loop index in that stage.
    """

    stage: int
    index: int
    x: np.ndarray
    basis: np.ndarray
    binv: np.ndarray
    since_refactor: int
    bland: bool
    stall: int
    prev_obj: float


@dataclass(frozen=True, eq=False)
class PivotPath:
    """The cold pivot path of one program, as `lp_solve(record=True)` took it.

    Entry k describes one pass of the simplex loop: states[k] is the state
    before it, and the rest its decision. entering[k] is the entering
    column (-1 where pricing found the stage optimal), step[k] the step
    (+inf where the program was found unbounded), flip[k] whether the
    entering column flipped to its other bound rather than pivoted in, and
    basis[k], xb[k] and delta[k] the basic indices, the basic values and
    the direction-adjusted column of the ratio test, row by row (delta is
    zero where no ratio test ran). program holds the canonical arrays of
    the recorded program.
    """

    program: tuple
    states: tuple[_State, ...]
    basis: np.ndarray
    entering: np.ndarray
    step: np.ndarray
    flip: np.ndarray
    xb: np.ndarray
    delta: np.ndarray

    def resume_index(self, program) -> int:
        """First entry whose decision the program's upper bounds could change.

        program is `_canonical` output and must match the recorded one in
        everything but the upper bounds, each changed bound sitting on a
        variable with a finite lower bound; otherwise ValueError. Before
        that entry no changed column rests at its upper bound, so only
        these decisions read a changed bound:

        - the ratio test, through a basic column that moves toward its
          bound (delta < -PIVOT_TOL) and whose limit under the old or the
          new bound is at most the step, ties included;
        - a changed entering column that flipped, whose new range
          hi - lo is below the step (it would flip), or whose new range
          is empty (pricing would not let it enter).

        Pricing is otherwise unchanged: a nonbasic changed column rests at
        its lower bound and can only lose the gate that lets it increase,
        which moves the argmax only where that column entered. A changed
        column whose recorded range is empty could gain that gate, so such
        a program resumes at entry 0, the cold solve. Without a divergence
        the replay resumes at the final entry, the closing pricing.
        """
        names = ("objective", "equality matrix", "equality vector",
                 "inequality matrix", "inequality vector", "lower bounds")
        for name, ours, recorded in zip(names, program, self.program):
            if not (ours is recorded or (
                ours.shape == recorded.shape and ours.tobytes() == recorded.tobytes()
            )):
                raise ValueError(f"replayed program differs from the recorded one in its {name}")
        lo, hi, old_hi = program[5], program[6], self.program[6]
        changed = hi.view(np.int64) != old_hi.view(np.int64)
        if not changed.any():
            return len(self.states) - 1
        if not np.isfinite(lo[changed]).all():
            raise ValueError("a changed upper bound needs a finite lower bound")
        if (old_hi[changed] <= lo[changed]).any():
            return 0

        basis = self.basis
        n = hi.size
        # slack and artificial columns keep their bounds
        moving = (basis < n) & (self.delta < -PIVOT_TOL)
        rows, cols = np.nonzero(moving)
        col = basis[rows, cols]
        keep = changed[col]
        rows, cols, col = rows[keep], cols[keep], col[keep]
        xb = self.xb[rows, cols]
        neg_delta = -self.delta[rows, cols]
        limit = np.minimum(
            np.maximum(hi[col] - xb, 0.0) / neg_delta,
            np.maximum(old_hi[col] - xb, 0.0) / neg_delta,
        )
        ratio_hits = rows[limit <= self.step[rows]]

        enters = np.flatnonzero((self.entering >= 0) & (self.entering < n))
        enters = enters[changed[self.entering[enters]]]
        j = self.entering[enters]
        span = hi[j] - lo[j]
        entry_hits = enters[self.flip[enters] | (span < self.step[enters]) | (hi[j] <= lo[j])]

        hits = np.concatenate([ratio_hits, entry_hits])
        return int(hits.min()) if hits.size else len(self.states) - 1


def _canonical(lp: LinearProgram):
    c = np.asarray(lp.objective, dtype=float).ravel()
    n = c.size
    if n == 0:
        raise ValueError("linear program has no variables")
    if not np.isfinite(c).all():
        raise ValueError("objective coefficients must be finite")

    def _pair(a, b, label):
        if a is None and b is None:
            return np.zeros((0, n)), np.zeros(0)
        if a is None or b is None:
            raise ValueError(f"{label} matrix and vector must be supplied together")
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float).ravel()
        if a.ndim != 2 or a.shape != (b.size, n):
            raise ValueError(f"{label} shapes {a.shape} and {b.shape} are inconsistent with {n} variables")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError(f"{label} entries must be finite")
        return a, b

    a_eq, b_eq = _pair(lp.a_eq, lp.b_eq, "equality")
    a_ub, b_ub = _pair(lp.a_ub, lp.b_ub, "inequality")

    if lp.bounds is None:
        lo = np.zeros(n)
        hi = np.full(n, np.inf)
    else:
        bounds = np.asarray(lp.bounds, dtype=float)
        if bounds.shape != (n, 2):
            raise ValueError(f"bounds shape {bounds.shape} does not match {n} variables")
        lo, hi = bounds[:, 0].copy(), bounds[:, 1].copy()
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("bounds must not contain NaN")
        if (lo > hi).any():
            raise ValueError("every lower bound must not exceed its upper bound")
        if (lo == np.inf).any() or (hi == -np.inf).any():
            raise ValueError("bounds pin a variable at infinity")
    return c, a_eq, b_eq, a_ub, b_ub, lo, hi


def _solve_unconstrained(c, lo, hi):
    x = np.zeros_like(c)
    for j, cj in enumerate(c):
        if cj > 0:
            if not np.isfinite(lo[j]):
                return LpSolution(status="unbounded")
            x[j] = lo[j]
        elif cj < 0:
            if not np.isfinite(hi[j]):
                return LpSolution(status="unbounded")
            x[j] = hi[j]
        else:
            x[j] = lo[j] if np.isfinite(lo[j]) else (hi[j] if np.isfinite(hi[j]) else 0.0)
    return LpSolution(
        status="optimal",
        x=x,
        objective_value=float(c @ x),
        basis=Basis(np.zeros(0, dtype=int), x == hi),
    )


def _start_columns(start: Basis, lo, hi, n: int, me: int, m: int):
    """The start's basic columns and nonbasic values over the program's
    columns, with the slack of every row after the ones it covers basic;
    ValueError when the start does not fit the program."""
    basic, at_upper = start.basic, start.at_upper
    m0 = basic.size
    if not (me <= m0 <= m and at_upper.shape == (n + m0 - me,)):
        raise ValueError("the start does not fit the leading rows of the program")
    if m0 and not 0 <= basic.min() <= basic.max() < at_upper.size:
        raise ValueError("the start names a column outside its rows")
    basic = np.concatenate([basic, np.arange(n + m0 - me, n + m - me)])
    at_upper = np.concatenate([at_upper, np.zeros(m - m0, dtype=bool)])
    cold = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    resting = np.where(at_upper, hi, cold)
    resting[basic] = 0.0
    if not np.isfinite(resting).all():
        raise ValueError("the start rests a column at an infinite upper bound")
    return basic, resting


class _Simplex:
    """Revised simplex on a fixed tableau with explicit variable bounds.

    Nonbasic variables rest exactly on one of their bounds (free variables
    rest at zero); values are reassigned to the exact bound on every basis
    exchange so state tests can use equality. The basis inverse is kept as a
    dense matrix with eta-style updates and periodic refactorization.

    The caller puts the equality rows first and appends one slack column
    per inequality row after the `n_struct` structural columns, so the
    slack of the k-th inequality row is column `n_struct + k`. Given a
    start, (basic columns, nonbasic values) from `_start_columns`, the
    simplex starts at that basis with no artificial column.
    """

    def __init__(self, a, b, lo, hi, n_struct, start=None):
        m, n0 = a.shape
        self.m = m
        self.since_refactor = 0
        self.iterations = 0
        # (states, decisions) of every loop pass when recording a path
        self.recording: tuple[list, list] | None = None
        if start is not None:
            self.a, self.b, self.lo, self.hi = a, b, lo, hi
            self.basis, self.x = start
            self.art_start = self.n = n0
            try:
                self._refactorize()
            except NumericalBreakdown:
                raise ValueError("the starting basis is singular") from None
            return

        x0 = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
        residual = b - a @ x0

        # Slack columns serve as the starting basis wherever their sign
        # allows; the remaining rows get artificial columns of matching sign.
        first_slack_row = m - (n0 - n_struct)
        artificial = (np.arange(m) < first_slack_row) | (residual < 0.0)
        art_rows = np.flatnonzero(artificial)
        slack_rows = np.flatnonzero(~artificial)
        n_art = art_rows.size
        n = n0 + n_art
        art_cols = n0 + np.arange(n_art)
        signs = np.where(residual[art_rows] < 0.0, -1.0, 1.0)
        self.a = np.zeros((m, n))
        self.a[:, :n0] = a
        self.a[art_rows, art_cols] = signs
        self.b = b.astype(float)
        self.lo = np.concatenate([lo, np.zeros(n_art)])
        self.hi = np.concatenate([hi, np.full(n_art, np.inf)])
        self.x = np.concatenate([x0, np.abs(residual[art_rows])])
        self.art_start = n0
        self.n = n

        self.basis = np.zeros(m, dtype=int)
        self.basis[art_rows] = art_cols
        slack_cols = n_struct + slack_rows - first_slack_row
        self.basis[slack_rows] = slack_cols
        self.x[slack_cols] = residual[slack_rows]
        diag = np.ones(m)
        diag[art_rows] = signs
        self.binv = np.diag(diag)

    def restore(self, state: _State) -> None:
        """Take the state a recorded path held before one of its iterations."""
        self.x[:] = state.x
        self.basis[:] = state.basis
        self.binv = state.binv.copy()
        self.since_refactor = state.since_refactor
        if state.stage > 0:
            self.pin_artificials()

    def _refactorize(self):
        basis_matrix = self.a[:, self.basis]
        try:
            self.binv = np.linalg.inv(basis_matrix)
        except np.linalg.LinAlgError:
            raise NumericalBreakdown("basis matrix became singular") from None
        off_basis = self.x.copy()
        off_basis[self.basis] = 0.0
        self.x[self.basis] = self.binv @ (self.b - self.a @ off_basis)
        self.since_refactor = 0

    def optimize(self, c, stage, resume: _State | None = None):
        """Run simplex iterations for cost vector c until optimal/unbounded.

        stage numbers the call within lp_solve for a recorded path; resume
        is a recorded state this call continues from, already restored.

        Pricing takes the largest reduced-cost violation, lowest index
        first, and Bland's first violation after STALL_WINDOW iterations
        without progress; the ratio test breaks ties on the lowest basic
        index. The costs and bounds of the basic variables are gathered once
        and patched at each pivot row. `gate_dn` is 1 where a nonbasic
        variable can decrease and `gate_up` is -1 where it can increase, so
        max(reduced * gate_dn, reduced * gate_up) is the pricing violation
        wherever it exceeds OPTIMALITY_TOL. The gates change only at the
        entering and leaving columns, and are rebuilt here because
        drive_out_artificials moves bounds between calls.
        """
        a, x, lo, hi, basis = self.a, self.x, self.lo, self.hi, self.basis
        c_b, lo_b, hi_b = c[basis], lo[basis], hi[basis]
        gate_dn = np.where(x > lo, 1.0, 0.0)
        gate_up = np.where(x < hi, -1.0, 0.0)
        gate_dn[basis] = 0.0
        gate_up[basis] = 0.0
        score = np.empty(self.n)
        score_up = np.empty(self.n)
        limits = np.empty(self.m)

        max_iter = ITERATION_FACTOR * (self.n + self.m)
        start, bland, stall, prev_obj = 0, False, 0, np.inf
        if resume is not None:
            start, bland, stall, prev_obj = (
                resume.index, resume.bland, resume.stall, resume.prev_obj
            )
        states = decisions = None
        if self.recording is not None:
            states, decisions = self.recording
        for index in range(start, max_iter):
            if states is not None:
                states.append(_State(
                    stage, index, x.copy(), basis.copy(), self.binv.copy(),
                    self.since_refactor, bland, stall, prev_obj,
                ))
            if self.since_refactor >= REFACTOR_INTERVAL:
                self._refactorize()
            binv = self.binv

            y = binv.T @ c_b
            reduced = c - a.T @ y
            np.multiply(reduced, gate_dn, out=score)
            np.multiply(reduced, gate_up, out=score_up)
            np.maximum(score, score_up, out=score)
            j = int(np.argmax(score > OPTIMALITY_TOL)) if bland else int(score.argmax())
            if not score[j] > OPTIMALITY_TOL:
                if decisions is not None:
                    decisions.append((-1, math.inf, False, x[basis], np.zeros(self.m)))
                return "optimal"
            direction = 1.0 if reduced[j] < 0.0 else -1.0

            w = binv @ a[:, j]
            delta, neg_delta = (w, -w) if direction > 0 else (-w, w)
            xb = x[basis]
            limits.fill(np.inf)
            np.divide(np.maximum(xb - lo_b, 0.0), delta, out=limits, where=delta > PIVOT_TOL)
            np.divide(np.maximum(hi_b - xb, 0.0), neg_delta, out=limits, where=delta < -PIVOT_TOL)
            # Every limit is +0.0, positive or +inf, so the first minimum
            # is the minimum bit for bit.
            r = int(limits.argmin())
            t_basic = float(limits[r])
            t_flip = hi[j] - lo[j]

            if not math.isfinite(min(t_basic, t_flip)):
                if decisions is not None:
                    decisions.append((j, math.inf, False, xb, delta))
                return "unbounded"

            if decisions is not None:
                flip = t_flip < t_basic
                decisions.append((j, t_flip if flip else t_basic, flip, xb.copy(), delta))
            self.iterations += 1
            if t_flip < t_basic:
                step = t_flip
                xb -= step * delta
                x[basis] = xb
                x[j] = hi[j] if direction > 0 else lo[j]
                gate_dn[j] = 1.0 if x[j] > lo[j] else 0.0
                gate_up[j] = -1.0 if x[j] < hi[j] else 0.0
            else:
                step = t_basic
                tied = limits == t_basic
                if np.count_nonzero(tied) > 1:
                    ties = np.flatnonzero(tied)
                    r = int(ties[basis[ties].argmin()])
                leaving = int(basis[r])
                xb -= step * delta
                x[basis] = xb
                x[j] += direction * step
                x[leaving] = lo[leaving] if delta[r] > 0 else hi[leaving]
                basis[r] = j
                c_b[r], lo_b[r], hi_b[r] = c[j], lo[j], hi[j]
                gate_dn[j] = gate_up[j] = 0.0
                gate_dn[leaving] = 1.0 if x[leaving] > lo[leaving] else 0.0
                gate_up[leaving] = -1.0 if x[leaving] < hi[leaving] else 0.0
                new_row = binv[r] / w[r]
                binv -= w[:, None] * new_row
                binv[r] = new_row
                self.since_refactor += 1

            obj = float(c @ x)
            if prev_obj - obj <= 1e-12 * (1.0 + abs(prev_obj)):
                stall += 1
                if stall >= STALL_WINDOW:
                    bland = True
            else:
                stall = 0
            prev_obj = obj
        raise NumericalBreakdown(
            f"simplex exceeded {max_iter} iterations on a {self.m}x{self.n} program"
        )

    def dual_optimize(self, c, feas_tol):
        """Run bounded dual simplex iterations for cost vector c, from a
        dual feasible basis, until every basic value lies within feas_tol
        of its bounds ("optimal") or a row proves the program infeasible.

        The leaving row holds the basic value furthest outside its bounds,
        first row on ties, and leaves at the bound it violates. Its dual
        then moves off zero, and each nonbasic column that can move toward
        repairing the row has a breakpoint where its reduced cost reaches
        zero. The ratio test flips bounds (Koberstein & Suhl): passing a
        breakpoint moves that column to its other bound, which is dual
        feasible beyond it, and uses up its span times its pivot of the
        row's infeasibility. The column at which that infeasibility would
        be used up enters. Breakpoints are taken in order, ties by the
        largest pivot and then the lowest index. When even every column
        at its other bound leaves the row more than feas_tol outside, the
        program is infeasible; when it leaves it within, the last column
        enters. After STALL_WINDOW iterations without dual objective
        progress the leaving row is the lowest basic index outside, and
        ties take the lowest index, as the primal turns to Bland's rule.
        Before "optimal" the basis is refactorized and the basic values
        checked again. Raises ValueError when the start is not dual
        feasible, and NumericalBreakdown when the iteration budget runs
        out.
        """
        a, x, lo, hi, basis = self.a, self.x, self.lo, self.hi, self.basis
        c_b, lo_b, hi_b = c[basis], lo[basis], hi[basis]
        gate_dn = np.where(x > lo, 1.0, 0.0)
        gate_up = np.where(x < hi, -1.0, 0.0)
        gate_dn[basis] = 0.0
        gate_up[basis] = 0.0
        reduced = c - a.T @ (self.binv.T @ c_b)
        if max(np.max(reduced * gate_dn), np.max(reduced * gate_up)) > OPTIMALITY_TOL:
            raise ValueError("the starting basis is not dual feasible")
        toward = np.empty(self.n)
        pivots = np.empty(self.n)
        other = np.empty(self.n)

        max_iter = ITERATION_FACTOR * (self.n + self.m)
        bland, stall, prev_obj = False, 0, float(c @ x)
        for _ in range(max_iter):
            if self.since_refactor >= REFACTOR_INTERVAL:
                self._refactorize()
            binv = self.binv
            xb = x[basis]
            excess = np.maximum(lo_b - xb, xb - hi_b)
            if bland:
                rows = np.flatnonzero(excess > feas_tol)
                r = int(rows[basis[rows].argmin()]) if rows.size else 0
            else:
                r = int(excess.argmax())
            if not excess[r] > feas_tol:
                if self.since_refactor == 0:
                    return "optimal"
                self._refactorize()
                continue

            leaving = int(basis[r])
            to_upper = xb[r] > hi_b[r]
            bound = hi_b[r] if to_upper else lo_b[r]
            reduced = c - a.T @ (binv.T @ c_b)
            alpha = binv[r] @ a
            # As the row's dual moves, reduced cost j changes at rate
            # toward[j]. pivots[j] is that rate's size where it drives a
            # column that can rise (gate_up -1) or fall (gate_dn 1) toward
            # a reduced cost of the wrong sign, and not above zero elsewhere.
            np.multiply(alpha, -1.0 if to_upper else 1.0, out=toward)
            np.multiply(toward, gate_up, out=pivots)
            np.multiply(toward, gate_dn, out=other)
            np.maximum(pivots, other, out=pivots)
            candidates = np.flatnonzero(pivots > PIVOT_TOL)
            if not candidates.size:
                return "infeasible"
            breakpoints = np.abs(reduced[candidates]) / pivots[candidates]
            if bland:
                candidates = candidates[np.lexsort((candidates, breakpoints))]
            else:
                candidates = candidates[np.lexsort((candidates, -pivots[candidates], breakpoints))]
            spans = hi[candidates] - lo[candidates]
            # the row's infeasibility left after each breakpoint's flip
            left = abs(xb[r] - bound) - np.cumsum(pivots[candidates] * spans)
            k = int(np.argmax(left < 0.0))
            if not left[k] < 0.0:
                if left[-1] > feas_tol:
                    return "infeasible"
                k = candidates.size - 1
            if k:
                flips = candidates[:k]
                far = np.where(x[flips] == lo[flips], hi[flips], lo[flips])
                xb -= binv @ (a[:, flips] @ (far - x[flips]))
                x[flips] = far
                gate_dn[flips] = np.where(far > lo[flips], 1.0, 0.0)
                gate_up[flips] = np.where(far < hi[flips], -1.0, 0.0)

            j = int(candidates[k])
            w = binv @ a[:, j]
            step = (xb[r] - bound) / w[r]
            xb -= step * w
            x[basis] = xb
            x[j] += step
            x[leaving] = bound
            basis[r] = j
            c_b[r], lo_b[r], hi_b[r] = c[j], lo[j], hi[j]
            gate_dn[j] = gate_up[j] = 0.0
            gate_dn[leaving] = 1.0 if bound > lo[leaving] else 0.0
            gate_up[leaving] = -1.0 if bound < hi[leaving] else 0.0
            new_row = binv[r] / w[r]
            binv -= w[:, None] * new_row
            binv[r] = new_row
            self.since_refactor += 1
            self.iterations += 1

            obj = float(c @ x)
            if obj - prev_obj <= 1e-12 * (1.0 + abs(prev_obj)):
                stall += 1
                if stall >= STALL_WINDOW:
                    bland = True
            else:
                stall = 0
            prev_obj = obj
        raise NumericalBreakdown(
            f"dual simplex exceeded {max_iter} iterations on a {self.m}x{self.n} program"
        )

    def drive_out_artificials(self, tol):
        """Pin artificial variables to zero after a successful phase 1."""
        level = float(np.sum(self.x[self.art_start :]))
        if level > tol:
            return False
        self.pin_artificials()
        return True

    def pin_artificials(self):
        self.lo[self.art_start :] = 0.0
        self.hi[self.art_start :] = 0.0


def _run_stages(sx: _Simplex, c, feas_tol, state: _State | None) -> str:
    """Phase 1, phase 2 and the re-optimization after a refactorization,
    from the start or, given a restored state, from the stage it holds."""
    first = 0 if state is None else state.stage
    if first == 0 and sx.n > sx.art_start:
        c1 = np.zeros(sx.n)
        c1[sx.art_start :] = 1.0
        if sx.optimize(c1, 0, state) == "unbounded":
            raise NumericalBreakdown("phase 1 reported an unbounded direction")
        if not sx.drive_out_artificials(feas_tol):
            return "infeasible"
    c2 = np.zeros(sx.n)
    c2[: c.size] = c
    if first <= 1:
        if sx.optimize(c2, 1, state if first == 1 else None) == "unbounded":
            return "unbounded"
        sx._refactorize()
    return sx.optimize(c2, 2, state if first == 2 else None)


def lp_solve(
    lp: LinearProgram,
    *,
    record: bool = False,
    path: PivotPath | None = None,
    start: Basis | None = None,
) -> LpSolution:
    """Solve a linear program to a vertex optimum.

    Deterministic for identical inputs: pricing uses the largest reduced
    cost with lowest-index tie-breaks, switching to Bland's rule after a
    stall, so repeated runs pivot identically. Raises NumericalBreakdown if
    the iteration budget is exhausted or the final residuals cannot be
    certified.

    record=True keeps the pivot path in the solution's `path` (None for a
    program without rows). Given such a path, the solve replays it: the
    program must differ from the recorded one only in upper bounds, and
    `PivotPath.resume_index` finds the first iteration whose decision the
    new bounds could change. The solve restores the state recorded before
    that iteration and runs the same loop from there, so it returns what
    the cold solve returns, bit for bit; at iteration 0 it is the cold
    solve. Clipping to the bounds and the residual check are the new
    program's own.

    Given a start, the basis of the program's leading rows (all equality
    rows and the first inequality rows, as a solve of the program without
    the rows after them returned it), every later row gets its slack
    basic and `_Simplex.dual_optimize` runs from there. The start must be
    dual feasible, else ValueError; the solution may be another optimal
    vertex than the cold solve's.
    """
    if record and path is not None:
        raise ValueError("a replayed solve cannot record a path: its prefix would be missing")
    if start is not None and (record or path is not None):
        raise ValueError("a warm solve neither records nor replays a pivot path")
    program = _canonical(lp)
    c, a_eq, b_eq, a_ub, b_ub, lo, hi = program
    resume = path.resume_index(program) if path is not None else 0
    n = c.size
    me, mu = a_eq.shape[0], a_ub.shape[0]
    m = me + mu
    if m == 0:
        return _solve_unconstrained(c, lo, hi)

    a = np.zeros((m, n + mu))
    a[:me, :n] = a_eq
    a[me:, :n] = a_ub
    a[me:, n:] = np.eye(mu)
    b = np.concatenate([b_eq, b_ub])
    lo_full = np.concatenate([lo, np.zeros(mu)])
    hi_full = np.concatenate([hi, np.full(mu, np.inf)])

    scale = 1.0 + float(np.max(np.abs(b))) if m else 1.0
    feas_tol = FEASIBILITY_TOL * scale
    state = None
    replayed = 0
    if start is not None:
        sx = _Simplex(a, b, lo_full, hi_full, n, _start_columns(start, lo_full, hi_full, n, me, m))
        status = sx.dual_optimize(np.concatenate([c, np.zeros(mu)]), feas_tol)
    else:
        sx = _Simplex(a, b, lo_full, hi_full, n)
        if record:
            sx.recording = ([], [])
        if resume:
            state = path.states[resume]
            sx.restore(state)
            replayed = int(np.count_nonzero(np.isfinite(path.step[:resume])))
        status = _run_stages(sx, c, feas_tol, state)
    x = objective = basis = None
    if status == "optimal":
        x = np.clip(sx.x[:n], lo, hi)
        worst = 0.0
        if me:
            worst = max(worst, float(np.max(np.abs(a_eq @ x - b_eq))))
        if mu:
            worst = max(worst, float(np.max(np.maximum(a_ub @ x - b_ub, 0.0))))
        if worst > feas_tol:
            raise NumericalBreakdown(
                f"solution residual {worst:.3e} exceeds tolerance {feas_tol:.3e}"
            )
        objective = float(c @ x)
        if sx.basis.max() < sx.art_start:
            at_upper = sx.x[: sx.art_start] == sx.hi[: sx.art_start]
            at_upper[sx.basis] = False
            basis = Basis(sx.basis.copy(), at_upper)
    recorded = None
    if record:
        states, decisions = sx.recording
        entering, step, flip, xb, delta = zip(*decisions)
        recorded = PivotPath(
            program=program,
            states=tuple(states),
            basis=np.stack([state.basis for state in states]),
            entering=np.array(entering),
            step=np.array(step),
            flip=np.array(flip),
            xb=np.stack(xb),
            delta=np.stack(delta),
        )
    return LpSolution(
        status=status,
        x=x,
        objective_value=objective,
        iterations=sx.iterations,
        replayed=replayed,
        path=recorded,
        basis=basis,
    )
