"""Dense linear-algebra and linear-programming kernels.

Two solvers used everywhere else in the package: a checked dense linear
solve for the power-flow systems, and a bounded-variable revised simplex
method for the dispatch and economic optimizations, two-phase primal from
a cold start and dual from a warm one. The linear
solve and the simplex's basis inverse rest on numpy's LAPACK/BLAS
routines, so results are not promised bit-identical across platforms or
numpy builds. What does hold: on one machine, repeated runs and any worker
count give identical bytes, because pricing and basis bookkeeping are
deterministic and every worker runs the same arithmetic. The cold
simplex's pivot rule and the arithmetic behind each pivot are pinned by
`tests/oracles.reference_lp_solve`, which the test suite holds it to bit
for bit.

The cold simplex solves a stack of programs at once
(`lp_solve_stack`); `lp_solve` is a stack of one. The programs may
differ only in the upper bounds of columns with a finite lower bound, so
they share the cold start and the artificial columns. Each member takes
its own pivots, one per lockstep pass, with its own stage, costs, Bland
and stall state, refactorization count and iteration budget. Every
per-member product is one slice of a stacked numpy call (`np.matmul` on
3-D operands, `np.linalg.inv` on a stack of bases), which numpy runs as
the BLAS or LAPACK call it makes for that member alone. So each member
returns its own cold solve's result bit for bit, whatever else is in the
stack.

A stack can also start on the recorded cold pivot path of a program that
differs from its members only in upper bounds (`lp_solve(lp).path`, then
`lp_solve_stack(others, path=...)`). Up to the first pass whose decision
a member's bounds could change (`PivotPath.resume_entries`), its cold
solve would take the recorded pivots with the same arithmetic, so the
member starts from the state recorded before that pass and still returns
its cold solve bit for bit.

A program that extends a solved one by inequality rows appended after its
rows is re-solved warm (`lp_solve(lp, start=solution.basis)`): the solved
program's optimal basis, with the slack of every new row basic, stays dual
feasible, so a bounded dual simplex with a bound-flipping ratio test
(Koberstein & Suhl, Computational Optimization and Applications, 2007;
Bixby, Operations Research 50(1), 2002) pivots from it until the new rows
hold. Any dual feasible basis will do as a start, such as a closed-form
optimum the caller knows. A warm solve may end on another optimal vertex
than the cold solve; its status and optimal value are the program's.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import NumericalBreakdown, SingularMatrix

__all__ = [
    "Basis",
    "LinearProgram",
    "LpSolution",
    "PivotPath",
    "lu_solve",
    "lp_solve",
    "lp_solve_stack",
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
    pivots, each with the bound flips of its ratio test) of the solve;
    replayed counts those a stack member took from a recorded path rather
    than ran. basis is the optimal basis, a start for the program with
    rows appended; None unless optimal, or when a cold solve ends with an
    artificial column basic. path is the pivot path of a cold stack of
    one without a path, for a program with rows. None of the last four
    takes part in equality.
    """

    status: str
    x: np.ndarray | None = None
    objective_value: float | None = None
    iterations: int = field(default=0, compare=False)
    replayed: int = field(default=0, compare=False)
    basis: Basis | None = field(default=None, compare=False, repr=False)
    path: PivotPath | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class PivotPath:
    """The cold pivot path of one program, as `lp_solve` took it.

    Entry k describes one lockstep pass of the program's stack of one:
    states[name][k] is the member's `_Stack` array `name` before it, for
    each name in `_PATH_STATE`, and the rest its decision. entering[k] is
    the entering column (-1 where pricing found the stage optimal), step[k]
    the step (+inf where the program was found unbounded), flip[k] whether
    the entering column flipped to its other bound rather than pivoted in,
    and xb[k] and delta[k] the basic values and the direction-adjusted
    column of the ratio test, row by row of states["basis"][k]. program
    holds the canonical arrays of the recorded program.
    """

    program: tuple
    states: dict
    entering: np.ndarray
    step: np.ndarray
    flip: np.ndarray
    xb: np.ndarray
    delta: np.ndarray

    def resume_entries(self, his: np.ndarray) -> np.ndarray:
        """First entry whose decision each row of upper bounds could change.

        his holds one row of structural upper bounds per program; a bound
        may differ from the recorded one only where the lower bound is
        finite. Before that entry no changed column rests at its upper
        bound, so only these decisions read a changed bound:

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
        a program resumes at the final entry, the closing pricing.
        """
        lo, old_hi = self.program[5], self.program[6]
        changed = his.view(np.int64) != old_hi.view(np.int64)
        last = self.entering.size - 1
        basis = self.states["basis"]
        n = old_hi.size
        # slack and artificial columns keep their bounds
        moving = (basis < n) & (self.delta < -PIVOT_TOL) & (self.entering >= 0)[:, None]
        rows, cols = np.nonzero(moving)
        col = basis[rows, cols]
        xb, speed = self.xb[rows, cols], -self.delta[rows, cols]
        # the limit under the lower of the two bounds, the smaller limit
        limit = np.maximum(np.minimum(his[:, col], old_hi[col]) - xb, 0.0) / speed
        ratio_hits = changed[:, col] & (limit <= self.step[rows])
        entries = np.where(ratio_hits, rows, last).min(axis=1, initial=last)

        enters = np.flatnonzero((self.entering >= 0) & (self.entering < n))
        j = self.entering[enters]
        entry_hits = changed[:, j] & (
            self.flip[enters] | (his[:, j] - lo[j] < self.step[enters]) | (his[:, j] <= lo[j])
        )
        entries = np.minimum(entries, np.where(entry_hits, enters, last).min(axis=1, initial=last))
        entries[(changed & (old_hi <= lo)).any(axis=1)] = 0
        return entries


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


def _standard_form(a_eq, b_eq, a_ub, b_ub):
    """The rows with one slack column per inequality row, their right-hand
    side, and the feasibility tolerance scaled to it."""
    me, mu = a_eq.shape[0], a_ub.shape[0]
    n = a_eq.shape[1]
    a = np.zeros((me + mu, n + mu))
    a[:me, :n] = a_eq
    a[me:, :n] = a_ub
    a[me:, n:] = np.eye(mu)
    b = np.concatenate([b_eq, b_ub])
    return a, b, FEASIBILITY_TOL * (1.0 + float(np.max(np.abs(b))))


def _solution(program, feas_tol, art_start, status, x_full, basic, hi_full, iterations):
    """The LpSolution of one finished solve: x clipped to the program's
    bounds, its residuals certified against feas_tol (NumericalBreakdown
    above it), and the basis when no artificial column is basic."""
    if status != "optimal":
        return LpSolution(status=status, iterations=iterations)
    c, a_eq, b_eq, a_ub, b_ub, lo, hi = program
    x = np.clip(x_full[: c.size], lo, hi)
    worst = 0.0
    if a_eq.shape[0]:
        worst = max(worst, float(np.max(np.abs(a_eq @ x - b_eq))))
    if a_ub.shape[0]:
        worst = max(worst, float(np.max(np.maximum(a_ub @ x - b_ub, 0.0))))
    if worst > feas_tol:
        raise NumericalBreakdown(
            f"solution residual {worst:.3e} exceeds tolerance {feas_tol:.3e}"
        )
    basis = None
    if basic.max() < art_start:
        at_upper = x_full[:art_start] == hi_full[:art_start]
        at_upper[basic] = False
        basis = Basis(basic.copy(), at_upper)
    return LpSolution(
        status=status,
        x=x,
        objective_value=float(c @ x),
        iterations=iterations,
        basis=basis,
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


# the arrays a _Stack keeps per member, in stack order
_MEMBER_ARRAYS = (
    "member", "x", "hi", "basis", "binv", "cost", "gate_dn", "gate_up", "stage",
    "since_refactor", "iterations", "stage_iterations", "bland", "stall", "prev_obj",
)
# the member arrays a PivotPath keeps before each pass; the cost row and
# the gates follow from the stage, x and the member's own bounds
_PATH_STATE = (
    "x", "basis", "binv", "stage", "since_refactor", "iterations", "stage_iterations",
    "bland", "stall", "prev_obj",
)


class _Stack:
    """Two-phase bounded primal simplex over a stack of programs that share
    every array but the upper bounds.

    Nonbasic variables rest exactly on one of their bounds (free variables
    rest at zero); values are reassigned to the exact bound on every basis
    exchange so state tests can use equality. Each basis inverse is kept as
    a dense matrix with eta-style updates and periodic refactorization.

    a, b and lo are shared and hi holds one row per member. The caller puts
    the equality rows first and appends one slack column per inequality row
    after the `n_struct` structural columns, so the slack of the k-th
    inequality row is column `n_struct + k`; the upper bounds differ only
    on columns with a finite lower bound, so every member starts at the
    same point with the same artificial columns. A member's stage is 0 in
    phase 1, 1 in phase 2 and 2 in the re-optimization after the final
    refactorization; it runs with that stage's cost row, and its Bland,
    stall and iteration state restarts with each stage. `run` makes
    lockstep passes until every member has finished; a finished member
    leaves the stack. The per-pass temporaries over members and columns,
    and the rank-one update of the basis inverses, are written into
    buffers made once per stack.
    """

    def __init__(self, a, b, lo, hi, n_struct, c):
        m, n0 = a.shape
        x0 = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi[0]), hi[0], 0.0))
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
        self.m, self.n, self.art_start = m, n, n0
        self.phase_costs = np.zeros((2, n))
        self.phase_costs[0, n0:] = 1.0
        self.phase_costs[1, : c.size] = c

        k = hi.shape[0]
        self.rows = np.arange(k)
        self.member = np.arange(k)
        self.hi = np.concatenate([hi, np.full((k, n_art), np.inf)], axis=1)
        x = np.concatenate([x0, np.abs(residual[art_rows])])
        basis = np.zeros(m, dtype=int)
        basis[art_rows] = art_cols
        slack_cols = n_struct + slack_rows - first_slack_row
        basis[slack_rows] = slack_cols
        x[slack_cols] = residual[slack_rows]
        diag = np.ones(m)
        diag[art_rows] = signs
        self.x = np.tile(x, (k, 1))
        self.basis = np.tile(basis, (k, 1))
        self.binv = np.tile(np.diag(diag), (k, 1, 1))
        self.cost, self.gate_dn, self.gate_up = np.zeros((3, k, n))
        self.stage = np.zeros(k, dtype=int)
        self.since_refactor = np.zeros(k, dtype=int)
        self.iterations = np.zeros(k, dtype=int)  # of the stages before this one
        self.stage_iterations = np.zeros(k, dtype=int)
        self.bland = np.zeros(k, dtype=bool)
        self.stall = np.zeros(k, dtype=int)
        self.prev_obj = np.empty(k)
        # (status, x, basis, upper bounds, iterations) of each finished member
        self.finished: list[tuple | None] = [None] * k
        # a.T @ y, reduced costs and the two scores of a pass; rank-one updates
        self.work = np.empty((4, k, n))
        self.outer = np.empty((k, m, m))

    def run(self, feas_tol, path=None, entries=None, recording=None) -> list[tuple]:
        """Solve every member, cold or from its entry of a recorded path:
        the state recorded there, with the cost row and gates of its own
        stage and bounds. A stack of one appends the state and decision of
        each pass to a `recording` list, as a PivotPath keeps them."""
        if path is None:
            self._enter(self.rows, 0 if self.n > self.art_start else 1)
        else:
            for name, recorded in path.states.items():
                getattr(self, name)[:] = recorded[entries]
            self.hi[self.stage > 0, self.art_start :] = 0.0  # artificials pinned after phase 1
            self._set_pricing(self.rows)
        max_iter = ITERATION_FACTOR * (self.n + self.m)
        while self.member.size:
            if recording is None:
                self._pass(feas_tol, max_iter)
                continue
            state = [getattr(self, name)[0].copy() for name in _PATH_STATE]
            j, priced, t_basic, t_flip, xb, delta = self._pass(feas_tol, max_iter)
            entering = int(j[0]) if priced[0] else -1
            step, flip = min(t_basic[0], t_flip[0]), t_flip[0] < t_basic[0]
            recording.append((state, (entering, step, flip, xb[0].copy(), delta[0].copy())))
        return self.finished

    def _enter(self, ks, stage):
        """Start members ks on a stage: its cost row, fresh gates and
        pricing state."""
        self.stage[ks] = stage
        self.iterations[ks] += self.stage_iterations[ks]
        self.stage_iterations[ks] = 0
        self.bland[ks] = False
        self.stall[ks] = 0
        self.prev_obj[ks] = np.inf
        self._set_pricing(ks)

    def _set_pricing(self, ks):
        """Set the cost row of each member's stage and rebuild its gates.

        `gate_dn` is 1 where a nonbasic variable can decrease and `gate_up`
        is -1 where it can increase, so max(reduced * gate_dn, reduced *
        gate_up) is the pricing violation wherever it exceeds
        OPTIMALITY_TOL. The gates change only at the entering and leaving
        columns, and are rebuilt with each stage because phase 1 ends by
        moving the bounds of the artificial columns.
        """
        basis, x, hi = self.basis[ks], self.x[ks], self.hi[ks]
        self.cost[ks] = self.phase_costs[np.minimum(self.stage[ks], 1)]
        gate_dn = np.where(x > self.lo, 1.0, 0.0)
        gate_up = np.where(x < hi, -1.0, 0.0)
        np.put_along_axis(gate_dn, basis, 0.0, 1)
        np.put_along_axis(gate_up, basis, 0.0, 1)
        self.gate_dn[ks], self.gate_up[ks] = gate_dn, gate_up

    def _refactorize(self, ks):
        basis = self.basis[ks]
        try:
            binv = np.linalg.inv(self.a[:, basis].transpose(1, 0, 2))
        except np.linalg.LinAlgError:
            raise NumericalBreakdown("basis matrix became singular") from None
        off_basis = self.x[ks]
        np.put_along_axis(off_basis, basis, 0.0, 1)
        rhs = self.b - np.matmul(self.a, off_basis[:, :, None])[:, :, 0]
        self.x[ks[:, None], basis] = np.matmul(binv, rhs[:, :, None])[:, :, 0]
        self.binv[ks] = binv
        self.since_refactor[ks] = 0

    def _pass(self, feas_tol, max_iter):
        """One iteration of every member, or the end of its stage.

        Pricing takes the largest reduced-cost violation, lowest index
        first, and Bland's first violation after STALL_WINDOW iterations
        without progress; the ratio test breaks ties on the lowest basic
        index. Returns the pass's decisions: each member's priced column
        and whether it prices a violation, both limits of its ratio test,
        its basic values and its direction-adjusted column.
        """
        due = self.since_refactor >= REFACTOR_INTERVAL
        if due.any():
            self._refactorize(np.flatnonzero(due))
        a, lo, x, hi, basis, binv = self.a, self.lo, self.x, self.hi, self.basis, self.binv
        rows = self.rows[: self.member.size]
        each = rows[:, None]

        y = np.matmul(binv.transpose(0, 2, 1), self.cost[each, basis][:, :, None])
        a_y, reduced, score, score_up = self.work[:, : rows.size]
        np.matmul(a.T, y, out=a_y[:, :, None])
        np.subtract(self.cost, a_y, out=reduced)
        np.multiply(reduced, self.gate_dn, out=score)
        np.multiply(reduced, self.gate_up, out=score_up)
        np.maximum(score, score_up, out=score)
        j = score.argmax(axis=1)
        if self.bland.any():
            j = np.where(self.bland, np.argmax(score > OPTIMALITY_TOL, axis=1), j)
        priced = score[rows, j] > OPTIMALITY_TOL
        direction = np.where(reduced[rows, j] < 0.0, 1.0, -1.0)

        w = np.matmul(binv, a.T[j][:, :, None])[:, :, 0]
        delta = w * direction[:, None]
        # A basic variable moving down (delta > 0) meets its lower bound,
        # one moving up its upper bound; rows with |delta| <= PIVOT_TOL do
        # not limit the step.
        xb = x[each, basis]
        room = np.where(delta > 0.0, xb - lo[basis], hi[each, basis] - xb)
        np.maximum(room, 0.0, out=room)
        speed = np.abs(delta)
        limits = np.full(basis.shape, np.inf)
        np.divide(room, speed, out=limits, where=speed > PIVOT_TOL)
        # Every limit is +0.0, positive or +inf, so the first minimum is
        # the minimum bit for bit.
        t_basic = limits.min(axis=1)
        t_flip = hi[rows, j] - lo[j]
        moving = priced & np.isfinite(np.minimum(t_basic, t_flip))
        every = bool(moving.all())
        moved = rows if every else np.flatnonzero(moving)
        # a slice where every member moves: views instead of copies
        mv = slice(None) if every else moved

        if moved.size:
            flip = t_flip[mv] < t_basic[mv]
            step = np.where(flip, t_flip[mv], t_basic[mv])
            x[each[mv], basis[mv]] = xb[mv] - step[:, None] * delta[mv]
            pivots = moved
            if flip.any():
                flips = moved[flip]
                jf = j[flips]
                x[flips, jf] = np.where(direction[flips] > 0, hi[flips, jf], lo[jf])
                self.gate_dn[flips, jf] = np.where(x[flips, jf] > lo[jf], 1.0, 0.0)
                self.gate_up[flips, jf] = np.where(x[flips, jf] < hi[flips, jf], -1.0, 0.0)
                pivots, step = moved[~flip], step[~flip]
            if pivots.size:
                self._exchange(pivots, j[pivots], step, direction[pivots], w, limits, t_basic)

            self.stage_iterations[mv] += 1
            obj = np.matmul(self.cost[mv][:, None, :], x[mv][:, :, None])[:, 0, 0]
            prev_obj = self.prev_obj[mv]
            stalled = prev_obj - obj <= 1e-12 * (1.0 + np.abs(prev_obj))
            stall = np.where(stalled, self.stall[mv] + 1, 0)
            self.stall[mv] = stall
            self.bland[mv] |= stall >= STALL_WINDOW
            self.prev_obj[mv] = obj
            if self.stage_iterations.max() >= max_iter:
                raise NumericalBreakdown(
                    f"simplex exceeded {max_iter} iterations on a {self.m}x{self.n} program"
                )

        if not every:
            ended = np.flatnonzero(~moving)
            self._end_stages(ended, priced[ended], feas_tol)
        return j, priced, t_basic, t_flip, xb, delta

    def _exchange(self, pivots, j, step, direction, w, limits, t_basic):
        """Pivot column j[k] into the basis of member pivots[k] by step[k]
        in its direction; the leaving row is the ratio test's, ties going
        to the lowest basic index."""
        x, lo, hi, basis, binv = self.x, self.lo, self.hi, self.basis, self.binv
        whole = pivots.size == self.member.size
        # a slice where every member pivots: views instead of copies
        sel = slice(None) if whole else pivots
        r = np.where(limits[sel] == t_basic[sel, None], basis[sel], self.n).argmin(axis=1)
        inner = self.rows[: pivots.size]
        w = w[sel]
        leaving = basis[pivots, r]
        lo_out, hi_out = lo[leaving], hi[pivots, leaving]
        # the basic variable moving down (w[r] * direction > 0) leaves at its lower bound
        out = np.where(w[inner, r] * direction > 0, lo_out, hi_out)
        x[pivots, j] += direction * step
        x[pivots, leaving] = out
        basis[pivots, r] = j
        self.gate_dn[pivots, j] = self.gate_up[pivots, j] = 0.0
        self.gate_dn[pivots, leaving] = np.where(out > lo_out, 1.0, 0.0)
        self.gate_up[pivots, leaving] = np.where(out < hi_out, -1.0, 0.0)
        block = binv[sel]
        new_row = block[inner, r] / w[inner, r][:, None]
        block -= np.einsum("ki,kj->kij", w, new_row, out=self.outer[: pivots.size])
        block[inner, r] = new_row
        if not whole:
            binv[pivots] = block
        self.since_refactor[sel] += 1

    def _end_stages(self, ks, unbounded, feas_tol):
        """Members ks found their stage optimal, or unbounded where marked:
        phase 1 hands over to phase 2 (or proves the program infeasible),
        phase 2 refactorizes and re-optimizes, and the re-optimization ends
        the solve."""
        stage = self.stage[ks]
        if (unbounded & (stage == 0)).any():
            raise NumericalBreakdown("phase 1 reported an unbounded direction")
        done, phase_two = [], []
        for k, is_unbounded, s in zip(ks.tolist(), unbounded.tolist(), stage.tolist()):
            if is_unbounded:
                done.append((k, "unbounded"))
            elif s == 0:
                if float(np.sum(self.x[k, self.art_start :])) > feas_tol:
                    done.append((k, "infeasible"))
                else:
                    self.hi[k, self.art_start :] = 0.0  # pin the artificials at zero
                    phase_two.append(k)
            elif s == 2:
                done.append((k, "optimal"))
        if phase_two:
            self._enter(np.array(phase_two), 1)
        reoptimize = ks[~unbounded & (stage == 1)]
        if reoptimize.size:
            self._refactorize(reoptimize)
            self._enter(reoptimize, 2)
        if done:
            for k, status in done:
                self.finished[self.member[k]] = (
                    status, self.x[k].copy(), self.basis[k].copy(), self.hi[k].copy(),
                    int(self.iterations[k] + self.stage_iterations[k]),
                )
            keep = np.ones(self.member.size, dtype=bool)
            keep[[k for k, _ in done]] = False
            for name in _MEMBER_ARRAYS:
                setattr(self, name, getattr(self, name)[keep])


class _DualSimplex:
    """Bounded dual simplex from a dual feasible basis, on the tableau of
    `_standard_form` and a start from `_start_columns`; its state is kept
    as `_Stack` keeps one member's, without artificial columns."""

    def __init__(self, a, b, lo, hi, start):
        self.m, self.n = a.shape
        self.a, self.b, self.lo, self.hi = a, b, lo, hi
        self.basis, self.x = start
        self.iterations = 0
        try:
            self._refactorize()
        except NumericalBreakdown:
            raise ValueError("the starting basis is singular") from None

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

    def optimize(self, c, feas_tol):
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


def lp_solve_stack(
    programs: Sequence[LinearProgram], *, path: PivotPath | None = None
) -> list[LpSolution]:
    """Solve programs cold as one stack; each solution is what `lp_solve`
    returns for that program alone, bit for bit, iterations and basis
    included.

    Every program must equal the first in its objective, rows and lower
    bounds, and may change an upper bound only where the lower bound is
    finite; otherwise ValueError. A stack of one without a path keeps its
    pivot path in its solution's `path`. Given the pivot path of a program
    (`lp_solve(program).path`), they must equal that program so, and each
    member starts at its `PivotPath.resume_entries` entry of the path:
    from the state recorded there, with its own gates, and its artificial
    columns pinned at zero after phase 1. Its solution counts the recorded
    iterations before that entry as `replayed`. Raises NumericalBreakdown
    as soon as one member's solve would.
    """
    parts = [_canonical(lp) for lp in programs]
    if not parts:
        return []
    first = parts[0] if path is None else path.program
    c, a_eq, b_eq, a_ub, b_ub, lo, hi = first
    names = ("objective", "equality matrix", "equality vector",
             "inequality matrix", "inequality vector", "lower bounds")
    for part in parts:
        for name, ours, theirs in zip(names, part, first):
            if not (ours is theirs or (
                ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()
            )):
                which = "the first" if path is None else "the recorded one"
                raise ValueError(f"stacked program differs from {which} in its {name}")
    his = np.array([part[6] for part in parts])
    changed = (his.view(np.int64) != hi.view(np.int64)).any(axis=0)
    if not np.isfinite(lo[changed]).all():
        raise ValueError("a changed upper bound needs a finite lower bound")

    n, mu = c.size, a_ub.shape[0]
    if a_eq.shape[0] + mu == 0:
        return [_solve_unconstrained(c, lo, upper) for upper in his]
    a, b, feas_tol = _standard_form(a_eq, b_eq, a_ub, b_ub)
    hi_full = np.concatenate([his, np.full((len(parts), mu), np.inf)], axis=1)
    stack = _Stack(a, b, np.concatenate([lo, np.zeros(mu)]), hi_full, n, c)
    entries = path.resume_entries(his) if path is not None else None
    recording = [] if path is None and len(parts) == 1 else None
    solutions = [
        _solution(part, feas_tol, stack.art_start, *finished)
        for part, finished in zip(parts, stack.run(feas_tol, path, entries, recording))
    ]
    if path is not None:
        replayed = path.states["iterations"][entries] + path.states["stage_iterations"][entries]
        solutions = [replace(s, replayed=int(k)) for s, k in zip(solutions, replayed)]
    if recording is not None:
        states, decisions = zip(*recording)
        solutions[0] = replace(solutions[0], path=PivotPath(
            first,
            {name: np.array(column) for name, column in zip(_PATH_STATE, zip(*states))},
            *map(np.array, zip(*decisions)),
        ))
    return solutions


def lp_solve(lp: LinearProgram, *, start: Basis | None = None) -> LpSolution:
    """Solve a linear program to a vertex optimum.

    Deterministic for identical inputs: pricing uses the largest reduced
    cost with lowest-index tie-breaks, switching to Bland's rule after a
    stall, so repeated runs pivot identically. Raises NumericalBreakdown if
    the iteration budget is exhausted or the final residuals cannot be
    certified. Without a start this is the cold solve, a stack of one,
    which keeps its pivot path in the solution's `path` (None for a
    program without rows), the start `lp_solve_stack` takes.

    Given a start, the basis of the program's leading rows (all equality
    rows and the first inequality rows, as a solve of the program without
    the rows after them returned it), every later row gets its slack
    basic and `_DualSimplex.optimize` runs from there. The start must be
    dual feasible, else ValueError; the solution may be another optimal
    vertex than the cold solve's.
    """
    if start is None:
        return lp_solve_stack([lp])[0]
    program = _canonical(lp)
    c, a_eq, b_eq, a_ub, b_ub, lo, hi = program
    n = c.size
    me, mu = a_eq.shape[0], a_ub.shape[0]
    m = me + mu
    if m == 0:
        return _solve_unconstrained(c, lo, hi)
    a, b, feas_tol = _standard_form(a_eq, b_eq, a_ub, b_ub)
    lo_full = np.concatenate([lo, np.zeros(mu)])
    hi_full = np.concatenate([hi, np.full(mu, np.inf)])
    sx = _DualSimplex(a, b, lo_full, hi_full, _start_columns(start, lo_full, hi_full, n, me, m))
    status = sx.optimize(np.concatenate([c, np.zeros(mu)]), feas_tol)
    return _solution(program, feas_tol, sx.n, status, sx.x, sx.basis, hi_full, sx.iterations)
