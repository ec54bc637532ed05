"""Dense linear-algebra and linear-programming kernels.

Two solvers used everywhere else in the package: a checked dense linear
solve for the power-flow systems, and a bounded-variable two-phase revised
simplex method for the dispatch and economic optimizations. The linear
solve and the simplex's basis inverse rest on numpy's LAPACK/BLAS
routines, so results are not promised bit-identical across platforms or
numpy builds. What does hold: on one machine, repeated runs and any worker
count give identical bytes, because pricing and basis bookkeeping are
deterministic and every worker runs the same arithmetic. The simplex's
pivot rule and the arithmetic behind each pivot are pinned by
`tests/oracles.reference_lp_solve`, which the test suite holds it to bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdown, SingularMatrix

__all__ = [
    "LinearProgram",
    "LpSolution",
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


@dataclass(frozen=True)
class LpSolution:
    """Outcome of lp_solve: status is "optimal", "infeasible" or "unbounded".

    x and objective_value are None unless status is "optimal".
    """

    status: str
    x: np.ndarray | None = None
    objective_value: float | None = None


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
    return LpSolution(status="optimal", x=x, objective_value=float(c @ x))


class _Simplex:
    """Revised simplex on a fixed tableau with explicit variable bounds.

    Nonbasic variables rest exactly on one of their bounds (free variables
    rest at zero); values are reassigned to the exact bound on every basis
    exchange so state tests can use equality. The basis inverse is kept as a
    dense matrix with eta-style updates and periodic refactorization.

    The caller puts the equality rows first and appends one slack column
    per inequality row after the `n_struct` structural columns, so the
    slack of the k-th inequality row is column `n_struct + k`.
    """

    def __init__(self, a, b, lo, hi, n_struct):
        m, n0 = a.shape
        self.m = m

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
        self.since_refactor = 0

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

    def optimize(self, c):
        """Run simplex iterations for cost vector c until optimal/unbounded.

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
        bland = False
        stall = 0
        prev_obj = np.inf
        for _ in range(max_iter):
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
                return "unbounded"

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

    def drive_out_artificials(self, tol):
        """Pin artificial variables to zero after a successful phase 1."""
        level = float(np.sum(self.x[self.art_start :]))
        if level > tol:
            return False
        self.lo[self.art_start :] = 0.0
        self.hi[self.art_start :] = 0.0
        return True


def lp_solve(lp: LinearProgram) -> LpSolution:
    """Solve a linear program to a vertex optimum.

    Deterministic for identical inputs: pricing uses the largest reduced
    cost with lowest-index tie-breaks, switching to Bland's rule after a
    stall, so repeated runs pivot identically. Raises NumericalBreakdown if
    the iteration budget is exhausted or the final residuals cannot be
    certified.
    """
    c, a_eq, b_eq, a_ub, b_ub, lo, hi = _canonical(lp)
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

    sx = _Simplex(a, b, lo_full, hi_full, n)
    scale = 1.0 + float(np.max(np.abs(b))) if m else 1.0
    feas_tol = FEASIBILITY_TOL * scale

    if sx.n > sx.art_start:
        c1 = np.zeros(sx.n)
        c1[sx.art_start :] = 1.0
        status = sx.optimize(c1)
        if status == "unbounded":
            raise NumericalBreakdown("phase 1 reported an unbounded direction")
        if not sx.drive_out_artificials(feas_tol):
            return LpSolution(status="infeasible")

    c2 = np.zeros(sx.n)
    c2[:n] = c
    status = sx.optimize(c2)
    if status == "unbounded":
        return LpSolution(status="unbounded")

    sx._refactorize()
    status = sx.optimize(c2)
    if status == "unbounded":
        return LpSolution(status="unbounded")

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
    return LpSolution(status="optimal", x=x, objective_value=float(c @ x))
