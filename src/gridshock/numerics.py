"""Dense linear-algebra and linear-programming kernels.

Two solvers used everywhere else in the package: a checked dense linear
solve for the power-flow systems, and a bounded-variable two-phase revised
simplex method for the dispatch and economic optimizations. The linear
solve and the simplex's basis inverse rest on numpy's LAPACK/BLAS
routines, so results are not promised bit-identical across platforms or
numpy builds. What does hold: on one machine, repeated runs and any worker
count give identical bytes, because pricing and basis bookkeeping are
deterministic and every worker runs the same arithmetic.
"""

from __future__ import annotations

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
    """

    def __init__(self, a, b, lo, hi, n_struct):
        m, n0 = a.shape
        self.m = m
        self.n_struct = n_struct

        x0 = np.zeros(n0)
        for j in range(n0):
            if np.isfinite(lo[j]):
                x0[j] = lo[j]
            elif np.isfinite(hi[j]):
                x0[j] = hi[j]
        residual = b - a @ x0

        # Slack columns (appended after the structural block by the caller)
        # serve as the starting basis wherever their sign allows; the
        # remaining rows get artificial columns of matching sign.
        slack_of_row = {}
        for k in range(n0 - n_struct):
            j = n_struct + k
            rows = np.flatnonzero(a[:, j])
            if rows.size == 1 and a[rows[0], j] == 1.0 and lo[j] == 0.0:
                slack_of_row[rows[0]] = j

        art_rows = [
            i for i in range(m) if i not in slack_of_row or residual[i] < 0.0
        ]
        n_art = len(art_rows)
        n = n0 + n_art
        self.a = np.zeros((m, n))
        self.a[:, :n0] = a
        self.b = b.astype(float)
        self.lo = np.concatenate([lo, np.zeros(n_art)])
        self.hi = np.concatenate([hi, np.full(n_art, np.inf)])
        self.x = np.concatenate([x0, np.zeros(n_art)])
        self.art_start = n0
        self.n = n

        self.basis = np.zeros(m, dtype=int)
        diag = np.ones(m)
        for k, i in enumerate(art_rows):
            j = n0 + k
            sign = -1.0 if residual[i] < 0.0 else 1.0
            self.a[i, j] = sign
            self.x[j] = abs(residual[i])
            self.basis[i] = j
            diag[i] = sign
        for i, j in slack_of_row.items():
            if i not in art_rows:
                self.x[j] = residual[i]
                self.basis[i] = j
        self.in_basis = np.zeros(n, dtype=bool)
        self.in_basis[self.basis] = True
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
        """Run simplex iterations for cost vector c until optimal/unbounded."""
        max_iter = ITERATION_FACTOR * (self.n + self.m)
        bland = False
        stall = 0
        prev_obj = np.inf
        for _ in range(max_iter):
            if self.since_refactor >= REFACTOR_INTERVAL:
                self._refactorize()

            y = self.binv.T @ c[self.basis]
            reduced = c - self.a.T @ y
            nonbasic = ~self.in_basis
            can_up = nonbasic & (self.x < self.hi) & (reduced < -OPTIMALITY_TOL)
            can_dn = nonbasic & (self.x > self.lo) & (reduced > OPTIMALITY_TOL)
            violation = np.where(can_up, -reduced, 0.0) + np.where(can_dn, reduced, 0.0)
            if not violation.any():
                return "optimal"

            if bland:
                j = int(np.argmax(violation > 0.0))
            else:
                j = int(np.argmax(violation))
            direction = 1.0 if can_up[j] else -1.0

            w = self.binv @ self.a[:, j]
            delta = direction * w
            limits = np.full(self.m, np.inf)
            xb = self.x[self.basis]
            pos = delta > PIVOT_TOL
            if pos.any():
                room = np.maximum(xb[pos] - self.lo[self.basis][pos], 0.0)
                limits[pos] = room / delta[pos]
            neg = delta < -PIVOT_TOL
            if neg.any():
                room = np.maximum(self.hi[self.basis][neg] - xb[neg], 0.0)
                limits[neg] = room / (-delta[neg])
            t_basic = float(limits.min()) if self.m else np.inf
            t_flip = self.hi[j] - self.lo[j]

            if not np.isfinite(min(t_basic, t_flip)):
                return "unbounded"

            if t_flip < t_basic:
                step = t_flip
                self.x[self.basis] -= step * delta
                self.x[j] = self.hi[j] if direction > 0 else self.lo[j]
            else:
                step = t_basic
                ties = np.flatnonzero(limits == t_basic)
                r = int(ties[np.argmin(self.basis[ties])])
                leaving = self.basis[r]
                self.x[self.basis] -= step * delta
                self.x[j] += direction * step
                self.x[leaving] = self.lo[leaving] if delta[r] > 0 else self.hi[leaving]
                self.basis[r] = j
                self.in_basis[leaving] = False
                self.in_basis[j] = True
                pivot = w[r]
                new_row = self.binv[r] / pivot
                self.binv = self.binv - np.outer(w, new_row)
                self.binv[r] = new_row
                self.since_refactor += 1

            obj = float(c @ self.x)
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
