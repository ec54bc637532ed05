"""Independent reference implementations used only by the test suite.

The arbiters share no code with the package: linear systems are solved
by Gauss-Jordan elimination with scaled pivoting, DC power flows by
numpy.linalg.solve on a nodal matrix assembled here, and linear programs
by brute-force vertex enumeration over active constraint sets. Slow but
transparent, so they can arbitrate the production solvers. The
`reference_*` functions are earlier, plainer forms of package kernels,
kept so the faster forms can be pinned to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Mapping

import numpy as np

from gridshock.errors import NumericalBreakdown
from gridshock.numerics import (
    FEASIBILITY_TOL,
    ITERATION_FACTOR,
    OPTIMALITY_TOL,
    LpSolution,
    PIVOT_TOL,
    REFACTOR_INTERVAL,
    STALL_WINDOW,
)


def gauss_jordan_solve(a, b):
    """Solve a @ x = b by full Gauss-Jordan elimination, scaled pivoting."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    aug = np.hstack([a, b.reshape(n, 1)])
    scale = np.max(np.abs(a), axis=1)
    if np.any(scale == 0.0):
        raise ZeroDivisionError("singular matrix")
    order = list(range(n))
    for k in range(n):
        rows = order[k:]
        ratios = [abs(aug[i, k]) / scale[i] for i in rows]
        p = rows[int(np.argmax(ratios))]
        if abs(aug[p, k]) < 1e-13:
            raise ZeroDivisionError("singular matrix")
        i = order.index(p)
        order[k], order[i] = order[i], order[k]
        aug[p] = aug[p] / aug[p, k]
        for i in range(n):
            if i != p and aug[i, k] != 0.0:
                aug[i] = aug[i] - aug[i, k] * aug[p]
    x = np.zeros(n)
    for k in range(n):
        x[k] = aug[order[k], n]
    return x


def floyd_warshall_hops(n, edges):
    """All-pairs hop counts over an undirected graph on nodes 0..n-1.

    Unit-weight Floyd-Warshall relaxation over the (i, j) edge list;
    unreachable pairs come back as +inf.
    """
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i, j in edges:
        dist[i, j] = dist[j, i] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i, k] + dist[k, j] < dist[i, j]:
                    dist[i, j] = dist[i, k] + dist[k, j]
    return dist


@dataclass(frozen=True)
class FlowSolution:
    """Bus angles and branch flows for one injection pattern."""

    slack_bus: str
    bus_ids: tuple[str, ...]
    angles_rad: np.ndarray
    branch_ids: tuple[str, ...]
    flows_mw: np.ndarray

    @cached_property
    def angle_of(self) -> dict[str, float]:
        return dict(zip(self.bus_ids, map(float, self.angles_rad)))

    @cached_property
    def flow_of(self) -> dict[str, float]:
        return dict(zip(self.branch_ids, map(float, self.flows_mw)))


def dc_power_flow(grid, injections, slack_bus=None) -> FlowSolution:
    """DC angles and flows for net MW injections per bus.

    `injections` maps bus id to MW (omitted buses inject nothing) or is an
    array in grid bus order. The slack bus, by default the first bus, has
    angle zero and absorbs any imbalance. The nodal matrix is A^T diag(b) A
    for the branch-bus incidence matrix A; with the slack row and column
    dropped it is solved by numpy.linalg.solve.
    """
    bus_ids = tuple(bus.id for bus in grid.buses)
    if slack_bus is None:
        slack_bus = bus_ids[0]
    column = {bid: k for k, bid in enumerate(bus_ids)}
    incidence = np.zeros((len(grid.branches), len(bus_ids)))
    for k, br in enumerate(grid.branches):
        incidence[k, column[br.from_bus]] = 1.0
        incidence[k, column[br.to_bus]] = -1.0
    b = np.array([br.susceptance_pu for br in grid.branches])
    nodal = incidence.T @ (b[:, None] * incidence)
    if isinstance(injections, Mapping):
        injections = [injections.get(bid, 0.0) for bid in bus_ids]
    per_unit = np.asarray(injections, dtype=float) / grid.base_mva
    keep = [k for k, bid in enumerate(bus_ids) if bid != slack_bus]
    angles = np.zeros(len(bus_ids))
    angles[keep] = np.linalg.solve(nodal[np.ix_(keep, keep)], per_unit[keep])
    return FlowSolution(
        slack_bus=slack_bus,
        bus_ids=bus_ids,
        angles_rad=angles,
        branch_ids=tuple(br.id for br in grid.branches),
        flows_mw=grid.base_mva * b * (incidence @ angles),
    )


@dataclass(frozen=True)
class LimitViolation:
    branch_id: str
    flow_mw: float
    rating_mw: float

    @property
    def overload_fraction(self) -> float:
        return abs(self.flow_mw) / self.rating_mw - 1.0


def check_limits(grid, flows_mw, tolerance: float = 1e-9) -> tuple[LimitViolation, ...]:
    """Branches whose |flow| exceeds the rating beyond a relative tolerance.

    `flows_mw` holds one MW flow per branch in grid branch order, as in
    FlowSolution.flows_mw and DispatchSolution.flows_mw.
    """
    return tuple(
        LimitViolation(branch_id=br.id, flow_mw=float(flow), rating_mw=br.rating_mw)
        for br, flow in zip(grid.branches, flows_mw, strict=True)
        if abs(flow) > br.rating_mw * (1.0 + tolerance)
    )


def enumerate_lp(c, a_eq, b_eq, a_ub, b_ub, lo, hi, feas_tol=1e-7):
    """Solve min c @ x over a polytope by enumerating candidate vertices.

    All variable bounds must be finite, so the feasible region is bounded
    and every nonempty region has a vertex. Returns (status, objective, x)
    with status "optimal" or "infeasible".
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    assert np.isfinite(lo).all() and np.isfinite(hi).all(), "oracle needs finite bounds"

    # pinned variables are substituted out before enumeration
    fixed = lo == hi
    if fixed.any():
        keep = ~fixed
        pinned = lo[fixed]
        offset = float(c[fixed] @ pinned)
        sub_eq = sub_beq = sub_ub = sub_bub = None
        if a_eq is not None:
            a_eq = np.asarray(a_eq, dtype=float)
            sub_eq = a_eq[:, keep]
            sub_beq = np.asarray(b_eq, dtype=float) - a_eq[:, fixed] @ pinned
        if a_ub is not None:
            a_ub = np.asarray(a_ub, dtype=float)
            sub_ub = a_ub[:, keep]
            sub_bub = np.asarray(b_ub, dtype=float) - a_ub[:, fixed] @ pinned
        status, obj, x_inner = enumerate_lp(
            c[keep], sub_eq, sub_beq, sub_ub, sub_bub, lo[keep], hi[keep], feas_tol
        )
        if status != "optimal":
            return status, None, None
        x_full = np.empty(n)
        x_full[fixed] = pinned
        x_full[keep] = x_inner
        return status, obj + offset, x_full

    eq_rows = [] if a_eq is None else [(np.asarray(g, float), float(h)) for g, h in zip(a_eq, b_eq)]
    ineq_rows = [] if a_ub is None else [(np.asarray(g, float), float(h)) for g, h in zip(a_ub, b_ub)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        ineq_rows.append((e.copy(), hi[j]))
        ineq_rows.append((-e, -lo[j]))

    me = len(eq_rows)
    need = n - me
    best_obj = None
    best_x = None
    if need < 0:
        need = 0
    for combo in combinations(range(len(ineq_rows)), need):
        mat = np.array([g for g, _ in eq_rows] + [ineq_rows[i][0] for i in combo])
        rhs = np.array([h for _, h in eq_rows] + [ineq_rows[i][1] for i in combo])
        if mat.shape[0] != n:
            continue
        try:
            if np.linalg.cond(mat) > 1e10:
                continue
            x = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            continue
        if _feasible(x, eq_rows, ineq_rows, feas_tol):
            obj = float(c @ x)
            if best_obj is None or obj < best_obj:
                best_obj = obj
                best_x = x
    if best_obj is None:
        return "infeasible", None, None
    return "optimal", best_obj, best_x


def _feasible(x, eq_rows, ineq_rows, tol):
    for g, h in eq_rows:
        if abs(g @ x - h) > tol * (1.0 + abs(h)):
            return False
    for g, h in ineq_rows:
        if g @ x - h > tol * (1.0 + abs(h)):
            return False
    return True


def leontief_output(a_matrix, final):
    """Baseline gross output for a square input-output system, (I - A) x = f."""
    a_matrix = np.asarray(a_matrix, dtype=float)
    final = np.asarray(final, dtype=float)
    eye = np.eye(a_matrix.shape[0])
    return np.linalg.solve(eye - a_matrix, final)


def random_box_lp(rng, max_vars=6):
    """Draw a random feasible LP with finite bounds on every variable.

    A strictly interior point is drawn first and the right-hand sides are
    derived from it, so the program is feasible by construction. Returns
    (c, a_eq, b_eq, a_ub, b_ub, lo, hi).
    """
    n = int(rng.integers(1, max_vars + 1))
    me = int(rng.integers(0, min(n - 1, 2) + 1)) if n > 1 else 0
    mu = int(rng.integers(0, 5))
    c = np.round(rng.uniform(-5, 5, n), 2)
    lo = np.round(rng.uniform(-5, 0, n), 2)
    hi = np.round(lo + rng.uniform(0.5, 8, n), 2)
    interior = lo + rng.uniform(0.25, 0.75, n) * (hi - lo)
    a_eq = b_eq = a_ub = b_ub = None
    if me:
        a_eq = np.round(rng.uniform(-3, 3, (me, n)), 2)
        b_eq = a_eq @ interior
    if mu:
        a_ub = np.round(rng.uniform(-3, 3, (mu, n)), 2)
        b_ub = a_ub @ interior + rng.uniform(0.1, 4, mu)
    return c, a_eq, b_eq, a_ub, b_ub, lo, hi


def random_infeasible_lp(rng, max_vars=6):
    """A random LP made certainly infeasible by a contradictory row pair."""
    c, a_eq, b_eq, a_ub, b_ub, lo, hi = random_box_lp(rng, max_vars)
    n = c.size
    g = np.round(rng.uniform(-3, 3, n), 2)
    if not g.any():
        g[0] = 1.0
    h = float(rng.uniform(-2, 2))
    block = np.array([g, -g])
    rhs = np.array([h, -h - float(rng.uniform(0.5, 3))])
    if a_ub is None:
        a_ub, b_ub = block, rhs
    else:
        a_ub = np.vstack([a_ub, block])
        b_ub = np.concatenate([b_ub, rhs])
    return c, a_eq, b_eq, a_ub, b_ub, lo, hi


def random_unbounded_lp(rng, max_vars=5):
    """A random LP made certainly unbounded by a free costed variable.

    The extra variable has no upper bound, a strictly negative objective
    coefficient, and appears in no constraint row, so any feasible point
    extends to a ray of decreasing cost; the base program is feasible by
    construction.
    """
    c, a_eq, b_eq, a_ub, b_ub, lo, hi = random_box_lp(rng, max_vars)
    n = c.size
    c = np.append(c, -float(rng.uniform(0.5, 3)))
    lo = np.append(lo, 0.0)
    hi = np.append(hi, np.inf)
    if a_eq is not None:
        a_eq = np.hstack([a_eq, np.zeros((a_eq.shape[0], 1))])
    if a_ub is not None:
        a_ub = np.hstack([a_ub, np.zeros((a_ub.shape[0], 1))])
    return c, a_eq, b_eq, a_ub, b_ub, lo, hi


def reference_load_profile(path, scenario=None):
    """Row-by-row `csv.reader` parse of a profile file into a dict of dicts.

    The profile reader before it became chunked and columnar; kept as the
    reference its output and error lines are compared against.
    """
    import csv
    from pathlib import Path

    from gridshock.errors import MisalignedHours, ParseError, ValidationError
    from gridshock.profiles import DemandProfile

    path = Path(path)
    series = {}
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ParseError("file is empty", 1, path.name)
        header = [h.strip() for h in header]
        if header != ["region", "hour", "demand_mw"]:
            raise ParseError(
                f"expected header region,hour,demand_mw, got {','.join(header)}", 1, path.name
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, got {len(row)}", lineno, path.name)
            region = row[0].strip()
            try:
                hour = int(row[1])
                value = float(row[2])
            except ValueError:
                raise ParseError(f"bad numeric value in {row!r}", lineno, path.name) from None
            series.setdefault(region, {})
            if hour in series[region]:
                raise ParseError(f"duplicate hour {hour} for region {region}", lineno, path.name)
            series[region][hour] = value

    if not series:
        raise ValidationError(f"profile {path.name} contains no data rows")
    regions = tuple(sorted(series))
    hour_sets = {frozenset(hours) for hours in series.values()}
    if len(hour_sets) != 1:
        raise MisalignedHours(f"regions in {path.name} disagree on the hour axis")
    hours = np.array(sorted(next(iter(hour_sets))), dtype=int)
    demand = np.array([[series[r][int(h)] for h in hours] for r in regions])
    return DemandProfile(
        scenario=scenario or path.stem,
        regions=regions,
        hours=hours,
        demand_mw=demand,
    )


def reference_split_load_profile(path, scenario=None):
    """A str-split profile reader for valid files only: `int()`/`float()`
    per field, a dict code per region, and the region x hour matrix from a
    stable sort.

    Kept as the second reference the reader's arrays are compared against
    bit for bit; it checks nothing beyond the field count.
    """
    from pathlib import Path

    from gridshock.profiles import DemandProfile

    path = Path(path)
    codes, code, hours, values = {}, [], [], []
    with open(path, encoding="utf-8", newline="") as handle:
        handle.readline()
        for line in handle:
            if not line.strip():
                continue
            region, hour, value = line.rstrip("\r\n").split(",")
            code.append(codes.setdefault(region.strip(), len(codes)))
            hours.append(int(hour))
            values.append(float(value))
    code, hours, values = np.array(code, np.int64), np.array(hours, np.int64), np.array(values)
    order = np.lexsort((hours, code))
    names = list(codes)
    width = len(hours) // len(names)
    by_name = sorted(range(len(names)), key=names.__getitem__)
    return DemandProfile(
        scenario=scenario or path.stem,
        regions=tuple(names[k] for k in by_name),
        hours=hours[order][:width],
        demand_mw=values[order].reshape(-1, width)[by_name],
    )


def reference_save_profile(profile, path):
    """Write a profile with one `csv.writer` row per hour.

    The profile writer before it joined each region's rows into one string;
    kept as the reference its bytes are compared against.
    """
    import csv
    from itertools import repeat

    hours = profile.hours.tolist()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["region", "hour", "demand_mw"])
        for region, row in zip(profile.regions, profile.demand_mw):
            writer.writerows(zip(repeat(region), hours, map(repr, row.tolist())))


def reference_mria_program(model, delta):
    """The supply-use LP built cell by cell, as it was before the model
    cached it: (objective, a_ub, b_ub, bounds) for a dense shock array.

    Technology coefficients, trade routes and the rationing penalty are
    recomputed here with plain loops, so the prepared program can be
    compared against it bit for bit.
    """
    nr, ni, np_ = len(model.regions), len(model.industries), len(model.products)
    x0 = model.supply.sum(axis=2)
    active = x0 > 0.0
    safe = np.where(active, x0, 1.0)
    a = model.use / safe[:, None, :]
    s = model.supply / safe[:, :, None]
    a[~np.repeat(active[:, None, :], np_, axis=1)] = 0.0
    s[~active] = 0.0

    routes = []
    for r_from in range(nr):
        for r_to in range(nr):
            if r_from == r_to:
                continue
            for p in range(np_):
                if model.trade_allowed[r_from, r_to, p]:
                    routes.append((r_from, r_to, p))

    worst = 1.0
    if ni == np_:
        for r in range(nr):
            try:
                inv = np.linalg.inv(s[r].T - a[r])
            except np.linalg.LinAlgError:
                continue
            if (inv < -1e-9).any():
                continue
            worst = max(worst, float(np.abs(inv).sum(axis=0).max()))
    penalty = 10.0 * worst

    n_x, n_t, n_m = nr * ni, len(routes), nr * np_
    n = n_x + n_t + n_m
    objective = np.concatenate(
        [np.ones(n_x), np.full(n_t, 1e-7), np.full(n_m, penalty)]
    )
    bounds = np.zeros((n, 2))
    bounds[:, 1] = np.inf
    cap = (1.0 - delta) * (1.0 + model.overcapacity) * x0
    bounds[:n_x, 1] = cap.reshape(-1)
    bounds[n_x + n_t :, 1] = model.final_demand.reshape(-1)

    a_ub = np.zeros((n_m, n))
    b_ub = np.zeros(n_m)
    for r in range(nr):
        for p in range(np_):
            row = r * np_ + p
            for i in range(ni):
                a_ub[row, r * ni + i] = a[r, p, i] - s[r, i, p]
            a_ub[row, n_x + n_t + row] = -1.0
            b_ub[row] = -model.final_demand[r, p]
    for k, (r_from, r_to, p) in enumerate(routes):
        a_ub[r_to * np_ + p, n_x + k] = -1.0
        a_ub[r_from * np_ + p, n_x + k] = 1.0
    return objective, a_ub, b_ub, bounds


def reference_hops(grid, source):
    """Branch-hop count from bus `source` to every bus, in bus order, by a
    breadth-first walk over `grid.adjacency`; +inf where it never arrives."""
    hops = {source: 0.0}
    frontier = [source]
    while frontier:
        reached = []
        for bid in frontier:
            for nbr in grid.adjacency[bid]:
                if nbr not in hops:
                    hops[nbr] = hops[bid] + 1.0
                    reached.append(nbr)
        frontier = reached
    return np.array([hops.get(bus.id, np.inf) for bus in grid.buses])


def reference_distance_costs(grid, demand_mw, interconnector_penalty=10.0):
    """Per-generator loop over the demand-weighted hop means, as the
    distance costs were computed before they were vectorised, with hop
    counts from `reference_hops` rather than `Grid.hop_distance`."""
    loads = sorted((bid, float(mw)) for bid, mw in demand_mw.items() if mw > 0.0)
    total = sum(mw for _, mw in loads)
    rows = np.array([reference_hops(grid, bid) for bid, _ in loads])
    weights = np.array([mw for _, mw in loads])
    mean_by_bus = weights @ rows / total
    costs = {}
    for gen in grid.generators:
        mean = float(mean_by_bus[grid.bus_index[gen.bus]])
        if not np.isfinite(mean):
            raise ValueError(f"generator {gen.id} is unreachable from a demand bus")
        cost = 1.0 + mean
        if gen.is_international:
            cost *= interconnector_penalty
        costs[gen.id] = cost
    return costs


def reference_limited_lp(objective, cols, base_flow, ratings, upper, total):
    """`dispatch._limited_lp` by cold simplex solves alone: the balance row
    first, then the program solved cold again with a limit row for
    every branch that overloads. Optimal x, or None when infeasible.
    Each solve is `reference_lp_solve`'s, not the production kernel's."""
    from gridshock.numerics import LinearProgram

    bounds = np.column_stack([np.zeros(len(objective)), upper])
    active = []
    while True:
        a_ub = b_ub = None
        if active:
            a_ub = np.array([side * cols[row] for row, side in active])
            b_ub = np.array([ratings[row] - side * base_flow[row] for row, side in active])
        sol = reference_lp_solve(
            LinearProgram(
                objective=objective, a_eq=np.ones((1, len(objective))), b_eq=np.array([total]),
                a_ub=a_ub, b_ub=b_ub, bounds=bounds,
            )
        )
        if sol.status != "optimal":
            return None
        flows = cols @ sol.x + base_flow
        new_rows = [
            (row, 1 if flows[row] > 0 else -1)
            for row in np.flatnonzero(np.abs(flows) > ratings * (1.0 + 1e-9))
        ]
        new_rows = [rs for rs in new_rows if rs not in active]
        if not new_rows:
            return sol.x
        active.extend(new_rows)


def _reference_redispatch(grid, context, demand_mw, available, penalty):
    """Feasibility of one demand state by the simplex alone."""
    demand = {bid: float(mw) for bid, mw in demand_mw.items() if mw > 0.0}
    total = sum(demand.values())
    if total <= 0.0:
        return True
    gen_ids = sorted(available)
    if not gen_ids:
        return False
    gens = [grid.generator_by_id[g] for g in gen_ids]
    costs = reference_distance_costs(grid, demand, penalty)
    c = np.array([costs[g] for g in gen_ids])
    demand_vec = np.zeros(len(grid.buses))
    for bid, mw in demand.items():
        demand_vec[grid.bus_index[bid]] += mw
    base_flow = context.sensitivity @ (-demand_vec)
    gen_cols = np.array([context.sensitivity[:, grid.bus_index[gen.bus]] for gen in gens]).T
    upper = np.array([gen.derated_mw for gen in gens])
    x = reference_limited_lp(c, gen_cols, base_flow, context.ratings, upper, total)
    return x is not None


def reference_fill(costs, upper, total):
    """The merit-order fill as a loop over the units in (cost, index)
    order, each given min(cap, what remains), stopping once nothing
    remains: (outputs, marginal unit), or None when there is no unit or
    capacity falls short by more than FEASIBILITY_TOL * (1 + total), the
    caps taken off the total in index order."""
    from gridshock.numerics import FEASIBILITY_TOL

    caps = upper.tolist()
    output = [0.0] * len(caps)
    remaining = total
    for k in np.argsort(costs, kind="stable").tolist():
        output[k] = min(caps[k], remaining)
        remaining -= output[k]
        if remaining <= 0.0:
            return np.array(output), k
    shortfall = total
    for cap in caps:
        shortfall -= cap
    if not caps or shortfall > FEASIBILITY_TOL * (1.0 + total):
        return None
    return np.array(output), k


def reference_shed_deficit(original, order, shed_step, capacity):
    """The shed per bus after the energy-deficit rounds, checking the
    remaining demand before every round: each round sheds `shed_step` of
    the first undrained bus in `order`, while total - sum(shed) exceeds
    capacity + 1e-9 and some bus is left."""
    shed = {bid: 0.0 for bid in original}
    while sum(original.values()) - sum(shed.values()) > capacity + 1e-9:
        bid = next((b for b in order if shed[b] < original[b]), None)
        if bid is None:
            break
        shed[bid] = min(original[bid], shed[bid] + shed_step * original[bid])
    return shed


def reference_shedding(problem, removed=frozenset(), shed_step=0.1, context=None):
    """The shedding loop that checks every round with the simplex.

    Sheds the energy deficit first, then redispatches after each round
    until one is feasible. Returns (status, shed_mw) as dispatch_with_shedding
    reports them.
    """
    from gridshock.dispatch import GridContext

    grid = problem.grid
    if context is None:
        context = GridContext(grid)
    original = {bid: float(mw) for bid, mw in problem.demand_mw.items() if mw > 0.0}
    if removed:
        sources = {grid.generator_by_id[g].bus for g in removed}
        near = np.min([reference_hops(grid, bus) for bus in sources], axis=0)
        order = sorted(original, key=lambda bid: (near[grid.bus_index[bid]], bid))
    else:
        order = sorted(original)
    capacity = sum(grid.generator_by_id[g].derated_mw for g in sorted(problem.available))
    shed = reference_shed_deficit(original, order, shed_step, capacity)

    def apply_round():
        for bid in order:
            if shed[bid] < original[bid]:
                shed[bid] = min(original[bid], shed[bid] + shed_step * original[bid])
                return True
        return False

    while True:
        remaining = {bid: original[bid] - shed[bid] for bid in original}
        if _reference_redispatch(
            grid, context, remaining, problem.available, problem.interconnector_penalty
        ):
            shed_out = {bid: mw for bid, mw in shed.items() if mw > 0.0}
            return ("feasible_with_shedding" if shed_out else "feasible"), shed_out
        if not apply_round():
            raise RuntimeError("no feasible network state exists even with all demand shed")


def reference_lp_solve(lp):
    """lp_solve as it pivoted before its iteration bookkeeping was made lean.

    The production kernel must take every pivot this one takes, from the
    same arithmetic: the same pricing, ratio test, tie-breaks, Bland
    switch, basis-inverse updates and refactorizations, so the two agree
    bit for bit on status, x and objective. Input checking and the
    row-free case are the package's own.
    """
    from gridshock.numerics import _canonical, _solve_unconstrained

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

    sx = _ReferenceSimplex(a, b, lo_full, hi_full, n)
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


class _ReferenceSimplex:
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


def reference_save_results(table, path):
    """Write a results table with one `csv.writer` row per record per region.

    The results writer from before it joined each record's rows into one
    string; kept as the reference its bytes are compared against.
    """
    import csv

    records = zip(
        table.ordering.tolist(),
        table.fraction.tolist(),
        table.scenario,
        table.hour.tolist(),
        table.unserved_mw.tolist(),
    )
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["ordering", "fraction", "scenario", "hour", "region", "unserved_mw", "status"]
        )
        for ordering, fraction, scenario, hour, row in records:
            unserved = dict(zip(table.regions, row))
            status = "shed" if sum(unserved.values()) > 0.0 else "ok"
            for region in sorted(unserved):
                writer.writerow(
                    [ordering, repr(fraction), scenario, hour, region, repr(unserved[region]), status]
                )


def reference_load_results(path):
    """Row-by-row `csv.reader` parse of a results file into per-record dicts.

    The results reader from before it became chunked and columnar; kept as
    the reference its tables, messages and error lines are compared
    against. Returns the table and each record's status, keyed by record.
    """
    import csv
    from pathlib import Path

    from gridshock.errors import ParseError, ValidationError
    from gridshock.results import ResultTable

    groups, name = {}, Path(path).name
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        expected = ["ordering", "fraction", "scenario", "hour", "region", "unserved_mw", "status"]
        if header is None:
            raise ParseError("file is empty", 1, name)
        header = [h.strip() for h in header]
        if header != expected:
            raise ParseError(f"expected header {','.join(expected)}, got {','.join(header)}", 1, name)
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 7:
                raise ParseError(f"expected 7 fields, got {len(row)}", lineno, name)
            try:
                key = (int(row[0]), float(row[1]), row[2], int(row[3]))
                value = float(row[5])
            except ValueError:
                raise ParseError(f"bad numeric value in {row!r}", lineno, name) from None
            per_region = groups.setdefault(key, {})
            if row[4] in per_region:
                raise ParseError(f"repeated row for record {key}, region {row[4]}", lineno, name)
            per_region[row[4]] = (value, row[6])

    statuses = {}
    for key, per_region in groups.items():
        status = {status for _, status in per_region.values()}
        if len(status) != 1:
            raise ValidationError(f"record {key} rows disagree on status")
        statuses[key] = status.pop()
    if not groups:
        raise ValidationError("results file contains no records")
    keys = sorted(groups)
    regions = sorted(groups[keys[0]])
    table = ResultTable(
        ordering=np.array([k[0] for k in keys], dtype=np.int64),
        fraction=np.array([k[1] for k in keys], dtype=float),
        scenario=tuple(k[2] for k in keys),
        hour=np.array([k[3] for k in keys], dtype=np.int64),
        regions=tuple(regions),
        unserved_mw=np.array([[groups[k][r][0] for r in regions] for k in keys], dtype=float),
    )
    return table, statuses


def reference_shock_from_unserved(unserved_mw_per_region, hour, regions, demand):
    """One record's {economic region: loss fraction}, built from its
    {district: unserved MW} dict one district at a time.

    The per-record shock conversion from before it became one matrix pass.
    `demand` is the record's scenario's StudiedDemand.
    """
    row = demand.hours.tolist().index(hour)
    district_mw = dict(zip(demand.regions, demand.district_mw[row].tolist()))
    unserved, demanded = {}, {}
    for district, mw in unserved_mw_per_region.items():
        parent = regions.by_id[district].parent
        unserved[parent] = unserved.get(parent, 0.0) + mw
        demanded[parent] = demanded.get(parent, 0.0) + district_mw[district]
    return {
        parent: 0.0 if demanded[parent] <= 0.0 else min(1.0, unserved[parent] / demanded[parent])
        for parent in sorted(unserved)
    }


def _data_lines(path) -> list[str]:
    """The lines of a csv file after its header, split at any line end."""
    from pathlib import Path

    lines = Path(path).read_text(encoding="utf-8").split("\n")[1:]
    return lines[:-1] if lines and not lines[-1] else lines


def reference_load_supply_use(directory, overcapacity=0.025):
    """The five economy tables read line by line with `str.split` into
    {ids: value} dicts, then a model.

    For files with no line the reader refuses: the reference the model's
    arrays and its refusals are compared against.
    """
    from pathlib import Path

    from gridshock.mria import SupplyUseModel

    axes_of = {"supply": "rip", "use": "rpi", "final_demand": "rp", "value_added": "ri", "trade": "rrp"}
    tables, labels = {}, {"r": set(), "i": set(), "p": set()}
    for name, axes in axes_of.items():
        tables[name] = {}
        for line in _data_lines(Path(directory) / f"{name}.csv"):
            if line:
                *ids, value = line.split(",")
                key = tuple(label.strip() for label in ids)
                tables[name][key] = value.strip().lower() in ("1", "true") if name == "trade" else float(value)
                for axis, label in zip(axes, key):
                    labels[axis].add(label)
    order = {axis: sorted(found) for axis, found in labels.items()}
    arrays = []
    for name, axes in axes_of.items():
        array = np.zeros([len(order[axis]) for axis in axes], bool if name == "trade" else float)
        for key, value in tables[name].items():
            array[tuple(order[axis].index(label) for axis, label in zip(axes, key))] = value
        arrays.append(array)
    labels = (tuple(order[axis]) for axis in "rip")
    return SupplyUseModel(*labels, *arrays, overcapacity=overcapacity)


def reference_load_studied_demand(path):
    """demand.csv read line by line with `str.split` into a
    {(scenario, kind, hour, region): MW} dict, then per-scenario arrays.

    For files with no line the reader refuses: the reference its arrays
    and its refusals of a missing row are compared against.
    """
    from pathlib import Path

    from gridshock.errors import ValidationError
    from gridshock.profiles import StudiedDemand

    rows = {}
    for line in _data_lines(path):
        if line:
            scenario, kind, region, hour, value = line.split(",")
            rows[scenario, kind, None if kind == "peak" else int(hour), region] = float(value)
    demands = {}
    for scenario in sorted({key[0] for key in rows}):
        hours = sorted({h for s, _, h, _ in rows if s == scenario and h is not None})
        regions = tuple(dict.fromkeys(r for s, kind, _, r in rows if s == scenario and kind == "district"))
        try:
            demands[scenario] = StudiedDemand(
                regions,
                np.array(hours, dtype=np.int64),
                np.array([[rows[scenario, "district", h, r] for r in regions] for h in hours])
                .reshape(len(hours), len(regions)),
                np.array([rows[scenario, "national", h, ""] for h in hours]),
                rows[scenario, "peak", None, ""],
            )
        except KeyError as missing:
            raise ValidationError(
                f"{Path(path).name}: scenario {scenario} lacks its peak or an hour's rows: "
                f"no {missing.args[0][1:]} row"
            ) from None
    return demands


def reference_load_costs(results, impacts_path, regional_path):
    """impacts.csv and impacts_regional.csv read line by line with
    `str.split`, aligned with the table's record ids as lists.

    For files with no line the reader refuses: the reference its arrays
    and its MissingCosts are compared against.
    """
    from gridshock.errors import MissingCosts

    ids = results.record_ids()
    totals = [line.split(",") for line in _data_lines(impacts_path) if line]
    regional = [line.split(",") for line in _data_lines(regional_path) if line]
    zones = tuple(row[1] for row in regional if row[:1] == ids[:1])
    if [row[:1] for row in totals] != [[rid] for rid in ids] or [row[:2] for row in regional] != [
        [rid, zone] for rid in ids for zone in zones
    ]:
        raise MissingCosts("impacts do not price the results' records in order; rerun impact")
    costs = np.array([float(row[1]) for row in totals])
    delta_va = np.array([float(row[2]) for row in regional]).reshape(len(ids), len(zones))
    return costs, zones, np.where(delta_va < 0.0, -delta_va, 0.0)
