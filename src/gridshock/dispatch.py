"""The DC network model, and dispatch with congestion relief and localized
load shedding.

Under the DC model branch flow is proportional to the angle difference
across the branch, and one slack bus (angle zero) absorbs any imbalance;
susceptances are per-unit on the grid's base power, injections and flows in
MW. `GridContext` turns that model into flow sensitivities, and every DC
flow the package computes is one expression over them: the units' columns
times their outputs plus the flows the demand alone causes. The overload
checks, the reported flows and the calibrated ratings all read it.

Dispatch picks generator outputs that serve demand at minimum
distance-weighted cost subject to branch ratings. The network enters the
optimization through the sensitivities: branch flows are linear in bus
injections, so the angle variables can be eliminated and limit rows added
only for branches that actually congest. When no feasible operating point
exists, demand is shed in rounds, nearest to the disrupted generation
first, until the network settles.

Most programs never need the simplex: with the balance row alone the
least-cost dispatch is a merit-order fill (Wood & Wollenberg, *Power
Generation, Operation, and Control*), and the flows it causes follow from
the sensitivities (the PTDF form of Stott, Jardim & Alsac, "DC power flow
revisited", IEEE TPWRS 2009). Only when that fill overloads a branch does a
linear program decide, and it never starts cold: the fill is an optimal
basis of the balance-only program, so each limit row the flows call for is
added to the last optimal basis and the dual simplex re-solves from there.
No dispatch program is solved cold: the calibration dispatch, which takes
every rating as infinite, is the fill itself (`merit_order_flows`). Before
a shedding round builds its costs, fill and least-shed program, a row bound
of the kind LP presolve uses (`_beyond_relief`) asks whether one branch
stays overloaded, by more than a margin a hundred times the simplex's
tolerance, under every dispatch and every shed the front bus has left.
Where one does, the simplex would find no relief either, so the bus is
drained and no program is built.

A program is a `Fleet` (the units left after a loss, with their caps, flow
columns and capacity) under a `Load` (a demand state, with its total, the
flows it causes and the units' distance costs). Dispatches that share
either one can share the object: `DispatchProblem.from_parts` keeps both,
and a shedding round builds only its new load. The energy-deficit shed
(`_shed_deficit`) and the fill (`_fill`) take stacks of cells: the sweep
settles an ordering's cells in one call of each, every other caller
passes a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import NoDemand, ValidationError
from .grid import Grid
from .numerics import FEASIBILITY_TOL, Basis, LinearProgram, lp_solve, lu_solve

__all__ = [
    "default_slack_bus",
    "GridContext",
    "DispatchProblem",
    "DispatchSolution",
    "Fleet",
    "Load",
    "generator_distance_costs",
    "merit_order_flows",
    "redispatch",
    "dispatch_with_shedding",
]


def default_slack_bus(grid: Grid) -> str:
    """The bus carrying the most derated non-international capacity.

    Ties break toward the lexicographically smallest bus id.
    """
    capacity: dict[str, float] = {}
    for gen in grid.generators:
        if not gen.is_international:
            capacity[gen.bus] = capacity.get(gen.bus, 0.0) + gen.derated_mw
    if not capacity:
        raise ValidationError("no local generation from which to pick a slack bus")
    return min(capacity, key=lambda bid: (-capacity[bid], bid))


def _reduced_system(grid: Grid, slack_bus: str):
    """Reduced nodal susceptance matrix and the bus order it refers to."""
    others = [bus.id for bus in grid.buses if bus.id != slack_bus]
    index = {bid: k for k, bid in enumerate(others)}
    n = len(others)
    matrix = np.zeros((n, n))
    for br in grid.branches:
        b = br.susceptance_pu
        i = index.get(br.from_bus)
        j = index.get(br.to_bus)
        if i is not None:
            matrix[i, i] += b
        if j is not None:
            matrix[j, j] += b
        if i is not None and j is not None:
            matrix[i, j] -= b
            matrix[j, i] -= b
    return matrix, others


class GridContext:
    """Flow sensitivities for repeated dispatch on one grid.

    `sensitivity` is the MW flow on each branch (grid branch order) per MW
    injected at each bus (grid bus order), with the `default_slack_bus`
    absorbing the balance, so its column is zero. `bus_id_rank` is each
    bus's place when the bus ids are sorted. Safe to share across dispatch
    calls. SingularMatrix propagates when the network is disconnected.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        slack_bus = default_slack_bus(grid)
        reduced, order = _reduced_system(grid, slack_bus)
        n_red = len(order)
        reduced_pos = {bid: k for k, bid in enumerate(order)}
        reduced_inverse = lu_solve(reduced, np.eye(n_red))

        def inverse_row(bus_id: str) -> np.ndarray:
            if bus_id == slack_bus:
                return np.zeros(n_red)
            return reduced_inverse[reduced_pos[bus_id]]

        rows = [
            br.susceptance_pu * (inverse_row(br.from_bus) - inverse_row(br.to_bus))
            for br in grid.branches
        ]
        reduced_sensitivity = np.array(rows) if rows else np.zeros((0, n_red))
        self.sensitivity = np.zeros((len(grid.branches), len(grid.buses)))
        self.sensitivity[:, [grid.bus_index[bid] for bid in order]] = reduced_sensitivity
        self.ratings = np.array([br.rating_mw for br in grid.branches])
        ids = [bus.id for bus in grid.buses]
        self.bus_id_rank = np.argsort(sorted(range(len(ids)), key=ids.__getitem__))


@dataclass(frozen=True)
class DispatchProblem:
    """One dispatch instance: a grid, demand in MW per bus, available units."""

    grid: Grid
    demand_mw: Mapping[str, float]
    available: frozenset[str]
    interconnector_penalty: float = 10.0

    def __post_init__(self):
        unknown = sorted(self.demand_mw.keys() - self.grid.bus_by_id.keys())
        if unknown:
            raise ValidationError(f"demand names unknown buses: {', '.join(unknown)}")
        unknown = sorted(self.available - self.grid.generator_by_id.keys())
        if unknown:
            raise ValidationError(f"availability names unknown generators: {', '.join(unknown)}")
        for bid, mw in self.demand_mw.items():
            if not (mw >= 0.0 and math.isfinite(mw)):
                raise ValidationError(f"demand at {bid} must be finite and nonnegative")

    @classmethod
    def from_parts(cls, fleet: Fleet, load: Load) -> DispatchProblem:
        """The problem of `fleet` under `load`, which it keeps, so that
        dispatch reuses their arrays. Both were checked when built, so
        nothing is checked again."""
        problem = object.__new__(cls)
        fields = {
            "grid": fleet.context.grid,
            "demand_mw": load.mw,
            "available": fleet.available,
            "interconnector_penalty": load.interconnector_penalty,
            "_parts": (fleet, load),
        }
        for name, value in fields.items():
            object.__setattr__(problem, name, value)
        return problem

    def parts(self, context: GridContext, removed: frozenset[str] | None = None) -> tuple[Fleet, Load]:
        """This problem's fleet and load on `context`, with `removed` lost
        (None: whatever the kept fleet lost, else nothing): the ones it was
        built from where they match, else new ones."""
        kept = self.__dict__.get("_parts")
        if kept and kept[0].context is context and removed in (None, kept[0].removed):
            return kept
        fleet = Fleet(context, self.available, removed or frozenset())
        return fleet, Load(context, self.demand_mw, self.interconnector_penalty)


@dataclass(frozen=True)
class DispatchSolution:
    """Outputs, branch flows and shed demand for one dispatch.

    status is "feasible", "feasible_with_shedding", or "infeasible".
    flows_mw holds the DC branch flows in grid branch order, from the
    GridContext sensitivities; it is None only when infeasible.
    """

    status: str
    generator_output_mw: dict[str, float]
    flows_mw: np.ndarray | None
    shed_mw: dict[str, float]

    @property
    def total_shed_mw(self) -> float:
        return float(sum(self.shed_mw.values()))


def _infeasible() -> DispatchSolution:
    return DispatchSolution(status="infeasible", generator_output_mw={}, flows_mw=None, shed_mw={})


def generator_distance_costs(
    grid: Grid,
    demand_mw: Mapping[str, float],
    *,
    interconnector_penalty: float = 10.0,
) -> dict[str, float]:
    """Unit dispatch cost per generator from demand-weighted hop distance.

    The cost is one plus the demand-weighted mean branch-hop count
    (`Grid.hop_distance`) from the generator's bus to the demand buses,
    so even a co-located generator costs one unit; international units
    are additionally multiplied by `interconnector_penalty` to keep them a
    last resort.
    """
    unknown = sorted(demand_mw.keys() - grid.bus_by_id.keys())
    if unknown:
        raise ValidationError(f"demand names unknown buses: {', '.join(unknown)}")
    loads = [(bid, float(mw)) for bid, mw in demand_mw.items() if mw > 0.0]
    if not loads:
        raise NoDemand("distance costs need at least one bus with positive demand")
    loads.sort()
    buses, demand = [grid.bus_index[bid] for bid, _ in loads], [[mw for _, mw in loads]]
    costs = _distance_costs(grid, np.array(buses), np.array(demand), interconnector_penalty)
    return dict(zip(grid.generator_by_id, costs[0].tolist()))


def _distance_costs(grid: Grid, buses, demand: np.ndarray, interconnector_penalty: float):
    """Each row's `generator_distance_costs`, in generator order: each row
    of `demand` holds MW, some of it positive, at bus positions `buses`,
    in bus-id order."""
    means = np.zeros((len(demand), len(grid.buses)))
    for row, positive in enumerate(demand > 0.0):
        means[row] = demand[row, positive] @ grid.hop_distance[buses[positive]]
    means = (means / np.cumsum(demand, axis=1)[:, -1:])[:, grid.generator_bus_index]
    unreachable = np.flatnonzero(~np.isfinite(means).all(axis=0))
    if unreachable.size:
        gen = grid.generators[unreachable[0]]
        raise ValidationError(f"generator {gen.id} is unreachable from a demand bus")
    costs = 1.0 + means
    costs[:, grid.is_international] *= interconnector_penalty
    return costs


def _overloads(flows: np.ndarray, ratings: np.ndarray) -> list[tuple[int, int]]:
    """(branch, sign of its flow) for every branch loaded past its rating."""
    return [
        (row, 1 if flows[row] > 0 else -1)
        for row in np.flatnonzero(np.abs(flows) > ratings * (1.0 + 1e-9))
    ]


def _fill(costs, upper, total):
    """The balance-only optimum of each row of a stack: `total` filled in
    (cost, index) order, each unit given min(cap, what remains), which is
    the total less the caps before it, taken off one by one.

    Returns the outputs and each row's marginal unit, the first whose cap
    covers what remains, basic at that optimum; -1 when there is no unit,
    or capacity falls short by more than FEASIBILITY_TOL * (1 + total), the
    caps taken off the total in index order as phase 1 of the simplex
    takes them, so both give the same verdict at the boundary.
    """
    if not upper.shape[1]:
        return np.zeros_like(upper), np.full(len(total), -1)
    rows, position = np.arange(len(total))[:, None], np.arange(upper.shape[1])
    order = np.argsort(costs, axis=1, kind="stable")
    caps = upper[rows, order]
    remains = np.subtract.accumulate(np.column_stack([total, caps]), axis=1)[:, :-1]
    covers = caps >= remains
    marginal = np.where(covers.any(axis=1), covers.argmax(axis=1), len(position) - 1)
    output = np.empty_like(caps)
    output[rows, order] = np.where(position <= marginal[:, None], np.minimum(caps, remains), 0.0)
    shortfall = np.subtract.accumulate(np.column_stack([total, upper]), axis=1)[:, -1]
    short = ~covers.any(axis=1) & (shortfall > FEASIBILITY_TOL * (1.0 + total))
    return output, np.where(short, -1, order[rows[:, 0], marginal])


def _shed_deficit(demand, rank, shed_step, capacity, total):
    """The shed after the energy-deficit rounds of each row of a stack.

    A row holds a cell's bus demands in its load's order, `rank` each bus's
    place (0, 1, ...) in the cell's shedding order. Each round sheds
    `shed_step` of the first bus in that order not drained, while total -
    sum(shed), summed left to right in the load's order, exceeds capacity +
    1e-9. That sum never falls as a term grows, so the first bus whose
    drain ends the shortage is found by bisecting the drained prefixes;
    the buses before it are drained, and it is stepped round by round.
    """
    limit, shed = capacity + 1e-9, np.zeros_like(demand)
    rows = np.flatnonzero(total > limit)
    if not rows.size:
        return shed
    mw, place, total, limit = demand[rows], rank[rows], total[rows], limit[rows]
    first, stop = np.zeros(len(rows), dtype=int), np.full(len(rows), demand.shape[1])
    while (searching := first < stop).any():
        mid = (first + stop) // 2
        short = total - np.cumsum(np.where(place <= mid[:, None], mw, 0.0), axis=1)[:, -1] > limit
        first, stop = np.where(short & searching, mid + 1, first), np.where(short, stop, mid)
    part = np.where(place < first[:, None], mw, 0.0)
    k, column = np.arange(len(rows)), (place == first[:, None]).argmax(axis=1)
    bus, value = mw[k, column], part[k, column]
    stepping = first < demand.shape[1]  # no bus is left to step where every bus drains
    while stepping.any():
        value = np.where(stepping, np.minimum(bus, value + shed_step * bus), value)
        part[k, column] = value
        stepping &= total - np.cumsum(part, axis=1)[:, -1] > limit
    shed[rows] = part
    return shed


def _limited_lp(objective, cols, base_flow, ratings, upper, total):
    """Optimal x of min objective @ x subject to sum(x) = total,
    0 <= x <= upper and |cols @ x + base_flow| <= ratings; None when
    infeasible.

    The program starts from the fill, the optimum with the balance row
    alone, and adds a limit row whenever the flows overload a branch. Each
    round re-solves with the dual simplex from the last optimal basis: the
    fill's basis (the marginal unit basic, the units filled before it at
    their caps, the rest at zero) is dual feasible, and a new row's slack
    enters basic at zero cost, so every start stays dual feasible. Each
    round adds at least one (branch, sign) pair not yet active, and there
    are 2 * len(ratings) of them, so the loop ends.
    """
    output, marginal = _fill(objective[None], upper[None], np.array([total]))
    if marginal[0] < 0:
        return None
    x = output[0]
    start = Basis(marginal, x == upper)
    bounds = np.column_stack([np.zeros(len(objective)), upper])
    active: list[tuple[int, int]] = []
    while True:
        new_rows = [rs for rs in _overloads(cols @ x + base_flow, ratings) if rs not in active]
        if not new_rows:
            return x
        active.extend(new_rows)
        lp = LinearProgram(
            objective=objective,
            a_eq=np.ones((1, len(objective))),
            b_eq=np.array([total]),
            a_ub=np.array([side * cols[row] for row, side in active]),
            b_ub=np.array([ratings[row] - side * base_flow[row] for row, side in active]),
            bounds=bounds,
        )
        sol = lp_solve(lp, start=start)
        if sol.status != "optimal":
            return None
        x, start = sol.x, sol.basis


def _beyond_relief(objective, cols, base_flow, ratings, upper, total) -> bool:
    """Whether the program of `_limited_lp`, given the same arguments, is
    infeasible by a margin: some branch that its start, the fill in
    objective order, overloads carries more than its rating plus
    100 * FEASIBILITY_TOL * (1 + total + max(ratings) + max|base_flow|) at
    every x with sum(x) = total and 0 <= x <= upper. False where that fill
    falls short.

    The least of side * flow on a branch over those x is a continuous
    knapsack, the fill in order of side * cols[branch] (Andersen &
    Andersen, "Presolving in linear programming", Math. Programming 71,
    1995). Only the start's overloads are bounded: a branch that every x
    overloads, the start overloads too.
    """
    output, marginal = _fill(objective[None], upper[None], np.array([total]))
    overloaded = _overloads(cols @ output[0] + base_flow, ratings) if marginal[0] >= 0 else []
    if not overloaded:
        return False
    rows, sides = np.array(overloaded).T
    costs = sides[:, None] * cols[rows]
    least, _ = _fill(costs, np.broadcast_to(upper, costs.shape), np.full(len(rows), total))
    flows = (costs * least).sum(axis=1) + sides * base_flow[rows]
    margin = 100 * FEASIBILITY_TOL * (1.0 + total + ratings.max() + np.abs(base_flow).max())
    return bool((flows > ratings[rows] + margin).any())


class Fleet:
    """The units left after one loss, and what every dispatch over them
    shares.

    `removed` is checked once: known, and disjoint from `available`, whose
    ids `DispatchProblem` checks. The available units are held in
    generator-id order (`ids`, at positions `index` in the grid's
    generators) with their caps `upper`, their flow-sensitivity columns
    `cols` and their `capacity`, summed left to right in that order: a
    set's order varies with the string-hash seed, and a float sum with it.
    """

    def __init__(self, context: GridContext, available, removed=frozenset()):
        grid = context.grid
        self.context = context
        self.available = frozenset(available)
        self.removed = frozenset(removed)
        unknown = sorted(self.removed - grid.generator_by_id.keys())
        if unknown:
            raise ValidationError(f"removal names unknown generators: {', '.join(unknown)}")
        overlap = sorted(self.removed & self.available)
        if overlap:
            raise ValidationError(f"generators both removed and available: {', '.join(overlap)}")
        self.ids = sorted(self.available)
        self.index = np.array([grid.generator_index[g] for g in self.ids], dtype=int)
        self.upper = grid.derated_mw[self.index]
        self.cols = context.sensitivity[:, grid.generator_bus_index[self.index]]
        self.capacity = sum(self.upper.tolist())

    @cached_property
    def shed_rank(self) -> np.ndarray:
        """Every bus's position in the grid's buses, nearest first by hop
        distance to the nearest removed unit's bus; ties, and every bus
        when nothing is removed, by id."""
        grid = self.context.grid
        sources = [grid.bus_index[grid.generator_by_id[g].bus] for g in self.removed]
        return _shed_order(self.context, grid.hop_distance[sources].min(axis=0, initial=np.inf))


def _shed_order(context: GridContext, near: np.ndarray) -> np.ndarray:
    """Each row's bus positions, nearest first by `near`, the hop distance
    to the nearest removed unit's bus (inf with nothing removed); ties by
    bus id."""
    return np.lexsort((np.broadcast_to(context.bus_id_rank, near.shape), near), axis=-1)


class Load:
    """One demand state, and what every dispatch under it shares: the
    positive bus demands `mw`, their `total`, the branch flows the demand
    alone causes (`base_flow`) and, once asked, each generator's distance
    cost (`costs`, in generator order)."""

    def __init__(self, context: GridContext, demand_mw: Mapping[str, float], interconnector_penalty: float):
        grid = context.grid
        self.context = context
        self.interconnector_penalty = interconnector_penalty
        self.mw = {bid: float(mw) for bid, mw in demand_mw.items() if mw > 0.0}
        self.total = sum(self.mw.values())
        demand_vec = np.zeros(len(grid.buses))
        for bid, mw in self.mw.items():
            demand_vec[grid.bus_index[bid]] += mw
        self.base_flow = context.sensitivity @ (-demand_vec)

    @cached_property
    def costs(self) -> np.ndarray:
        costs = generator_distance_costs(
            self.context.grid, self.mw, interconnector_penalty=self.interconnector_penalty
        )
        return np.fromiter(costs.values(), float, len(costs))


class _Program:
    """The dispatch program of one fleet under one load, in sensitivity form.

    Variables are the fleet's outputs in generator-id order; `cols` holds
    their flow-sensitivity columns and `base_flow` the branch flows the
    demand alone causes.
    """

    def __init__(self, fleet: Fleet, load: Load):
        self.fleet = fleet
        self.context = fleet.context
        self.ids, self.upper, self.cols = fleet.ids, fleet.upper, fleet.cols
        self.total, self.base_flow = load.total, load.base_flow
        self.load = load

    @cached_property
    def costs(self) -> np.ndarray:
        return self.load.costs[self.fleet.index]

    def merit_order(self) -> np.ndarray | None:
        """The balance-only optimum, filled in (cost, index) order, if it
        overloads no branch; None when it does or capacity falls short."""
        output, marginal = _fill(self.costs[None], self.upper[None], np.array([self.total]))
        x = output[0]
        if marginal[0] < 0 or _overloads(self.cols @ x + self.base_flow, self.context.ratings):
            return None
        return x

    def least_cost(self) -> np.ndarray | None:
        return _limited_lp(
            self.costs, self.cols, self.base_flow, self.context.ratings, self.upper, self.total
        )

    def least_shed_program(self, bus: str, limit: float) -> tuple:
        """The `_limited_lp` arguments of the least extra shed t in [0,
        limit] at `bus` for which some dispatch meets every branch limit:
        the units' columns and t's, the bus's sensitivity column, with
        objective t."""
        n = len(self.ids)
        column = self.context.sensitivity[:, self.context.grid.bus_index[bus]]
        objective = np.zeros(n + 1)
        objective[n] = 1.0
        return (
            objective, np.column_stack([self.cols, column]), self.base_flow,
            self.context.ratings, np.append(self.upper, limit), self.total,
        )

    def solution(self, output: np.ndarray) -> DispatchSolution:
        return DispatchSolution(
            status="feasible",
            generator_output_mw=dict(zip(self.ids, output.tolist())),
            flows_mw=self.cols @ output + self.base_flow,
            shed_mw={},
        )


def merit_order_flows(problem: DispatchProblem) -> np.ndarray | None:
    """Branch flows of the least-cost dispatch with every rating taken as
    infinite, in grid branch order; None when capacity falls short.

    That dispatch is the merit-order fill, so no program is solved. Units
    fill in order of distance cost, and units that tie on cost fill in
    generator-id order, the smaller id first. No demand gives zero flows.
    `calibrate_ratings` turns these flows into ratings.
    """
    program = _Program(*problem.parts(GridContext(problem.grid)))
    if program.total <= 0.0:
        return np.zeros(len(problem.grid.branches))
    output, marginal = _fill(program.costs[None], program.upper[None], np.array([program.total]))
    return None if marginal[0] < 0 else program.cols @ output[0] + program.base_flow


def redispatch(problem: DispatchProblem, context: GridContext | None = None) -> DispatchSolution:
    """Minimum-cost feasible dispatch for fixed demand, or infeasible.

    The units are first filled in merit order (cost, then generator id),
    the optimum of the program with the balance row alone. When that fill
    meets demand and overloads no branch it is returned as is: an optimal
    vertex of the full program, though where units tie on cost possibly a
    different one from the vertex the simplex would reach. Otherwise a
    linear program decides, with branch limits added as rows only for the
    branches that overload, each round warm from the last.
    """
    if context is None:
        context = GridContext(problem.grid)
    program = _Program(*problem.parts(context))
    if program.total <= 0.0:
        return DispatchSolution(
            status="feasible",
            generator_output_mw={g: 0.0 for g in program.ids},
            flows_mw=np.zeros(len(problem.grid.branches)),
            shed_mw={},
        )
    if not program.ids:
        return _infeasible()
    output = program.least_cost()
    if output is None:
        return _infeasible()
    return program.solution(output)


def dispatch_with_shedding(
    problem: DispatchProblem,
    removed: frozenset[str] | set[str] = frozenset(),
    *,
    shed_step: float = 0.1,
    context: GridContext | None = None,
) -> DispatchSolution:
    """Dispatch, shedding demand near the removed generation until feasible.

    Demand buses are ranked by hop distance to the nearest removed
    generator's bus (ties and the no-removal case fall back to bus id).
    Each round sheds `shed_step` of the front bus's original demand; a bus
    is drained completely before the next one is touched. The result is
    the first round that admits a dispatch within every branch limit.

    The aggregate energy deficit is shed without the optimizer
    (`_shed_deficit`), since no dispatch exists while demand exceeds
    available capacity. After that, a
    round whose merit-order fill overloads nothing settles the cell. Else
    one linear program finds the least extra shed t* on the front bus that
    admits a dispatch; the feasible shed amounts on one bus form an
    interval, so the rounds before the first one reaching t* need no check,
    and a bus with no feasible amount is drained unchecked. The chosen round
    is confirmed with `redispatch`.

    Each round first bounds the least-shed program (`_beyond_relief`): when
    some branch carries more than its rating plus 100 * FEASIBILITY_TOL * (1
    + total + max rating + max |base flow|) under every dispatch and every
    extra shed in [0, what the bus has left], the bus is drained at once,
    and the round builds no distance costs, fill or program. That is the
    round's own outcome: the dual simplex certifies no point of a program
    infeasible by that margin, so the least-shed program has no t*, and t =
    0 is in range, so the merit-order fill overloads too. So every round
    takes the branch it took without the bound, in the same order, and each
    state it builds keeps its float operations. The one difference: a
    least-shed program the bound rules out is not solved, so one that would
    have raised NumericalBreakdown no longer does. The bound is skipped
    when no unit is available or the fill falls short.

    Never raises Unstable: the state with every bus drained is the
    zero-demand dispatch, which is always feasible, so a cell with no
    available unit returns "feasible_with_shedding" with all demand shed.
    """
    if context is None:
        context = GridContext(problem.grid)
    fleet, unshed = problem.parts(context, frozenset(removed))
    if not 0.0 < shed_step <= 1.0:
        raise ValidationError("shed step must lie in (0, 1]")

    original = unshed.mw
    order = [bid for bid in (context.grid.buses[k].id for k in fleet.shed_rank) if bid in original]
    place = {bid: k for k, bid in enumerate(order)}
    rank = [[place[bid] for bid in original]]
    deficit = _shed_deficit(np.array([list(original.values())]), np.array(rank), shed_step,
                            np.array([fleet.capacity]), np.array([unshed.total]))
    shed = dict(zip(original, deficit[0].tolist()))
    position = 0  # the buses before it in `order` are drained

    def front() -> str | None:
        nonlocal position
        while position < len(order) and shed[order[position]] >= original[order[position]]:
            position += 1
        return order[position] if position < len(order) else None

    def apply_round() -> bool:
        bid = front()
        if bid is None:
            return False
        shed[bid] = min(original[bid], shed[bid] + shed_step * original[bid])
        return True

    def remaining() -> dict[str, float]:
        return {bid: original[bid] - shed[bid] for bid in original}

    def settled(sol: DispatchSolution) -> DispatchSolution:
        shed_out = {bid: mw for bid, mw in shed.items() if mw > 0.0}
        return DispatchSolution(
            status="feasible_with_shedding" if shed_out else "feasible",
            generator_output_mw=sol.generator_output_mw,
            flows_mw=sol.flows_mw,
            shed_mw=shed_out,
        )

    def load() -> Load:
        if not any(shed.values()):
            return unshed
        return Load(context, remaining(), problem.interconnector_penalty)

    def confirm() -> DispatchSolution:
        return redispatch(DispatchProblem.from_parts(fleet, load()), context)

    while True:
        bus = front()
        if bus is None:
            return settled(confirm())
        program = _Program(fleet, load())
        relief, x = program.least_shed_program(bus, original[bus] - shed[bus]), None
        if not (fleet.ids and _beyond_relief(*relief)):
            output = program.merit_order()
            if output is not None:
                return settled(program.solution(output))
            x = _limited_lp(*relief)
        if x is None:
            while front() == bus:
                apply_round()
            continue
        least = float(x[-1])
        # Rounds short of t* are infeasible, unless short by no more than the
        # solvers' tolerance: redispatch may accept such a round, so it is the
        # one confirmed. A rejected round means the feasible interval ended
        # before the next round, or a tolerance miss; either way the next
        # round starts a fresh search.
        tolerance = FEASIBILITY_TOL * (1.0 + program.total + float(context.ratings.max(initial=0.0)))
        start = shed[bus]
        while front() == bus and shed[bus] - start < least - tolerance:
            apply_round()
        sol = confirm()
        if sol.status == "feasible":
            return settled(sol)
        apply_round()
