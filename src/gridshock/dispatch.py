"""Generation dispatch with congestion relief and localized load shedding.

Dispatch picks generator outputs that serve demand at minimum
distance-weighted cost subject to branch ratings. The network enters the
optimization through flow sensitivities: branch flows are linear in bus
injections under the DC model, so the angle variables can be eliminated and
limit rows added only for branches that actually congest. When no feasible
operating point exists, demand is shed in rounds, nearest to the disrupted
generation first, until the network settles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import NoDemand, NumericalBreakdown, Unstable, ValidationError
from .grid import Grid
from .numerics import LinearProgram, lp_solve, lu_solve
from .powerflow import default_slack_bus, _reduced_system

__all__ = [
    "GridContext",
    "DispatchProblem",
    "DispatchSolution",
    "generator_distance_costs",
    "redispatch",
    "dispatch_with_shedding",
]


class GridContext:
    """Flow sensitivities for repeated dispatch on one grid.

    `sensitivity` is the MW flow on each branch (grid branch order) per MW
    injected at each bus (grid bus order), with the slack bus absorbing the
    balance, so its column is zero. Safe to share across dispatch calls.
    """

    def __init__(self, grid: Grid, slack_bus: str | None = None):
        if slack_bus is None:
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


@dataclass(frozen=True)
class DispatchProblem:
    """One dispatch instance: a grid, demand in MW per bus, available units."""

    grid: Grid
    demand_mw: Mapping[str, float]
    available: frozenset[str]
    interconnector_penalty: float = 10.0

    def __post_init__(self):
        unknown = sorted(set(self.demand_mw) - set(self.grid.bus_by_id))
        if unknown:
            raise ValidationError(f"demand names unknown buses: {', '.join(unknown)}")
        unknown = sorted(self.available - set(self.grid.generator_by_id))
        if unknown:
            raise ValidationError(f"availability names unknown generators: {', '.join(unknown)}")
        for bid, mw in self.demand_mw.items():
            if not (mw >= 0.0 and np.isfinite(mw)):
                raise ValidationError(f"demand at {bid} must be finite and nonnegative")


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
    unknown = sorted(set(demand_mw) - set(grid.bus_by_id))
    if unknown:
        raise ValidationError(f"demand names unknown buses: {', '.join(unknown)}")
    loads = [(bid, float(mw)) for bid, mw in demand_mw.items() if mw > 0.0]
    if not loads:
        raise NoDemand("distance costs need at least one bus with positive demand")
    loads.sort()
    total = sum(mw for _, mw in loads)

    rows = grid.hop_distance[[grid.bus_index[bid] for bid, _ in loads]]
    weights = np.array([mw for _, mw in loads])
    with np.errstate(invalid="ignore"):
        mean_by_bus = weights @ np.where(rows < 0, np.nan, rows) / total

    costs: dict[str, float] = {}
    for gen in grid.generators:
        mean = float(mean_by_bus[grid.bus_index[gen.bus]])
        if not np.isfinite(mean):
            raise ValidationError(f"generator {gen.id} is unreachable from a demand bus")
        cost = 1.0 + mean
        if gen.is_international:
            cost *= interconnector_penalty
        costs[gen.id] = cost
    return costs


def redispatch(
    problem: DispatchProblem,
    context: GridContext | None = None,
    *,
    ignore_limits: bool = False,
) -> DispatchSolution:
    """Minimum-cost feasible dispatch for fixed demand, or infeasible.

    Branch limits are enforced through flow sensitivities: the program
    starts with the energy-balance row only and adds a limit row whenever
    the resulting flows overload a branch, which converges because each
    branch contributes at most two rows.
    """
    if context is None:
        context = GridContext(problem.grid)
    grid = problem.grid
    demand = {bid: float(mw) for bid, mw in problem.demand_mw.items() if mw > 0.0}
    total_demand = sum(demand.values())

    gen_ids = sorted(problem.available)
    gens = [grid.generator_by_id[g] for g in gen_ids]

    if total_demand <= 0.0:
        return DispatchSolution(
            status="feasible",
            generator_output_mw={g: 0.0 for g in gen_ids},
            flows_mw=np.zeros(len(grid.branches)),
            shed_mw={},
        )
    if not gens:
        return DispatchSolution(
            status="infeasible", generator_output_mw={}, flows_mw=None, shed_mw={}
        )

    costs = generator_distance_costs(
        grid, demand, interconnector_penalty=problem.interconnector_penalty
    )
    c = np.array([costs[g] for g in gen_ids])
    upper = np.array([gen.derated_mw for gen in gens])
    bounds = np.column_stack([np.zeros(len(gens)), upper])

    demand_vec = np.zeros(len(grid.buses))
    for bid, mw in demand.items():
        demand_vec[grid.bus_index[bid]] += mw
    base_flow = context.sensitivity @ (-demand_vec)
    gen_cols = np.array([context.sensitivity[:, grid.bus_index[gen.bus]] for gen in gens]).T

    a_eq = np.ones((1, len(gens)))
    b_eq = np.array([total_demand])
    active: list[tuple[int, int]] = []

    while True:
        if active:
            a_ub = np.array(
                [side * gen_cols[row] for row, side in active]
            )
            b_ub = np.array(
                [context.ratings[row] - side * base_flow[row] for row, side in active]
            )
        else:
            a_ub = b_ub = None
        lp = LinearProgram(objective=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, bounds=bounds)
        sol = lp_solve(lp)
        if sol.status != "optimal":
            return DispatchSolution(
                status="infeasible", generator_output_mw={}, flows_mw=None, shed_mw={}
            )
        output = sol.x
        flows = gen_cols @ output + base_flow
        if ignore_limits:
            break
        overloaded = [
            (row, 1 if flows[row] > 0 else -1)
            for row in np.flatnonzero(np.abs(flows) > context.ratings * (1.0 + 1e-9))
        ]
        new_rows = [rs for rs in overloaded if rs not in active]
        if not new_rows:
            break
        active.extend(new_rows)
        if len(active) > 2 * len(grid.branches):
            raise NumericalBreakdown("limit rows kept accumulating without convergence")

    injections = -demand_vec.copy()
    outputs = {}
    for gen, mw in zip(gens, output):
        value = float(mw)
        outputs[gen.id] = value
        injections[grid.bus_index[gen.bus]] += value
    return DispatchSolution(
        status="feasible",
        generator_output_mw=outputs,
        # not `flows`: it rounds differently (2.7e-12 MW at the gb-like
        # calibration peak), and calibrate_ratings sets ratings from this one
        flows_mw=context.sensitivity @ injections,
        shed_mw={},
    )


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
    is drained completely before the next one is touched. The aggregate
    energy deficit is resolved without invoking the optimizer, since no
    dispatch can exist while demand exceeds available capacity.
    """
    if context is None:
        context = GridContext(problem.grid)
    grid = problem.grid
    removed = frozenset(removed)
    unknown = sorted(removed - set(grid.generator_by_id))
    if unknown:
        raise ValidationError(f"removal names unknown generators: {', '.join(unknown)}")
    overlap = sorted(removed & problem.available)
    if overlap:
        raise ValidationError(f"generators both removed and available: {', '.join(overlap)}")
    if not 0.0 < shed_step <= 1.0:
        raise ValidationError("shed step must lie in (0, 1]")

    original = {bid: float(mw) for bid, mw in problem.demand_mw.items() if mw > 0.0}
    if removed:
        sources = [grid.bus_index[grid.generator_by_id[g].bus] for g in removed]
        hops = grid.hop_distance[sources]
        near = np.where(hops < 0, np.inf, hops).min(axis=0)
        order = sorted(original, key=lambda bid: (near[grid.bus_index[bid]], bid))
    else:
        order = sorted(original)

    shed = {bid: 0.0 for bid in original}

    def apply_round() -> bool:
        for bid in order:
            if shed[bid] < original[bid]:
                shed[bid] = min(original[bid], shed[bid] + shed_step * original[bid])
                return True
        return False

    capacity = sum(
        grid.generator_by_id[g].derated_mw for g in problem.available
    )
    while sum(original.values()) - sum(shed.values()) > capacity + 1e-9:
        if not apply_round():
            break

    while True:
        remaining = {bid: original[bid] - shed[bid] for bid in original}
        attempt = DispatchProblem(
            grid=grid,
            demand_mw=remaining,
            available=problem.available,
            interconnector_penalty=problem.interconnector_penalty,
        )
        sol = redispatch(attempt, context)
        if sol.status == "feasible":
            shed_out = {bid: mw for bid, mw in shed.items() if mw > 0.0}
            status = "feasible_with_shedding" if shed_out else "feasible"
            return DispatchSolution(
                status=status,
                generator_output_mw=sol.generator_output_mw,
                flows_mw=sol.flows_mw,
                shed_mw=shed_out,
            )
        if not apply_round():
            raise Unstable(
                "no feasible network state exists even with all demand shed"
            )
