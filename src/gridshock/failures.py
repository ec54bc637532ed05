"""Monte Carlo generation-loss experiments.

Each experiment draws random removal orderings of the local (non
interconnector) generators, steps a capacity-loss fraction upward, removes
the shortest ordering prefix reaching that fraction, and redispatches with
load shedding at the studied hours of each demand scenario. Per-region
unserved power is recorded for every (ordering, fraction, scenario, hour)
cell. Runs are reproducible: ordering i is seeded by (master_seed, i) and
parallel execution reduces to the same table as a serial run.

The sweep computes what cells share once: an ordering's removal sets for
all fractions together (`removal_sets`), one `dispatch.Fleet` per
(ordering, fraction) and one unshed `dispatch.Load` per studied (scenario,
hour). An ordering's cells are settled as one stack: their deficit sheds,
demand states and merit-order fills are array operations, and only a cell
whose fill falls short or overloads a branch is one `dispatch_with_shedding`
call. Every cell keeps the float operations, in their order, of a cell
computed alone.

The sweep returns a `results.ResultTable`; its file format lives in
`results`, and the sweep's definition (`ExperimentConfig`) in
`runconfig`, so the stages after simulate read both without importing
this module, the dispatch engine or the solver.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .dispatch import (
    DispatchProblem,
    Fleet,
    GridContext,
    Load,
    _distance_costs,
    _fill,
    _shed_deficit,
    _shed_order,
    dispatch_with_shedding,
    merit_order_flows,
)
from .errors import Unstable, ValidationError
from .forkpool import fork_map
from .grid import Grid
from .profiles import DemandProfile
from .results import ResultTable
from .runconfig import ExperimentConfig

__all__ = [
    "generate_orderings",
    "removal_sets",
    "bus_demand",
    "run_experiment",
    "calibrate_ratings",
]


def generate_orderings(grid: Grid, n: int, master_seed: int) -> list[tuple[str, ...]]:
    """n uniform removal orderings of the non-interconnector generators.

    Ordering i is drawn from numpy's default generator seeded with the pair
    (master_seed, i), so any single ordering can be regenerated without
    replaying the rest.
    """
    if n < 1:
        raise ValidationError("need at least one ordering")
    ids = grid.local_generator_ids
    if not ids:
        raise ValidationError("grid has no local generators to remove")
    orderings = []
    for i in range(n):
        rng = np.random.default_rng([master_seed, i])
        perm = rng.permutation(len(ids))
        orderings.append(tuple(ids[k] for k in perm))
    return orderings


def removal_sets(
    ordering: Sequence[str], grid: Grid, fractions: Sequence[float]
) -> list[frozenset[str]]:
    """Per fraction, the shortest ordering prefix whose derated capacity
    reaches the target.

    The target is fraction x total non-interconnector derated capacity, so
    removal sets are nested across ascending fractions of one ordering. The
    ordering is checked and its capacities summed once for all fractions.
    """
    if not all(0.0 <= fraction <= 1.0 for fraction in fractions):
        raise ValidationError("loss fraction must lie in [0, 1]")
    if tuple(sorted(ordering)) != grid.local_generator_ids:
        raise ValidationError("ordering is not a permutation of the local generators")
    derated = grid.derated_mw[[grid.generator_index[g] for g in ordering]]
    total, cumulative = derated.sum(), np.cumsum(derated)
    sets = []
    for fraction in fractions:
        target = fraction * total
        prefix = int(np.searchsorted(cumulative, target, side="left")) + 1 if target > 0.0 else 0
        sets.append(frozenset(ordering[: min(prefix, len(ordering))]))
    return sets


def bus_demand(grid: Grid, profile: DemandProfile, hour: int) -> dict[str, float]:
    """Spread each region's demand at the hour equally over its demand buses."""
    by_region: dict[str, list[str]] = {}
    for bus in grid.demand_buses:
        by_region.setdefault(bus.region, []).append(bus.id)
    demand: dict[str, float] = {}
    for region in profile.regions:
        mw = profile.demand_at(region, hour)
        buses = by_region.get(region, [])
        if not buses:
            if mw > 0.0:
                raise ValidationError(
                    f"region {region} has demand but no demand bus in the grid"
                )
            continue
        share = mw / len(buses)
        for bid in buses:
            demand[bid] = share
    return demand


def _solar_ids(grid: Grid) -> frozenset[str]:
    return frozenset(g.id for g in grid.generators if g.technology == "solar")


class _SweepState:
    """Shared per-process state for the ordering workers.

    Each studied (scenario, hour) keeps one unshed `Load`. Row k of `buses`
    lists every bus position, load k's demand buses first and in its
    order, and row k of `demand` the load's MW at each; `costs[k]` holds
    its distance costs with the generators in id order, at positions
    `by_id` in the grid's generators (`id_place` inverts `by_id`).
    """

    def __init__(
        self,
        grid: Grid,
        config: ExperimentConfig,
        demands: dict[tuple[str, int], dict[str, float]],
        regions: tuple[str, ...],
        interconnector_penalty: float,
    ):
        self.grid = grid
        self.config = config
        self.regions = regions
        self.penalty = interconnector_penalty
        self.context = GridContext(grid)
        self.cells = sorted(config.hours)
        self.loads = [Load(self.context, demands[c], interconnector_penalty) for c in self.cells]
        self.solar = _solar_ids(grid)
        solar_buses = [grid.bus_index[grid.generator_by_id[g].bus] for g in self.solar]
        self.solar_near = grid.hop_distance[solar_buses].min(axis=0, initial=np.inf)
        self.all_generators = frozenset(grid.generator_by_id)
        column = {region: k for k, region in enumerate(regions)}
        self.bus_region = np.array([column.get(bus.region, 0) for bus in grid.buses])
        first = [[grid.bus_index[bid] for bid in load.mw] for load in self.loads]
        rest = [sorted(set(range(len(grid.buses))) - set(row)) for row in first]
        self.buses = np.array([row + others for row, others in zip(first, rest)])
        self.demand = np.zeros(self.buses.shape)
        for row, load in enumerate(self.loads):
            self.demand[row, : len(load.mw)] = list(load.mw.values())
        self.by_id = np.array([grid.generator_index[g] for g in sorted(grid.generator_by_id)])
        self.id_place = np.argsort(self.by_id)
        self.costs = np.zeros((len(self.loads), len(self.by_id)))
        for row, load in enumerate(self.loads):
            if load.mw:
                self.costs[row] = load.costs[self.by_id]

    def run_ordering(self, ordering: tuple[str, ...]) -> tuple[np.ndarray, int]:
        """Unserved MW per region of the ordering's cells, fraction by
        fraction and cell by cell: the ordering's rows of the table; and
        how many cells the merit-order fill did not settle.

        The cells are settled as one stack, with the float operations of
        `dispatch_with_shedding` in their order: the energy deficit is
        shed, each shed cell's demand state built, and every cell filled
        over all generators, a unit its fleet lacks capped at zero. A cell
        whose fill falls short or overloads a branch is settled by
        `dispatch_with_shedding`.
        """
        grid, context, n_loads = self.grid, self.context, len(self.loads)
        removals = removal_sets(ordering, grid, self.config.loss_fractions)
        fleets = [
            Fleet(context, self.all_generators - removed - self.solar, removed | self.solar)
            for removed in removals
        ]
        cells, tile = len(fleets) * n_loads, (len(fleets), 1)
        upper = np.zeros((len(fleets), len(self.by_id)))
        for row, fleet in enumerate(fleets):
            upper[row, self.id_place[fleet.index]] = fleet.upper
        # every fleet's `shed_rank` at once: its removed units are a prefix of the ordering
        buses = grid.generator_bus_index[[grid.generator_index[g] for g in ordering]]
        reach = np.minimum.accumulate(np.vstack([self.solar_near, grid.hop_distance[buses]]))
        order = _shed_order(context, reach[[len(removed) for removed in removals]])
        place = np.argsort(order, axis=1)[:, self.buses].reshape(cells, -1)
        demand = np.tile(self.demand, tile)
        total = np.tile([load.total for load in self.loads], len(fleets))
        capacity = np.repeat([fleet.capacity for fleet in fleets], n_loads)
        shed = _shed_deficit(demand, place, self.config.shed_step, capacity, total)

        # each shed cell's demand state: its total, base flow and distance costs
        left, renew = demand - shed, np.flatnonzero(shed.any(axis=1))
        total = np.cumsum(left, axis=1)[:, -1]
        vectors = np.zeros((len(renew), len(grid.buses)))
        vectors[np.arange(len(renew))[:, None], self.buses[renew % n_loads]] = left[renew]
        base_flow = np.tile([load.base_flow for load in self.loads], tile)
        for cell, vector in zip(renew.tolist(), vectors):
            base_flow[cell] = context.sensitivity @ -vector
        costs, served = np.tile(self.costs, tile), total[renew] > 0.0
        id_buses = np.argsort(context.bus_id_rank)
        new_costs = _distance_costs(grid, id_buses, vectors[served][:, id_buses], self.penalty)
        costs[renew[served]] = new_costs[:, self.by_id]

        output, marginal = _fill(costs, np.repeat(upper, n_loads, axis=0), total)
        flows = base_flow.copy()
        for cell in range(cells):
            fleet = fleets[cell // n_loads]
            flows[cell] += fleet.cols @ output[cell, self.id_place[fleet.index]]
        overloads = (np.abs(flows) > context.ratings * (1.0 + 1e-9)).any(axis=1)
        filled = np.repeat([len(fleet.ids) > 0 for fleet in fleets], n_loads) & (marginal >= 0)
        settled = (total <= 0.0) | (filled & ~overloads)

        # bincount adds each bin's weights in their order: a cell's buses in its load's order
        bins = np.tile(self.bus_region[self.buses], tile)
        bins += len(self.regions) * np.arange(cells)[:, None]
        weights = np.where(settled[:, None], shed, 0.0).ravel()
        unserved = np.bincount(bins.ravel(), weights, cells * len(self.regions)).reshape(cells, -1)
        for cell in np.flatnonzero(~settled).tolist():
            fleet = fleets[cell // n_loads]
            problem = DispatchProblem.from_parts(fleet, self.loads[cell % n_loads])
            solution = dispatch_with_shedding(
                problem, removed=fleet.removed, shed_step=self.config.shed_step, context=context
            )
            for bid, mw in solution.shed_mw.items():
                unserved[cell, self.bus_region[grid.bus_index[bid]]] += mw
        return unserved, int(cells - settled.sum())


def run_experiment(
    grid: Grid,
    profiles: Mapping[str, DemandProfile],
    config: ExperimentConfig,
    *,
    workers: int = 1,
    interconnector_penalty: float = 10.0,
) -> ResultTable:
    """Run the full sweep and collect one record per cell.

    Solar units are removed in every cell regardless of the drawn prefix
    (studied hours are dark); interconnectors are never removed. Every cell
    is "ok" or "shed": shedding all demand always settles the network, so
    dispatch_with_shedding never raises Unstable. Orderings are independent
    work units, so any worker count yields the identical table: `fork_map`
    runs them in min(workers, orderings) processes, one task per ordering.
    Each ordering's cells run in key order, fraction by fraction, so the
    table needs no sort.
    """
    if workers < 1:
        raise ValidationError("workers must be at least 1")
    demands: dict[tuple[str, int], dict[str, float]] = {}
    regions: tuple[str, ...] | None = None
    for scenario, hour in config.hours:
        if scenario not in profiles:
            raise ValidationError(f"no profile provided for scenario {scenario!r}")
        profile = profiles[scenario]
        if hour not in profile.hour_pos:
            raise ValidationError(f"profile {scenario!r} does not cover hour {hour}")
        if regions is None:
            regions = profile.regions
        elif set(regions) != set(profile.regions):
            raise ValidationError("profiles disagree on the region set")
        demands[(scenario, hour)] = bus_demand(grid, profile, hour)

    state = _SweepState(grid, config, demands, tuple(sorted(regions)), interconnector_penalty)
    orderings = generate_orderings(grid, config.n_orderings, config.master_seed)

    chunks = fork_map(state.run_ordering, orderings, workers)

    n, cells, fractions = config.n_orderings, state.cells, config.loss_fractions
    return ResultTable(
        ordering=np.repeat(np.arange(n), len(fractions) * len(cells)),
        fraction=np.tile(np.repeat(fractions, len(cells)), n),
        scenario=tuple(s for s, _ in cells) * (n * len(fractions)),
        hour=np.tile([h for _, h in cells], n * len(fractions)),
        regions=state.regions,
        unserved_mw=np.concatenate([rows for rows, _ in chunks]),
        network_cells=sum(count for _, count in chunks),
    )


def calibrate_ratings(
    grid: Grid,
    current_profile: DemandProfile,
    *,
    headroom: float = 1.2,
    interconnector_penalty: float = 10.0,
) -> Grid:
    """Upsize branch ratings to carry the current-day peak with headroom.

    Takes the uncapacitated zero-removal dispatch at the profile's national
    peak hour (solar unavailable, matching the experiment convention) and
    sets every rating to max(original, headroom x |flow|). That dispatch is
    the merit-order fill (`merit_order_flows`): where units tie on distance
    cost, the smaller generator id fills first. The calibrated grid keeps
    the original's cached values, the hop table among them
    (`Grid.with_ratings`).
    """
    if headroom <= 0.0:
        raise ValidationError("headroom must be positive")
    peak = current_profile.peak_hour()
    demand = bus_demand(grid, current_profile, peak)
    available = frozenset(grid.generator_by_id) - _solar_ids(grid)
    problem = DispatchProblem(
        grid=grid,
        demand_mw=demand,
        available=available,
        interconnector_penalty=interconnector_penalty,
    )
    flows = merit_order_flows(problem)
    if flows is None:
        raise Unstable("peak demand exceeds available capacity before any removal")
    return grid.with_ratings(
        [max(b.rating_mw, headroom * abs(float(flow))) for b, flow in zip(grid.branches, flows)]
    )
