"""Monte Carlo generation-loss experiments.

Each experiment draws random removal orderings of the local (non
interconnector) generators, steps a capacity-loss fraction upward, removes
the shortest ordering prefix reaching that fraction, and redispatches with
load shedding at the studied hours of each demand scenario. Per-region
unserved power is recorded for every (ordering, fraction, scenario, hour)
cell. Runs are reproducible: ordering i is seeded by (master_seed, i) and
parallel execution reduces to the same table as a serial run.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .atomic import atomic_open
from .dispatch import DispatchProblem, GridContext, dispatch_with_shedding, redispatch
from .errors import Unstable, ValidationError
from .grid import Grid
from .profiles import DemandProfile

__all__ = [
    "STATUS_OK",
    "STATUS_SHED",
    "DEFAULT_LOSS_FRACTIONS",
    "ExperimentConfig",
    "ScenarioRecord",
    "ResultTable",
    "generate_orderings",
    "removal_set",
    "bus_demand",
    "run_experiment",
    "calibrate_ratings",
    "save_results",
    "load_results",
]

STATUS_OK = "ok"
STATUS_SHED = "shed"

DEFAULT_LOSS_FRACTIONS = tuple(round(0.05 * k, 2) for k in range(10))


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep definition: orderings x loss fractions x studied hours."""

    hours: tuple[tuple[str, int], ...]
    n_orderings: int = 1000
    loss_fractions: tuple[float, ...] = DEFAULT_LOSS_FRACTIONS
    master_seed: int = 0
    shed_step: float = 0.1

    def __post_init__(self):
        object.__setattr__(
            self, "hours", tuple((str(s), int(h)) for s, h in self.hours)
        )
        object.__setattr__(
            self, "loss_fractions", tuple(float(f) for f in self.loss_fractions)
        )
        if not self.hours:
            raise ValidationError("config needs at least one (scenario, hour) pair")
        if len(set(self.hours)) != len(self.hours):
            raise ValidationError("duplicate (scenario, hour) pairs in config")
        if self.n_orderings < 1:
            raise ValidationError("n_orderings must be at least 1")
        if not self.loss_fractions:
            raise ValidationError("config needs at least one loss fraction")
        fr = np.array(self.loss_fractions)
        if (fr < 0.0).any() or (fr > 1.0).any() or (np.diff(fr) <= 0).any():
            raise ValidationError("loss fractions must be ascending within [0, 1]")
        if not 0.0 < self.shed_step <= 1.0:
            raise ValidationError("shed_step must lie in (0, 1]")


@dataclass(frozen=True)
class ScenarioRecord:
    """Outcome of one dispatch cell of the sweep."""

    ordering_index: int
    loss_fraction: float
    scenario: str
    hour: int
    unserved_mw_per_region: dict[str, float]
    dispatch_status: str

    @property
    def total_unserved_mw(self) -> float:
        return float(sum(self.unserved_mw_per_region.values()))

    @property
    def key(self) -> tuple[int, float, str, int]:
        return (self.ordering_index, self.loss_fraction, self.scenario, self.hour)


@dataclass(frozen=True)
class ResultTable:
    """All records of one experiment."""

    records: tuple[ScenarioRecord, ...]

    def __post_init__(self):
        keys = [r.key for r in self.records]
        if len(set(keys)) != len(keys):
            raise ValidationError("duplicate (ordering, fraction, scenario, hour) records")


def _local_generators(grid: Grid) -> list[str]:
    return sorted(g.id for g in grid.generators if not g.is_international)


def generate_orderings(grid: Grid, n: int, master_seed: int) -> list[tuple[str, ...]]:
    """n uniform removal orderings of the non-interconnector generators.

    Ordering i is drawn from numpy's default generator seeded with the pair
    (master_seed, i), so any single ordering can be regenerated without
    replaying the rest.
    """
    if n < 1:
        raise ValidationError("need at least one ordering")
    ids = _local_generators(grid)
    if not ids:
        raise ValidationError("grid has no local generators to remove")
    orderings = []
    for i in range(n):
        rng = np.random.default_rng([master_seed, i])
        perm = rng.permutation(len(ids))
        orderings.append(tuple(ids[k] for k in perm))
    return orderings


def removal_set(ordering: Sequence[str], grid: Grid, fraction: float) -> frozenset[str]:
    """Shortest ordering prefix whose derated capacity reaches the target.

    The target is fraction x total non-interconnector derated capacity, so
    removal sets are nested across ascending fractions of one ordering.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValidationError("loss fraction must lie in [0, 1]")
    ids = _local_generators(grid)
    if sorted(ordering) != ids:
        raise ValidationError("ordering is not a permutation of the local generators")
    derated = np.array([grid.generator_by_id[g].derated_mw for g in ordering])
    target = fraction * derated.sum()
    if target <= 0.0:
        return frozenset()
    prefix = int(np.searchsorted(np.cumsum(derated), target, side="left")) + 1
    return frozenset(ordering[: min(prefix, len(ordering))])


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


def _region_of_bus(grid: Grid) -> dict[str, str]:
    return {bus.id: bus.region for bus in grid.demand_buses}


class _SweepState:
    """Shared per-process state for the ordering workers."""

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
        self.demands = demands
        self.regions = regions
        self.interconnector_penalty = interconnector_penalty
        self.context = GridContext(grid)
        self.solar = _solar_ids(grid)
        self.all_generators = frozenset(grid.generator_by_id)
        self.bus_region = _region_of_bus(grid)
        self.cells = sorted(config.hours)

    def run_ordering(self, index: int, ordering: tuple[str, ...]) -> list[ScenarioRecord]:
        records = []
        for fraction in self.config.loss_fractions:
            removed = removal_set(ordering, self.grid, fraction) | self.solar
            available = self.all_generators - removed
            for scenario, hour in self.cells:
                records.append(
                    self._run_cell(index, fraction, scenario, hour, removed, available)
                )
        return records

    def _run_cell(self, index, fraction, scenario, hour, removed, available):
        problem = DispatchProblem(
            grid=self.grid,
            demand_mw=self.demands[(scenario, hour)],
            available=available,
            interconnector_penalty=self.interconnector_penalty,
        )
        solution = dispatch_with_shedding(
            problem,
            removed=removed,
            shed_step=self.config.shed_step,
            context=self.context,
        )
        unserved = {region: 0.0 for region in self.regions}
        for bid, mw in solution.shed_mw.items():
            unserved[self.bus_region[bid]] += mw
        return ScenarioRecord(
            ordering_index=index,
            loss_fraction=fraction,
            scenario=scenario,
            hour=hour,
            unserved_mw_per_region=unserved,
            dispatch_status=STATUS_SHED if solution.total_shed_mw > 0.0 else STATUS_OK,
        )


_WORKER_STATE: dict = {}


def _worker_init(state: _SweepState, orderings: list[tuple[str, ...]]) -> None:
    _WORKER_STATE["state"] = state
    _WORKER_STATE["orderings"] = orderings


def _worker_run(index: int) -> list[ScenarioRecord]:
    state = _WORKER_STATE["state"]
    return state.run_ordering(index, _WORKER_STATE["orderings"][index])


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
    work units, so any worker count yields the identical table.
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

    if workers == 1 or config.n_orderings == 1:
        chunks = [state.run_ordering(i, o) for i, o in enumerate(orderings)]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(
            processes=min(workers, config.n_orderings),
            initializer=_worker_init,
            initargs=(state, orderings),
        ) as pool:
            chunks = pool.map(_worker_run, range(config.n_orderings))

    records = [record for chunk in chunks for record in chunk]
    records.sort(key=lambda r: r.key)
    return ResultTable(records=tuple(records))


def calibrate_ratings(
    grid: Grid,
    current_profile: DemandProfile,
    *,
    headroom: float = 1.2,
    interconnector_penalty: float = 10.0,
) -> Grid:
    """Upsize branch ratings to carry the current-day peak with headroom.

    Runs an uncapacitated zero-removal dispatch at the profile's national
    peak hour (solar unavailable, matching the experiment convention) and
    sets every rating to max(original, headroom x |flow|).
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
    solution = redispatch(problem, ignore_limits=True)
    if solution.status != "feasible":
        raise Unstable("peak demand exceeds available capacity before any removal")
    branches = tuple(
        replace(b, rating_mw=max(b.rating_mw, headroom * abs(float(flow))))
        for b, flow in zip(grid.branches, solution.flows_mw)
    )
    return replace(grid, branches=branches)


def save_results(table: ResultTable, path) -> None:
    """Write one CSV row per record per region."""
    import csv

    with atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["ordering", "fraction", "scenario", "hour", "region", "unserved_mw", "status"]
        )
        for record in table.records:
            for region in sorted(record.unserved_mw_per_region):
                writer.writerow(
                    [
                        record.ordering_index,
                        repr(record.loss_fraction),
                        record.scenario,
                        record.hour,
                        region,
                        repr(record.unserved_mw_per_region[region]),
                        record.dispatch_status,
                    ]
                )


def load_results(path) -> ResultTable:
    """Read a results CSV back into a table."""
    import csv

    from .errors import ParseError

    groups: dict[tuple[int, float, str, int], dict[str, tuple[float, str]]] = {}
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        expected = ["ordering", "fraction", "scenario", "hour", "region", "unserved_mw", "status"]
        if header is None or [h.strip() for h in header] != expected:
            raise ParseError(f"expected header {','.join(expected)}", 1)
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 7:
                raise ParseError(f"expected 7 fields, got {len(row)}", lineno)
            try:
                key = (int(row[0]), float(row[1]), row[2], int(row[3]))
                value = float(row[5])
            except ValueError:
                raise ParseError(f"bad numeric value in {row!r}", lineno) from None
            per_region = groups.setdefault(key, {})
            if row[4] in per_region:
                raise ParseError(f"repeated row for record {key}, region {row[4]}", lineno)
            per_region[row[4]] = (value, row[6])

    records = []
    for key in sorted(groups):
        per_region = groups[key]
        statuses = {status for _, status in per_region.values()}
        if len(statuses) != 1:
            raise ValidationError(f"record {key} rows disagree on status")
        unserved = {region: mw for region, (mw, _) in per_region.items()}
        records.append(
            ScenarioRecord(
                ordering_index=key[0],
                loss_fraction=key[1],
                scenario=key[2],
                hour=key[3],
                unserved_mw_per_region=unserved,
                dispatch_status=next(iter(statuses)),
            )
        )
    if not records:
        raise ValidationError("results file contains no records")
    return ResultTable(records=tuple(records))
