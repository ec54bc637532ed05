"""Post-processing of experiment results into headline statistics.

Takes the sweep's result table plus its priced records and produces
cost-versus-loss curves (median/min/max over orderings and hours), the
largest demand with no economic impact, marginal cost per GW across
scenario peaks, regional relative change against the current-day profile,
and population-weighted shares of regions that end up better or worse off.

`load_costs` reads impact's outputs as arrays in the table's record order
and is the one check of that alignment (`MissingCosts`). The statistics
select records by masks over the table's columns and take `median`, `min`
and `max` over `.tolist()` values, so ties and signed zeros come out as
they always have.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from statistics import median
from typing import Mapping, Sequence

import numpy as np

from .atomic import atomic_open
from .errors import DegeneratePeaks, MissingCosts, ValidationError
from .grid import RegionTable
from .profiles import StudiedDemand
from .results import ResultTable

__all__ = [
    "CurvePoint",
    "CostCurve",
    "RegionalChange",
    "load_costs",
    "build_cost_curve",
    "marginal_cost_per_gw",
    "lost_load_slope",
    "regional_relative_change",
    "population_share",
    "population_shares",
    "zero_impact_demand_gw",
    "write_cost_curves",
    "write_marginal_slopes",
    "write_regional_change",
    "write_population_shares",
]


@dataclass(frozen=True)
class CurvePoint:
    fraction: float
    median: float
    minimum: float
    maximum: float

    def __post_init__(self):
        if not self.minimum <= self.median <= self.maximum:
            raise ValidationError(
                f"curve point at {self.fraction!r} is not ordered: "
                f"{self.minimum!r}, {self.median!r}, {self.maximum!r}"
            )


@dataclass(frozen=True)
class CostCurve:
    """Cost statistics per loss fraction for one scenario."""

    scenario: str
    points: tuple[CurvePoint, ...]

    def __post_init__(self):
        fractions = [p.fraction for p in self.points]
        if any(b <= a for a, b in zip(fractions, fractions[1:])):
            raise ValidationError("curve fractions must be strictly ascending")

    def median_at(self, fraction: float) -> float:
        for point in self.points:
            if point.fraction == fraction:
                return point.median
        raise ValidationError(
            f"curve for {self.scenario} has no point at fraction {fraction!r}"
        )


@dataclass(frozen=True)
class RegionalChange:
    """Per-region cost ratios of a scenario against the baseline scenario.

    A ratio of None marks 0/0 (no cost under either profile); inf marks a
    cost that appears only under the compared scenario.
    """

    scenario: str
    baseline: str
    fraction: float
    ratios: Mapping[str, float | None]

    def __post_init__(self):
        for region, ratio in self.ratios.items():
            if ratio is not None and not ratio >= 0.0:
                raise ValidationError(f"ratio for region {region} must be >= 0")


def load_costs(
    results: ResultTable, impacts_path, regional_path
) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """impact's outputs as arrays in the table's record order.

    Returns the cost per record, the zones, and records x zones regional
    losses, `max(0, -delta_va)`. Both files must hold the table's record
    ids in order, each record with the first record's zones in order;
    anything else is MissingCosts.
    """
    ids = results.record_ids()
    with open(impacts_path, encoding="utf-8", newline="") as handle:
        totals = list(csv.reader(handle))[1:]
    with open(regional_path, encoding="utf-8", newline="") as handle:
        regional = list(csv.reader(handle))[1:]
    zones = tuple(row[1] for row in regional if row[:1] == ids[:1])
    by_record = [[rid] for rid in ids]
    by_zone = [[rid, zone] for rid in ids for zone in zones]
    if [row[:1] for row in totals] != by_record or [row[:2] for row in regional] != by_zone:
        raise MissingCosts("impacts do not price the results' records in order; rerun impact")
    costs = np.array([float(row[1]) for row in totals])
    delta_va = np.array([float(row[2]) for row in regional]).reshape(len(ids), len(zones))
    return costs, zones, np.where(delta_va < 0.0, -delta_va, 0.0)


def _selected(results: ResultTable, scenario: str) -> np.ndarray:
    return np.array([name == scenario for name in results.scenario], dtype=bool)


def _fractions(results: ResultTable, rows: np.ndarray) -> list[float]:
    """The distinct loss fractions of the selected records, ascending."""
    # sorted and masked by hand: np.unique imports numpy.ma (17-36 ms) on first use
    values = np.sort(results.fraction[rows], kind="stable")
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first].tolist()


def build_cost_curve(results: ResultTable, costs: np.ndarray, scenario: str) -> CostCurve:
    """Median/min/max cost per fraction, pooled over orderings and hours."""
    rows = _selected(results, scenario)
    if not rows.any():
        raise ValidationError(f"no records for scenario {scenario!r}")
    points = []
    for fraction in _fractions(results, rows):
        values = costs[rows & (results.fraction == fraction)].tolist()
        points.append(CurvePoint(fraction, float(median(values)), min(values), max(values)))
    return CostCurve(scenario=scenario, points=tuple(points))


def _slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Exact secant for two points, otherwise the least-squares slope.

    The xs must not all be equal.
    """
    if len(xs) == 2:
        return float((ys[1] - ys[0]) / (xs[1] - xs[0]))
    x_mean = sum(xs) / len(xs)
    y_mean = sum(ys) / len(ys)
    sxx = sum((x - x_mean) ** 2 for x in xs)
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    return float(sxy / sxx)


def marginal_cost_per_gw(
    curves: Mapping[str, CostCurve],
    peak_demands_gw: Mapping[str, float],
    fraction: float,
) -> float:
    """Cost increase per GW of peak demand at a fixed loss fraction.

    Fits median cost against scenario peak demand: the exact secant for
    two scenarios, otherwise the least-squares slope.
    """
    scenarios = sorted(curves)
    if len(scenarios) < 2:
        raise ValidationError("marginal cost needs at least two scenarios")
    missing = [s for s in scenarios if s not in peak_demands_gw]
    if missing:
        raise ValidationError(f"no peak demand for scenarios: {', '.join(missing)}")
    pairs = [
        (peak_demands_gw[s], curves[s].median_at(fraction)) for s in scenarios
    ]
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    if max(xs) == min(xs):
        raise DegeneratePeaks("all scenario peak demands are equal")
    return _slope(xs, ys)


def lost_load_slope(results: ResultTable, costs: np.ndarray, scenario: str) -> float | None:
    """Cost per GW of median unserved load, fitted across loss fractions.

    The companion reading of the marginal cost: instead of comparing
    scenarios at one fraction, one scenario's curve is regressed on its
    own median unserved power. None when the scenario never sheds.
    """
    rows = _selected(results, scenario)
    if not rows.any():
        raise ValidationError(f"no records for scenario {scenario!r}")
    unserved_gw = results.total_unserved_mw / 1000.0
    xs, ys = [], []
    for fraction in _fractions(results, rows):
        group = rows & (results.fraction == fraction)
        xs.append(float(median(unserved_gw[group].tolist())))
        ys.append(float(median(costs[group].tolist())))
    if max(xs) == min(xs):
        return None
    return _slope(xs, ys)


def regional_relative_change(
    results: ResultTable,
    zones: Sequence[str],
    regional_costs: np.ndarray,
    scenario: str,
    fraction: float,
    *,
    baseline: str = "current",
) -> RegionalChange:
    """Ratio of median regional cost to the baseline scenario's.

    `regional_costs` is records x `zones`, as `load_costs` returns it.
    """

    def medians_for(name: str) -> list[float]:
        rows = _selected(results, name) & (results.fraction == fraction)
        if not rows.any():
            raise ValidationError(
                f"no records for scenario {name!r} at fraction {fraction!r}"
            )
        return [float(median(column)) for column in regional_costs[rows].T.tolist()]

    scenario_medians = medians_for(scenario)
    baseline_medians = medians_for(baseline)
    ratios: dict[str, float | None] = {}
    for zone, num, den in sorted(zip(zones, scenario_medians, baseline_medians)):
        if den == 0.0:
            ratios[zone] = None if num == 0.0 else math.inf
        else:
            ratios[zone] = num / den
    return RegionalChange(
        scenario=scenario, baseline=baseline, fraction=fraction, ratios=ratios
    )


def _region_populations(change: RegionalChange, regions: RegionTable) -> dict[str, float]:
    ids = set(change.ratios)
    direct = {r.id: r.population for r in regions.regions}
    if ids <= set(direct):
        return {name: direct[name] for name in ids}
    by_parent: dict[str, float] = {}
    for region in regions.regions:
        by_parent[region.parent] = by_parent.get(region.parent, 0.0) + region.population
    if ids <= set(by_parent):
        return {name: by_parent[name] for name in ids}
    missing = sorted(ids - set(by_parent) - set(direct))
    raise ValidationError(f"no population data for regions: {', '.join(missing)}")


def population_share(
    change: RegionalChange, regions: RegionTable, direction: str
) -> float:
    """Population fraction living where costs moved the given direction.

    direction is "worse" (ratio > 1) or "better" (ratio < 1); unchanged
    and no-change regions count in neither.
    """
    if direction not in ("worse", "better"):
        raise ValidationError(f"direction must be worse or better, got {direction!r}")
    populations = _region_populations(change, regions)
    total = sum(populations.values())
    if total <= 0.0:
        raise ValidationError("total population must be positive")
    selected = 0.0
    for region, ratio in change.ratios.items():
        if ratio is None or ratio == 1.0:
            continue
        if (ratio > 1.0) == (direction == "worse"):
            selected += populations[region]
    return selected / total


def population_shares(
    change: RegionalChange, regions: RegionTable
) -> tuple[float, float, float]:
    """(worse, better, unchanged) shares; unchanged closes the sum to 1.

    The complement is taken against the rounded worse + better so the
    returned triple sums to exactly 1.0 in floating point.
    """
    worse = population_share(change, regions, "worse")
    better = population_share(change, regions, "better")
    return worse, better, 1.0 - (worse + better)


def zero_impact_demand_gw(
    results: ResultTable,
    costs: np.ndarray,
    demands: Mapping[str, StudiedDemand],
) -> float | None:
    """Largest national demand whose cells show zero median cost everywhere.

    Scans each studied (scenario, hour), takes that hour's national demand
    from `demands`, and keeps it when the median cost over orderings is
    zero at every loss fraction. None when no such hour exists.
    """
    best = None
    for scenario, hour in dict.fromkeys(zip(results.scenario, results.hour.tolist())):
        if scenario not in demands:
            raise ValidationError(f"no studied demand for scenario {scenario!r}")
        cell = _selected(results, scenario) & (results.hour == hour)
        if all(
            float(median(costs[cell & (results.fraction == f)].tolist())) == 0.0
            for f in _fractions(results, cell)
        ):
            demand = demands[scenario]
            demand = float(demand.national_mw[demand.rows(hour)]) / 1000.0
            if best is None or demand > best:
                best = demand
    return best


def write_cost_curves(curves: Sequence[CostCurve], path) -> None:
    with atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["scenario", "fraction", "median", "min", "max"])
        for curve in curves:
            for point in curve.points:
                writer.writerow(
                    [
                        curve.scenario,
                        repr(point.fraction),
                        repr(point.median),
                        repr(point.minimum),
                        repr(point.maximum),
                    ]
                )


def write_marginal_slopes(rows: Sequence[tuple[str, str, float | None, float]], path) -> None:
    """Rows are (axis, scenario, fraction, slope); both slope readings share
    the file, distinguished by the axis column."""
    with atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["axis", "scenario", "fraction", "slope_per_gw"])
        for axis, scenario, fraction, slope in rows:
            writer.writerow(
                [
                    axis,
                    scenario,
                    "" if fraction is None else repr(float(fraction)),
                    repr(float(slope)),
                ]
            )


def write_regional_change(change: RegionalChange, path) -> None:
    with atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["region", "ratio"])
        for region in sorted(change.ratios):
            ratio = change.ratios[region]
            writer.writerow([region, "" if ratio is None else repr(ratio)])


def write_population_shares(
    rows: Sequence[tuple[str, float, float, float]], path
) -> None:
    with atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["scenario", "worse", "better", "unchanged"])
        for scenario, worse, better, unchanged in rows:
            writer.writerow([scenario, repr(worse), repr(better), repr(unchanged)])
