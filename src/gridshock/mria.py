"""Multiregional supply-use impact model.

Production is a cost-minimizing LP over regional supply-use tables:
industry outputs supply products via baseline market shares, consume
products via fixed technology coefficients, and regions exchange products
where trade is allowed. A capacity shock caps industry output; unmet final
demand is rationed at a heavy penalty. The change in value added per
region-industry prices the shock, and trade lets unaffected regions
substitute lost production (which can make their impact positive).

The program is built once per model and cached on it, with the pivot
path of its unshocked cold solve; a shock changes only the upper bounds on
the industry outputs. `assess_impact` solves the programs of all its
shocks in stacks (`lp_solve_stack`), so the per-pivot numpy calls are made
once per pass for every shock of a stack together, and each shock starts
at the first pass of the unshocked path that its caps could change. The
stacks are contiguous chunks of the shocks, one per CPU, each solved in
its own forked process (`forkpool.fork_map`; a lone one in this process),
which inherits the path. The vertex each shock returns is the one its own
cold solve returns, bit for bit, so it cannot depend on which other shocks
share its stack, on their order or on the CPU count.

A shock is a dense array of loss fractions on the model's axes, and every
shock is priced as a one-hour event. `shock_from_unserved` turns the
sweep's whole result table into one records x economic regions matrix in
one pass, its columns in the model's region order; each row is a
region-wide shock. impact prices each distinct row once, all in one call
to `assess_impact` as a shocks x regions x 1 array, and hands every
record its row's result.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .atomic import atomic_open
from .csvrows import check_unquoted, first_repeat, read_rows
from .errors import (
    BaselineMismatch,
    UnbalancedTables,
    ValidationError,
)
from .forkpool import available_cpus, fork_map
from .grid import RegionTable
from .numerics import LinearProgram, LpSolution, lp_solve, lp_solve_stack
from .profiles import HOURS_PER_YEAR, StudiedDemand
from .results import ResultTable

__all__ = [
    "SupplyUseModel",
    "TechnologyCoefficients",
    "ImpactResult",
    "load_supply_use",
    "save_supply_use",
    "technology_coefficients",
    "assemble_program",
    "solve_baseline",
    "assess_impact",
    "shock_from_unserved",
]

BALANCE_RTOL = 1e-6
SHARE_TOL = 1e-9
BASELINE_RTOL = 1e-6
# objective weight on each trade flow: breaks ties so unused trade stays zero
TRADE_EPSILON = 1e-7

# The header of each economy table. Its id fields are the axes of the model
# array it fills, in the order of SupplyUseModel's array fields.
_TABLES = {
    "supply": "region,industry,product,value",
    "use": "region,product,industry,value",
    "final_demand": "region,product,value",
    "value_added": "region,industry,coefficient",
    "trade": "from,to,product,allowed",
}
# the model axis of each id field: regions, industries, products
_AXIS = {"region": 0, "from": 0, "to": 0, "industry": 1, "product": 2}


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


@dataclass(frozen=True)
class SupplyUseModel:
    """Annual multiregional supply-use tables with a trade policy.

    supply[r, i, p] is industry i's output of product p in region r;
    use[r, p, i] is industry i's consumption of product p; final_demand
    [r, p] closes the balance. Tables must self-balance per (region,
    product): baseline interregional trade is zero by convention, trade
    only activates under shocks where trade_allowed[from, to, p] permits.
    Everything derived from the tables is computed on first use, cached
    and read-only.
    """

    regions: tuple[str, ...]
    industries: tuple[str, ...]
    products: tuple[str, ...]
    supply: np.ndarray
    use: np.ndarray
    final_demand: np.ndarray
    value_added_coeff: np.ndarray
    trade_allowed: np.ndarray
    overcapacity: float = 0.025

    def __post_init__(self):
        nr, ni, np_ = len(self.regions), len(self.industries), len(self.products)
        if not (nr and ni and np_):
            raise ValidationError("model needs at least one region, industry, product")
        arrays = {
            "supply": (np.asarray(self.supply, dtype=float), (nr, ni, np_)),
            "use": (np.asarray(self.use, dtype=float), (nr, np_, ni)),
            "final_demand": (np.asarray(self.final_demand, dtype=float), (nr, np_)),
            "value_added_coeff": (np.asarray(self.value_added_coeff, dtype=float), (nr, ni)),
        }
        for name, (array, shape) in arrays.items():
            object.__setattr__(self, name, array)
            if array.shape != shape:
                raise ValidationError(f"{name} must have shape {shape}, got {array.shape}")
            if not np.isfinite(array).all() or (array < 0).any():
                raise ValidationError(f"{name} entries must be finite and nonnegative")
        trade = np.asarray(self.trade_allowed, dtype=bool)
        object.__setattr__(self, "trade_allowed", trade)
        if trade.shape != (nr, nr, np_):
            raise ValidationError(f"trade_allowed must have shape {(nr, nr, np_)}")
        if (self.value_added_coeff > 1.0).any():
            raise ValidationError("value-added coefficients must not exceed 1")
        if not 0.0 <= self.overcapacity < 1.0:
            raise ValidationError("overcapacity must lie in [0, 1)")
        self._check_balance()

    def _check_balance(self):
        supplied = self.supply.sum(axis=1)
        consumed = self.use.sum(axis=2) + self.final_demand
        scale = np.maximum(1.0, np.maximum(np.abs(supplied), np.abs(consumed)))
        residual = np.abs(supplied - consumed) / scale
        worst = np.unravel_index(int(np.argmax(residual)), residual.shape)
        if residual[worst] > BALANCE_RTOL:
            region = self.regions[worst[0]]
            product = self.products[worst[1]]
            raise UnbalancedTables(
                f"region {region}, product {product}: supplied "
                f"{supplied[worst]!r} vs consumed {consumed[worst]!r}"
            )

    @cached_property
    def baseline_output(self) -> np.ndarray:
        """x0[r, i]: industry output implied by the supply table."""
        x0 = self.supply.sum(axis=2)
        _read_only(x0)
        return x0

    @cached_property
    def technology(self) -> TechnologyCoefficients:
        """Per-unit-output recipes and market shares of every industry."""
        return technology_coefficients(self)

    @cached_property
    def supplier_share(self) -> np.ndarray:
        """share[r, i, p]: industry i's part of region r's supply of product p."""
        supplied = self.supply.sum(axis=1)
        share = self.supply / np.where(supplied > 0.0, supplied, 1.0)[:, None, :]
        _read_only(share)
        return share

    @cached_property
    def program(self) -> LinearProgram:
        """The production LP with every output at its unshocked cap.

        Variables are industry outputs x[r, i], trade flows t[from, to, p]
        over allowed interregional routes, and rationed final demand
        m[r, p] <= f[r, p]. Each (region, product) balance requires supply
        plus imports plus rationing to cover intermediate use, final
        demand, and exports. `assemble_program` moves only the caps.
        """
        nr, ni, np_ = len(self.regions), len(self.industries), len(self.products)
        tech = self.technology
        routes = np.argwhere(self.trade_allowed & ~np.eye(nr, dtype=bool)[:, :, None])
        n_x, n_t, n_m = nr * ni, len(routes), nr * np_
        n = n_x + n_t + n_m

        objective = np.concatenate(
            [np.ones(n_x), np.full(n_t, TRADE_EPSILON), np.full(n_m, default_penalty(self))]
        )
        a_ub = np.zeros((n_m, n))
        for r in range(nr):
            a_ub[r * np_ : (r + 1) * np_, r * ni : (r + 1) * ni] = tech.a[r] - tech.s[r].T
        flows = n_x + np.arange(n_t)
        a_ub[routes[:, 1] * np_ + routes[:, 2], flows] = -1.0
        a_ub[routes[:, 0] * np_ + routes[:, 2], flows] = 1.0
        a_ub[np.arange(n_m), n_x + n_t + np.arange(n_m)] = -1.0
        b_ub = -self.final_demand.reshape(-1)
        bounds = np.zeros((n, 2))
        bounds[:, 1] = np.inf
        bounds[:n_x, 1] = ((1.0 + self.overcapacity) * self.baseline_output).reshape(-1)
        bounds[n_x + n_t :, 1] = self.final_demand.reshape(-1)
        _read_only(objective, a_ub, b_ub, bounds)
        return LinearProgram(objective=objective, a_ub=a_ub, b_ub=b_ub, bounds=bounds)

    @cached_property
    def baseline_solution(self) -> LpSolution:
        """The unshocked program solved cold, with its recorded pivot path."""
        return lp_solve(self.program)


@dataclass(frozen=True)
class TechnologyCoefficients:
    """Per-unit-output production recipes.

    a[r, p, i] is product input per unit of industry output; s[r, i, p]
    is the market-share split of output over products (rows sum to one
    for active industries).
    """

    a: np.ndarray
    s: np.ndarray


def technology_coefficients(model: SupplyUseModel) -> TechnologyCoefficients:
    x0 = model.baseline_output
    active = x0 > 0.0
    safe = np.where(active, x0, 1.0)
    a = model.use / safe[:, None, :]
    s = model.supply / safe[:, :, None]
    a[~np.repeat(active[:, None, :], len(model.products), axis=1)] = 0.0
    s[~active] = 0.0
    sums = s.sum(axis=2)
    bad = active & (np.abs(sums - 1.0) > SHARE_TOL)
    if bad.any():
        r, i = map(int, np.argwhere(bad)[0])
        raise ValidationError(
            f"market shares for region {model.regions[r]}, industry "
            f"{model.industries[i]} sum to {sums[r, i]!r}"
        )
    _read_only(a, s)
    return TechnologyCoefficients(a=a, s=s)


@dataclass(frozen=True)
class ImpactResult:
    """Value-added changes and rationing in one hour of one shock, on the
    model's region x industry and region x product axes."""

    delta_va: np.ndarray
    rationing: np.ndarray
    total_cost: float
    # simplex iterations of the shock's cold solve, and those of them taken
    # from the unshocked program's recorded pivot path
    iterations: int = field(default=0, compare=False)
    replayed: int = field(default=0, compare=False)

    def __post_init__(self):
        implied = -np.minimum(0.0, self.delta_va).sum()
        if abs(implied - self.total_cost) > 1e-6 * max(1.0, abs(implied)):
            raise ValidationError(
                f"total cost {self.total_cost!r} does not match losses {implied!r}"
            )


def default_penalty(model: SupplyUseModel) -> float:
    """Rationing penalty: 10x the largest technology-implied unit cost.

    The unit cost of product p in region r is the total output required
    per unit of net final delivery, read off the production-chain inverse
    when it exists; otherwise a flat 10 is used.
    """
    tech = model.technology
    worst = 1.0
    ni, np_ = len(model.industries), len(model.products)
    if ni == np_:
        for r in range(len(model.regions)):
            net = tech.s[r].T - tech.a[r]
            try:
                inv = np.linalg.inv(net)
            except np.linalg.LinAlgError:
                continue
            if (inv < -1e-9).any():
                continue
            worst = max(worst, float(np.abs(inv).sum(axis=0).max()))
    return 10.0 * worst


def assemble_program(model: SupplyUseModel, delta: np.ndarray) -> LinearProgram:
    """The model's production LP with outputs capped by a dense shock array.

    Only the bounds are copied: each output x[r, i] is capped at
    (1 - delta[r, i]) * (1 + overcapacity) * x0[r, i]; the objective and
    constraint arrays are the model's shared read-only ones.
    """
    program = model.program
    bounds = program.bounds.copy()
    cap = (1.0 - delta) * (1.0 + model.overcapacity) * model.baseline_output
    bounds[: cap.size, 1] = cap.reshape(-1)
    return replace(program, bounds=bounds)


def _outputs(model: SupplyUseModel, solution: LpSolution) -> tuple[np.ndarray, np.ndarray]:
    """Optimal outputs x[r, i] and rationing m[r, p] of a solved program."""
    if solution.status != "optimal":
        raise ValidationError(f"impact program unexpectedly {solution.status}")
    nr, ni, np_ = len(model.regions), len(model.industries), len(model.products)
    x = solution.x[: nr * ni].reshape(nr, ni)
    m = solution.x[-nr * np_ :].reshape(nr, np_)
    return x, m


def solve_baseline(model: SupplyUseModel) -> np.ndarray:
    """Re-derive baseline outputs from the LP and check calibration.

    The unshocked optimum must reproduce the supply-table row sums with
    zero rationing; any drift means the tables do not describe a
    cost-minimal baseline.
    """
    x, m = _outputs(model, model.baseline_solution)
    x0 = model.baseline_output
    scale = np.maximum(1.0, x0)
    drift = np.abs(x - x0) / scale
    worst = np.unravel_index(int(np.argmax(drift)), drift.shape)
    if drift[worst] > BASELINE_RTOL or m.max() > BASELINE_RTOL:
        if drift[worst] > BASELINE_RTOL:
            r, i = worst
            detail = (
                f"region {model.regions[r]}, industry {model.industries[i]}: "
                f"LP output {x[worst]!r} vs table {x0[worst]!r}"
            )
        else:
            r, p = np.unravel_index(int(np.argmax(m)), m.shape)
            detail = (
                f"region {model.regions[r]}, product {model.products[p]}: "
                f"baseline rationing {m.max()!r}"
            )
        raise BaselineMismatch(detail)
    return x


def assess_impact(model: SupplyUseModel, deltas: np.ndarray) -> list[ImpactResult]:
    """Price one-hour capacity shocks as value-added change per region-industry.

    deltas[k, r, i] is shock k's loss fraction of industry i's capacity in
    region r, on the model's axes; a last axis of length 1 shocks every
    industry of a region alike. Anything else, or a fraction outside
    [0, 1], is refused. Annual-basis LP results are divided by
    HOURS_PER_YEAR. The value-added change is v * (x - x0) minus each
    industry's baseline-market-share slice of any rationing not already
    explained by its region's supply drop, so losses are never double
    counted. An all-zero shock is an identity and skips the program
    entirely (a cold solve of it could drift from the baseline by up to
    BASELINE_RTOL). The programs of all other shocks are solved in as many
    contiguous chunks as there are programs or CPUs, whichever is fewer:
    `fork_map` solves each chunk as one stack in its own process (a lone
    one in this process), each program starting on `model.baseline_solution`'s
    pivot path where its caps first matter. Each shock's result is the one
    its cold solve alone returns, so it does not depend on the chunking
    or the CPU count.

    The program's optimal value is unique but its optimal vertex need not
    be: `delta_va` is split across regions as the vertex `lp_solve` returns
    splits it, so another solver or starting basis may split it otherwise.
    For region-wide shocks, as `shock_from_unserved` builds them,
    `total_cost` has matched HiGHS's vertex on every gb-like program tried;
    under shocks that differ by industry it can move as well.
    """
    deltas = np.asarray(deltas, dtype=float)
    nr, ni = model.baseline_output.shape
    if deltas.ndim != 3 or deltas.shape[1] != nr or deltas.shape[2] not in (ni, 1):
        raise ValidationError(
            f"shocks must have shape (shocks, {nr}, {ni} or 1), got {deltas.shape}"
        )
    if not ((deltas >= 0.0) & (deltas <= 1.0)).all():
        raise ValidationError("shock fractions must lie in [0, 1]")
    hit = deltas.any(axis=(1, 2))
    programs = [assemble_program(model, d) for d in deltas[hit]]
    n = min(len(programs), available_cpus())
    chunks = [programs[len(programs) * k // n : len(programs) * (k + 1) // n] for k in range(n)]
    path = model.baseline_solution.path if programs else None
    solved = chain.from_iterable(fork_map(partial(lp_solve_stack, path=path), chunks, n))
    return [_impact(model, next(solved)) if h else _no_impact(model) for h in hit.tolist()]


def _no_impact(model: SupplyUseModel) -> ImpactResult:
    return ImpactResult(
        delta_va=np.zeros_like(model.value_added_coeff),
        rationing=np.zeros_like(model.final_demand),
        total_cost=0.0,
    )


def _impact(model: SupplyUseModel, solution: LpSolution) -> ImpactResult:
    x, m = _outputs(model, solution)
    x0 = model.baseline_output

    drop = np.einsum("rip,ri->rp", model.technology.s, np.maximum(0.0, x0 - x))
    unexplained = np.maximum(0.0, m - drop)
    allocated = np.einsum("rip,rp->ri", model.supplier_share, unexplained)

    annual_va = model.value_added_coeff * (x - x0) - model.value_added_coeff * allocated
    delta_va = annual_va / HOURS_PER_YEAR
    return ImpactResult(
        delta_va=delta_va,
        rationing=m / HOURS_PER_YEAR,
        total_cost=float(-np.minimum(0.0, delta_va).sum()),
        iterations=solution.iterations,
        replayed=solution.replayed,
    )


def shock_from_unserved(
    table: ResultTable,
    regions: RegionTable,
    demands: Mapping[str, StudiedDemand],
    economy_regions: Sequence[str],
) -> np.ndarray:
    """The sweep's records as per-economic-region capacity losses.

    Returns a records x `economy_regions` matrix, its columns in that
    order; each row is one record's region-wide shock, lasting one hour.
    Districts add into their parent economic region in sorted district
    order; the loss fraction is unserved power over demanded power at the
    record's hour in `demands[scenario]`, capped at 1. Regions with zero
    demand, or no district, take a zero shock. A district whose parent is
    not in `economy_regions` is refused.
    """
    unknown = [d for d in table.regions if d not in regions.by_id]
    if unknown:
        raise ValidationError(f"record names unknown district {unknown[0]}")
    demanded = np.zeros_like(table.unserved_mw)
    scenario = np.array(table.scenario)
    for name in sorted(set(table.scenario)):
        if name not in demands:
            raise ValidationError(f"no studied demand for scenario {name!r}")
        demand, rows = demands[name], scenario == name
        missing = sorted(set(table.regions) - set(demand.regions))
        if missing:
            raise ValidationError(f"no studied demand for district {missing[0]} in {name!r}")
        columns = [demand.regions.index(d) for d in table.regions]
        demanded[rows] = demand.district_mw[np.ix_(demand.rows(table.hour[rows]), columns)]
    position = {name: k for k, name in enumerate(economy_regions)}
    unserved, demand_sum = np.zeros((2, len(table), len(position)))
    for k, district in enumerate(table.regions):
        parent = regions.by_id[district].parent
        if parent not in position:
            raise ValidationError(
                f"district {district} has parent {parent}, which is not an economy region"
            )
        unserved[:, position[parent]] += table.unserved_mw[:, k]
        demand_sum[:, position[parent]] += demanded[:, k]
    shocks, positive = np.zeros_like(unserved), demand_sum > 0.0
    shocks[positive] = np.minimum(1.0, unserved[positive] / demand_sum[positive])
    return shocks


def load_supply_use(directory, *, overcapacity: float = 0.025) -> SupplyUseModel:
    """Assemble a model from the five-file CSV set in one directory.

    supply.csv `region,industry,product,value`; use.csv
    `region,product,industry,value`; final_demand.csv
    `region,product,value`; value_added.csv `region,industry,coefficient`;
    trade.csv `from,to,product,allowed`. `read_rows` parses each, and ids
    lose their surrounding blanks. Unlisted combinations default to zero
    (trade: disallowed).
    """
    tables = [_read_table(Path(directory) / f"{name}.csv", header) for name, header in _TABLES.items()]
    labels: list[set[str]] = [set(), set(), set()]  # regions, industries, products
    for columns, _ in tables:
        for name, (ids, _) in columns.items():
            labels[_AXIS[name]].update(ids)
    axes = [sorted(ids) for ids in labels]
    position = [{label: k for k, label in enumerate(axis)} for axis in axes]
    arrays = []
    for columns, values in tables:
        array = np.zeros([len(axes[_AXIS[name]]) for name in columns], values.dtype)
        cells = (
            np.array([position[_AXIS[name]][i] for i in ids], np.int64)[codes]
            for name, (ids, codes) in columns.items()
        )
        array[tuple(cells)] = values
        arrays.append(array)
    return SupplyUseModel(*map(tuple, axes), *arrays, overcapacity=overcapacity)


def _read_table(path: Path, header: str) -> tuple[dict[str, tuple[list[str], np.ndarray]], np.ndarray]:
    """One economy table: per id field, its distinct ids (blanks stripped)
    and a code per row into them; and the last field, trade's flags as
    bools. The first fault in file order is a ParseError on its line: a
    line `read_rows` refuses, a row whose ids an earlier row holds, or a
    flag that is not 0/1/true/false."""
    *names, last = header.split(",")
    last_type = object if last == "allowed" else float
    rows = read_rows(path, np.dtype([(name, object) for name in names] + [(last, last_type)]))
    columns = {name: rows.stripped(name) for name in names}
    faults = [(len(rows.columns[last]), rows.refusal)] if rows.refusal else []
    values = rows.columns[last]
    if last == "allowed":
        flags = [text.strip().lower() for text in rows.texts[last]]
        bad = np.array([flag not in ("0", "1", "true", "false") for flag in flags], bool)[values]
        values = np.array([flag in ("1", "true") for flag in flags], bool)[values]
        if bad.any():
            k = bad.argmax()
            faults.append((k, rows.fault(k, "allowed must be 0/1/true/false")))
    if (k := first_repeat(*(codes for _, codes in columns.values()))) is not None:
        key = [ids[codes[k]] for ids, codes in columns.values()]
        faults.append((k, rows.fault(k, f"repeated row {key!r}")))
    if faults:
        raise min(faults, key=lambda fault: fault[0])[1]
    return columns, values


def save_supply_use(model: SupplyUseModel, directory) -> None:
    """Write the five-file CSV set (omitting zero rows, except value added).

    An id that csv would quote is refused, because `load_supply_use` reads
    unquoted fields only.
    """
    axes = (model.regions, model.industries, model.products)
    for kind, ids in zip(("region", "industry", "product"), axes):
        check_unquoted(ids, f"{kind} id")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays = (model.supply, model.use, model.final_demand, model.value_added_coeff, model.trade_allowed)
    for (name, header), array in zip(_TABLES.items(), arrays):
        labels = [axes[_AXIS[field]] for field in header.split(",")[:-1]]
        with atomic_open(directory / f"{name}.csv") as handle:
            writer = csv.writer(handle)
            writer.writerow(header.split(","))
            writer.writerows(
                [*(ids[k] for ids, k in zip(labels, at)), "1" if name == "trade" else repr(float(v))]
                for at, v in np.ndenumerate(array)
                if v or name == "value_added"
            )
