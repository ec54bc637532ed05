"""Shared fixture factories and small lookups for the test suite."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gridshock
from gridshock.results import STATUS_OK, STATUS_SHED, ResultTable
from gridshock.grid import Branch, Bus, Generator, Grid
from gridshock.profiles import HOURS_PER_YEAR
from gridshock.runconfig import DEFAULT_LOSS_FRACTIONS, ExperimentConfig


def random_connected_grid(rng: np.random.Generator, max_buses: int = 30) -> Grid:
    """A random connected single-voltage network: spanning tree plus chords."""
    n = int(rng.integers(2, max_buses + 1))
    buses = []
    for k in range(n):
        if k == 0:
            kind = "generation"
        elif k == 1 or rng.random() < 0.5:
            kind = "demand"
        else:
            kind = "substation"
        region = f"r{k}" if kind == "demand" else None
        buses.append(Bus(id=f"n{k:02d}", voltage_kv=400.0, kind=kind, region=region))

    edges = set()
    branches = []

    def add_edge(i, j):
        key = (min(i, j), max(i, j))
        if i == j or key in edges:
            return
        edges.add(key)
        branches.append(
            Branch(
                id=f"e{len(branches):03d}",
                from_bus=f"n{i:02d}",
                to_bus=f"n{j:02d}",
                kind="line",
                susceptance_pu=float(np.round(rng.uniform(1.0, 20.0), 3)),
                rating_mw=1e6,
            )
        )

    for k in range(1, n):
        add_edge(int(rng.integers(0, k)), k)
    for _ in range(int(rng.integers(0, n // 2 + 1))):
        add_edge(int(rng.integers(0, n)), int(rng.integers(0, n)))

    generators = (Generator(id="g0", bus="n00", rated_mw=1000.0, capacity_factor=1.0, technology="thermal"),)
    return Grid(buses=tuple(buses), branches=tuple(branches), generators=generators)


def random_injections(rng: np.random.Generator, grid: Grid) -> dict[str, float]:
    return {bus.id: float(np.round(rng.uniform(-500.0, 500.0), 3)) for bus in grid.buses}


def bus_balances(grid: Grid, injections: dict[str, float], solution) -> dict[str, float]:
    """Net injection minus net outgoing flow per bus; zero means conserved."""
    balance = {bus.id: float(injections.get(bus.id, 0.0)) for bus in grid.buses}
    branch = {br.id: br for br in grid.branches}
    for br_id, flow in zip(solution.branch_ids, solution.flows_mw):
        br = branch[br_id]
        balance[br.from_bus] -= float(flow)
        balance[br.to_bus] += float(flow)
    return balance


def total_capacity(grid: Grid, *, include_international: bool = True, exclude_solar: bool = False) -> float:
    """Sum of derated generator capacity in MW under the given filters."""
    return math.fsum(
        gen.derated_mw
        for gen in grid.generators
        if (include_international or not gen.is_international)
        and not (exclude_solar and gen.technology == "solar")
    )


def trough_hour(profile) -> int:
    """Hour index of the national minimum (first on ties)."""
    return int(profile.hours[int(np.argmin(profile.national()))])


def va_of(model, result, region: str, industry: str) -> float:
    """One cell of an ImpactResult's value-added change, in annual terms."""
    cell = result.delta_va[model.regions.index(region), model.industries.index(industry)]
    return HOURS_PER_YEAR * float(cell)


def first_impact_fraction(curve, threshold: float = 0.0) -> float | None:
    """Smallest fraction of a CostCurve whose median cost exceeds the
    threshold, else None."""
    return next((point.fraction for point in curve.points if point.median > threshold), None)


def gb_like_congested(seed: int = 7):
    """The gb-like fixture with its backbone (`bb*`) and cross-link (`br*`)
    ratings cut to 35% and calibrated with no headroom, so that branch
    limits bind once generation is lost. Returns (grid, fixture)."""
    from dataclasses import replace

    from gridshock.failures import calibrate_ratings
    from gridshock.synthetic import generate_gb_like

    fixture = generate_gb_like(seed)
    branches = tuple(
        replace(b, rating_mw=b.rating_mw * 0.35) if b.id.startswith(("bb", "br")) else b
        for b in fixture.grid.branches
    )
    grid = replace(fixture.grid, branches=branches)
    return calibrate_ratings(grid, fixture.profiles["current"], headroom=1.0), fixture


def assert_same_lp_solution(ours, reference) -> None:
    """Status, x and objective equal bit for bit, zero signs included."""
    assert ours.status == reference.status
    assert (ours.x is None) == (reference.x is None)
    if ours.x is not None:
        assert ours.x.dtype == reference.x.dtype
        assert ours.x.tobytes() == reference.x.tobytes()
        assert ours.objective_value.hex() == reference.objective_value.hex()


def assert_same_solve(ours, alone) -> None:
    """A stack member equals the program's solve alone: status, x and
    objective bit for bit, the same iteration count and the same basis."""
    assert_same_lp_solution(ours, alone)
    assert ours.iterations == alone.iterations
    assert (ours.basis is None) == (alone.basis is None)
    if ours.basis is not None:
        assert ours.basis.basic.tolist() == alone.basis.basic.tolist()
        assert ours.basis.at_upper.tolist() == alone.basis.at_upper.tolist()


def run_python(args: list[str], hash_seed: int) -> str:
    """Run the interpreter on `args` in a fresh process whose string hashes
    are seeded with `hash_seed`, importing this gridshock; returns stdout."""
    src = str(Path(gridshock.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def experiment_config(hours, **fields) -> ExperimentConfig:
    """The sweep over `hours`; a field not given is 1,000 orderings, the
    default loss fractions, master seed 0 or a 0.1 shedding quantum."""
    values = dict(n_orderings=1000, loss_fractions=DEFAULT_LOSS_FRACTIONS, master_seed=0, shed_step=0.1)
    return ExperimentConfig(hours=hours, **{**values, **fields})


def corrupt_rows(rng, rows: list[str], texts) -> list[str]:
    """Data rows with one or two random edits: a row dropped, repeated or
    moved, a field added or lost, a field replaced by one of `texts`, a
    quote, or an empty or whitespace-only line."""
    rows = list(rows)
    for _ in range(int(rng.integers(1, 3))):
        i = int(rng.integers(len(rows)))
        fields = rows[i].split(",")
        edit = str(rng.choice(["drop", "repeat", "move", "width", "value", "blank", "quote"]))
        if edit == "drop" and len(rows) > 1:
            rows.pop(i)
        elif edit == "repeat":
            rows.insert(int(rng.integers(len(rows) + 1)), rows[i])
        elif edit == "move":
            rows.insert(int(rng.integers(len(rows))), rows.pop(i))
        elif edit == "width":
            rows[i] = rows[i] + ",x" if rng.random() < 0.5 else rows[i].rsplit(",", 1)[0]
        elif edit == "value":
            fields[int(rng.integers(len(fields)))] = str(rng.choice(texts))
            rows[i] = ",".join(fields)
        elif edit == "blank":
            rows.insert(i, str(rng.choice(["", "  ", "\t"])))
        elif edit == "quote":
            rows[i] = '"' + rows[i]
    return rows


def loadtxt_alone(line: str, dtype) -> tuple | None:
    """The fields of `line` as one `np.loadtxt` call reads it alone under
    `dtype`, or None where that call refuses it."""
    try:
        (row,) = np.loadtxt([line], dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    return row.tolist()


@dataclass(frozen=True)
class Record:
    """One record of a ResultTable, as tests build and read it.

    `table_of` reads the first five fields; `records_of` also fills the
    total and the status from the table's own `total_unserved_mw` and
    `shed`.
    """

    ordering_index: int
    loss_fraction: float
    scenario: str
    hour: int
    unserved_mw_per_region: dict
    total_unserved_mw: float | None = None
    dispatch_status: str | None = None

    @property
    def key(self) -> tuple[int, float, str, int]:
        return (self.ordering_index, self.loss_fraction, self.scenario, self.hour)


def table_of(records) -> ResultTable:
    """A ResultTable of Records, sorted by key; every record names the
    first record's regions."""
    records = sorted(records, key=lambda r: r.key)
    regions = sorted(records[0].unserved_mw_per_region) if records else []
    return ResultTable(
        ordering=np.array([r.ordering_index for r in records], dtype=np.int64),
        fraction=np.array([r.loss_fraction for r in records], dtype=float),
        scenario=tuple(r.scenario for r in records),
        hour=np.array([r.hour for r in records], dtype=np.int64),
        regions=tuple(regions),
        unserved_mw=np.array(
            [[r.unserved_mw_per_region[g] for g in regions] for r in records], dtype=float
        ).reshape(len(records), len(regions)),
    )


def records_of(table: ResultTable) -> list[Record]:
    """The table's records in order, with their totals and statuses."""
    status = np.where(table.shed, STATUS_SHED, STATUS_OK).tolist()
    return [
        Record(o, f, s, h, dict(zip(table.regions, row)), total, st)
        for o, f, s, h, row, total, st in zip(
            table.ordering.tolist(),
            table.fraction.tolist(),
            table.scenario,
            table.hour.tolist(),
            table.unserved_mw.tolist(),
            table.total_unserved_mw.tolist(),
            status,
        )
    ]


def aligned(table: ResultTable, by_key) -> np.ndarray:
    """Values of a {record key: value} mapping in the table's record order."""
    return np.array([by_key[r.key] for r in records_of(table)])
