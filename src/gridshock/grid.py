"""Network data model and its on-disk CSV format.

A grid file is a single UTF-8 CSV with section-tagged rows (BUS, BRANCH,
GEN), `#` comments, and `.` as the decimal separator. Region tables use the
same conventions with REGION rows. Structural problems raise ParseError
with a line number; semantic problems raise ValidationError naming the
violated rule.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .errors import ParseError, ValidationError

__all__ = [
    "VOLTAGE_LEVELS",
    "BUS_KINDS",
    "BRANCH_KINDS",
    "TECHNOLOGIES",
    "Bus",
    "Branch",
    "Generator",
    "Grid",
    "Region",
    "RegionTable",
    "load_grid",
    "serialize_grid",
    "load_regions",
    "serialize_regions",
]

VOLTAGE_LEVELS = (400.0, 275.0, 132.0, 33.0, 11.0, 0.23)
BUS_KINDS = frozenset({"generation", "substation", "switching", "demand"})
BRANCH_KINDS = frozenset({"line", "cable", "transformer"})
TECHNOLOGIES = frozenset(
    {"solar", "wind", "hydro", "thermal", "nuclear", "other_renewable", "interconnector"}
)


@dataclass(frozen=True)
class Bus:
    id: str
    voltage_kv: float
    kind: str
    region: str | None = None
    x_km: float | None = None
    y_km: float | None = None

    def __post_init__(self):
        if not self.id:
            raise ValidationError("bus id must be nonempty")
        if self.voltage_kv not in VOLTAGE_LEVELS:
            raise ValidationError(
                f"bus {self.id}: voltage {self.voltage_kv} kV is not one of {VOLTAGE_LEVELS}"
            )
        if self.kind not in BUS_KINDS:
            raise ValidationError(f"bus {self.id}: unknown kind {self.kind!r}")
        if self.kind == "demand" and not self.region:
            raise ValidationError(f"bus {self.id}: demand buses must name a region")


@dataclass(frozen=True)
class Branch:
    id: str
    from_bus: str
    to_bus: str
    kind: str
    susceptance_pu: float
    rating_mw: float

    def __post_init__(self):
        if not self.id:
            raise ValidationError("branch id must be nonempty")
        if self.kind not in BRANCH_KINDS:
            raise ValidationError(f"branch {self.id}: unknown kind {self.kind!r}")
        if self.from_bus == self.to_bus:
            raise ValidationError(f"branch {self.id}: endpoints must differ")
        if not (self.susceptance_pu > 0.0 and math.isfinite(self.susceptance_pu)):
            raise ValidationError(f"branch {self.id}: susceptance must be finite and positive")
        if not (self.rating_mw > 0.0 and math.isfinite(self.rating_mw)):
            raise ValidationError(f"branch {self.id}: rating must be finite and positive")


@dataclass(frozen=True)
class Generator:
    id: str
    bus: str
    rated_mw: float
    capacity_factor: float
    technology: str

    def __post_init__(self):
        if not self.id:
            raise ValidationError("generator id must be nonempty")
        if not (self.rated_mw > 0.0 and math.isfinite(self.rated_mw)):
            raise ValidationError(f"generator {self.id}: rated power must be finite and positive")
        if not 0.0 <= self.capacity_factor <= 1.0:
            raise ValidationError(f"generator {self.id}: capacity factor must lie in [0, 1]")
        if self.technology not in TECHNOLOGIES:
            raise ValidationError(f"generator {self.id}: unknown technology {self.technology!r}")

    @property
    def derated_mw(self) -> float:
        """Dependable output: rated power discounted by the capacity factor."""
        return self.rated_mw * self.capacity_factor

    @property
    def is_international(self) -> bool:
        return self.technology == "interconnector"


@dataclass(frozen=True)
class Grid:
    """An immutable transmission network with attached generators.

    Construction enforces referential integrity and per-element rules;
    only load_grid refuses a disconnected network (its hop table holds
    inf), so that partial networks can still be inspected.
    """

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    base_mva: float = 100.0

    def __post_init__(self):
        if not self.buses:
            raise ValidationError("grid must contain at least one bus")
        if self.base_mva <= 0:
            raise ValidationError("base power must be positive")
        seen = set()
        for bus in self.buses:
            if bus.id in seen:
                raise ValidationError(f"duplicate bus id {bus.id}")
            seen.add(bus.id)
        voltage = {bus.id: bus.voltage_kv for bus in self.buses}
        seen = set()
        for br in self.branches:
            if br.id in seen:
                raise ValidationError(f"duplicate branch id {br.id}")
            seen.add(br.id)
            for end in (br.from_bus, br.to_bus):
                if end not in voltage:
                    raise ValidationError(f"branch {br.id}: unknown bus {end}")
            v_from = voltage[br.from_bus]
            v_to = voltage[br.to_bus]
            if br.kind == "transformer":
                if v_from == v_to:
                    raise ValidationError(
                        f"branch {br.id}: transformer must span different voltage levels"
                    )
            elif v_from != v_to:
                raise ValidationError(
                    f"branch {br.id}: {br.kind} must connect equal voltage levels"
                )
        seen = set()
        for gen in self.generators:
            if gen.id in seen:
                raise ValidationError(f"duplicate generator id {gen.id}")
            seen.add(gen.id)
            if gen.bus not in voltage:
                raise ValidationError(f"generator {gen.id}: unknown bus {gen.bus}")

    @cached_property
    def bus_by_id(self) -> dict[str, Bus]:
        return {bus.id: bus for bus in self.buses}

    @cached_property
    def generator_by_id(self) -> dict[str, Generator]:
        return {gen.id: gen for gen in self.generators}

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        """Neighbouring bus ids per bus, sorted for deterministic walks."""
        nbrs: dict[str, set[str]] = {bus.id: set() for bus in self.buses}
        for br in self.branches:
            nbrs[br.from_bus].add(br.to_bus)
            nbrs[br.to_bus].add(br.from_bus)
        return {bid: tuple(sorted(ns)) for bid, ns in nbrs.items()}

    @cached_property
    def bus_index(self) -> dict[str, int]:
        """Position of each bus id in `buses`."""
        return {bus.id: k for k, bus in enumerate(self.buses)}

    @cached_property
    def generator_index(self) -> dict[str, int]:
        """Position of each generator id in `generators`."""
        return {gen.id: k for k, gen in enumerate(self.generators)}

    @cached_property
    def derated_mw(self) -> np.ndarray:
        """Each generator's `derated_mw`, in generator order, read-only."""
        derated = np.array([gen.derated_mw for gen in self.generators], dtype=float)
        derated.flags.writeable = False
        return derated

    @cached_property
    def generator_bus_index(self) -> np.ndarray:
        """Position in `buses` of each generator's bus, in generator order."""
        index = np.array([self.bus_index[gen.bus] for gen in self.generators], dtype=int)
        index.flags.writeable = False
        return index

    @cached_property
    def is_international(self) -> np.ndarray:
        """Interconnector flag of each generator, in generator order."""
        flags = np.array([gen.is_international for gen in self.generators], dtype=bool)
        flags.flags.writeable = False
        return flags

    @cached_property
    def hop_distance(self) -> np.ndarray:
        """All-pairs branch-hop counts in bus order, as read-only floats;
        +inf marks unreachable pairs."""
        n = len(self.buses)
        index = self.bus_index
        table = np.full((n, n), np.inf)
        for start, bus in enumerate(self.buses):
            table[start, start] = 0.0
            queue = deque([bus.id])
            while queue:
                current = queue.popleft()
                base = table[start, index[current]]
                for nbr in self.adjacency[current]:
                    k = index[nbr]
                    if table[start, k] == np.inf:
                        table[start, k] = base + 1.0
                        queue.append(nbr)
        table.flags.writeable = False
        return table

    @cached_property
    def demand_buses(self) -> tuple[Bus, ...]:
        return tuple(bus for bus in self.buses if bus.kind == "demand")

    @cached_property
    def local_generator_ids(self) -> tuple[str, ...]:
        """The ids of the generators that are not interconnectors, sorted."""
        return tuple(sorted(gen.id for gen in self.generators if not gen.is_international))

    def with_ratings(self, ratings) -> Grid:
        """This grid with branch k rated `ratings[k]`.

        No cached value reads a rating, so the new grid starts with every
        value this one has cached; the hop table is not built again.
        """
        grid = replace(
            self,
            branches=tuple(replace(b, rating_mw=r) for b, r in zip(self.branches, ratings)),
        )
        grid.__dict__.update(
            (name, value)
            for name, value in self.__dict__.items()
            if isinstance(vars(Grid).get(name), cached_property)
        )
        return grid


@dataclass(frozen=True)
class Region:
    """A demand district with its parent economic region and annual totals."""

    id: str
    parent: str
    population: float
    annual_value_added: float
    annual_gwh: float

    def __post_init__(self):
        if not self.id:
            raise ValidationError("region id must be nonempty")
        if not self.parent:
            raise ValidationError(f"region {self.id}: parent must be nonempty")
        for label, value in (
            ("population", self.population),
            ("annual value added", self.annual_value_added),
            ("annual energy", self.annual_gwh),
        ):
            if not (value >= 0.0 and math.isfinite(value)):
                raise ValidationError(f"region {self.id}: {label} must be finite and nonnegative")


@dataclass(frozen=True)
class RegionTable:
    regions: tuple[Region, ...]

    def __post_init__(self):
        seen = set()
        for region in self.regions:
            if region.id in seen:
                raise ValidationError(f"duplicate region id {region.id}")
            seen.add(region.id)

    @cached_property
    def by_id(self) -> dict[str, Region]:
        return {region.id: region for region in self.regions}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _rows(path: Path):
    """Yield (line_number, fields) for every data row of a section CSV."""
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, [part.strip() for part in line.split(",")]


def _number(text: str, lineno: int, label: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{label} is not a number: {text!r}", lineno) from None


def _optional_number(text: str, lineno: int, label: str) -> float | None:
    if text == "":
        return None
    return _number(text, lineno, label)


def load_grid(path) -> Grid:
    """Read a grid file, returning a validated, connected Grid."""
    path = Path(path)
    buses: list[Bus] = []
    branches: list[Branch] = []
    generators: list[Generator] = []
    for lineno, fields in _rows(path):
        tag = fields[0].upper()
        if tag == "BUS":
            if len(fields) != 7:
                raise ParseError(f"BUS rows need 7 fields, got {len(fields)}", lineno)
            buses.append(
                Bus(
                    id=fields[1],
                    voltage_kv=_number(fields[2], lineno, "voltage"),
                    kind=fields[3],
                    region=fields[4] or None,
                    x_km=_optional_number(fields[5], lineno, "x coordinate"),
                    y_km=_optional_number(fields[6], lineno, "y coordinate"),
                )
            )
        elif tag == "BRANCH":
            if len(fields) != 7:
                raise ParseError(f"BRANCH rows need 7 fields, got {len(fields)}", lineno)
            branches.append(
                Branch(
                    id=fields[1],
                    from_bus=fields[2],
                    to_bus=fields[3],
                    kind=fields[4],
                    susceptance_pu=_number(fields[5], lineno, "susceptance"),
                    rating_mw=_number(fields[6], lineno, "rating"),
                )
            )
        elif tag == "GEN":
            if len(fields) != 6:
                raise ParseError(f"GEN rows need 6 fields, got {len(fields)}", lineno)
            generators.append(
                Generator(
                    id=fields[1],
                    bus=fields[2],
                    rated_mw=_number(fields[3], lineno, "rated power"),
                    capacity_factor=_number(fields[4], lineno, "capacity factor"),
                    technology=fields[5],
                )
            )
        else:
            raise ParseError(f"unknown section tag {fields[0]!r}", lineno)

    grid = Grid(buses=tuple(buses), branches=tuple(branches), generators=tuple(generators))
    reachable = np.isfinite(grid.hop_distance)
    if not reachable.all():
        # each component's buses share one row of the mask
        count = len(np.unique(reachable, axis=0))
        raise ValidationError(f"grid in {path.name} has {count} components; it must be connected")
    return grid


def serialize_grid(grid: Grid, path) -> None:
    """Write a grid in the section CSV format; load_grid round-trips it."""
    lines = ["# grid"]
    for bus in grid.buses:
        lines.append(
            ",".join(
                [
                    "BUS",
                    bus.id,
                    _fmt(bus.voltage_kv),
                    bus.kind,
                    bus.region or "",
                    _fmt(bus.x_km),
                    _fmt(bus.y_km),
                ]
            )
        )
    for br in grid.branches:
        lines.append(
            ",".join(
                [
                    "BRANCH",
                    br.id,
                    br.from_bus,
                    br.to_bus,
                    br.kind,
                    _fmt(br.susceptance_pu),
                    _fmt(br.rating_mw),
                ]
            )
        )
    for gen in grid.generators:
        lines.append(
            ",".join(
                [
                    "GEN",
                    gen.id,
                    gen.bus,
                    _fmt(gen.rated_mw),
                    _fmt(gen.capacity_factor),
                    gen.technology,
                ]
            )
        )
    with atomic_open(path) as handle:
        handle.write("\n".join(lines) + "\n")


def load_regions(path) -> RegionTable:
    """Read a REGION section CSV into a RegionTable."""
    regions: list[Region] = []
    for lineno, fields in _rows(Path(path)):
        if fields[0].upper() != "REGION":
            raise ParseError(f"unknown section tag {fields[0]!r}", lineno)
        if len(fields) != 6:
            raise ParseError(f"REGION rows need 6 fields, got {len(fields)}", lineno)
        regions.append(
            Region(
                id=fields[1],
                parent=fields[2],
                population=_number(fields[3], lineno, "population"),
                annual_value_added=_number(fields[4], lineno, "annual value added"),
                annual_gwh=_number(fields[5], lineno, "annual energy"),
            )
        )
    return RegionTable(regions=tuple(regions))


def serialize_regions(table: RegionTable, path) -> None:
    lines = ["# regions"]
    for region in table.regions:
        lines.append(
            ",".join(
                [
                    "REGION",
                    region.id,
                    region.parent,
                    _fmt(region.population),
                    _fmt(region.annual_value_added),
                    _fmt(region.annual_gwh),
                ]
            )
        )
    with atomic_open(path) as handle:
        handle.write("\n".join(lines) + "\n")

