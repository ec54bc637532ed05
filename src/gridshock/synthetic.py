"""Seeded synthetic fixtures: grids, regions, profiles, and toy economies.

Two sizes are provided. The small fixture is a five-bus network with two
demand districts, convenient for pipeline smoke tests. The gb-like
fixture is a hundred-bus system with generation concentrated in the
north of a twelve-node backbone and demand concentrated in the south,
sized so the current-day national peak lands near 52.1 GW and the
heat-pump scenario peaks near 57.7 GW.

Every random draw comes from `numpy.random.default_rng([seed, stream])`
with a fixed stream id per purpose, so a fixture is a pure function of
its seed: writing one twice produces byte-identical files, whatever the
number of CPUs. `Fixture.profiles` holds the four scenarios the paper
studies, in `run.cfg` order, and alone decides which profile files
`write_fixture` writes (through `forkpool.fork_map`, one `save_profile`
task per file) and which `profile.` keys and studied hours `run.cfg` names.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .csvrows import check_unquoted
from .forkpool import available_cpus, fork_map
from .grid import Branch, Bus, Generator, Grid, Region, RegionTable, serialize_grid, serialize_regions
from .mria import SupplyUseModel, save_supply_use
from .profiles import (
    DemandProfile,
    ScenarioSpec,
    apply_efficiency,
    apply_flat,
    apply_heat_pump,
    save_profile,
    synthesize_current,
)

CURRENT_PEAK_MW = 52_100.0
HEAT_PUMP_PEAK_RATIO = 57.7 / 52.1
DISPATCHABLE_TARGET_MW = 63_200.0
HEAT_SEASONAL_AMPLITUDE = 0.5

EFFICIENCY_FACTORS = {"appliances": 0.76, "heating": 0.96, "process": 0.99}
END_USE_SHARES = {"appliances": 0.45, "heating": 0.35, "process": 0.20}

INDUSTRIES = ("factory", "power", "services")
PRODUCTS = ("electricity", "goods", "services")
PRODUCT_OF_INDUSTRY = (1, 0, 2)

# use coefficients: rows products, columns industries (per unit of output)
BASE_USE_COEFF = np.array(
    [
        [0.08, 0.02, 0.04],
        [0.25, 0.15, 0.05],
        [0.15, 0.10, 0.10],
    ]
)
BASE_OUTPUT_MIX = np.array([0.70, 0.18, 1.10])

# rng stream ids; synthesize_current consumes streams 0..n_regions-1
_STREAM_POPULATION = 101
_STREAM_VALUE_ADDED = 102
_STREAM_DEMAND = 103
_STREAM_UNIT_SIZE = 104
_STREAM_SUSCEPTANCE = 105
_STREAM_COORDINATES = 106

# gb-like layout: districts per backbone node, north (index 0) to south,
# and the parent zone of each node
_DISTRICTS_PER_NODE = (1, 1, 2, 2, 3, 3, 4, 5, 5, 6, 6, 6)
_ZONE_OF_NODE = (1, 1, 2, 2, 3, 4, 5, 6, 6, 7, 7, 8)

# per-node technology mix: (technology, base rated MW, capacity factor)
_TECH_PLAN = (
    (("wind", 2000.0, 0.40),) * 5 + (("hydro", 600.0, 0.50),),
    (("wind", 2000.0, 0.40),) * 5 + (("hydro", 600.0, 0.50),),
    (("wind", 2000.0, 0.40),) * 4 + (("hydro", 600.0, 0.50),),
    (("wind", 2000.0, 0.40),) * 4 + (("nuclear", 1500.0, 0.90),),
    (("thermal", 2600.0, 0.85),) * 3 + (("nuclear", 1500.0, 0.90),),
    (("thermal", 2600.0, 0.85),) * 3 + (("other_renewable", 800.0, 0.55),),
    (("thermal", 2600.0, 0.85),) * 2 + (("nuclear", 1500.0, 0.90),),
    (("thermal", 2600.0, 0.85),) * 2 + (("other_renewable", 800.0, 0.55),),
    (("thermal", 2600.0, 0.85),) * 2,
    (("thermal", 2600.0, 0.85),) * 2,
    (("thermal", 2600.0, 0.85),) * 1 + (("nuclear", 1500.0, 0.90),),
    (("thermal", 2600.0, 0.85),) * 1 + (("other_renewable", 800.0, 0.55),),
)


@dataclass(frozen=True)
class Fixture:
    """A complete self-consistent input set plus its run configuration."""

    name: str
    grid: Grid
    regions: RegionTable
    profiles: dict[str, DemandProfile]
    economy: SupplyUseModel
    config_text: str


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _scenario_profiles(
    regions: RegionTable, seed: int, current: DemandProfile
) -> dict[str, DemandProfile]:
    """The current profile and the three derived from it, by scenario; the
    heat series and end-use shares they are derived from are not kept."""
    shares = {region.id: dict(END_USE_SHARES) for region in regions.regions}
    eff_spec = ScenarioSpec(kind="efficiency", efficiency_factors=EFFICIENCY_FACTORS)
    hp_spec = ScenarioSpec(kind="heat_pump")

    efficiency = apply_efficiency(current, eff_spec, shares)
    flat = apply_flat(current)

    heat_base = synthesize_current(regions, seed, seasonal_amplitude=HEAT_SEASONAL_AMPLITUDE)
    # scale the thermal series until the heat-pump peak hits the target
    uplift = hp_spec.hp_penetration / hp_spec.hp_cop
    current_national = current.national()
    heat_national = heat_base.national()
    target = current_national.max() * HEAT_PUMP_PEAK_RATIO

    def heat_pump_peak(scale: float) -> float:
        return float((current_national + uplift * scale * heat_national).max())

    lo, hi = 0.0, 1.0
    while heat_pump_peak(hi) < target:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if heat_pump_peak(mid) < target:
            lo = mid
        else:
            hi = mid
    heat = replace(heat_base, demand_mw=heat_base.demand_mw * hi)

    return {
        "current": current,
        "heat_pump": apply_heat_pump(current, hp_spec, heat),
        "efficiency": efficiency,
        "flat": flat,
    }


def _calibrated_regions(
    draft: list[Region], seed: int, peak_target_mw: float
) -> RegionTable:
    """Rescale annual energies so the synthesized national peak hits target."""
    table = RegionTable(regions=tuple(draft))
    trial = synthesize_current(table, seed)
    factor = peak_target_mw / trial.national().max()
    return RegionTable(
        regions=tuple(
            replace(r, annual_gwh=float(round(r.annual_gwh * factor, 6))) for r in draft
        )
    )


def _economy(
    zones: tuple[str, ...], zone_value_added: dict[str, float]
) -> SupplyUseModel:
    """Toy three-industry supply-use tables, one diagonal block per zone.

    Each industry makes exactly one product and every zone shares one
    technology, differing only in scale. That keeps the tables the unique
    optimum of the baseline program: relocating production never lowers
    total output, and the trade tie-break then pins the autarkic solution.
    Output levels are scaled so the value added implied by the tables
    matches the region table.
    """
    nr, ni, npr = len(zones), len(INDUSTRIES), len(PRODUCTS)
    supply = np.zeros((nr, ni, npr))
    use = np.zeros((nr, npr, ni))
    final = np.zeros((nr, npr))
    va = np.zeros((nr, ni))
    value_share = 1.0 - BASE_USE_COEFF.sum(axis=0)
    for k, zone in enumerate(zones):
        x0 = BASE_OUTPUT_MIX * zone_value_added[zone]
        x0 *= zone_value_added[zone] / float(value_share @ x0)
        for i, p in enumerate(PRODUCT_OF_INDUSTRY):
            supply[k, i, p] = x0[i]
        use[k] = BASE_USE_COEFF * x0[None, :]
        final[k] = supply[k].sum(axis=0) - use[k].sum(axis=1)
        va[k] = value_share
    trade = ~np.eye(nr, dtype=bool)[:, :, None] & np.ones(npr, dtype=bool)
    return SupplyUseModel(
        regions=zones,
        industries=INDUSTRIES,
        products=PRODUCTS,
        supply=supply,
        use=use,
        final_demand=final,
        value_added_coeff=va,
        trade_allowed=np.broadcast_to(trade, (nr, nr, npr)).copy(),
    )


def _profile_file(scenario: str) -> str:
    """Where a fixture keeps a scenario's profile, relative to its run.cfg."""
    return f"profiles/{scenario}.csv"


def _config_text(
    name: str,
    seed: int,
    profiles: dict[str, DemandProfile],
    n_orderings: int,
    loss_fractions: str,
    analyze_fraction: float,
) -> str:
    paths = "".join(f"profile.{s} = {_profile_file(s)}\n" for s in profiles)
    hours = ", ".join(f"{s}:{profile.peak_hour()}" for s, profile in profiles.items())
    return (
        f"# generated {name} fixture configuration\n"
        "grid = grid.csv\n"
        "regions = regions.csv\n"
        "supply_use_dir = economy\n"
        f"{paths}"
        f"hours = {hours}\n"
        f"n_orderings = {n_orderings}\n"
        f"loss_fractions = {loss_fractions}\n"
        f"master_seed = {seed}\n"
        "shed_step = 0.1\n"
        "workers = 1\n"
        "interconnector_penalty = 10.0\n"
        "headroom = 1.2\n"
        "out_dir = out\n"
        f"analyze.fraction = {analyze_fraction!r}\n"
        "analyze.scenario = heat_pump\n"
        "analyze.baseline = current\n"
    )


def generate_small(seed: int = 0) -> Fixture:
    """Five buses, two districts, two generators; everything hand-sized."""
    va_noise = _rng(seed, _STREAM_VALUE_ADDED).uniform(0.9, 1.1, 2)
    draft = [
        Region("r1", "z1", 1_000_000.0, float(round(28_000.0 * va_noise[0], 3)), 850.0),
        Region("r2", "z2", 1_500_000.0, float(round(42_000.0 * va_noise[1], 3)), 1_300.0),
    ]
    regions = _calibrated_regions(draft, seed, 350.0)
    current = synthesize_current(regions, seed)
    profiles = _scenario_profiles(regions, seed, current)

    peak_bus = profiles["heat_pump"].demand_mw.max(axis=1)
    buses = (
        Bus("b1", 400.0, "generation", x_km=10.0, y_km=80.0),
        Bus("b2", 400.0, "substation", x_km=20.0, y_km=50.0),
        Bus("b3", 132.0, "demand", region="r1", x_km=15.0, y_km=30.0),
        Bus("b4", 132.0, "demand", region="r2", x_km=30.0, y_km=25.0),
        Bus("b5", 132.0, "generation", x_km=40.0, y_km=35.0),
    )
    branches = (
        Branch("l1", "b1", "b2", "line", 20.0, 500.0),
        Branch("t1", "b2", "b3", "transformer", 30.0, float(round(1.3 * peak_bus[0], 1))),
        Branch("t2", "b2", "b4", "transformer", 30.0, float(round(1.3 * peak_bus[1], 1))),
        Branch("l2", "b3", "b4", "line", 15.0, 150.0),
        Branch("l3", "b5", "b3", "line", 15.0, 190.0),
        Branch("l4", "b5", "b4", "line", 15.0, 190.0),
    )
    generators = (
        Generator("g1", "b1", 400.0, 0.90, "thermal"),
        Generator("g2", "b5", 150.0, 0.40, "wind"),
    )
    grid = Grid(buses=buses, branches=branches, generators=generators)
    zone_va = {"z1": draft[0].annual_value_added, "z2": draft[1].annual_value_added}
    economy = _economy(("z1", "z2"), zone_va)
    config = _config_text(
        "small", seed, profiles, n_orderings=5, loss_fractions="0.0, 0.5", analyze_fraction=0.5
    )
    return Fixture("small", grid, regions, profiles, economy, config)


def generate_gb_like(seed: int = 0) -> Fixture:
    """Hundred buses on a north-to-south backbone with southern demand."""
    pop_rng = _rng(seed, _STREAM_POPULATION)
    va_rng = _rng(seed, _STREAM_VALUE_ADDED)
    demand_rng = _rng(seed, _STREAM_DEMAND)
    unit_rng = _rng(seed, _STREAM_UNIT_SIZE)
    susceptance_rng = _rng(seed, _STREAM_SUSCEPTANCE)
    coord_rng = _rng(seed, _STREAM_COORDINATES)

    n_nodes = len(_DISTRICTS_PER_NODE)
    district_node: list[int] = []
    for node, count in enumerate(_DISTRICTS_PER_NODE):
        district_node.extend([node] * count)

    draft = []
    for k, node in enumerate(district_node):
        population = float(
            round((120_000.0 + 45_000.0 * (node + 1)) * pop_rng.uniform(0.7, 1.3))
        )
        value_added = float(round(population * 0.03 * va_rng.uniform(0.85, 1.15), 3))
        annual_gwh = float(population * 8e-3 * demand_rng.uniform(0.85, 1.15))
        draft.append(
            Region(f"r{k + 1:02d}", f"z{_ZONE_OF_NODE[node]}", population, value_added, annual_gwh)
        )
    regions = _calibrated_regions(draft, seed, CURRENT_PEAK_MW)
    current = synthesize_current(regions, seed)
    profiles = _scenario_profiles(regions, seed, current)
    heat_pump = profiles["heat_pump"]

    buses: list[Bus] = []
    branches: list[Branch] = []
    backbone_rating = float(round(0.5 * heat_pump.national().max(), 1))
    node_y = [1000.0 - 80.0 * k for k in range(n_nodes)]
    node_x = [float(round(60.0 + v, 1)) for v in coord_rng.uniform(-40.0, 40.0, n_nodes)]
    for k in range(n_nodes):
        buses.append(Bus(f"n{k + 1:02d}", 400.0, "substation", x_km=node_x[k], y_km=node_y[k]))
    for k in range(n_nodes - 1):
        branches.append(
            Branch(
                f"bb{k + 1:02d}",
                f"n{k + 1:02d}",
                f"n{k + 2:02d}",
                "line",
                round(float(susceptance_rng.uniform(18.0, 22.0)), 3),
                backbone_rating,
            )
        )
    for j, (a, b) in enumerate((("n03", "n06"), ("n07", "n10"))):
        branches.append(
            Branch(
                f"br{j + 1:02d}", a, b, "line",
                round(float(susceptance_rng.uniform(8.0, 10.0)), 3),
                backbone_rating,
            )
        )

    for k, node in enumerate(district_node):
        did = f"d{k + 1:02d}"
        buses.append(
            Bus(
                did, 132.0, "demand", region=f"r{k + 1:02d}",
                x_km=float(round(node_x[node] + coord_rng.uniform(-25.0, 25.0), 1)),
                y_km=float(round(node_y[node] + coord_rng.uniform(-20.0, 20.0), 1)),
            )
        )
        peak_mw = float(heat_pump.demand_mw[k].max())
        branches.append(
            Branch(
                f"td{k + 1:02d}", f"n{node + 1:02d}", did, "transformer",
                round(float(susceptance_rng.uniform(28.0, 32.0)), 3),
                round(1.3 * peak_mw, 1),
            )
        )

    raw_units: list[tuple[str, str, float, float, str]] = []
    unit_index = 0
    for node, plan in enumerate(_TECH_PLAN):
        for tech, base_mw, cf in plan:
            unit_index += 1
            rated = base_mw * float(unit_rng.uniform(0.85, 1.15))
            raw_units.append((f"g{unit_index:02d}", f"n{node + 1:02d}", rated, cf, tech))
    dispatchable = sum(rated * cf for _, _, rated, cf, _ in raw_units)
    scale = DISPATCHABLE_TARGET_MW / dispatchable

    generators: list[Generator] = []
    for gid, node_bus, rated, cf, tech in raw_units:
        rated_mw = round(rated * scale, 1)
        bus_id = f"b{gid}"
        node_idx = int(node_bus[1:]) - 1
        buses.append(
            Bus(
                bus_id, 400.0, "generation",
                x_km=float(round(node_x[node_idx] + coord_rng.uniform(-30.0, 30.0), 1)),
                y_km=float(round(node_y[node_idx] + coord_rng.uniform(-20.0, 20.0), 1)),
            )
        )
        branches.append(
            Branch(
                f"s{gid}", bus_id, node_bus, "line",
                round(float(susceptance_rng.uniform(23.0, 27.0)), 3),
                round(1.25 * rated_mw, 1),
            )
        )
        generators.append(Generator(gid, bus_id, rated_mw, cf, tech))

    generators.append(Generator("ic1", "n10", 1900.0, 1.0, "interconnector"))
    generators.append(Generator("ic2", "n12", 1900.0, 1.0, "interconnector"))

    southern = [k for k, node in enumerate(district_node) if node >= 8]
    for j in range(8):
        district = southern[3 * j]
        generators.append(
            Generator(
                f"sol{j + 1}", f"d{district + 1:02d}",
                round(850.0 * float(unit_rng.uniform(0.85, 1.15)), 1),
                0.28, "solar",
            )
        )

    grid = Grid(buses=tuple(buses), branches=tuple(branches), generators=tuple(generators))
    zones = tuple(f"z{j}" for j in range(1, 9))
    zone_va = {z: 0.0 for z in zones}
    for region in regions.regions:
        zone_va[region.parent] += region.annual_value_added
    economy = _economy(zones, zone_va)
    fractions = ", ".join(repr(round(0.05 * k, 2)) for k in range(10))
    config = _config_text(
        "gb-like", seed, profiles, n_orderings=50, loss_fractions=fractions, analyze_fraction=0.4
    )
    return Fixture("gb-like", grid, regions, profiles, economy, config)


def generate(size: str, seed: int = 0) -> Fixture:
    if size == "small":
        return generate_small(seed)
    if size == "gb-like":
        return generate_gb_like(seed)
    from .errors import ValidationError

    raise ValidationError(f"unknown fixture size {size!r}; use small or gb-like")


def write_fixture(fixture: Fixture, out_dir) -> list[Path]:
    """Write every fixture file under out_dir; returns the paths written.

    Those are the files the stages read: the grid, the regions, one profile
    per scenario in `fixture.profiles`, the five economy tables and
    `run.cfg`. The four profile files are written by `fork_map`, one task
    per file, in as many processes as there are files or CPUs, whichever is
    fewer; a file's bytes do not depend on that count. Every region id is
    checked before any file is written or any process started.
    """
    out = Path(out_dir)
    jobs = [(profile, out / _profile_file(name)) for name, profile in fixture.profiles.items()]
    for profile, _ in jobs:
        check_unquoted(profile.regions, "region id")
    (out / "profiles").mkdir(parents=True, exist_ok=True)
    (out / "economy").mkdir(exist_ok=True)

    written = [out / "grid.csv", out / "regions.csv"]
    serialize_grid(fixture.grid, out / "grid.csv")
    serialize_regions(fixture.regions, out / "regions.csv")
    # the children inherit the jobs through fork and return nothing, so no
    # profile data is pickled and the parent formats no profile text
    fork_map(lambda job: save_profile(*job), jobs, available_cpus())
    written.extend(path for _, path in jobs)
    save_supply_use(fixture.economy, out / "economy")
    written.extend(sorted((out / "economy").glob("*.csv")))
    with atomic_open(out / "run.cfg") as handle:
        handle.write(fixture.config_text)
    written.append(out / "run.cfg")
    return written
