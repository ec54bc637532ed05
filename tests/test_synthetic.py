import hashlib
import multiprocessing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gridshock.atomic as atomic_module
import gridshock.cli as cli_module
from gridshock.errors import ValidationError
from gridshock.grid import load_grid, load_regions
from gridshock.mria import load_supply_use, solve_baseline
from gridshock.profiles import DemandProfile, load_profile, synthesize_current
from gridshock.runconfig import load_run_config
from gridshock.synthetic import generate, generate_gb_like, generate_small, write_fixture

from helpers import total_capacity

PROFILE_NAMES = ("current", "heat_pump", "efficiency", "flat")


@pytest.fixture(scope="module")
def gb():
    return generate_gb_like(0)


@pytest.fixture(scope="module")
def small():
    return generate_small(0)


def tree_bytes(root):
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestSmall:
    def test_shape(self, small):
        assert len(small.grid.buses) == 5
        assert len(small.grid.branches) == 6
        assert len(small.grid.generators) == 2
        assert [r.id for r in small.regions.regions] == ["r1", "r2"]

    def test_round_trip_through_files(self, small, tmp_path):
        write_fixture(small, tmp_path)
        grid = load_grid(tmp_path / "grid.csv")
        assert grid == small.grid
        regions = load_regions(tmp_path / "regions.csv")
        assert regions == small.regions
        for name in PROFILE_NAMES:
            profile = load_profile(tmp_path / "profiles" / f"{name}.csv")
            assert profile.scenario == name
            assert np.array_equal(profile.demand_mw, small.profiles[name].demand_mw)
        assert tuple(small.profiles) == PROFILE_NAMES
        model = load_supply_use(tmp_path / "economy")
        assert model.regions == ("z1", "z2")
        assert np.allclose(model.supply, small.economy.supply)

    def test_current_peak_target(self, small):
        assert small.profiles["current"].national().max() == pytest.approx(350.0)

    def test_capacity_covers_heat_pump_peak(self, small):
        capacity = total_capacity(small.grid, exclude_solar=True)
        assert capacity > small.profiles["heat_pump"].national().max()


class TestGbLike:
    def test_shape(self, gb):
        grid = gb.grid
        assert len(grid.buses) == 100
        assert len({b.region for b in grid.buses if b.region}) == 44
        assert len(gb.regions.regions) == 44
        assert sorted({r.parent for r in gb.regions.regions}) == [f"z{k}" for k in range(1, 9)]
        assert np.isfinite(grid.hop_distance).all()

    def test_generation_mix(self, gb):
        by_tech = {}
        for gen in gb.grid.generators:
            by_tech.setdefault(gen.technology, []).append(gen)
        assert len(by_tech["wind"]) == 18
        assert len(by_tech["thermal"]) == 16
        assert len(by_tech["nuclear"]) == 4
        assert len(by_tech["interconnector"]) == 2
        assert len(by_tech["solar"]) == 8

    def test_capacity_targets(self, gb):
        dispatchable = total_capacity(gb.grid, include_international=False, exclude_solar=True)
        assert dispatchable == pytest.approx(63_200.0, abs=3.0)
        international = total_capacity(gb.grid) - total_capacity(
            gb.grid, include_international=False
        )
        assert international == 3800.0

    def test_demand_anchors(self, gb):
        peaks = {name: gb.profiles[name].national().max() for name in PROFILE_NAMES}
        assert peaks["current"] == pytest.approx(52_100.0, rel=1e-6)
        assert peaks["heat_pump"] / peaks["current"] == pytest.approx(57.7 / 52.1, rel=1e-9)
        assert peaks["efficiency"] == pytest.approx(0.876 * peaks["current"], rel=1e-12)
        assert peaks["flat"] < peaks["efficiency"] < peaks["current"] < peaks["heat_pump"]

    def test_north_supply_south_demand(self, gb):
        # wind sits on the four northern backbone nodes, most demand south
        wind_nodes = set()
        spur_to_node = {b.from_bus: b.to_bus for b in gb.grid.branches if b.kind == "line"}
        for gen in gb.grid.generators:
            if gen.technology == "wind":
                wind_nodes.add(spur_to_node[gen.bus])
        assert wind_nodes <= {"n01", "n02", "n03", "n04"}
        southern = sum(
            r.annual_gwh for r in gb.regions.regions if r.parent in ("z6", "z7", "z8")
        )
        total = sum(r.annual_gwh for r in gb.regions.regions)
        assert southern / total > 0.5

    def test_solar_sits_on_southern_demand_buses(self, gb):
        bus_by_id = gb.grid.bus_by_id
        parents = gb.regions.by_id
        for gen in gb.grid.generators:
            if gen.technology != "solar":
                continue
            bus = bus_by_id[gen.bus]
            assert bus.kind == "demand"
            assert parents[bus.region].parent in ("z6", "z7", "z8")

    def test_transformers_cover_scenario_peaks(self, gb):
        heat_pump = gb.profiles["heat_pump"]
        rating = {b.to_bus: b.rating_mw for b in gb.grid.branches if b.kind == "transformer"}
        for bus in gb.grid.buses:
            if bus.kind != "demand":
                continue
            peak = heat_pump.demand_mw[heat_pump.region_pos[bus.region]].max()
            assert rating[bus.id] >= 1.25 * peak

    def test_profiles_regenerate_from_region_file(self, gb, tmp_path):
        write_fixture(gb, tmp_path)
        regions = load_regions(tmp_path / "regions.csv")
        rebuilt = synthesize_current(regions, 0)
        saved = load_profile(tmp_path / "profiles" / "current.csv")
        assert rebuilt.regions == saved.regions
        assert np.array_equal(rebuilt.demand_mw, saved.demand_mw)

    def test_economy_matches_region_value_added(self, gb):
        model = gb.economy
        implied = {
            zone: float(model.value_added_coeff[k] @ model.baseline_output[k])
            for k, zone in enumerate(model.regions)
        }
        for zone, value in implied.items():
            target = sum(
                r.annual_value_added for r in gb.regions.regions if r.parent == zone
            )
            assert value == pytest.approx(target, rel=1e-9)

    def test_economy_reproduces_baseline(self, small, gb):
        # tables must be the unshocked program's own optimum
        for fixture in (small, gb):
            x = solve_baseline(fixture.economy)
            assert np.allclose(x, fixture.economy.baseline_output, rtol=1e-6)

    def test_config_hours_are_scenario_peaks(self, gb):
        line = next(
            l for l in gb.config_text.splitlines() if l.startswith("hours")
        )
        pairs = dict(
            item.strip().split(":") for item in line.split("=", 1)[1].split(",")
        )
        for scenario, hour in pairs.items():
            assert gb.profiles[scenario].peak_hour() == int(hour)


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        write_fixture(generate_small(11), a)
        write_fixture(generate_small(11), b)
        assert tree_bytes(a) == tree_bytes(b)

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        write_fixture(generate_small(1), a)
        write_fixture(generate_small(2), b)
        assert tree_bytes(a) != tree_bytes(b)

    def test_generate_dispatch(self):
        assert generate("small", 5).name == "small"
        with pytest.raises(ValidationError, match="size"):
            generate("medium", 0)


class _HalfWrite:
    """A text file whose first write stops halfway with a full disk."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.handle.__exit__(*exc)

    def write(self, text):
        self.handle.write(text[: len(text) // 2])
        raise OSError("disk full")


FIXTURE_FILES = (
    "grid.csv",
    "regions.csv",
    "run.cfg",
    "economy/supply.csv",
    "economy/use.csv",
    "economy/final_demand.csv",
    "economy/value_added.csv",
    "economy/trade.csv",
    "profiles/current.csv",
    "profiles/flat.csv",
)


class TestWholeFiles:
    @pytest.mark.parametrize("name", FIXTURE_FILES)
    def test_failed_write_keeps_previous_bytes(self, small, tmp_path, monkeypatch, name):
        write_fixture(small, tmp_path)
        target = tmp_path / name
        target.write_bytes(b"previous bytes\n")
        real_open = open

        def open_failing_target(path, *args, **kwargs):
            handle = real_open(path, *args, **kwargs)
            is_target = Path(path).name.startswith(f".{target.name}.")
            return _HalfWrite(handle) if is_target else handle

        monkeypatch.setattr(atomic_module, "open", open_failing_target, raising=False)
        with pytest.raises(OSError, match="disk full"):
            write_fixture(small, tmp_path)
        assert target.read_bytes() == b"previous bytes\n"
        assert not list(tmp_path.rglob("*.tmp"))
        assert not multiprocessing.active_children()


def file_digests(root):
    return {name: hashlib.sha256(data).hexdigest() for name, data in tree_bytes(root).items()}


class TestProfilePool:
    @pytest.mark.parametrize("size, seed", [("gb-like", 7), ("small", 3)])
    def test_bytes_do_not_depend_on_cpu_count(self, tmp_path, pool_sizes, size, seed):
        started, cpus = pool_sizes
        fixture = generate(size, seed)
        digests = []
        for n in (1, 2, 6):
            cpus(n)
            write_fixture(fixture, tmp_path / f"cpus{n}")
            digests.append(file_digests(tmp_path / f"cpus{n}"))
            assert not multiprocessing.active_children()
        assert started == [2, 4]  # one CPU writes in this process
        assert len(digests[0]) == 12
        assert digests[0] == digests[1] == digests[2]

    @pytest.mark.parametrize("bad", ["current", "flat"])
    def test_unquotable_region_refused_before_any_process(self, small, tmp_path, pool_sizes, bad):
        started, _ = pool_sizes
        profile = small.profiles[bad]
        renamed = DemandProfile(
            profile.scenario, ("r,1",) + profile.regions[1:], profile.hours, profile.demand_mw
        )
        fixture = replace(small, profiles={**small.profiles, bad: renamed})
        with pytest.raises(ValidationError, match="region id 'r,1' needs csv quoting"):
            write_fixture(fixture, tmp_path)
        assert started == []
        assert not list(tmp_path.rglob("*.csv"))
        assert not list(tmp_path.rglob("*.tmp"))
        assert not multiprocessing.active_children()


@pytest.mark.parametrize("size, seed", [("small", 3), ("gb-like", 7)])
def test_fixture_writes_only_what_stages_read(tmp_path, size, seed):
    # run.cfg, and the inputs simulate and impact hash: grid, regions, the
    # profile.* files and the five economy tables
    written = write_fixture(generate(size, seed), tmp_path / "fx")
    config_path = tmp_path / "fx" / "run.cfg"
    config = load_run_config(config_path)
    hashed = cli_module._hashed_files(config, config_path) + cli_module._priced_files(config)
    read = {path.resolve() for _, path in hashed if config.out_dir not in path.resolve().parents}
    assert len(written) == len(set(written)) == 12
    assert {path.resolve() for path in written} == read
