from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import pytest

from gridshock.errors import ParseError, ValidationError
from gridshock.grid import (
    Branch,
    Bus,
    Generator,
    Grid,
    Region,
    RegionTable,
    load_grid,
    load_regions,
    serialize_grid,
    serialize_regions,
)

from helpers import random_connected_grid, total_capacity
from oracles import floyd_warshall_hops

GRID_TEXT = """\
# toy network
BUS,b1,400,generation,,0,0
BUS,b2,400,substation,,10,0
BUS,b3,132,demand,r1,20,0
BUS,b4,132,demand,r2,20,10
GEN,g1,b1,500,0.9,thermal
GEN,g2,b1,100,0.3,solar
GEN,g3,b2,200,0.95,interconnector
BRANCH,l1,b1,b2,line,12.0,400
BRANCH,t1,b2,b3,transformer,8.0,250
BRANCH,t2,b2,b4,transformer,8.0,250
BRANCH,l2,b3,b4,line,5.0,150
"""


@pytest.fixture
def toy_grid(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text(GRID_TEXT, encoding="utf-8")
    return load_grid(path)


class TestLoadGrid:
    def test_counts(self, toy_grid):
        assert len(toy_grid.buses) == 4
        assert len(toy_grid.branches) == 4
        assert len(toy_grid.generators) == 3

    def test_field_values(self, toy_grid):
        b3 = toy_grid.bus_by_id["b3"]
        assert b3.voltage_kv == 132.0
        assert b3.kind == "demand"
        assert b3.region == "r1"
        g1 = toy_grid.generator_by_id["g1"]
        assert g1.derated_mw == 450.0
        assert not g1.is_international
        assert toy_grid.generator_by_id["g3"].is_international

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("# c\n\nBUS,a,400,generation,,,\n\nBUS,b,400,demand,r,,\nBRANCH,l,a,b,line,1,10\n")
        grid = load_grid(path)
        assert len(grid.buses) == 2
        assert grid.bus_by_id["a"].x_km is None

    def test_round_trip(self, toy_grid, tmp_path):
        out = tmp_path / "copy.csv"
        serialize_grid(toy_grid, out)
        assert load_grid(out) == toy_grid

    @pytest.mark.parametrize(
        "row,lineno",
        [
            ("BUS,a,400,generation", 2),
            ("BRANCH,l,a,b,line,xx,10", 2),
            ("WIRE,l,a,b", 2),
            ("GEN,g,a,100,0.5", 2),
        ],
    )
    def test_malformed_rows_raise_with_line(self, tmp_path, row, lineno):
        path = tmp_path / "bad.csv"
        path.write_text("# header\n" + row + "\n")
        with pytest.raises(ParseError) as err:
            load_grid(path)
        assert err.value.line == lineno

    def test_disconnected_file_rejected(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text(
            "BUS,a,400,generation,,,\nBUS,b,400,demand,r,,\nBUS,c,400,demand,r,,\n"
            "BRANCH,l,a,b,line,1,10\nGEN,g,a,10,1,thermal\n"
        )
        with pytest.raises(ValidationError):
            load_grid(path)


class TestGridValidation:
    def _buses(self):
        return (
            Bus("a", 400.0, "generation"),
            Bus("b", 132.0, "demand", region="r"),
        )

    def test_unknown_voltage(self):
        with pytest.raises(ValidationError):
            Bus("a", 123.0, "generation")

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            Bus("a", 400.0, "windmill")

    def test_demand_bus_requires_region(self):
        with pytest.raises(ValidationError):
            Bus("a", 132.0, "demand")

    def test_transformer_must_span_voltages(self):
        with pytest.raises(ValidationError):
            Grid(
                buses=(Bus("a", 400.0, "generation"), Bus("b", 400.0, "substation")),
                branches=(Branch("t", "a", "b", "transformer", 1.0, 10.0),),
                generators=(),
            )

    def test_line_must_join_equal_voltages(self):
        with pytest.raises(ValidationError):
            Grid(
                buses=self._buses(),
                branches=(Branch("l", "a", "b", "line", 1.0, 10.0),),
                generators=(),
            )

    def test_branch_to_unknown_bus(self):
        with pytest.raises(ValidationError):
            Grid(
                buses=self._buses(),
                branches=(Branch("t", "a", "zz", "transformer", 1.0, 10.0),),
                generators=(),
            )

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            Branch("l", "a", "a", "line", 1.0, 10.0)

    def test_nonpositive_susceptance(self):
        with pytest.raises(ValidationError):
            Branch("l", "a", "b", "line", 0.0, 10.0)

    def test_capacity_factor_range(self):
        with pytest.raises(ValidationError):
            Generator("g", "a", 100.0, 1.5, "wind")

    def test_duplicate_ids(self):
        buses = (Bus("a", 400.0, "generation"), Bus("a", 400.0, "substation"))
        with pytest.raises(ValidationError):
            Grid(buses=buses, branches=(), generators=())

    def test_generator_on_unknown_bus(self):
        with pytest.raises(ValidationError):
            Grid(
                buses=self._buses(),
                branches=(Branch("t", "a", "b", "transformer", 1.0, 10.0),),
                generators=(Generator("g", "zz", 10.0, 1.0, "wind"),),
            )


class TestTotalCapacity:
    def test_filters(self, toy_grid):
        # 500*0.9 + 100*0.3 + 200*0.95
        assert total_capacity(toy_grid) == 670.0
        assert total_capacity(toy_grid, include_international=False) == 480.0
        assert total_capacity(toy_grid, exclude_solar=True) == 640.0
        assert total_capacity(toy_grid, include_international=False, exclude_solar=True) == 450.0

    def test_partition_is_exact(self, toy_grid):
        everything = total_capacity(toy_grid)
        local = total_capacity(toy_grid, include_international=False)
        international = math.fsum(
            g.derated_mw for g in toy_grid.generators if g.is_international
        )
        assert local + international == everything


class TestConnectivity:
    def test_connected(self, toy_grid):
        assert np.isfinite(toy_grid.hop_distance).all()

    @pytest.mark.parametrize(
        "n_buses, links, count",
        [
            (3, [("b0", "b1")], 2),
            # three islands, one a lone bus, their buses interleaved
            (6, [("b0", "b3"), ("b3", "b5"), ("b1", "b4")], 3),
        ],
    )
    def test_split_graph_refused(self, tmp_path, n_buses, links, count):
        grid = Grid(
            buses=tuple(Bus(f"b{k}", 400.0, "substation") for k in range(n_buses)),
            branches=tuple(
                Branch(f"l{k}", a, b, "line", 1.0, 10.0) for k, (a, b) in enumerate(links)
            ),
            generators=(),
        )
        assert not np.isfinite(grid.hop_distance).all()
        path = tmp_path / "split.csv"
        serialize_grid(grid, path)
        message = f"grid in split.csv has {count} components; it must be connected"
        with pytest.raises(ValidationError, match=message):
            load_grid(path)


class TestHopDistance:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_floyd_warshall(self, seed):
        grid = random_connected_grid(np.random.default_rng([41, seed]), max_buses=25)
        index = grid.bus_index
        edges = [(index[br.from_bus], index[br.to_bus]) for br in grid.branches]
        table = grid.hop_distance
        assert np.array_equal(table, floyd_warshall_hops(len(grid.buses), edges))
        assert np.array_equal(table, table.T)
        assert not table.diagonal().any()

    def test_unreachable_marked(self):
        grid = Grid(
            buses=(
                Bus("a", 400.0, "generation"),
                Bus("b", 400.0, "substation"),
                Bus("c", 400.0, "substation"),
            ),
            branches=(Branch("l", "a", "b", "line", 1.0, 10.0),),
            generators=(),
        )
        assert grid.bus_index == {"a": 0, "b": 1, "c": 2}
        inf = np.inf
        assert grid.hop_distance.dtype == float
        assert grid.hop_distance.tolist() == [[0.0, 1.0, inf], [1.0, 0.0, inf], [inf, inf, 0.0]]
        # computed once per grid and shared read-only
        assert grid.hop_distance is grid.hop_distance
        assert not grid.hop_distance.flags.writeable


class TestWithRatings:
    def test_keeps_every_cached_value(self, toy_grid):
        cached = [name for name, attr in vars(Grid).items() if isinstance(attr, cached_property)]
        assert "hop_distance" in cached
        for name in cached:
            getattr(toy_grid, name)
        ratings = [2.0 * br.rating_mw for br in toy_grid.branches]
        rated = toy_grid.with_ratings(ratings)
        assert [br.rating_mw for br in rated.branches] == ratings
        assert [br.rating_mw for br in toy_grid.branches] == [400.0, 250.0, 250.0, 150.0]
        # carried over, and equal to what the rated grid computes for itself
        fresh = Grid(buses=rated.buses, branches=rated.branches, generators=rated.generators)
        for name in cached:
            carried = getattr(rated, name)
            assert carried is getattr(toy_grid, name)
            if isinstance(carried, np.ndarray):
                assert carried.tobytes() == getattr(fresh, name).tobytes()
            else:
                assert carried == getattr(fresh, name)

    def test_grid_without_caches(self, toy_grid):
        # load_grid builds the hop table; a grid built directly has none yet
        grid = Grid(buses=toy_grid.buses, branches=toy_grid.branches, generators=toy_grid.generators)
        rated = grid.with_ratings([1.0] * len(grid.branches))
        assert "hop_distance" not in vars(rated)
        assert rated.hop_distance.tolist() == toy_grid.hop_distance.tolist()

    def test_ratings_still_validated(self, toy_grid):
        with pytest.raises(ValidationError):
            toy_grid.with_ratings([-1.0] * len(toy_grid.branches))


class TestRegions:
    def test_load_and_round_trip(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text(
            "# regions\nREGION,r1,north,1000,2.5e9,40\nREGION,r2,south,5000,9e9,120\n"
        )
        table = load_regions(path)
        assert table.by_id["r1"].parent == "north"
        assert table.by_id["r2"].population == 5000.0
        assert table.by_id["r2"].parent == "south"
        out = tmp_path / "copy.csv"
        serialize_regions(table, out)
        assert load_regions(out) == table

    def test_duplicate_region_rejected(self):
        with pytest.raises(ValidationError):
            RegionTable(
                regions=(
                    Region("r", "p", 1.0, 1.0, 1.0),
                    Region("r", "p", 1.0, 1.0, 1.0),
                )
            )

    def test_negative_population_rejected(self):
        with pytest.raises(ValidationError):
            Region("r", "p", -5.0, 1.0, 1.0)
