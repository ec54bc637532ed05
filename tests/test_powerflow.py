"""The DC network model: the reference flows of tests/oracles.py pinned to
hand-computed networks, and the slack bus and nodal matrix that
gridshock.dispatch.GridContext builds its sensitivities from."""

from __future__ import annotations

import numpy as np
import pytest

from gridshock.dispatch import GridContext, _reduced_system, default_slack_bus
from gridshock.errors import SingularMatrix, ValidationError
from gridshock.grid import Branch, Bus, Generator, Grid

from helpers import bus_balances, random_connected_grid, random_injections
from oracles import check_limits, dc_power_flow


def two_bus_grid(b=10.0, rating=500.0):
    return Grid(
        buses=(Bus("n1", 400.0, "generation"), Bus("n2", 400.0, "demand", region="r")),
        branches=(Branch("l", "n1", "n2", "line", b, rating),),
        generators=(Generator("g", "n1", 200.0, 1.0, "thermal"),),
    )


def triangle_grid():
    return Grid(
        buses=(
            Bus("n1", 400.0, "generation"),
            Bus("n2", 400.0, "demand", region="r"),
            Bus("n3", 400.0, "substation"),
        ),
        branches=(
            Branch("a", "n1", "n2", "line", 1.0, 1e3),
            Branch("b", "n1", "n3", "line", 1.0, 1e3),
            Branch("c", "n3", "n2", "line", 1.0, 1e3),
        ),
        generators=(Generator("g", "n1", 200.0, 1.0, "thermal"),),
    )


class TestTwoBus:
    def test_angles_and_flow(self):
        grid = two_bus_grid()
        sol = dc_power_flow(grid, {"n1": 100.0, "n2": -100.0}, slack_bus="n1")
        assert sol.angle_of["n1"] == 0.0
        assert sol.angle_of["n2"] == pytest.approx(-0.1, abs=1e-12)
        assert sol.flow_of["l"] == pytest.approx(100.0, abs=1e-9)

    def test_flow_reverses_with_injections(self):
        grid = two_bus_grid()
        sol = dc_power_flow(grid, {"n1": -100.0, "n2": 100.0}, slack_bus="n1")
        assert sol.flow_of["l"] == pytest.approx(-100.0, abs=1e-9)


class TestTriangle:
    def test_equal_susceptance_split(self):
        sol = dc_power_flow(triangle_grid(), {"n1": 100.0, "n2": -100.0}, slack_bus="n3")
        assert sol.flow_of["a"] == pytest.approx(200.0 / 3.0, abs=1e-9)
        assert sol.flow_of["b"] == pytest.approx(100.0 / 3.0, abs=1e-9)
        assert sol.flow_of["c"] == pytest.approx(100.0 / 3.0, abs=1e-9)

    def test_slack_choice_does_not_move_balanced_flows(self):
        inj = {"n1": 100.0, "n2": -100.0}
        flows = [dc_power_flow(triangle_grid(), inj, slack_bus=s).flows_mw for s in ("n1", "n2", "n3")]
        assert np.allclose(flows[0], flows[1], atol=1e-9)
        assert np.allclose(flows[0], flows[2], atol=1e-9)

    def test_reduced_matrix(self):
        matrix, order = _reduced_system(triangle_grid(), "n3")
        assert order == ["n1", "n2"]
        assert np.allclose(matrix, [[2.0, -1.0], [-1.0, 2.0]])


class TestProperties:
    @pytest.mark.parametrize("seed", range(15))
    def test_conservation_and_slack_absorption(self, seed):
        rng = np.random.default_rng([21, seed])
        grid = random_connected_grid(rng)
        inj = random_injections(rng, grid)
        slack = grid.buses[int(rng.integers(0, len(grid.buses)))].id
        sol = dc_power_flow(grid, inj, slack_bus=slack)
        balance = bus_balances(grid, inj, sol)
        total = sum(inj.values())
        scale = 1.0 + max(abs(v) for v in inj.values())
        for bid, residual in balance.items():
            expected = total if bid == slack else 0.0
            assert abs(residual - expected) <= 1e-7 * scale, bid

    def test_linearity(self):
        rng = np.random.default_rng(77)
        grid = random_connected_grid(rng)
        inj = random_injections(rng, grid)
        sol1 = dc_power_flow(grid, inj, slack_bus="n00")
        sol3 = dc_power_flow(grid, {k: 3.0 * v for k, v in inj.items()}, slack_bus="n00")
        assert np.allclose(3.0 * sol1.flows_mw, sol3.flows_mw, rtol=1e-9, atol=1e-9)

    def test_array_and_mapping_agree(self):
        grid = triangle_grid()
        by_map = dc_power_flow(grid, {"n1": 50.0}, slack_bus="n3")
        by_vec = dc_power_flow(grid, np.array([50.0, 0.0, 0.0]), slack_bus="n3")
        assert np.array_equal(by_map.flows_mw, by_vec.flows_mw)


class TestValidation:
    def test_disconnected_build_raises(self):
        grid = Grid(
            buses=(
                Bus("a", 400.0, "generation"),
                Bus("b", 400.0, "demand", region="r"),
                Bus("c", 400.0, "switching"),
            ),
            branches=(Branch("l", "a", "b", "line", 1.0, 10.0),),
            generators=(Generator("g", "a", 10.0, 1.0, "thermal"),),
        )
        with pytest.raises(SingularMatrix):
            GridContext(grid)


class TestDefaultSlack:
    def test_largest_local_generation_wins(self):
        grid = Grid(
            buses=(
                Bus("a", 400.0, "generation"),
                Bus("b", 400.0, "generation"),
                Bus("c", 400.0, "demand", region="r"),
            ),
            branches=(
                Branch("l1", "a", "b", "line", 1.0, 10.0),
                Branch("l2", "b", "c", "line", 1.0, 10.0),
            ),
            generators=(
                Generator("g1", "a", 100.0, 0.5, "wind"),
                Generator("g2", "b", 60.0, 1.0, "thermal"),
                Generator("g3", "c", 1000.0, 1.0, "interconnector"),
            ),
        )
        assert default_slack_bus(grid) == "b"

    def test_no_local_generation(self):
        grid = two_bus_grid()
        grid = Grid(
            buses=grid.buses,
            branches=grid.branches,
            generators=(Generator("g", "n1", 10.0, 1.0, "interconnector"),),
        )
        with pytest.raises(ValidationError):
            default_slack_bus(grid)


class TestCheckLimits:
    def test_within_rating_silent(self):
        grid = two_bus_grid(rating=100.0)
        sol = dc_power_flow(grid, {"n1": 100.0, "n2": -100.0}, slack_bus="n1")
        assert check_limits(grid, sol.flows_mw) == ()

    def test_overload_reported(self):
        grid = two_bus_grid(rating=99.0)
        sol = dc_power_flow(grid, {"n1": 100.0, "n2": -100.0}, slack_bus="n1")
        violations = check_limits(grid, sol.flows_mw)
        assert len(violations) == 1
        v = violations[0]
        assert v.branch_id == "l"
        assert v.rating_mw == 99.0
        assert v.overload_fraction == pytest.approx(1.0 / 99.0, rel=1e-9)

    def test_tolerance_guard(self):
        grid = two_bus_grid(rating=100.0)
        sol = dc_power_flow(grid, {"n2": -100.0 * (1.0 + 5e-10)}, slack_bus="n1")
        assert check_limits(grid, sol.flows_mw) == ()
        sol = dc_power_flow(grid, {"n2": -100.0 * (1.0 + 5e-9)}, slack_bus="n1")
        assert len(check_limits(grid, sol.flows_mw)) == 1
