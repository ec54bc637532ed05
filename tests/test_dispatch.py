from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import gridshock.dispatch as dispatch_module
from gridshock.dispatch import (
    DispatchProblem,
    GridContext,
    dispatch_with_shedding,
    generator_distance_costs,
    merit_order_flows,
    redispatch,
)
from gridshock.errors import NoDemand, NumericalBreakdown, ValidationError
from gridshock.failures import (
    _solar_ids,
    bus_demand,
    calibrate_ratings,
    generate_orderings,
    removal_sets,
)
from gridshock.grid import Branch, Bus, Generator, Grid
from gridshock.numerics import FEASIBILITY_TOL, lp_solve

from helpers import (
    assert_same_lp_solution,
    gb_like_congested,
    random_connected_grid,
    run_python,
)
from oracles import (
    check_limits,
    dc_power_flow,
    reference_distance_costs,
    reference_fill,
    reference_limited_lp,
    reference_lp_solve,
    reference_shed_deficit,
    reference_shedding,
)


def chain_grid(ratings=(1e3, 1e3, 1e3, 1e3)):
    """gN - dN - mid - dS - gS, all 400 kV lines."""
    return Grid(
        buses=(
            Bus("b0", 400.0, "generation"),
            Bus("b1", 400.0, "demand", region="north"),
            Bus("b2", 400.0, "switching"),
            Bus("b3", 400.0, "demand", region="south"),
            Bus("b4", 400.0, "generation"),
        ),
        branches=(
            Branch("l0", "b0", "b1", "line", 10.0, ratings[0]),
            Branch("l1", "b1", "b2", "line", 10.0, ratings[1]),
            Branch("l2", "b2", "b3", "line", 10.0, ratings[2]),
            Branch("l3", "b3", "b4", "line", 10.0, ratings[3]),
        ),
        generators=(
            Generator("gN", "b0", 40.0, 1.0, "wind"),
            Generator("gS", "b4", 60.0, 1.0, "thermal"),
        ),
    )


def single_bus_grid(capacity=100.0, cf=1.0):
    # A one-bus system has no network constraints at all.
    return Grid(
        buses=(Bus("b", 400.0, "demand", region="r"),),
        branches=(),
        generators=(Generator("g", "b", capacity, cf, "thermal"),),
    )


class TestDistanceCosts:
    def test_hop_count_plus_one(self):
        grid = chain_grid()
        costs = generator_distance_costs(grid, {"b1": 100.0})
        assert costs["gN"] == pytest.approx(2.0)  # one hop
        assert costs["gS"] == pytest.approx(4.0)  # three hops

    def test_demand_weighted_mean(self):
        grid = chain_grid()
        costs = generator_distance_costs(grid, {"b1": 100.0, "b3": 300.0})
        # gN: hops 1 and 3 weighted 1:3 -> mean 2.5, cost 3.5
        assert costs["gN"] == pytest.approx(3.5)
        assert costs["gS"] == pytest.approx(1.0 + (3.0 * 100 + 1.0 * 300) / 400)

    def test_interconnector_multiplier(self):
        grid = Grid(
            buses=(Bus("b", 400.0, "demand", region="r"),),
            branches=(),
            generators=(Generator("x", "b", 50.0, 1.0, "interconnector"),),
        )
        costs = generator_distance_costs(grid, {"b": 10.0})
        assert costs["x"] == 10.0  # co-located still pays the full penalty
        costs = generator_distance_costs(grid, {"b": 10.0}, interconnector_penalty=4.0)
        assert costs["x"] == 4.0

    def test_no_demand_raises(self):
        with pytest.raises(NoDemand):
            generator_distance_costs(chain_grid(), {"b1": 0.0})

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_per_generator_reference(self, seed):
        rng = np.random.default_rng([41, seed])
        grid = random_connected_grid(rng, max_buses=25)
        gens = tuple(
            Generator(
                id=f"u{k}",
                bus=grid.buses[int(rng.integers(0, len(grid.buses)))].id,
                rated_mw=float(rng.integers(10, 300)),
                capacity_factor=1.0,
                technology="interconnector" if rng.random() < 0.3 else "thermal",
            )
            for k in range(int(rng.integers(1, 12)))
        )
        grid = Grid(buses=grid.buses, branches=grid.branches, generators=gens)
        demand = {
            b.id: float(rng.uniform(0.0, 500.0)) if rng.random() < 0.8 else 0.0
            for b in grid.buses
        }
        demand[grid.buses[-1].id] = 1.0
        penalty = float(rng.choice([10.0, 4.0, 2.5]))
        costs = generator_distance_costs(grid, demand, interconnector_penalty=penalty)
        reference = reference_distance_costs(grid, demand, penalty)
        assert list(costs) == list(reference)
        assert all(costs[g] == reference[g] for g in reference)

    def test_unreachable_generator_named(self):
        # b5 is an island; the first generator on it in grid order is named
        grid = chain_grid()
        grid = Grid(
            buses=grid.buses + (Bus("b5", 400.0, "generation"),),
            branches=grid.branches,
            generators=(
                Generator("gA", "b0", 10.0, 1.0, "thermal"),
                Generator("gZ", "b5", 10.0, 1.0, "thermal"),
                Generator("gB", "b5", 10.0, 1.0, "thermal"),
            ),
        )
        with pytest.raises(ValidationError, match="generator gZ is unreachable"):
            generator_distance_costs(grid, {"b1": 10.0})


class TestRedispatch:
    def test_single_bus_balance(self):
        grid = single_bus_grid()
        problem = DispatchProblem(grid=grid, demand_mw={"b": 70.0}, available=frozenset({"g"}))
        sol = redispatch(problem)
        assert sol.status == "feasible"
        assert sol.generator_output_mw["g"] == pytest.approx(70.0, abs=1e-9)
        assert sol.shed_mw == {}

    def test_cheap_generator_preferred(self):
        grid = chain_grid()
        problem = DispatchProblem(
            grid=grid, demand_mw={"b1": 30.0}, available=frozenset({"gN", "gS"})
        )
        sol = redispatch(problem)
        assert sol.generator_output_mw["gN"] == pytest.approx(30.0, abs=1e-9)
        assert sol.generator_output_mw["gS"] == pytest.approx(0.0, abs=1e-9)

    def test_capacity_spills_to_next_generator(self):
        grid = chain_grid()
        problem = DispatchProblem(
            grid=grid, demand_mw={"b1": 55.0}, available=frozenset({"gN", "gS"})
        )
        sol = redispatch(problem)
        assert sol.generator_output_mw["gN"] == pytest.approx(40.0, abs=1e-9)
        assert sol.generator_output_mw["gS"] == pytest.approx(15.0, abs=1e-9)

    def test_branch_limit_forces_expensive_unit(self):
        grid = Grid(
            buses=(
                Bus("a", 400.0, "generation"),
                Bus("b", 400.0, "demand", region="r"),
            ),
            branches=(Branch("l", "a", "b", "line", 10.0, 50.0),),
            generators=(
                Generator("far", "a", 200.0, 1.0, "thermal"),
                Generator("near", "b", 100.0, 1.0, "interconnector"),
            ),
        )
        problem = DispatchProblem(
            grid=grid, demand_mw={"b": 80.0}, available=frozenset({"far", "near"})
        )
        sol = redispatch(problem)
        assert sol.status == "feasible"
        assert sol.generator_output_mw["far"] == pytest.approx(50.0, abs=1e-7)
        assert sol.generator_output_mw["near"] == pytest.approx(30.0, abs=1e-7)
        assert check_limits(grid, sol.flows_mw) == ()

    def test_infeasible_when_capacity_short(self):
        grid = single_bus_grid(capacity=50.0)
        problem = DispatchProblem(grid=grid, demand_mw={"b": 70.0}, available=frozenset({"g"}))
        assert redispatch(problem).status == "infeasible"

    def test_no_available_generators(self):
        grid = single_bus_grid()
        problem = DispatchProblem(grid=grid, demand_mw={"b": 70.0}, available=frozenset())
        assert redispatch(problem).status == "infeasible"

    def test_zero_demand_trivial(self):
        grid = single_bus_grid()
        problem = DispatchProblem(grid=grid, demand_mw={}, available=frozenset({"g"}))
        sol = redispatch(problem)
        assert sol.status == "feasible"
        assert sol.generator_output_mw == {"g": 0.0}

    def test_balance_invariant(self):
        grid = chain_grid()
        problem = DispatchProblem(
            grid=grid, demand_mw={"b1": 33.3, "b3": 44.4}, available=frozenset({"gN", "gS"})
        )
        sol = redispatch(problem)
        total_out = sum(sol.generator_output_mw.values())
        assert total_out == pytest.approx(77.7, abs=1e-6)


class TestMeritOrderFlows:
    def grid(self, west_id, east_id):
        # a unit each side of the demand bus, one hop away: their costs tie
        return Grid(
            buses=(
                Bus("w", 400.0, "generation"),
                Bus("d", 400.0, "demand", region="r"),
                Bus("e", 400.0, "generation"),
            ),
            branches=(
                Branch("lw", "w", "d", "line", 10.0, 1.0),
                Branch("le", "d", "e", "line", 10.0, 1.0),
            ),
            generators=(
                Generator(west_id, "w", 100.0, 1.0, "thermal"),
                Generator(east_id, "e", 100.0, 1.0, "thermal"),
            ),
        )

    @pytest.mark.parametrize(
        "west_id, east_id, expected", [("a", "b", [60.0, 0.0]), ("b", "a", [0.0, 60.0])]
    )
    def test_cost_ties_fill_the_smaller_id_first(self, west_id, east_id, expected):
        grid = self.grid(west_id, east_id)
        available = frozenset({west_id, east_id})
        costs = generator_distance_costs(grid, {"d": 60.0})
        assert costs[west_id] == costs[east_id]
        problem = DispatchProblem(grid=grid, demand_mw={"d": 60.0}, available=available)
        flows = merit_order_flows(problem)
        # every rating is 1 MW, and the flows ignore them
        assert np.abs(flows).tolist() == pytest.approx(expected, abs=1e-9)

    def test_zero_demand_and_short_capacity(self):
        grid = self.grid("a", "b")
        available = frozenset({"a", "b"})
        zero = merit_order_flows(DispatchProblem(grid=grid, demand_mw={}, available=available))
        assert zero.tolist() == [0.0, 0.0]
        short = DispatchProblem(grid=grid, demand_mw={"d": 250.0}, available=available)
        assert merit_order_flows(short) is None
        lone = DispatchProblem(grid=grid, demand_mw={"d": 50.0}, available=frozenset())
        assert merit_order_flows(lone) is None


def assert_flows_match_power_flow(problem, solution):
    injections = {bid: -mw for bid, mw in problem.demand_mw.items()}
    for gid, mw in solution.generator_output_mw.items():
        bus = problem.grid.generator_by_id[gid].bus
        injections[bus] = injections.get(bus, 0.0) + mw
    reference = dc_power_flow(problem.grid, injections)
    assert reference.branch_ids == tuple(br.id for br in problem.grid.branches)
    assert np.max(np.abs(solution.flows_mw - reference.flows_mw), initial=0.0) <= 1e-6


class TestFlowsMatchPowerFlow:
    """Dispatch flows come from the sensitivities; dc_power_flow is the reference."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_networks(self, seed):
        rng = np.random.default_rng([37, seed])
        grid = random_connected_grid(rng, max_buses=15)
        gens = grid.generators + tuple(
            Generator(
                id=f"g{k}",
                bus=grid.buses[int(rng.integers(0, len(grid.buses)))].id,
                rated_mw=float(rng.integers(50, 200)),
                capacity_factor=1.0,
                technology="thermal",
            )
            for k in range(1, 4)
        )
        branches = tuple(
            Branch(br.id, br.from_bus, br.to_bus, br.kind, br.susceptance_pu,
                   float(rng.integers(30, 150)))
            for br in grid.branches
        )
        grid = Grid(buses=grid.buses, branches=branches, generators=gens)
        demand = {b.id: float(rng.integers(5, 40)) for b in grid.demand_buses}
        problem = DispatchProblem(
            grid=grid, demand_mw=demand, available=frozenset(g.id for g in gens)
        )
        sol = redispatch(problem)
        assert sol.status == "feasible"
        assert_flows_match_power_flow(problem, sol)

    @pytest.mark.parametrize("congested", [False, True], ids=["default", "congested"])
    def test_gb_like(self, congested_gb_like, congested):
        # 100 buses and 101 branches; the congested ratings make limit
        # rows bind, so those dispatches come from the simplex
        grid, fixture = congested_gb_like
        if not congested:
            grid = fixture.grid
        context = GridContext(grid)
        feasible = at_limit = 0
        for problem, _ in congested_cells(grid, fixture, 2, (0.0, 0.1, 0.2)):
            sol = redispatch(problem, context)
            if sol.status == "infeasible":
                continue
            assert_flows_match_power_flow(problem, sol)
            feasible += 1
            at_limit += bool(np.any(np.abs(sol.flows_mw) >= context.ratings * (1.0 - 1e-9)))
        assert feasible >= 4
        assert (at_limit > 0) == congested


class TestRedispatchAgainstAngleFormulation:
    """The sensitivity-based program must match an explicit angle-variable LP."""

    def _angle_lp_objective(self, grid, demand, available, penalty=10.0):
        linprog = pytest.importorskip("scipy.optimize").linprog
        slack = grid.buses[0].id
        gens = sorted(available)
        costs = generator_distance_costs(grid, demand, interconnector_penalty=penalty)
        n_bus = len(grid.buses)
        pos = {b.id: k for k, b in enumerate(grid.buses)}
        n_g = len(gens)
        n = n_g + n_bus

        c = np.concatenate([np.array([costs[g] for g in gens]), np.zeros(n_bus)])
        a_eq = np.zeros((n_bus, n))
        b_eq = np.zeros(n_bus)
        for k, gid in enumerate(gens):
            a_eq[pos[grid.generator_by_id[gid].bus], k] += 1.0
        for bid, mw in demand.items():
            b_eq[pos[bid]] += mw
        for br in grid.branches:
            coeff = grid.base_mva * br.susceptance_pu
            i, j = pos[br.from_bus], pos[br.to_bus]
            a_eq[i, n_g + i] -= coeff
            a_eq[i, n_g + j] += coeff
            a_eq[j, n_g + j] -= coeff
            a_eq[j, n_g + i] += coeff
        rows = []
        rhs = []
        for br in grid.branches:
            coeff = grid.base_mva * br.susceptance_pu
            row = np.zeros(n)
            row[n_g + pos[br.from_bus]] = coeff
            row[n_g + pos[br.to_bus]] = -coeff
            rows.append(row)
            rhs.append(br.rating_mw)
            rows.append(-row)
            rhs.append(br.rating_mw)
        bounds = [(0.0, grid.generator_by_id[g].derated_mw) for g in gens]
        bounds += [(0.0, 0.0) if b.id == slack else (None, None) for b in grid.buses]
        res = linprog(
            c, A_eq=a_eq, b_eq=b_eq, A_ub=np.array(rows), b_ub=np.array(rhs),
            bounds=bounds, method="highs",
        )
        return res

    @pytest.mark.parametrize("seed", range(10))
    def test_random_networks_agree(self, seed):
        rng = np.random.default_rng([31, seed])
        grid = random_connected_grid(rng, max_buses=12)
        demand_buses = [b.id for b in grid.demand_buses]
        if not demand_buses:
            pytest.skip("no demand buses drawn")
        gens = [
            Generator(
                id=f"g{k}",
                bus=grid.buses[int(rng.integers(0, len(grid.buses)))].id,
                rated_mw=float(rng.integers(50, 200)),
                capacity_factor=1.0,
                technology="thermal" if rng.random() < 0.8 else "interconnector",
            )
            for k in range(4)
        ]
        branches = tuple(
            Branch(br.id, br.from_bus, br.to_bus, br.kind, br.susceptance_pu,
                   float(rng.integers(40, 120)))
            for br in grid.branches
        )
        grid = Grid(buses=grid.buses, branches=branches, generators=tuple(gens))
        demand = {bid: float(rng.integers(5, 40)) for bid in demand_buses}

        context = GridContext(grid)
        problem = DispatchProblem(
            grid=grid, demand_mw=demand, available=frozenset(g.id for g in gens)
        )
        mine = redispatch(problem, context)
        ref = self._angle_lp_objective(grid, demand, problem.available)

        if mine.status == "infeasible":
            assert ref.status == 2
            return
        assert ref.status == 0
        costs = generator_distance_costs(grid, demand)
        my_obj = sum(costs[g] * mw for g, mw in mine.generator_output_mw.items())
        assert my_obj == pytest.approx(ref.fun, abs=1e-6 * (1 + abs(ref.fun)))
        assert check_limits(grid, mine.flows_mw) == ()


class TestSheddingLoop:
    def test_no_shedding_when_feasible(self):
        grid = chain_grid()
        problem = DispatchProblem(
            grid=grid, demand_mw={"b1": 20.0, "b3": 20.0}, available=frozenset({"gN", "gS"})
        )
        sol = dispatch_with_shedding(problem)
        assert sol.status == "feasible"
        assert sol.shed_mw == {}

    def test_energy_deficit_shed_in_tenths(self):
        grid = single_bus_grid(capacity=60.0)
        problem = DispatchProblem(grid=grid, demand_mw={"b": 100.0}, available=frozenset({"g"}))
        sol = dispatch_with_shedding(problem)
        assert sol.status == "feasible_with_shedding"
        assert sol.shed_mw == {"b": pytest.approx(40.0, abs=1e-9)}
        assert sol.generator_output_mw["g"] == pytest.approx(60.0, abs=1e-7)

    def test_shed_step_configurable(self):
        grid = single_bus_grid(capacity=95.0)
        problem = DispatchProblem(grid=grid, demand_mw={"b": 100.0}, available=frozenset({"g"}))
        sol = dispatch_with_shedding(problem, shed_step=0.01)
        assert sol.total_shed_mw == pytest.approx(5.0, abs=1e-9)

    def test_shedding_starts_next_to_removed_generator(self):
        grid = chain_grid()
        problem = DispatchProblem(
            grid=grid, demand_mw={"b1": 50.0, "b3": 50.0}, available=frozenset({"gS"})
        )
        sol = dispatch_with_shedding(problem, removed={"gN"})
        assert sol.status == "feasible_with_shedding"
        # b1 is one hop from the removed unit's bus, b3 is three: b1 drains first.
        assert sol.shed_mw == {"b1": pytest.approx(40.0, abs=1e-9)}

    def test_bus_drains_completely_before_next(self):
        grid = chain_grid()
        problem = DispatchProblem(
            grid=grid, demand_mw={"b1": 50.0, "b3": 50.0}, available=frozenset()
        )
        sol = dispatch_with_shedding(problem, removed={"gN", "gS"})
        assert sol.shed_mw["b1"] == pytest.approx(50.0)
        assert sol.shed_mw["b3"] == pytest.approx(50.0)
        assert sol.status == "feasible_with_shedding"
        assert sum(sol.generator_output_mw.values()) == pytest.approx(0.0, abs=1e-9)

    def test_nearest_of_several_removed_units(self):
        # p0 - p1 - ... - p8 with removed units at both ends. Nearest-of-both
        # ranks p1 (1 hop), p6 (2), p4 (4); p0 alone gives p1, p4, p6 (also
        # bus-id order) and p8 alone gives p6, p4, p1.
        buses = tuple(
            Bus(f"p{k}", 400.0, "demand", region="r") if k in (1, 4, 6)
            else Bus(f"p{k}", 400.0, "substation")
            for k in range(9)
        )
        branches = tuple(
            Branch(f"l{k}", f"p{k}", f"p{k + 1}", "line", 10.0, 1e3) for k in range(8)
        )
        grid = Grid(
            buses=buses,
            branches=branches,
            generators=(
                Generator("gA", "p0", 50.0, 1.0, "thermal"),
                Generator("gB", "p8", 50.0, 1.0, "thermal"),
                Generator("gC", "p2", 15.0, 1.0, "thermal"),
            ),
        )
        problem = DispatchProblem(
            grid=grid,
            demand_mw={"p1": 10.0, "p4": 10.0, "p6": 10.0},
            available=frozenset({"gC"}),
        )
        sheds = {
            removed: dispatch_with_shedding(problem, removed=set(removed)).shed_mw
            for removed in (("gA", "gB"), ("gA",), ("gB",))
        }
        # 15 MW must go: the first bus drains fully, the second loses half.
        assert sheds[("gA", "gB")] == {"p1": pytest.approx(10.0), "p6": pytest.approx(5.0)}
        assert sheds[("gA",)] == {"p1": pytest.approx(10.0), "p4": pytest.approx(5.0)}
        assert sheds[("gB",)] == {"p6": pytest.approx(10.0), "p4": pytest.approx(5.0)}

    def test_no_removal_order_falls_back_to_bus_id(self):
        grid = chain_grid()
        problem = DispatchProblem(
            grid=grid, demand_mw={"b1": 50.0, "b3": 50.0}, available=frozenset({"gN"})
        )
        sol = dispatch_with_shedding(problem)
        # 60 MW must go; b1 sheds its full 50 first, then b3 sheds 10.
        assert sol.shed_mw["b1"] == pytest.approx(50.0, abs=1e-9)
        assert sol.shed_mw["b3"] == pytest.approx(10.0, abs=1e-9)

    def test_congestion_resolved_by_local_shedding(self):
        # Southern generator can cover everything, but the line to the
        # northern demand bus is tight, so the north sheds after the
        # removal of its local unit.
        grid = chain_grid(ratings=(1e3, 25.0, 1e3, 1e3))
        problem = DispatchProblem(
            grid=grid, demand_mw={"b1": 50.0, "b3": 10.0}, available=frozenset({"gS"})
        )
        sol = dispatch_with_shedding(problem, removed={"gN"})
        assert sol.status == "feasible_with_shedding"
        assert sol.shed_mw["b1"] == pytest.approx(25.0, abs=1e-7)
        assert "b3" not in sol.shed_mw
        assert check_limits(grid, sol.flows_mw) == ()

    def test_feasible_window_between_rounds(self):
        # Triangle A-B-C with equal susceptances, one unit at A. B's demand
        # relieves A-B but its withdrawal draws C->B counterflow, so shedding
        # t MW at B is feasible only for t in [33, 36]: A-B (78 MW) needs
        # (300 - 2t)/3 <= 78 and B-C (12 MW) needs t/3 <= 12. No round of
        # 10 MW lands there, so B drains and C sheds until (100 - s)/3 <= 12.
        grid = Grid(
            buses=(
                Bus("A", 400.0, "generation"),
                Bus("B", 400.0, "demand", region="r1"),
                Bus("C", 400.0, "demand", region="r2"),
            ),
            branches=(
                Branch("ab", "A", "B", "line", 10.0, 78.0),
                Branch("bc", "B", "C", "line", 10.0, 12.0),
                Branch("ac", "A", "C", "line", 10.0, 1e3),
            ),
            generators=(
                Generator("gA", "A", 500.0, 1.0, "thermal"),
                Generator("gB", "B", 50.0, 1.0, "thermal"),
            ),
        )
        problem = DispatchProblem(
            grid=grid, demand_mw={"B": 100.0, "C": 100.0}, available=frozenset({"gA"})
        )
        sol = dispatch_with_shedding(problem, removed={"gB"})
        assert sol.shed_mw == {"B": 100.0, "C": pytest.approx(70.0)}
        assert (sol.status, sol.shed_mw) == reference_shedding(problem, {"gB"})

    def test_monotone_in_removal(self):
        grid = chain_grid()
        demand = {"b1": 50.0, "b3": 50.0}
        sheds = []
        for removed in [set(), {"gN"}, {"gN", "gS"}]:
            available = frozenset({"gN", "gS"} - removed)
            problem = DispatchProblem(grid=grid, demand_mw=demand, available=available)
            sheds.append(dispatch_with_shedding(problem, removed=removed).total_shed_mw)
        assert sheds[0] <= sheds[1] <= sheds[2]

    def test_removed_and_available_overlap_rejected(self):
        grid = single_bus_grid()
        problem = DispatchProblem(grid=grid, demand_mw={"b": 10.0}, available=frozenset({"g"}))
        with pytest.raises(ValidationError):
            dispatch_with_shedding(problem, removed={"g"})

    def test_bad_shed_step_rejected(self):
        grid = single_bus_grid()
        problem = DispatchProblem(grid=grid, demand_mw={"b": 10.0}, available=frozenset({"g"}))
        with pytest.raises(ValidationError):
            dispatch_with_shedding(problem, shed_step=0.0)

    def test_output_balances_remaining_demand(self):
        grid = chain_grid()
        problem = DispatchProblem(
            grid=grid, demand_mw={"b1": 80.0, "b3": 10.0}, available=frozenset({"gN", "gS"})
        )
        sol = dispatch_with_shedding(problem)
        served = 90.0 - sol.total_shed_mw
        assert sum(sol.generator_output_mw.values()) == pytest.approx(served, abs=1e-6)


class TestShedDeficit:
    """The energy-deficit rounds check the remaining demand only at bus
    boundaries, and stop where a check before every round stops
    (`oracles.reference_shed_deficit`), bit for bit. Ratings never bind
    here, so the cell settles at the first round after the deficit."""

    @pytest.mark.parametrize("seed", range(30))
    def test_stop_round_matches_the_per_round_loop(self, seed):
        rng = np.random.default_rng([61, seed])
        grid = random_connected_grid(rng, max_buses=12)
        demands = np.round(rng.uniform(0.5, 400.0, len(grid.buses)), int(rng.integers(0, 4)))
        original = {bus.id: float(mw) for bus, mw in zip(grid.buses, demands)}
        order = sorted(original)
        step = float(rng.choice([0.1, 0.05, 0.25, 0.3, 1.0]))
        total = sum(original.values())
        # the remaining demand after each round of the per-round loop
        shed = {bid: 0.0 for bid in original}
        deficits = [total]
        for bid in order:
            while shed[bid] < original[bid]:
                shed[bid] = min(original[bid], shed[bid] + step * original[bid])
                deficits.append(total - sum(shed.values()))
        picks = {0, 1, len(deficits) - 1} | set(rng.integers(0, len(deficits), 6).tolist())
        for k in sorted(picks):
            at_k = deficits[k] - 1e-9
            for capacity in (np.nextafter(at_k, -np.inf), at_k, np.nextafter(at_k, np.inf)):
                # a unit cannot be rated below zero: the last rounds get none
                capacity = max(float(capacity), 0.0)
                unit = Generator(
                    "u", "n00", max(capacity, 1.0), 1.0 if capacity else 0.0, "thermal"
                )
                assert unit.derated_mw == capacity
                problem = DispatchProblem(
                    grid=replace(grid, generators=(unit,)),
                    demand_mw=original,
                    available=frozenset({"u"}),
                )
                sol = dispatch_with_shedding(problem, shed_step=step)
                expected = reference_shed_deficit(original, order, step, capacity)
                assert sol.shed_mw == {bid: mw for bid, mw in expected.items() if mw > 0.0}


class TestStackedFill:
    """`dispatch._fill` over a stack of rows against the loop it replaced
    (`oracles.reference_fill`), bit for bit: outputs, marginal unit and
    the capacity-short verdict, with totals at each prefix of the sorted
    caps, one ulp either side, and at the tolerance of a shortfall."""

    @pytest.mark.parametrize("seed", range(10))
    def test_rows_match_the_loop(self, seed):
        rng = np.random.default_rng([71, seed])
        n = int(rng.integers(1, 9))
        rows = []
        for _ in range(8):
            costs = rng.choice([1.0, 2.0, 2.5, 3.0], n)  # ties fill in index order
            upper = np.round(rng.uniform(0.0, 90.0, n), int(rng.integers(1, 4)))
            upper[rng.random(n) < 0.15] = 0.0
            remains = [0.0]
            for cap in upper[np.argsort(costs, kind="stable")]:
                remains.append(remains[-1] + cap)
            for total in remains[1:] + [remains[-1] + FEASIBILITY_TOL, remains[-1] + 1.0]:
                for value in (np.nextafter(total, -np.inf), total, np.nextafter(total, np.inf)):
                    rows.append((costs, upper, max(float(value), 0.0)))
        output, marginal = dispatch_module._fill(
            np.array([r[0] for r in rows]), np.array([r[1] for r in rows]), np.array([r[2] for r in rows])
        )
        verdicts = set()
        for row, x, k in zip(rows, output, marginal.tolist()):
            expected = reference_fill(*row)
            verdicts.add(expected is None)
            assert k == (-1 if expected is None else expected[1]), row
            if expected is not None:
                assert x.tolist() == expected[0].tolist(), row
        assert verdicts == {True, False}


class TestStackedShedDeficit:
    """`dispatch._shed_deficit` over a stack of cells, each row against the
    per-round loop (`oracles.reference_shed_deficit`), bit for bit: rows
    that share nothing, in loads with zero-demand buses anywhere in the
    load and shedding orders, with capacities one ulp either side of each
    round's boundary."""

    @staticmethod
    def cell(rng, n_buses):
        """(original, order) of a random load: bus ids in load order, some
        without demand, and a shedding order over them."""
        ids = [f"b{k:02d}" for k in rng.permutation(n_buses)]
        demands = np.round(rng.uniform(0.5, 400.0, n_buses), int(rng.integers(0, 4)))
        demands[rng.random(n_buses) < 0.2] = 0.0
        original = {bid: float(mw) for bid, mw in zip(ids, demands)}
        return original, [ids[k] for k in rng.permutation(n_buses)]

    @staticmethod
    def boundaries(original, order, step):
        """The capacity at which each round of the per-round loop stops it."""
        total, shed, stops = sum(original.values()), dict.fromkeys(original, 0.0), []
        for bid in order:
            while shed[bid] < original[bid]:
                stops.append(total - sum(shed.values()) - 1e-9)
                shed[bid] = min(original[bid], shed[bid] + step * original[bid])
        return stops + [total - sum(shed.values()) - 1e-9]

    @pytest.mark.parametrize("step", [1.0, 0.3, 0.05])
    @pytest.mark.parametrize("seed", range(8))
    def test_rows_match_the_per_round_loop(self, seed, step):
        rng = np.random.default_rng([67, seed])
        n_buses = int(rng.integers(1, 12))
        cells = []
        for _ in range(6):
            original, order = self.cell(rng, n_buses)
            stops = self.boundaries(original, order, step)
            picks = {0, len(stops) - 1} | set(rng.integers(0, len(stops), 4).tolist())
            for k in sorted(picks):
                for capacity in (np.nextafter(stops[k], -np.inf), stops[k], np.nextafter(stops[k], np.inf)):
                    cells.append((original, order, max(float(capacity), 0.0)))
            # nothing removed: capacity to spare; every bus drains: none
            cells += [(original, order, sum(original.values()) + 1.0), (original, order, 0.0)]
        demand = np.array([list(original.values()) for original, _, _ in cells])
        rank = np.array([[order.index(bid) for bid in original] for original, order, _ in cells])
        capacity = np.array([capacity for _, _, capacity in cells])
        total = np.array([sum(original.values()) for original, _, _ in cells])
        shed = dispatch_module._shed_deficit(demand, rank, step, capacity, total)
        for row, (original, order, capacity) in zip(shed, cells):
            expected = reference_shed_deficit(original, order, step, capacity)
            assert row.tolist() == list(expected.values()), (original, order, capacity)
        assert (shed == demand).all(axis=1).any() and not shed[-2].any()


def congested_case(rng):
    """A random grid with several units, tight ratings and removed units.

    Ratings are drawn around the flows of an uncapped dispatch, so branch
    limits bind; returns (problem, removed, shed_step).
    """
    grid = random_connected_grid(rng, max_buses=14)
    gens = tuple(
        Generator(
            id=f"u{k}",
            bus=grid.buses[int(rng.integers(0, len(grid.buses)))].id,
            rated_mw=float(rng.integers(20, 150)),
            capacity_factor=1.0,
            technology="interconnector" if rng.random() < 0.15 else "thermal",
        )
        for k in range(int(rng.integers(3, 7)))
    )
    if all(g.is_international for g in gens):
        gens = (replace(gens[0], technology="thermal"),) + gens[1:]
    demand = {b.id: float(rng.integers(5, 60)) for b in grid.demand_buses}
    loose = Grid(buses=grid.buses, branches=grid.branches, generators=gens)
    everything = frozenset(g.id for g in gens)
    flows = merit_order_flows(DispatchProblem(grid=loose, demand_mw=demand, available=everything))
    if flows is None:
        flows = rng.uniform(10.0, 100.0, len(grid.branches))
    branches = tuple(
        replace(br, rating_mw=float(np.round(max(1.0, rng.uniform(0.3, 1.1) * abs(flow)), 3)))
        for br, flow in zip(grid.branches, flows)
    )
    grid = Grid(buses=grid.buses, branches=branches, generators=gens)
    ids = sorted(everything)
    removed = frozenset(
        ids[k] for k in rng.choice(len(ids), size=int(rng.integers(0, 3)), replace=False)
    )
    problem = DispatchProblem(grid=grid, demand_mw=demand, available=everything - removed)
    return problem, removed, float(rng.choice([0.1, 0.05, 0.25, 0.3]))


class TestSheddingAgainstReference:
    """Shed vectors and statuses equal those of the loop that runs the
    simplex after every round (tests/oracles.reference_shedding)."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_congested_grids(self, seed):
        problem, removed, step = congested_case(np.random.default_rng([47, seed]))
        context = GridContext(problem.grid)
        sol = dispatch_with_shedding(problem, removed, shed_step=step, context=context)
        status, shed = reference_shedding(problem, removed, step, context)
        assert (sol.status, sol.shed_mw) == (status, shed)
        assert check_limits(problem.grid, sol.flows_mw, tolerance=1e-6) == ()
        served = sum(problem.demand_mw.values()) - sol.total_shed_mw
        assert sum(sol.generator_output_mw.values()) == pytest.approx(served, abs=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("offset", [-1e-9, -1e-10, 0.0, 1e-10, 1e-9])
    def test_least_shed_on_a_round_boundary(self, seed, offset):
        # All demand sits on one bus fed from n00 over the network, and one
        # branch is rated so that the least feasible shed is a round
        # boundary plus `offset` MW.
        rng = np.random.default_rng([53, seed])
        grid = random_connected_grid(rng, max_buses=12)
        bus = grid.demand_buses[int(rng.integers(0, len(grid.demand_buses)))].id
        gens = (
            Generator("g0", "n00", 700.0, 1.0, "thermal"),
            Generator("g1", "n00", 300.0, 1.0, "thermal"),
            Generator("gx", bus, 100.0, 1.0, "thermal"),
        )
        grid = Grid(buses=grid.buses, branches=grid.branches, generators=gens)
        context = GridContext(grid)
        column = context.sensitivity[:, grid.bus_index[bus]]
        worst = int(np.argmax(np.abs(column)))
        demand = float(rng.integers(50, 400))
        step = 0.1
        boundary = 0.0
        for _ in range(int(rng.integers(1, 9))):
            boundary = min(demand, boundary + step * demand)
        rating = (demand - (boundary + offset)) * abs(column[worst])
        branches = tuple(
            replace(br, rating_mw=rating) if k == worst else br
            for k, br in enumerate(grid.branches)
        )
        grid = Grid(buses=grid.buses, branches=branches, generators=gens)
        context = GridContext(grid)
        problem = DispatchProblem(
            grid=grid, demand_mw={bus: demand}, available=frozenset({"g0", "g1"})
        )
        sol = dispatch_with_shedding(problem, {"gx"}, shed_step=step, context=context)
        status, shed = reference_shedding(problem, {"gx"}, step, context)
        assert (sol.status, sol.shed_mw) == (status, shed)
        assert sol.shed_mw[bus] in (boundary, min(demand, boundary + step * demand))


@pytest.fixture(scope="module")
def congested_gb_like():
    return gb_like_congested()


def congested_cells(grid, fixture, n_orderings, fractions):
    """(problem, removed) for the sweep cells of the congested gb-like grid."""
    solar = _solar_ids(grid)
    everything = frozenset(grid.generator_by_id)
    for ordering in generate_orderings(grid, n_orderings, 7):
        for fraction in fractions:
            removed = removal_sets(ordering, grid, [fraction])[0] | solar
            for scenario in ("current", "heat_pump"):
                demand = bus_demand(grid, fixture.profiles[scenario], 427)
                problem = DispatchProblem(
                    grid=grid, demand_mw=demand, available=everything - removed
                )
                yield problem, removed


class TestGbLikeCongested:
    def test_cells_match_reference(self, congested_gb_like):
        grid, fixture = congested_gb_like
        context = GridContext(grid)
        shed_cells = 0
        for problem, removed in congested_cells(grid, fixture, 2, (0.1, 0.2, 0.25, 0.3)):
            sol = dispatch_with_shedding(problem, removed, context=context)
            assert (sol.status, sol.shed_mw) == reference_shedding(problem, removed, 0.1, context)
            shed_cells += sol.status == "feasible_with_shedding"
        assert shed_cells >= 4

    def test_every_unit_removed_sheds_everything(self, congested_gb_like):
        grid, fixture = congested_gb_like
        demand = bus_demand(grid, fixture.profiles["current"], 427)
        problem = DispatchProblem(grid=grid, demand_mw=demand, available=frozenset())
        removed = frozenset(grid.generator_by_id)
        sol = dispatch_with_shedding(problem, removed)
        assert (sol.status, sol.shed_mw) == reference_shedding(problem, removed)
        assert sol.status == "feasible_with_shedding"
        assert sol.shed_mw == {bid: mw for bid, mw in demand.items() if mw > 0.0}
        assert sol.total_shed_mw == pytest.approx(sum(demand.values()))
        assert sol.generator_output_mw == {}
        assert not sol.flows_mw.any()


def checked_limited_lps(patch, run):
    """Run `run` with every `dispatch._limited_lp` call also solved by the
    cold loop (`oracles.reference_limited_lp`); returns (objective, ours,
    reference) per call."""
    calls = []
    limited_lp = dispatch_module._limited_lp

    def checked(*args):
        ours = limited_lp(*args)
        calls.append((args[0], ours, reference_limited_lp(*args)))
        return ours

    patch.setattr(dispatch_module, "_limited_lp", checked)
    run()
    patch.undo()
    return calls


def assert_same_limited_lp(objective, ours, reference):
    """Same feasibility verdict and, where feasible, the same optimal value
    to 1e-9 relative: for a least-shed program the least extra shed."""
    assert (ours is None) == (reference is None)
    if ours is not None:
        assert objective @ ours == pytest.approx(objective @ reference, rel=1e-9, abs=0.0)


class TestLimitedLpAgainstColdLoop:
    """The fill start and the warm dual simplex against the loop that
    re-solves every round cold, on the programs the sweep solves."""

    def test_random_congested_grids(self, monkeypatch):
        verdicts = set()
        least_shed = 0
        for seed in range(60):
            problem, removed, step = congested_case(np.random.default_rng([47, seed]))
            context = GridContext(problem.grid)

            def run():
                dispatch_with_shedding(problem, removed, shed_step=step, context=context)
                redispatch(problem, context)

            for objective, ours, reference in checked_limited_lps(monkeypatch, run):
                assert_same_limited_lp(objective, ours, reference)
                verdicts.add(ours is None)
                least_shed += objective[-1] == 1.0 and not objective[:-1].any()
        assert verdicts == {True, False} and least_shed >= 20

    def test_gb_like_congested_cells(self, congested_gb_like, monkeypatch):
        grid, fixture = congested_gb_like
        context = GridContext(grid)

        def run():
            for problem, removed in congested_cells(grid, fixture, 2, (0.1, 0.2, 0.25, 0.3)):
                dispatch_with_shedding(problem, removed, context=context)

        calls = checked_limited_lps(monkeypatch, run)
        for objective, ours, reference in calls:
            assert_same_limited_lp(objective, ours, reference)
        assert {ours is None for _, ours, _ in calls} == {True, False}
        assert len(calls) >= 20


class TestCapacityShortBoundary:
    """The fill calls capacity short of the total infeasible exactly where
    phase 1 of the cold simplex does: when the shortfall, the caps taken
    off the total in index order, exceeds FEASIBILITY_TOL * (1 + total).
    With the caps (49.1, 1.1, ...) the fill's own (cost) order would round
    the boundary shortfall past the tolerance."""

    TOTAL = 100.0
    TOLERANCE = FEASIBILITY_TOL * (1.0 + TOTAL)
    OBJECTIVE = np.array([3.0, 1.0, 2.0])
    LEADING = [(40.0, 30.0), (49.1, 1.1)]

    def caps(self, leading, ulps=0, less=0.0):
        """Caps [*leading, cap]: at ulps=0 the last cap is the smallest
        with the shortfall within the tolerance; ulps moves it by that many
        ulps, and less takes that much more off it."""
        first, second = leading

        def shortfall(cap):
            return ((self.TOTAL - first) - second) - cap

        cap = shortfall(0.0) - self.TOLERANCE
        while shortfall(cap) > self.TOLERANCE:
            cap = np.nextafter(cap, np.inf)
        while shortfall(np.nextafter(cap, -np.inf)) <= self.TOLERANCE:
            cap = np.nextafter(cap, -np.inf)
        assert shortfall(cap) == pytest.approx(self.TOLERANCE, rel=1e-8)
        for _ in range(abs(ulps)):
            cap = np.nextafter(cap, np.inf if ulps > 0 else -np.inf)
        return np.array([first, second, cap - less])

    def args(self, upper, rating):
        # rating 1e3: no limit row; 95 and 99.9: the fill overloads the
        # branch, so the warm solve starts from the fill's basis
        cols = np.ones((1, 3)) if rating == 1e3 else np.array([[1.0, 1.0, 0.0]])
        return (self.OBJECTIVE, cols, np.zeros(1), np.array([rating]), upper, self.TOTAL)

    @pytest.mark.parametrize("leading", LEADING)
    @pytest.mark.parametrize("rating", [1e3, 95.0, 99.9])
    @pytest.mark.parametrize("ulps, less", [(1, 0.0), (-1, 0.0), (0, 1e-9), (0, 1e-6)])
    def test_verdicts_match_the_cold_simplex(self, leading, rating, ulps, less):
        args = self.args(self.caps(leading, ulps, less), rating)
        ours = dispatch_module._limited_lp(*args)
        assert (ours is None) == (ulps < 0 or less > 0.0)
        assert_same_limited_lp(self.OBJECTIVE, ours, reference_limited_lp(*args))

    @pytest.mark.parametrize("leading", LEADING)
    @pytest.mark.parametrize("rating", [1e3, 95.0, 99.9])
    def test_short_by_the_tolerance(self, leading, rating):
        # Phase 1 accepts this shortfall, so the cold simplex never calls
        # it infeasible, but its residual check sums the outputs in another
        # order and lands one rounding past the tolerance.
        args = self.args(self.caps(leading), rating)
        assert dispatch_module._limited_lp(*args) is not None
        with pytest.raises(NumericalBreakdown, match="residual"):
            reference_limited_lp(*args)


class TestHashSeedIndependence:
    """Capacity 0.1 + 0.2 + 0.3 MW sums to 0.6 or 0.6000000000000001 by
    order, and demand sits between the two `capacity + 1e-9` thresholds,
    so a sum in set order sheds one round under some hash seeds and none
    under others. Hash seeds 0 and 3 iterate the set in an order summing
    to 0.6, seeds 1 and 2 in one summing to 0.6000000000000001."""

    CELL = """
import numpy as np
from gridshock.dispatch import DispatchProblem, dispatch_with_shedding
from gridshock.grid import Bus, Generator, Grid

caps = {"g1": 0.1, "g2": 0.2, "g3": 0.3}
grid = Grid(
    buses=(Bus("b", 400.0, "demand", region="r"),),
    branches=(),
    generators=tuple(Generator(g, "b", mw, 1.0, "thermal") for g, mw in caps.items()),
)
available = frozenset(caps)
demand = float(np.nextafter(0.6 + 1e-9, np.inf))
assert 0.6 + 1e-9 < demand <= 0.6000000000000001 + 1e-9
sol = dispatch_with_shedding(DispatchProblem(grid=grid, demand_mw={"b": demand}, available=available))
print(repr(sum(caps[g] for g in available)))
print(sol.status, repr(sol.shed_mw))
"""

    def test_one_result_under_every_hash_seed(self):
        runs = [run_python(["-c", self.CELL], seed).splitlines() for seed in (0, 1, 2, 3)]
        assert {set_order_sum for set_order_sum, _ in runs} == {"0.6", "0.6000000000000001"}
        assert len({result for _, result in runs}) == 1


class TestNoColdDispatchLp:
    def test_no_dispatch_program_starts_cold(self, congested_gb_like):
        # the 16 cells fill the balance-only program in closed form; every
        # program with limit rows starts warm, and the calibration dispatch
        # is the fill alone
        grid, fixture = congested_gb_like
        calls = []

        def recording(lp, **kwargs):
            calls.append((lp, kwargs.get("start")))
            return lp_solve(lp, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dispatch_module, "lp_solve", recording)
            context = GridContext(grid)
            cells = list(congested_cells(grid, fixture, 2, (0.1, 0.2, 0.25, 0.3)))
            assert len(cells) == 16
            for problem, removed in cells:
                dispatch_with_shedding(problem, removed, context=context)
            sweep = len(calls)
            assert merit_order_flows(cells[0][0]) is not None
            calibrate_ratings(grid, fixture.profiles["current"])
        assert sweep >= 10
        assert len(calls) == sweep
        assert all(lp.a_ub is not None and start is not None for lp, start in calls)


@pytest.fixture(scope="module")
def congested_dispatch_lps(congested_gb_like):
    """Every (program, keyword arguments) lp_solve sees in 32 cells of the
    congested gb-like sweep."""
    grid, fixture = congested_gb_like
    programs = []

    def recording(lp, **kwargs):
        programs.append((lp, kwargs))
        return lp_solve(lp, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dispatch_module, "lp_solve", recording)
        context = GridContext(grid)
        for problem, removed in congested_cells(grid, fixture, 4, (0.1, 0.15, 0.2, 0.3)):
            dispatch_with_shedding(problem, removed, context=context)
    return programs


class TestDispatchLpsAgainstHighs:
    """lp_solve against HiGHS on the dispatch programs the congested gb-like
    sweep solves, warm from the starts the sweep gave them: least-cost
    programs with limit rows and least-shed programs for one bus."""

    def test_pipeline_programs(self, congested_dispatch_lps):
        linprog = pytest.importorskip("scipy.optimize").linprog
        programs = congested_dispatch_lps

        def least_shed(lp):
            return lp.objective[-1] == 1.0 and not lp.objective[:-1].any()

        limited = [(lp, kw) for lp, kw in programs if lp.a_ub is not None and not least_shed(lp)]
        segments = [(lp, kw) for lp, kw in programs if least_shed(lp)]
        assert len(limited) >= 10 and len(segments) >= 10
        statuses = set()
        for lp, kwargs in limited + segments:
            assert kwargs["start"] is not None
            ours = lp_solve(lp, **kwargs)
            highs = linprog(
                lp.objective,
                A_ub=lp.a_ub,
                b_ub=lp.b_ub,
                A_eq=lp.a_eq,
                b_eq=lp.b_eq,
                bounds=lp.bounds,
                method="highs",
                options={
                    "primal_feasibility_tolerance": 1e-10,
                    "dual_feasibility_tolerance": 1e-10,
                },
            )
            statuses.add(ours.status)
            assert (ours.status, highs.status) in (("optimal", 0), ("infeasible", 2))
            if ours.status == "optimal":
                assert ours.objective_value == pytest.approx(highs.fun, rel=1e-9, abs=1e-9)
        assert statuses == {"optimal", "infeasible"}


class TestDispatchLpsAgainstReferenceKernel:
    def test_pipeline_programs(self, congested_dispatch_lps):
        statuses = set()
        for lp, _ in congested_dispatch_lps:
            ours = lp_solve(lp)
            assert_same_lp_solution(ours, reference_lp_solve(lp))
            statuses.add(ours.status)
        assert statuses == {"optimal", "infeasible"}
