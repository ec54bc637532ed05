"""Whole-system checks gating a release.

Each test covers one headline guarantee: solver-against-oracle agreement,
analytic network solutions, shedding energy balance, the qualitative
ordering of demand scenarios, economic-model identities, exact analysis
arithmetic, and byte-level reproducibility. Every test prints a single
[PASS]/[FAIL] line with the measured evidence; run with `pytest -s` to
see the lines for passing tests.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from statistics import median

import numpy as np
import pytest

from gridshock.analysis import (
    CostCurve,
    CurvePoint,
    RegionalChange,
    build_cost_curve,
    marginal_cost_per_gw,
    population_shares,
)
from gridshock.cli import main
from gridshock.dispatch import DispatchProblem, dispatch_with_shedding
from gridshock.failures import calibrate_ratings, run_experiment
from gridshock.grid import Branch, Bus, Generator, Grid, Region, RegionTable
from gridshock.mria import SupplyUseModel, assess_impact
from gridshock.numerics import LinearProgram, lp_solve
from gridshock.profiles import HOURS_PER_YEAR, DemandProfile
from gridshock.runconfig import DEFAULT_LOSS_FRACTIONS
from gridshock.synthetic import generate_gb_like, generate_small

from helpers import (
    bus_balances,
    experiment_config,
    first_impact_fraction,
    random_connected_grid,
    random_injections,
    records_of,
)
from oracles import (
    dc_power_flow,
    enumerate_lp,
    random_box_lp,
    random_infeasible_lp,
    random_unbounded_lp,
)

SCENARIOS = ("current", "heat_pump", "efficiency", "flat")
STEP = DEFAULT_LOSS_FRACTIONS[1] - DEFAULT_LOSS_FRACTIONS[0]


@contextmanager
def criterion(name: str):
    """Print exactly one verdict line for the enclosed checks."""
    detail = {"text": "checks completed"}
    try:
        yield lambda text: detail.update(text=text)
    except Exception as exc:
        print(f"[FAIL] {name}: {exc}")
        raise
    print(f"[PASS] {name}: {detail['text']}")


def lp_from_parts(parts) -> LinearProgram:
    c, a_eq, b_eq, a_ub, b_ub, lo, hi = parts
    return LinearProgram(
        objective=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
        bounds=np.column_stack([lo, hi]),
    )


def copper_plate_grid(n_units: int, unit_mw: float) -> Grid:
    buses = (
        Bus("b0", 132.0, "demand", region="r1"),
        Bus("b1", 132.0, "generation"),
    )
    branches = (Branch("l0", "b0", "b1", "line", 10.0, 1e6),)
    gens = tuple(
        Generator(f"g{k}", "b1", unit_mw, 1.0, "thermal") for k in range(n_units)
    )
    return Grid(buses=buses, branches=branches, generators=gens)


def test_lp_solver_agrees_with_vertex_enumeration():
    with criterion("lp-oracle") as report:
        start = time.perf_counter()
        worst = 0.0
        for seed in range(200):
            rng = np.random.default_rng([311, seed])
            parts = random_box_lp(rng)
            sol = lp_solve(lp_from_parts(parts))
            status, objective, _ = enumerate_lp(*parts)
            assert status == "optimal" and sol.status == "optimal", f"seed {seed}"
            diff = abs(sol.objective_value - objective)
            assert diff <= 1e-8, f"seed {seed}: objective off by {diff:.3e}"
            worst = max(worst, diff)
        for seed in range(25):
            rng = np.random.default_rng([313, seed])
            parts = random_infeasible_lp(rng)
            sol = lp_solve(lp_from_parts(parts))
            status, _, _ = enumerate_lp(*parts)
            assert sol.status == status == "infeasible", f"seed {seed}: {sol.status}"
        for seed in range(25):
            # unbounded by construction (free negatively costed column),
            # which the finite-box oracle cannot enumerate
            rng = np.random.default_rng([317, seed])
            sol = lp_solve(lp_from_parts(random_unbounded_lp(rng)))
            assert sol.status == "unbounded", f"seed {seed}: {sol.status}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"
        report(
            f"250 programs, worst objective gap {worst:.2e} <= 1e-8, "
            f"50/50 status agreements, {elapsed:.1f}s"
        )


def test_power_flow_analytic_solutions_and_properties():
    with criterion("power-flow") as report:
        start = time.perf_counter()
        pair = Grid(
            buses=(Bus("n1", 400.0, "generation"), Bus("n2", 400.0, "demand", region="r")),
            branches=(Branch("l", "n1", "n2", "line", 10.0, 500.0),),
            generators=(Generator("g", "n1", 200.0, 1.0, "thermal"),),
        )
        sol = dc_power_flow(pair, {"n1": 100.0, "n2": -100.0}, slack_bus="n1")
        assert abs(sol.flow_of["l"] - 100.0) <= 1e-6

        triangle = Grid(
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
        sol = dc_power_flow(triangle, {"n1": 100.0, "n2": -100.0}, slack_bus="n3")
        for branch, expected in (("a", 200.0 / 3.0), ("b", 100.0 / 3.0), ("c", 100.0 / 3.0)):
            assert abs(sol.flow_of[branch] - expected) <= 1e-6, branch

        for seed in range(100):
            rng = np.random.default_rng([331, seed])
            grid = random_connected_grid(rng)
            inj = random_injections(rng, grid)
            slack = grid.buses[int(rng.integers(0, len(grid.buses)))].id
            solution = dc_power_flow(grid, inj, slack_bus=slack)
            scale = 1.0 + max(abs(v) for v in inj.values())

            total = sum(inj.values())
            for bus, residual in bus_balances(grid, inj, solution).items():
                expected = total if bus == slack else 0.0
                assert abs(residual - expected) <= 1e-6 * scale, f"seed {seed} bus {bus}"

            doubled = dc_power_flow(grid, {k: 2.0 * v for k, v in inj.items()}, slack_bus=slack)
            assert np.allclose(doubled.flows_mw, 2.0 * solution.flows_mw, atol=1e-6 * scale)

            other = random_injections(rng, grid)
            combined = {k: inj[k] + other[k] for k in inj}
            lhs = dc_power_flow(grid, combined, slack_bus=slack).flows_mw
            rhs = solution.flows_mw + dc_power_flow(grid, other, slack_bus=slack).flows_mw
            assert np.allclose(lhs, rhs, atol=1e-6 * scale)

            balanced = dict(inj)
            last = grid.buses[-1].id
            balanced[last] = balanced.get(last, 0.0) - sum(balanced.values())
            flows = [
                dc_power_flow(grid, balanced, slack_bus=s).flows_mw
                for s in (grid.buses[0].id, grid.buses[-1].id)
            ]
            assert np.allclose(flows[0], flows[1], atol=1e-6 * scale)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"
        report(
            "2-bus and 3-bus flows within 1e-6 MW; conservation, linearity, "
            f"superposition, slack invariance on 100 networks, {elapsed:.1f}s"
        )


def test_copper_plate_shedding_matches_energy_balance():
    with criterion("copper-plate-shed") as report:
        shed_step = 0.1
        worst = 0.0
        for capacity in np.linspace(20.0, 200.0, 10):
            grid = copper_plate_grid(1, float(capacity))
            for demand in np.linspace(10.0, 260.0, 10):
                problem = DispatchProblem(
                    grid=grid,
                    demand_mw={"b0": float(demand)},
                    available=frozenset(g.id for g in grid.generators),
                )
                sol = dispatch_with_shedding(problem, shed_step=shed_step)
                expected = max(0.0, float(demand) - float(capacity))
                gap = abs(sol.total_shed_mw - expected)
                assert gap <= shed_step * float(demand) + 1e-9, (
                    f"capacity {capacity:.0f}, demand {demand:.0f}: "
                    f"shed {sol.total_shed_mw:.2f} vs balance {expected:.2f}"
                )
                worst = max(worst, gap)
        report(
            "100 (capacity, demand) cells: shed within one shed_step of "
            f"max(0, demand - capacity), worst gap {worst:.2f} MW"
        )


def test_first_impact_ordering_across_demand_scenarios():
    with criterion("first-impact-ordering") as report:
        start = time.perf_counter()
        fixture = generate_gb_like(0)
        grid = calibrate_ratings(
            fixture.grid, fixture.profiles["current"],
            headroom=1.2, interconnector_penalty=10.0,
        )
        hours = tuple((s, fixture.profiles[s].peak_hour()) for s in SCENARIOS)
        config = experiment_config(
            hours=hours, n_orderings=50,
            loss_fractions=DEFAULT_LOSS_FRACTIONS, master_seed=0,
        )
        table = run_experiment(grid, fixture.profiles, config, workers=4)

        # lost energy is the cost proxy: the economic charge is zero right
        # up to the first shed and positive after it, so first-impact
        # fractions coincide
        records = records_of(table)
        costs = np.array([r.total_unserved_mw for r in records])
        medians = {}
        for scenario in SCENARIOS:
            per_ordering = []
            for index in range(config.n_orderings):
                cells = sorted(
                    (r for r in records
                     if r.scenario == scenario and r.ordering_index == index),
                    key=lambda r: r.loss_fraction,
                )
                first = next(
                    (r.loss_fraction for r in cells if r.total_unserved_mw > 0.0), None
                )
                assert first is not None, f"{scenario} ordering {index} never sheds"
                per_ordering.append(first)
            medians[scenario] = float(median(per_ordering))
            pooled = first_impact_fraction(build_cost_curve(table, costs, scenario))
            assert pooled == medians[scenario], (
                f"{scenario}: pooled-median curve {pooled} vs "
                f"ordering median {medians[scenario]}"
            )
        elapsed = time.perf_counter() - start
        ordered = ("heat_pump", "current", "efficiency", "flat")
        for earlier, later in zip(ordered, ordered[1:]):
            gap = medians[later] - medians[earlier]
            assert gap >= STEP - 1e-12, (
                f"{later} ({medians[later]}) not a full step above "
                f"{earlier} ({medians[earlier]})"
            )
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
        report(
            "median first impact "
            + " < ".join(f"{s}={medians[s]}" for s in ordered)
            + f", gaps >= {STEP}, 50 orderings in {elapsed:.1f}s"
        )


def test_copper_plate_first_impact_at_capacity_margin():
    with criterion("impact-threshold") as report:
        capacity, peak = 200.0, 128.0
        grid = copper_plate_grid(20, 10.0)
        profile = DemandProfile(
            scenario="current", regions=("r1",),
            hours=np.arange(1), demand_mw=np.array([[peak]]),
        )
        config = experiment_config(
            hours=(("current", 0),), n_orderings=3,
            loss_fractions=DEFAULT_LOSS_FRACTIONS, master_seed=5,
        )
        table = run_experiment(grid, {"current": profile}, config)
        costs = np.array([r.total_unserved_mw for r in records_of(table)])
        first = first_impact_fraction(build_cost_curve(table, costs, "current"))
        margin = (capacity - peak) / capacity
        assert first is not None and abs(first - margin) <= STEP + 1e-12, (
            f"first impact {first} vs margin {margin}"
        )
        report(f"first impact {first} within one step of margin {margin}")


def one_region_model(alpha: float) -> SupplyUseModel:
    return SupplyUseModel(
        regions=("A",),
        industries=("mfg",),
        products=("good",),
        supply=np.array([[[100.0]]]),
        use=np.array([[[20.0]]]),
        final_demand=np.array([[80.0]]),
        value_added_coeff=np.array([[0.5]]),
        trade_allowed=np.zeros((1, 1, 1), dtype=bool),
        overcapacity=alpha,
    )


def two_region_chain(trade_enabled: bool) -> SupplyUseModel:
    """Region A's factory runs on region A's power; B holds spare power."""
    supply = np.zeros((2, 2, 2))
    supply[0, 1, 0] = 50.0
    supply[0, 0, 1] = 100.0
    supply[1, 1, 0] = 50.0
    use = np.zeros((2, 2, 2))
    use[0, 0, 0] = 40.0
    trade = np.zeros((2, 2, 2), dtype=bool)
    if trade_enabled:
        trade[1, 0, 0] = True
    return SupplyUseModel(
        regions=("A", "B"),
        industries=("factory", "power"),
        products=("elec", "goods"),
        supply=supply,
        use=use,
        final_demand=np.array([[10.0, 100.0], [50.0, 0.0]]),
        value_added_coeff=np.full((2, 2), 0.5),
        trade_allowed=trade,
        overcapacity=0.2,
    )


def two_region_diagonal() -> SupplyUseModel:
    supply = np.zeros((2, 2, 2))
    supply[0, 0, 0] = 100.0
    supply[0, 1, 1] = 60.0
    supply[1, 0, 0] = 80.0
    supply[1, 1, 1] = 40.0
    use = np.zeros((2, 2, 2))
    use[0, 0, 1] = 12.0
    use[0, 1, 0] = 30.0
    use[1, 0, 1] = 8.0
    use[1, 1, 0] = 16.0
    return SupplyUseModel(
        regions=("A", "B"),
        industries=("i1", "i2"),
        products=("p1", "p2"),
        supply=supply,
        use=use,
        final_demand=np.array([[88.0, 30.0], [72.0, 24.0]]),
        value_added_coeff=np.full((2, 2), 0.4),
        trade_allowed=np.zeros((2, 2, 2), dtype=bool),
        overcapacity=0.025,
    )


def test_economic_impact_identities():
    with criterion("economic-identities") as report:
        for model in (one_region_model(0.025), two_region_chain(True), two_region_diagonal()):
            baseline_va = float(
                (model.value_added_coeff * model.baseline_output).sum()
            )
            [result] = assess_impact(model, np.zeros((1, len(model.regions), 1)))
            assert result.total_cost <= 1e-6 * max(1.0, baseline_va)
            assert np.abs(result.delta_va).max() <= 1e-6 * max(1.0, baseline_va)

        # hand result: capacity 90 against final demand 80 under a 0.2
        # input share forces x = 90, rationing 8, value added down 5
        [hand] = assess_impact(one_region_model(0.0), np.array([[[0.1]]]))
        annual_va = HOURS_PER_YEAR * hand.delta_va[0, 0]
        assert annual_va == -5.0, f"delta va {annual_va!r}"
        assert HOURS_PER_YEAR * hand.total_cost == 5.0

        # each model prices all its shocks in one call
        rng = np.random.default_rng(41)
        deltas = []
        for _ in range(12):
            a_power, a_factory = rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5)
            deltas.append([[a_factory, a_power], [0.0, rng.uniform(0.0, 0.5)]])
        closed = assess_impact(two_region_chain(False), np.array(deltas))
        opened = assess_impact(two_region_chain(True), np.array(deltas))
        trade_pairs = 0
        for closed_, open_ in zip(closed, opened):
            assert HOURS_PER_YEAR * open_.total_cost <= HOURS_PER_YEAR * closed_.total_cost + 1e-6
            trade_pairs += 1

        nested = []
        for _ in range(50):
            base = rng.uniform(0.0, 0.8, 4)
            extra = rng.uniform(0.0, 1.0 - base.max(), 4)
            nested += [base.reshape(2, 2), (base + extra).reshape(2, 2)]
        priced = assess_impact(two_region_diagonal(), np.array(nested))
        monotone_pairs = 0
        for lesser, greater in zip(priced[::2], priced[1::2]):
            assert HOURS_PER_YEAR * lesser.total_cost <= HOURS_PER_YEAR * greater.total_cost + 1e-6
            monotone_pairs += 1
        report(
            "zero shock costs 0.0; hand-solved delta va -5.0 exact; trade never "
            f"dearer on {trade_pairs} shocks; {monotone_pairs} nested pairs monotone"
        )


def flat_curve(scenario: str, cost: float) -> CostCurve:
    return CostCurve(scenario=scenario, points=(CurvePoint(0.4, cost, cost, cost),))


def test_marginal_cost_secant_arithmetic():
    with criterion("marginal-cost") as report:
        curves = {
            "current": flat_curve("current", 0.0),
            "heat_pump": flat_curve("heat_pump", 5.6e6),
        }
        peaks = {"current": 52.1, "heat_pump": 57.7}
        slope = marginal_cost_per_gw(curves, peaks, 0.4)
        assert slope == (5.6e6 - 0.0) / (57.7 - 52.1), f"slope {slope!r}"
        # 1.0e6 up to one part in 1e9: the peak difference itself rounds
        assert abs(slope - 1.0e6) <= 1e-6 * 1.0e6

        equal = {
            "current": flat_curve("current", 5.6e6),
            "heat_pump": flat_curve("heat_pump", 5.6e6),
        }
        assert marginal_cost_per_gw(equal, peaks, 0.4) == 0.0
        report(f"secant {slope!r} per GW; equal costs give slope 0.0 exactly")


def test_population_share_arithmetic():
    with criterion("population-shares") as report:
        regions = RegionTable(
            regions=(
                Region("r1", "p", 10.0, 1.0, 1.0),
                Region("r2", "p", 30.0, 1.0, 1.0),
                Region("r3", "p", 60.0, 1.0, 1.0),
            )
        )
        change = RegionalChange(
            scenario="heat_pump", baseline="current", fraction=0.4,
            ratios={"r1": 1.5, "r2": 1.0, "r3": 0.8},
        )
        worse, better, unchanged = population_shares(change, regions)
        assert worse == 0.10, f"worse {worse!r}"
        assert better == 0.60, f"better {better!r}"
        assert worse + better + unchanged == 1.0

        rng = np.random.default_rng(59)
        for draw in range(50):
            n = int(rng.integers(2, 9))
            table = RegionTable(
                regions=tuple(
                    Region(f"r{k}", "p", float(rng.uniform(0.5, 50.0)), 1.0, 1.0)
                    for k in range(n)
                )
            )
            ratios = {}
            for k in range(n):
                u = rng.random()
                if u < 0.15:
                    ratios[f"r{k}"] = None
                elif u < 0.30:
                    ratios[f"r{k}"] = 1.0
                elif u < 0.65:
                    ratios[f"r{k}"] = float(rng.uniform(0.0, 1.0))
                else:
                    ratios[f"r{k}"] = float(rng.uniform(1.0, 3.0))
            change = RegionalChange(
                scenario="s", baseline="b", fraction=0.4, ratios=ratios
            )
            shares = population_shares(change, table)
            assert sum(shares) == 1.0, f"draw {draw}: {shares}"
        report("worked example 0.10/0.60 exact; 50 random triplets sum to 1.0 exactly")


def test_pipeline_byte_determinism(tmp_path):
    with criterion("determinism") as report:
        def pipeline(root, workers=None):
            extra = [] if workers is None else ["--workers", str(workers)]
            assert main(["gen-synthetic", "--size", "small", "--seed", "7",
                         "--out", str(root)]) == 0
            cfg = str(root / "run.cfg")
            assert main(["simulate", "--config", cfg, *extra]) == 0
            assert main(["impact", "--config", cfg]) == 0
            assert main(["analyze", "--config", cfg]) == 0
            return {
                path.relative_to(root): path.read_bytes()
                for path in sorted(root.rglob("*")) if path.is_file()
            }

        first = pipeline(tmp_path / "a")
        second = pipeline(tmp_path / "b")
        forked = pipeline(tmp_path / "w", workers=4)
        assert set(first) == set(second) == set(forked)
        rerun_diffs = [str(name) for name in first if first[name] != second[name]]
        worker_diffs = [str(name) for name in first if first[name] != forked[name]]
        assert not rerun_diffs, f"rerun differs: {', '.join(rerun_diffs)}"
        assert not worker_diffs, f"worker count differs: {', '.join(worker_diffs)}"
        report(
            f"{len(first)} files byte-identical across reruns and workers 1 vs 4"
        )


def test_calibrated_network_serves_peak_without_shedding():
    with criterion("calibration-contract") as report:
        for fixture in (generate_small(0), generate_gb_like(0)):
            grid = calibrate_ratings(
                fixture.grid, fixture.profiles["current"],
                headroom=1.2, interconnector_penalty=10.0,
            )
            hours = tuple((s, fixture.profiles[s].peak_hour()) for s in SCENARIOS)
            config = experiment_config(
                hours=hours, n_orderings=1, loss_fractions=(0.0,), master_seed=0
            )
            table = run_experiment(grid, fixture.profiles, config)
            assert len(records_of(table)) == len(SCENARIOS)
            for record in records_of(table):
                assert record.total_unserved_mw == 0.0, (
                    f"{fixture.name} {record.scenario}: "
                    f"{record.total_unserved_mw} MW unserved"
                )
                assert record.dispatch_status == "ok", (
                    f"{fixture.name} {record.scenario}: {record.dispatch_status}"
                )
        report("zero unserved at all four scenario peaks on both fixtures")
