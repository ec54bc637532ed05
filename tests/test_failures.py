import hashlib
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

import gridshock.csvrows as csvrows_module
import gridshock.dispatch as dispatch_module
import gridshock.failures as failures_module
from gridshock.dispatch import DispatchProblem, Fleet, GridContext, Load
from gridshock.errors import ParseError, Unstable, ValidationError
from gridshock.failures import (
    _solar_ids,
    bus_demand,
    calibrate_ratings,
    generate_orderings,
    removal_sets,
    run_experiment,
)
from gridshock.grid import Branch, Bus, Generator, Grid
from gridshock.numerics import LinearProgram, lp_solve
from gridshock.profiles import DemandProfile
from gridshock.results import STATUS_OK, STATUS_SHED, ResultTable, load_results, save_results
from gridshock.runconfig import DEFAULT_LOSS_FRACTIONS
from gridshock.synthetic import generate

from helpers import Record, experiment_config, gb_like_congested, records_of, table_of
from oracles import reference_load_results, reference_save_results, reference_shedding


def copper_plate_grid(n_units=10, unit_mw=10.0, technologies=None, extra_generators=()):
    """One demand bus with local generation and no binding branch."""
    buses = (
        Bus("b0", 132.0, "demand", region="r1"),
        Bus("b1", 132.0, "generation"),
    )
    branches = (Branch("l0", "b0", "b1", "line", 10.0, 1e6),)
    techs = technologies or ["thermal"] * n_units
    gens = tuple(
        Generator(f"g{k}", "b1", unit_mw, 1.0, techs[k]) for k in range(n_units)
    ) + tuple(extra_generators)
    return Grid(buses=buses, branches=branches, generators=gens)


def profile_for(demands, regions=("r1",), scenario="current"):
    demands = np.asarray(demands, dtype=float)
    return DemandProfile(
        scenario=scenario,
        regions=regions,
        hours=np.arange(demands.shape[1]),
        demand_mw=demands,
    )


def one_hour_config(**overrides):
    base = dict(hours=(("current", 0),), n_orderings=3, master_seed=7)
    base.update(overrides)
    return experiment_config(**base)


class TestExperimentConfig:
    def test_default_fractions(self):
        config = one_hour_config()
        assert config.loss_fractions == DEFAULT_LOSS_FRACTIONS
        assert config.loss_fractions[0] == 0.0
        assert config.loss_fractions[-1] == 0.45
        assert len(config.loss_fractions) == 10

    def test_empty_hours_rejected(self):
        with pytest.raises(ValidationError, match="scenario, hour"):
            experiment_config(hours=())

    def test_duplicate_hours_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            experiment_config(hours=(("current", 0), ("current", 0)))

    def test_orderings_count(self):
        with pytest.raises(ValidationError, match="n_orderings"):
            one_hour_config(n_orderings=0)

    @pytest.mark.parametrize(
        "fractions", [(-0.1, 0.2), (0.2, 0.1), (0.1, 0.1), (0.5, 1.2), ()]
    )
    def test_bad_fractions(self, fractions):
        with pytest.raises(ValidationError, match="fraction"):
            one_hour_config(loss_fractions=fractions)

    @pytest.mark.parametrize("step", [0.0, 1.5, -0.2])
    def test_shed_step_range(self, step):
        with pytest.raises(ValidationError, match="shed_step"):
            one_hour_config(shed_step=step)


class TestGenerateOrderings:
    def test_single_generator(self):
        grid = copper_plate_grid(n_units=1)
        assert generate_orderings(grid, 3, 0) == [("g0",)] * 3

    def test_same_seed_reproduces(self):
        grid = copper_plate_grid(n_units=6)
        assert generate_orderings(grid, 5, 42) == generate_orderings(grid, 5, 42)
        assert generate_orderings(grid, 5, 42) != generate_orderings(grid, 5, 43)

    def test_orderings_are_permutations(self):
        grid = copper_plate_grid(n_units=6)
        for ordering in generate_orderings(grid, 20, 1):
            assert sorted(ordering) == [f"g{k}" for k in range(6)]

    def test_interconnectors_excluded(self):
        intl = Generator("intl", "b1", 50.0, 1.0, "interconnector")
        grid = copper_plate_grid(n_units=3, extra_generators=(intl,))
        for ordering in generate_orderings(grid, 10, 0):
            assert "intl" not in ordering

    def test_mean_rank_is_uniform(self):
        # each of 5 items should sit at mean rank 2 over 10,000 draws,
        # within 3 standard errors of the uniform rank distribution
        grid = copper_plate_grid(n_units=5)
        ranks = {f"g{k}": 0.0 for k in range(5)}
        n = 10_000
        for ordering in generate_orderings(grid, n, 2024):
            for rank, gen in enumerate(ordering):
                ranks[gen] += rank
        expected = (5 - 1) / 2
        stderr = np.sqrt((5**2 - 1) / 12.0 / n)
        for gen, total in ranks.items():
            assert abs(total / n - expected) < 3 * stderr

    def test_needs_local_generation(self):
        intl = Generator("intl", "b1", 50.0, 1.0, "interconnector")
        grid = Grid(
            buses=(Bus("b0", 132.0, "demand", region="r1"), Bus("b1", 132.0, "generation")),
            branches=(Branch("l0", "b0", "b1", "line", 10.0, 1e6),),
            generators=(intl,),
        )
        with pytest.raises(ValidationError, match="local generators"):
            generate_orderings(grid, 1, 0)


class TestRemovalSet:
    def make_grid(self):
        gens = (
            Generator("ga", "b1", 10.0, 1.0, "thermal"),
            Generator("gb", "b1", 20.0, 1.0, "thermal"),
            Generator("gc", "b1", 30.0, 1.0, "thermal"),
        )
        return copper_plate_grid(n_units=0, extra_generators=gens)

    def test_zero_fraction_empty(self):
        grid = self.make_grid()
        assert removal_sets(("ga", "gb", "gc"), grid, [0.0])[0] == frozenset()

    def test_full_fraction_everything(self):
        grid = self.make_grid()
        assert removal_sets(("gb", "ga", "gc"), grid, [1.0])[0] == {"ga", "gb", "gc"}

    def test_prefix_sum_example(self):
        # target 0.4 * 60 = 24 MW, reached after the 10 and 20 MW units
        grid = self.make_grid()
        assert removal_sets(("ga", "gb", "gc"), grid, [0.4])[0] == {"ga", "gb"}

    def test_exact_boundary_needs_no_extra_unit(self):
        grid = self.make_grid()
        # 0.5 * 60 = 30 = 10 + 20 exactly
        assert removal_sets(("ga", "gb", "gc"), grid, [0.5])[0] == {"ga", "gb"}

    def test_nested_across_fractions(self):
        grid = copper_plate_grid(n_units=8, unit_mw=7.0)
        for ordering in generate_orderings(grid, 5, 3):
            previous = frozenset()
            for fraction in np.linspace(0.0, 1.0, 21):
                current = removal_sets(ordering, grid, [float(fraction)])[0]
                assert previous <= current
                previous = current

    def test_all_fractions_at_once_match_one_at_a_time(self):
        grid = copper_plate_grid(n_units=8, unit_mw=7.0)
        fractions = [float(f) for f in np.linspace(0.0, 1.0, 21)]
        for ordering in generate_orderings(grid, 5, 3):
            assert removal_sets(ordering, grid, fractions) == [
                removal_sets(ordering, grid, [fraction])[0] for fraction in fractions
            ]

    def test_derated_capacity_is_the_measure(self):
        gens = (
            Generator("ga", "b1", 100.0, 0.1, "wind"),
            Generator("gb", "b1", 10.0, 1.0, "thermal"),
        )
        grid = copper_plate_grid(n_units=0, extra_generators=gens)
        # derated sizes are equal (10 MW each), so half removes just one
        assert removal_sets(("ga", "gb"), grid, [0.5])[0] == {"ga"}

    def test_fraction_out_of_range(self):
        grid = self.make_grid()
        with pytest.raises(ValidationError, match="fraction"):
            removal_sets(("ga", "gb", "gc"), grid, [1.5])[0]

    def test_not_a_permutation(self):
        grid = self.make_grid()
        with pytest.raises(ValidationError, match="permutation"):
            removal_sets(("ga", "gb"), grid, [0.5])[0]


class TestBusDemand:
    def test_equal_split(self):
        buses = (
            Bus("b0", 132.0, "demand", region="r1"),
            Bus("b1", 132.0, "demand", region="r1"),
            Bus("b2", 132.0, "demand", region="r2"),
            Bus("b3", 132.0, "generation"),
        )
        branches = (
            Branch("l0", "b0", "b1", "line", 10.0, 1e6),
            Branch("l1", "b1", "b2", "line", 10.0, 1e6),
            Branch("l2", "b2", "b3", "line", 10.0, 1e6),
        )
        grid = Grid(
            buses=buses,
            branches=branches,
            generators=(Generator("g0", "b3", 100.0, 1.0, "thermal"),),
        )
        profile = profile_for([[30.0], [7.0]], regions=("r1", "r2"))
        assert bus_demand(grid, profile, 0) == {"b0": 15.0, "b1": 15.0, "b2": 7.0}

    def test_region_without_bus_rejected(self):
        grid = copper_plate_grid()
        profile = profile_for([[10.0], [5.0]], regions=("r1", "r9"))
        with pytest.raises(ValidationError, match="r9"):
            bus_demand(grid, profile, 0)

    def test_zero_demand_region_without_bus_ok(self):
        grid = copper_plate_grid()
        profile = profile_for([[10.0], [0.0]], regions=("r1", "r9"))
        assert bus_demand(grid, profile, 0) == {"b0": 10.0}


class TestRunExperiment:
    def test_zero_fraction_serves_everything(self):
        grid = copper_plate_grid()
        profiles = {"current": profile_for([[80.0, 50.0]])}
        config = experiment_config(
            hours=(("current", 0), ("current", 1)),
            n_orderings=4,
            loss_fractions=(0.0,),
        )
        table = run_experiment(grid, profiles, config)
        assert len(records_of(table)) == 8
        for record in records_of(table):
            assert record.dispatch_status == STATUS_OK
            assert record.total_unserved_mw == 0.0

    def test_full_fraction_sheds_full_demand(self):
        grid = copper_plate_grid()
        profiles = {"current": profile_for([[80.0]])}
        config = one_hour_config(loss_fractions=(1.0,), n_orderings=2)
        table = run_experiment(grid, profiles, config)
        for record in records_of(table):
            assert record.unserved_mw_per_region == {"r1": 80.0}
            assert record.dispatch_status == STATUS_SHED

    def test_energy_balance_at_partial_loss(self):
        # 100 MW of units, 80 MW demand, fraction 0.3: 70 MW remains, so
        # about 10 MW is unserved, up to one shed step (8 MW) over
        grid = copper_plate_grid()
        profiles = {"current": profile_for([[80.0]])}
        config = one_hour_config(loss_fractions=(0.3,), n_orderings=5)
        table = run_experiment(grid, profiles, config)
        for record in records_of(table):
            assert record.dispatch_status == STATUS_SHED
            assert 10.0 - 1e-9 <= record.total_unserved_mw <= 10.0 + 8.0 + 1e-9

    def test_exact_unserved_with_aligned_step(self):
        # shed step 0.125 of an 80 MW bus is 10 MW, so the 10 MW deficit
        # is shed exactly
        grid = copper_plate_grid()
        profiles = {"current": profile_for([[80.0]])}
        config = one_hour_config(loss_fractions=(0.3,), n_orderings=3, shed_step=0.125)
        table = run_experiment(grid, profiles, config)
        for record in records_of(table):
            assert record.total_unserved_mw == pytest.approx(10.0, abs=1e-9)

    def test_first_impact_near_margin(self):
        # spare margin is (100 - 80)/100 = 0.2; the first nonzero-unserved
        # fraction sits within one step of it
        grid = copper_plate_grid()
        profiles = {"current": profile_for([[80.0]])}
        config = one_hour_config(n_orderings=6)
        table = run_experiment(grid, profiles, config)
        for index in range(config.n_orderings):
            unserved = {
                r.loss_fraction: r.total_unserved_mw
                for r in records_of(table)
                if r.ordering_index == index
            }
            first = min(f for f, u in unserved.items() if u > 0.0)
            assert abs(first - 0.2) <= 0.05 + 1e-9

    def test_solar_always_removed(self):
        solar = Generator("sun", "b1", 40.0, 1.0, "solar")
        grid = copper_plate_grid(n_units=6, extra_generators=(solar,))
        profiles = {"current": profile_for([[70.0]])}
        config = one_hour_config(loss_fractions=(0.0,), n_orderings=1)
        table = run_experiment(grid, profiles, config)
        # 60 MW of thermal cannot cover 70 MW once solar is dark
        record = records_of(table)[0]
        assert record.dispatch_status == STATUS_SHED
        assert record.total_unserved_mw > 0.0

    def test_interconnector_never_removed(self):
        intl = Generator("intl", "b1", 50.0, 1.0, "interconnector")
        grid = copper_plate_grid(n_units=4, extra_generators=(intl,))
        profiles = {"current": profile_for([[45.0]])}
        config = one_hour_config(loss_fractions=(1.0,), n_orderings=2)
        table = run_experiment(grid, profiles, config)
        for record in records_of(table):
            assert record.dispatch_status == STATUS_OK
            assert record.total_unserved_mw == 0.0

    def test_records_sorted_and_complete(self):
        grid = copper_plate_grid()
        profiles = {
            "current": profile_for([[80.0, 50.0]]),
            "flat": profile_for([[65.0, 65.0]], scenario="flat"),
        }
        config = experiment_config(
            hours=(("flat", 1), ("current", 0)),
            n_orderings=2,
            loss_fractions=(0.0, 0.4),
        )
        table = run_experiment(grid, profiles, config)
        keys = [r.key for r in records_of(table)]
        assert keys == sorted(keys)
        assert len(keys) == 2 * 2 * 2

    def test_missing_profile_and_hour(self):
        grid = copper_plate_grid()
        profiles = {"current": profile_for([[80.0]])}
        with pytest.raises(ValidationError, match="flat"):
            run_experiment(grid, profiles, one_hour_config(hours=(("flat", 0),)))
        with pytest.raises(ValidationError, match="hour 5"):
            run_experiment(grid, profiles, one_hour_config(hours=(("current", 5),)))

    def test_deterministic_across_worker_counts(self):
        grid = copper_plate_grid()
        profiles = {"current": profile_for([[80.0, 50.0]])}
        config = experiment_config(
            hours=(("current", 0), ("current", 1)),
            n_orderings=4,
            loss_fractions=(0.0, 0.25, 0.5),
            master_seed=11,
        )
        serial = run_experiment(grid, profiles, config, workers=1)
        parallel = run_experiment(grid, profiles, config, workers=3)
        assert records_of(serial) == records_of(parallel)

    def test_deterministic_across_worker_counts_with_binding_limits(self, monkeypatch):
        # north units feed r1 and south units r2 over 25 MW lines, so losing
        # units on one side sheds more than the energy deficit
        buses = (
            Bus("n", 400.0, "generation"),
            Bus("d1", 400.0, "demand", region="r1"),
            Bus("m", 400.0, "substation"),
            Bus("d2", 400.0, "demand", region="r2"),
            Bus("s", 400.0, "generation"),
        )
        branches = (
            Branch("l0", "n", "d1", "line", 10.0, 1e3),
            Branch("l1", "d1", "m", "line", 10.0, 25.0),
            Branch("l2", "m", "d2", "line", 10.0, 25.0),
            Branch("l3", "d2", "s", "line", 10.0, 1e3),
        )
        gens = tuple(
            Generator(f"{side}{k}", side, 30.0, 1.0, "thermal")
            for side in ("n", "s")
            for k in range(4)
        )
        grid = Grid(buses=buses, branches=branches, generators=gens)
        profiles = {"current": profile_for([[90.0, 60.0], [80.0, 100.0]], regions=("r1", "r2"))}
        config = experiment_config(
            hours=(("current", 0), ("current", 1)),
            n_orderings=6,
            loss_fractions=(0.0, 0.25, 0.5),
            master_seed=3,
        )
        limit_rows = []
        solve = dispatch_module.lp_solve

        def counting(lp, **kwargs):
            limit_rows.append(0 if lp.a_ub is None else lp.a_ub.shape[0])
            return solve(lp, **kwargs)

        monkeypatch.setattr(dispatch_module, "lp_solve", counting)
        serial = run_experiment(grid, profiles, config, workers=1)
        assert max(limit_rows) > 0
        demand = {0: 170.0, 1: 160.0}
        network_limited = [
            r for r in records_of(serial)
            if r.total_unserved_mw > demand[r.hour] - 240.0 * (1.0 - r.loss_fraction) + 1e-6
        ]
        assert network_limited
        parallel = run_experiment(grid, profiles, config, workers=3)
        assert records_of(serial) == records_of(parallel)


def gb_like_default(seed=7):
    """The gb-like fixture's grid calibrated as its run.cfg does (headroom
    1.2), and its studied hours: each profile's peak. Returns (grid,
    fixture, hours)."""
    fixture = generate("gb-like", seed)
    grid = calibrate_ratings(fixture.grid, fixture.profiles["current"], headroom=1.2)
    return grid, fixture, tuple((s, p.peak_hour()) for s, p in fixture.profiles.items())


class TestSweepAgainstReference:
    def assert_cells_match_the_reference(self, grid, fixture, config):
        # the sweep settles an ordering's cells as one stack, sharing its
        # removal sets, fleets and loads; the oracle builds every cell
        # alone, with a fresh GridContext, and checks every round with the
        # simplex
        table = run_experiment(grid, fixture.profiles, config)
        assert len(table) == config.n_orderings * len(DEFAULT_LOSS_FRACTIONS) * len(config.hours)
        orderings = generate_orderings(grid, config.n_orderings, config.master_seed)
        solar = frozenset(g.id for g in grid.generators if g.technology == "solar")
        column = {region: k for k, region in enumerate(table.regions)}
        for row, (ordering, fraction, scenario, hour) in zip(table.unserved_mw, table.keys()):
            removed = removal_sets(orderings[ordering], grid, [fraction])[0] | solar
            problem = DispatchProblem(
                grid=grid,
                demand_mw=bus_demand(grid, fixture.profiles[scenario], hour),
                available=frozenset(grid.generator_by_id) - removed,
            )
            _, shed = reference_shedding(problem, removed, config.shed_step, GridContext(grid))
            unserved = np.zeros(len(table.regions))
            for bid, mw in shed.items():
                unserved[column[grid.bus_by_id[bid].region]] += mw
            assert row.tolist() == unserved.tolist(), (ordering, fraction, scenario, hour)
        return table

    def test_every_cell_of_the_congested_sweep(self):
        grid, fixture = gb_like_congested()
        hours = (("current", 427), ("heat_pump", 427), ("efficiency", 427), ("flat", 0))
        config = experiment_config(hours=hours, n_orderings=2, master_seed=7)
        table = self.assert_cells_match_the_reference(grid, fixture, config)
        assert table.shed.sum() >= 40
        assert table.network_cells > 0

    def test_every_cell_of_the_default_sweep(self):
        # the cells the stacked deficit shed and merit-order fill settle
        grid, fixture, hours = gb_like_default()
        config = experiment_config(hours=hours, n_orderings=2, master_seed=7)
        table = self.assert_cells_match_the_reference(grid, fixture, config)
        assert 20 <= table.shed.sum() < len(table)
        assert table.network_cells == 0


class TestGoldenSweep:
    """The sha256 of the unserved-MW matrix, captured from the sweep that
    dispatched every cell alone, before it was settled as stacks."""

    GOLDEN = {
        ("gb-like", 11): "28bbe3ef759fe67b7124c75be6b85027accef4d5f58b579acb7e338f341bb40d",
        ("small", 3): "05f7f295528a6af23f9fd006b42a0573f5a5f77e0f9f5ea450e66ac3bb71fd37",
    }

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("size, seed", list(GOLDEN))
    def test_unserved_bytes(self, size, seed, workers):
        fixture = generate(size, seed)
        grid = calibrate_ratings(fixture.grid, fixture.profiles["current"], headroom=1.2)
        hours = tuple((s, p.peak_hour()) for s, p in fixture.profiles.items())
        config = experiment_config(hours=hours, n_orderings=10, master_seed=seed)
        table = run_experiment(grid, fixture.profiles, config, workers=workers)
        assert hashlib.sha256(table.unserved_mw.tobytes()).hexdigest() == self.GOLDEN[size, seed]


class TestCongestedSweepWork:
    """The work of the congested gb-like sweep at master seed 7, its
    benchmark workload: 177 cells take the shedding loop, each confirmed
    by one `redispatch`; the one-branch fill bound rules out 446 shed
    buses, so 354 dispatch LPs run where the loop without it ran 800."""

    def test_work_counts(self, monkeypatch):
        counts = dict.fromkeys(["lp_solve", "ruled_out", "cells", "redispatch"], 0)

        def counted(module, name, key, tally=lambda result: 1):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                result = inner(*args, **kwargs)
                counts[key] += tally(result)
                return result

            monkeypatch.setattr(module, name, wrapper)

        counted(dispatch_module, "lp_solve", "lp_solve")
        counted(dispatch_module, "_beyond_relief", "ruled_out", int)
        counted(failures_module, "dispatch_with_shedding", "cells")
        counted(dispatch_module, "redispatch", "redispatch")
        grid, fixture = gb_like_congested()
        hours = (("current", 427), ("heat_pump", 427), ("efficiency", 427), ("flat", 0))
        config = experiment_config(hours=hours, n_orderings=10, master_seed=7)
        table = run_experiment(grid, fixture.profiles, config)
        assert counts == {"lp_solve": 354, "ruled_out": 446, "cells": 177, "redispatch": 177}
        assert table.network_cells == 177


class TestCalibrateRatings:
    def chain(self, rating=50.0):
        buses = (
            Bus("b0", 400.0, "generation"),
            Bus("b1", 400.0, "demand", region="r1"),
        )
        branches = (Branch("l0", "b0", "b1", "line", 10.0, rating),)
        gens = (Generator("g0", "b0", 120.0, 1.0, "thermal"),)
        return Grid(buses=buses, branches=branches, generators=gens)

    def profile(self, peak=100.0):
        return profile_for([[peak * 0.6, peak]], regions=("r1",))

    def test_undersized_branch_upsized(self):
        # 100 MW flows over a 50 MW branch, so the rating becomes 120
        calibrated = calibrate_ratings(self.chain(rating=50.0), self.profile())
        assert calibrated.branches[0].rating_mw == pytest.approx(120.0)

    def test_generous_branch_unchanged(self):
        calibrated = calibrate_ratings(self.chain(rating=500.0), self.profile())
        assert calibrated.branches[0].rating_mw == 500.0

    def test_calibrated_grid_carries_peak(self):
        grid = calibrate_ratings(self.chain(rating=10.0), self.profile())
        profiles = {"current": self.profile()}
        config = experiment_config(
            hours=(("current", 1),), n_orderings=1, loss_fractions=(0.0,)
        )
        record = records_of(run_experiment(grid, profiles, config))[0]
        assert record.dispatch_status == STATUS_OK

    def test_calibrated_grid_keeps_the_hop_table(self):
        grid = self.chain(rating=50.0)
        table = grid.hop_distance
        calibrated = calibrate_ratings(grid, self.profile())
        assert calibrated.branches[0].rating_mw == pytest.approx(120.0)
        assert calibrated.hop_distance is table

    def test_capacity_shortfall_is_unstable(self):
        with pytest.raises(Unstable):
            calibrate_ratings(self.chain(), self.profile(peak=500.0))

    def test_solar_unavailable_during_calibration(self):
        buses = (
            Bus("b0", 400.0, "generation"),
            Bus("b1", 400.0, "demand", region="r1"),
        )
        branches = (Branch("l0", "b0", "b1", "line", 10.0, 50.0),)
        gens = (
            Generator("g0", "b0", 120.0, 1.0, "solar"),
            Generator("g1", "b0", 120.0, 1.0, "thermal"),
        )
        grid = Grid(buses=buses, branches=branches, generators=gens)
        calibrated = calibrate_ratings(grid, self.profile())
        assert calibrated.branches[0].rating_mw == pytest.approx(120.0)
        with pytest.raises(Unstable):
            calibrate_ratings(
                Grid(buses=buses, branches=branches, generators=gens[:1]),
                self.profile(),
            )


def cold_vertex_ratings(grid, profile, headroom):
    """Ratings from the cold simplex vertex of the balance-only peak
    dispatch, the program calibration solved before it took the fill."""
    context = GridContext(grid)
    fleet = Fleet(context, frozenset(grid.generator_by_id) - _solar_ids(grid))
    load = Load(context, bus_demand(grid, profile, profile.peak_hour()), 10.0)
    n = len(fleet.ids)
    x = lp_solve(
        LinearProgram(
            objective=load.costs[fleet.index],
            a_eq=np.ones((1, n)),
            b_eq=np.array([load.total]),
            bounds=np.column_stack([np.zeros(n), fleet.upper]),
        )
    ).x
    flows = fleet.cols @ x + load.base_flow
    return [max(b.rating_mw, headroom * abs(float(f))) for b, f in zip(grid.branches, flows)]


class TestCalibrateFromTheFill:
    @pytest.mark.parametrize("size, seed", [("gb-like", 7), ("gb-like", 11), ("small", 3)])
    def test_ratings_equal_the_cold_vertex_ones(self, size, seed):
        fixture = generate(size, seed)
        for headroom in (1.2, 1.0):
            calibrated = calibrate_ratings(
                fixture.grid, fixture.profiles["current"], headroom=headroom
            )
            ratings = [b.rating_mw for b in calibrated.branches]
            assert ratings == cold_vertex_ratings(
                fixture.grid, fixture.profiles["current"], headroom
            )


class TestRecordAndTable:
    def test_duplicate_records_rejected(self):
        record = Record(0, 0.1, "current", 0, {"r1": 0.0})
        with pytest.raises(ValidationError, match="duplicate"):
            table_of([record, record])


class TestResultsIO:
    def build_table(self):
        grid = copper_plate_grid()
        profiles = {"current": profile_for([[80.0, 50.0]])}
        config = experiment_config(
            hours=(("current", 0), ("current", 1)),
            n_orderings=3,
            loss_fractions=(0.0, 0.3, 0.6),
            master_seed=5,
        )
        return run_experiment(grid, profiles, config)

    def test_round_trip(self, tmp_path):
        table = self.build_table()
        path = tmp_path / "results.csv"
        save_results(table, path)
        loaded = load_results(path)
        assert records_of(loaded) == records_of(table)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        table = self.build_table()
        path = tmp_path / "results.csv"
        save_results(table, path)
        before = path.read_bytes()
        # the second record fails to format once the first one is written
        class Unprintable(float):
            def __repr__(self):
                raise RuntimeError("unprintable value")

        unserved = table.unserved_mw.astype(object)
        unserved[1, 0] = Unprintable()
        fields = {**vars(table), "unserved_mw": unserved}
        broken = SimpleNamespace(**fields, shed=table.shed, keys=table.keys)
        with pytest.raises(RuntimeError, match="unprintable"):
            save_results(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("ordering,fraction\n")
        with pytest.raises(ParseError):
            load_results(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(
            "ordering,fraction,scenario,hour,region,unserved_mw,status\n"
            "0,0.1,current,0,r1,oops,ok\n"
        )
        with pytest.raises(ParseError, match="line 2"):
            load_results(path)

    def test_repeated_region_row_rejected(self, tmp_path):
        # the later row used to win silently: 0.0 MW unserved, not 5.0
        path = tmp_path / "results.csv"
        path.write_text(
            "ordering,fraction,scenario,hour,region,unserved_mw,status\n"
            "0,0.1,current,0,r01,5.0,shed\n"
            "0,0.1,current,0,r02,0.0,shed\n"
            "0,0.1,current,0,r01,0.0,shed\n"
        )
        with pytest.raises(ParseError, match="line 4: repeated row for record .*region r01"):
            load_results(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("ordering,fraction,scenario,hour,region,unserved_mw,status\n")
        with pytest.raises(ValidationError, match="no records"):
            load_results(path)


HEADER = "ordering,fraction,scenario,hour,region,unserved_mw,status"
REGION_CHARACTERS = list("abr019 _-.éüñ東京")
SCENARIO_NAMES = ["current", "heat pump", "éfficiency", "flat"]
FRACTIONS = [0.0, 0.05, 0.1, 0.15000000000000002, 0.1 + 0.2, 0.45, 1.0]
VALUES = [5e-324, 2.5e-310, 1e300, 0.1 + 0.2, 0.001, 123.456]


def random_table(rng) -> ResultTable:
    """A table with 1 to 60 region ids (spaces and non-ASCII included),
    mostly-zero values with subnormals, 1e300 and 0.1 + 0.2 among them,
    and fractions such as 0.15000000000000002."""
    regions = set()
    n_regions = int(rng.integers(1, 61))
    while len(regions) < n_regions:
        size = int(rng.integers(1, 6))
        regions.add("".join(rng.choice(REGION_CHARACTERS, size=size)).strip() or "r")
    scenarios = sorted(rng.choice(SCENARIO_NAMES, size=int(rng.integers(1, 4)), replace=False))
    fractions = sorted(rng.choice(FRACTIONS, size=int(rng.integers(1, 4)), replace=False))
    hours = sorted(rng.choice(8760, size=int(rng.integers(1, 3)), replace=False).tolist())
    keys = list(product(range(int(rng.integers(1, 4))), fractions, scenarios, hours))
    values = np.where(
        rng.random((len(keys), len(regions))) < 0.7,
        0.0,
        rng.choice(VALUES, size=(len(keys), len(regions))),
    )
    return ResultTable(
        ordering=np.array([k[0] for k in keys], dtype=np.int64),
        fraction=np.array([k[1] for k in keys], dtype=float),
        scenario=tuple(k[2] for k in keys),
        hour=np.array([k[3] for k in keys], dtype=np.int64),
        regions=tuple(sorted(regions)),
        unserved_mw=values,
    )


def assert_same_table(mine, reference):
    assert mine.regions == reference.regions
    assert mine.scenario == reference.scenario
    for name in ("ordering", "fraction", "hour", "unserved_mw"):
        a, b = getattr(mine, name), getattr(reference, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name


def small_results(tmp_path, lines=None):
    """results.csv of 3 records x 2 regions; `lines` replaces its data rows."""
    rows = lines if lines is not None else [
        "0,0.0,current,0,r1,0.0,ok",
        "0,0.0,current,0,r2,0.0,ok",
        "0,0.5,current,0,r1,2.5,shed",
        "0,0.5,current,0,r2,0.0,shed",
        "1,0.0,current,0,r1,0.0,ok",
        "1,0.0,current,0,r2,0.0,ok",
    ]
    path = tmp_path / "results.csv"
    path.write_bytes(("\r\n".join([HEADER, *rows]) + "\r\n").encode("utf-8"))
    return path


class TestResultsAgainstReference:
    @pytest.mark.parametrize("seed", range(20))
    def test_writer_bytes(self, tmp_path, seed):
        table = random_table(np.random.default_rng(seed))
        save_results(table, tmp_path / "mine.csv")
        reference_save_results(table, tmp_path / "reference.csv")
        assert (tmp_path / "mine.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("chunk", [1, 7, 50_000])
    @pytest.mark.parametrize("seed", range(8))
    def test_reader_tables(self, tmp_path, monkeypatch, seed, chunk):
        monkeypatch.setattr(csvrows_module, "_CHUNK_ROWS", chunk)
        table = random_table(np.random.default_rng(seed))
        path = tmp_path / "results.csv"
        save_results(table, path)
        mine = load_results(path)
        reference, statuses = reference_load_results(path)
        assert_same_table(mine, reference)
        assert_same_table(mine, table)
        shed = [statuses[r.key] == STATUS_SHED for r in records_of(reference)]
        assert mine.shed.tolist() == shed

    def test_records_in_any_order_are_sorted(self, tmp_path):
        table = random_table(np.random.default_rng(5))
        path = tmp_path / "results.csv"
        save_results(table, path)
        header, *rows = path.read_bytes().decode("utf-8").splitlines()
        width = len(table.regions)
        records = [rows[k : k + width] for k in range(0, len(rows), width)]
        lines = [line for record in reversed(records) for line in record]
        path.write_bytes(("\r\n".join([header, *lines]) + "\r\n").encode("utf-8"))
        assert_same_table(load_results(path), table)

    @pytest.mark.parametrize("chunk", [3, 50_000])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1,0.0,current,0,r1,0.0", "expected 7 fields, got 6"),
            ("1,0.0,current,0,r1,0.0,ok,x", "expected 7 fields, got 8"),
            ("one,0.0,current,0,r1,0.0,ok", "bad numeric value in ['one', '0.0', 'current', '0', 'r1', '0.0', 'ok']"),
            ("1,x,current,0,r1,0.0,ok", "bad numeric value in ['1', 'x', 'current', '0', 'r1', '0.0', 'ok']"),
            ("1,0.0,current,0.5,r1,0.0,ok", "bad numeric value in ['1', '0.0', 'current', '0.5', 'r1', '0.0', 'ok']"),
            ("1,0.0,current,0,r1,none,ok", "bad numeric value in ['1', '0.0', 'current', '0', 'r1', 'none', 'ok']"),
            ("0,0.5,current,0,r1,2.5,shed", "repeated row for record (0, 0.5, 'current', 0), region r1"),
        ],
    )
    def test_refusal_matches_reference(self, tmp_path, monkeypatch, chunk, bad, message):
        monkeypatch.setattr(csvrows_module, "_CHUNK_ROWS", chunk)
        lines = [
            "0,0.0,current,0,r1,0.0,ok",
            "0,0.0,current,0,r2,0.0,ok",
            "",
            "0,0.5,current,0,r1,2.5,shed",
            "0,0.5,current,0,r2,0.0,shed",
            bad,
            "1,0.0,current,0,r2,0.0,ok",
        ]
        path = small_results(tmp_path, lines)
        with pytest.raises(ParseError) as mine:
            load_results(path)
        with pytest.raises(ParseError) as reference:
            reference_load_results(path)
        assert mine.value.line == reference.value.line == 7
        assert str(mine.value) == str(reference.value) == f"results.csv line 7: {message}"

    def test_header_refusal_matches_reference(self, tmp_path):
        path = tmp_path / "results.csv"
        for header, message in (
            ("", "file is empty"),
            ("ordering,fraction", f"expected header {HEADER}, got ordering,fraction"),
            (HEADER.replace("status", "state"), f"expected header {HEADER}, got {HEADER.replace('status', 'state')}"),
        ):
            path.write_text(header and header + "\r\n", encoding="utf-8")
            with pytest.raises(ParseError) as mine:
                load_results(path)
            with pytest.raises(ParseError) as reference:
                reference_load_results(path)
            assert str(mine.value) == str(reference.value) == f"results.csv line 1: {message}"


class TestResultsRefusals:
    def test_valid_file_loads(self, tmp_path):
        table = load_results(small_results(tmp_path))
        assert len(table) == 3 and table.regions == ("r1", "r2")
        assert table.shed.tolist() == [False, True, False]

    @pytest.mark.parametrize("chunk", [1, 50_000])
    @pytest.mark.parametrize(
        "edit, line, message",
        [
            # the second record lacks r2, and so does the last one
            (lambda rows: rows[:3] + rows[4:], 4, "record (0, 0.5, 'current', 0) lacks regions"),
            (lambda rows: rows[:5], 6, "record (1, 0.0, 'current', 0) lacks regions"),
            (lambda rows: rows[:3] + ["0,0.5,current,0,r3,0.0,shed"] + rows[4:], 5,
             "record (0, 0.5, 'current', 0) does not repeat the first record's regions"),
            (lambda rows: rows[:2] + [rows[3], rows[2]] + rows[4:], 4,
             "record (0, 0.5, 'current', 0) does not repeat the first record's regions"),
            (lambda rows: rows + ["1,0.0,current,0,r3,0.0,ok"], 8,
             "record (1, 0.0, 'current', 0) does not repeat the first record's regions"),
            # records must be contiguous
            (lambda rows: [rows[0], rows[2], rows[1], rows[3]] + rows[4:], 4,
             "record (0, 0.0, 'current', 0) does not repeat the first record's regions"),
            (lambda rows: rows[:4] + ["1,0.0,current,0,r1,0.0,shed"] + rows[5:], 6,
             "status shed of record (1, 0.0, 'current', 0) disagrees with its unserved MW"),
            (lambda rows: rows[:3] + ["0,0.5,current,0,r2,0.0,ok"] + rows[4:], 5,
             "status ok of record (0, 0.5, 'current', 0) disagrees with its unserved MW"),
            # every row of a record that sheds says ok
            (lambda rows: rows[:2] + [r.replace(",shed", ",ok") for r in rows[2:4]] + rows[4:], 4,
             "status ok of record (0, 0.5, 'current', 0) disagrees with its unserved MW"),
            (lambda rows: [rows[0].replace(",ok", ",unstable")] + rows[1:], 2,
             "status unstable of record (0, 0.0, 'current', 0) disagrees with its unserved MW"),
            (lambda rows: rows[:4] + ["1,nan,current,0,r1,0.0,ok", "1,nan,current,0,r2,0.0,ok"], 6,
             "bad numeric value in ['1', 'nan', 'current', '0', 'r1', '0.0', 'ok']"),
            (lambda rows: rows[:4] + [rows[4].replace("1,", "99999999999999999999,", 1)], 6,
             "bad numeric value in ['99999999999999999999', '0.0', 'current', '0', 'r1', '0.0', 'ok']"),
            (lambda rows: rows[:4] + ['"1",0.0,current,0,r1,0.0,ok'] + rows[5:], 6,
             "quoted fields are not supported"),
        ],
    )
    def test_new_refusals_name_their_line(self, tmp_path, monkeypatch, chunk, edit, line, message):
        monkeypatch.setattr(csvrows_module, "_CHUNK_ROWS", chunk)
        rows = small_results(tmp_path).read_text(encoding="utf-8").splitlines()[1:]
        path = small_results(tmp_path, edit(rows))
        with pytest.raises(ParseError) as error:
            load_results(path)
        assert error.value.line == line
        assert str(error.value).startswith(f"results.csv line {line}: {message}")

    def test_repeated_record_refused(self, tmp_path):
        rows = small_results(tmp_path).read_text(encoding="utf-8").splitlines()[1:]
        path = small_results(tmp_path, rows + rows[:2])
        with pytest.raises(ParseError, match="^results.csv line 8: repeated row for record .0, 0.0, 'current', 0., region r1"):
            load_results(path)

    @pytest.mark.parametrize("name", ["r,1", 'r"1', "r\n1"])
    def test_writer_refuses_ids_csv_would_quote(self, tmp_path, name):
        table = table_of([Record(0, 0.0, "current", 0, {name: 0.0})])
        with pytest.raises(ValidationError, match="needs csv quoting"):
            save_results(table, tmp_path / "results.csv")
        scenario = table_of([Record(0, 0.0, name, 0, {"r1": 0.0})])
        with pytest.raises(ValidationError, match="scenario id"):
            save_results(scenario, tmp_path / "results.csv")
        assert not list(tmp_path.iterdir())


def corrupt(rng, rows: list[str]) -> list[str]:
    """rows with one or two random edits: a row dropped, repeated or moved,
    a field added or lost, a bad number, NaN, a wide integer or `1_0`,
    another status or region, a quote, or an empty or whitespace-only line."""
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
        elif edit == "value" and len(fields) == 7:
            k = int(rng.choice([0, 1, 3, 4, 5, 6]))
            fields[k] = str(rng.choice(["x", "nan", "99999999999999999999", "1_0", "ok", "shed", "zz"]))
            rows[i] = ",".join(fields)
        elif edit == "blank":
            rows.insert(i, str(rng.choice(["", "  ", "\t"])))
        elif edit == "quote":
            rows[i] = '"' + rows[i]
    return rows


class TestResultsFuzz:
    @pytest.mark.parametrize("seed", range(60))
    def test_refused_on_a_line_or_read_as_the_reference(self, tmp_path, monkeypatch, seed):
        # the chunked checks and the line-by-line rescan must agree: a file
        # the chunks refuse has a bad line, and one they accept reads as the
        # reference reads it
        rng = np.random.default_rng(seed)
        monkeypatch.setattr(csvrows_module, "_CHUNK_ROWS", int(rng.choice([1, 7, 64, 50_000])))
        path = tmp_path / "results.csv"
        save_results(random_table(rng), path)
        header, *rows = path.read_bytes().decode("utf-8").split("\r\n")[:-1]
        path.write_bytes("\r\n".join([header, *corrupt(rng, rows), ""]).encode("utf-8"))
        try:
            mine = load_results(path)
        except ParseError as error:
            assert error.line is not None and error.line >= 2
            return
        reference, statuses = reference_load_results(path)
        assert_same_table(mine, reference)
        assert mine.shed.tolist() == [statuses[r.key] == STATUS_SHED for r in records_of(reference)]
