from types import SimpleNamespace

import numpy as np
import pytest

import gridshock.dispatch as dispatch_module
from gridshock.errors import ParseError, Unstable, ValidationError
from gridshock.failures import (
    DEFAULT_LOSS_FRACTIONS,
    STATUS_OK,
    STATUS_SHED,
    ExperimentConfig,
    ResultTable,
    ScenarioRecord,
    bus_demand,
    calibrate_ratings,
    generate_orderings,
    load_results,
    removal_set,
    run_experiment,
    save_results,
)
from gridshock.grid import Branch, Bus, Generator, Grid
from gridshock.profiles import DemandProfile


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
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_default_fractions(self):
        config = one_hour_config()
        assert config.loss_fractions == DEFAULT_LOSS_FRACTIONS
        assert config.loss_fractions[0] == 0.0
        assert config.loss_fractions[-1] == 0.45
        assert len(config.loss_fractions) == 10

    def test_empty_hours_rejected(self):
        with pytest.raises(ValidationError, match="scenario, hour"):
            ExperimentConfig(hours=())

    def test_duplicate_hours_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            ExperimentConfig(hours=(("current", 0), ("current", 0)))

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
        assert removal_set(("ga", "gb", "gc"), grid, 0.0) == frozenset()

    def test_full_fraction_everything(self):
        grid = self.make_grid()
        assert removal_set(("gb", "ga", "gc"), grid, 1.0) == {"ga", "gb", "gc"}

    def test_prefix_sum_example(self):
        # target 0.4 * 60 = 24 MW, reached after the 10 and 20 MW units
        grid = self.make_grid()
        assert removal_set(("ga", "gb", "gc"), grid, 0.4) == {"ga", "gb"}

    def test_exact_boundary_needs_no_extra_unit(self):
        grid = self.make_grid()
        # 0.5 * 60 = 30 = 10 + 20 exactly
        assert removal_set(("ga", "gb", "gc"), grid, 0.5) == {"ga", "gb"}

    def test_nested_across_fractions(self):
        grid = copper_plate_grid(n_units=8, unit_mw=7.0)
        for ordering in generate_orderings(grid, 5, 3):
            previous = frozenset()
            for fraction in np.linspace(0.0, 1.0, 21):
                current = removal_set(ordering, grid, float(fraction))
                assert previous <= current
                previous = current

    def test_derated_capacity_is_the_measure(self):
        gens = (
            Generator("ga", "b1", 100.0, 0.1, "wind"),
            Generator("gb", "b1", 10.0, 1.0, "thermal"),
        )
        grid = copper_plate_grid(n_units=0, extra_generators=gens)
        # derated sizes are equal (10 MW each), so half removes just one
        assert removal_set(("ga", "gb"), grid, 0.5) == {"ga"}

    def test_fraction_out_of_range(self):
        grid = self.make_grid()
        with pytest.raises(ValidationError, match="fraction"):
            removal_set(("ga", "gb", "gc"), grid, 1.5)

    def test_not_a_permutation(self):
        grid = self.make_grid()
        with pytest.raises(ValidationError, match="permutation"):
            removal_set(("ga", "gb"), grid, 0.5)


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
        config = ExperimentConfig(
            hours=(("current", 0), ("current", 1)),
            n_orderings=4,
            loss_fractions=(0.0,),
        )
        table = run_experiment(grid, profiles, config)
        assert len(table.records) == 8
        for record in table.records:
            assert record.dispatch_status == STATUS_OK
            assert record.total_unserved_mw == 0.0

    def test_full_fraction_sheds_full_demand(self):
        grid = copper_plate_grid()
        profiles = {"current": profile_for([[80.0]])}
        config = one_hour_config(loss_fractions=(1.0,), n_orderings=2)
        table = run_experiment(grid, profiles, config)
        for record in table.records:
            assert record.unserved_mw_per_region == {"r1": 80.0}
            assert record.dispatch_status == STATUS_SHED

    def test_energy_balance_at_partial_loss(self):
        # 100 MW of units, 80 MW demand, fraction 0.3: 70 MW remains, so
        # about 10 MW is unserved, up to one shed step (8 MW) over
        grid = copper_plate_grid()
        profiles = {"current": profile_for([[80.0]])}
        config = one_hour_config(loss_fractions=(0.3,), n_orderings=5)
        table = run_experiment(grid, profiles, config)
        for record in table.records:
            assert record.dispatch_status == STATUS_SHED
            assert 10.0 - 1e-9 <= record.total_unserved_mw <= 10.0 + 8.0 + 1e-9

    def test_exact_unserved_with_aligned_step(self):
        # shed step 0.125 of an 80 MW bus is 10 MW, so the 10 MW deficit
        # is shed exactly
        grid = copper_plate_grid()
        profiles = {"current": profile_for([[80.0]])}
        config = one_hour_config(loss_fractions=(0.3,), n_orderings=3, shed_step=0.125)
        table = run_experiment(grid, profiles, config)
        for record in table.records:
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
                for r in table.records
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
        record = table.records[0]
        assert record.dispatch_status == STATUS_SHED
        assert record.total_unserved_mw > 0.0

    def test_interconnector_never_removed(self):
        intl = Generator("intl", "b1", 50.0, 1.0, "interconnector")
        grid = copper_plate_grid(n_units=4, extra_generators=(intl,))
        profiles = {"current": profile_for([[45.0]])}
        config = one_hour_config(loss_fractions=(1.0,), n_orderings=2)
        table = run_experiment(grid, profiles, config)
        for record in table.records:
            assert record.dispatch_status == STATUS_OK
            assert record.total_unserved_mw == 0.0

    def test_records_sorted_and_complete(self):
        grid = copper_plate_grid()
        profiles = {
            "current": profile_for([[80.0, 50.0]]),
            "flat": profile_for([[65.0, 65.0]], scenario="flat"),
        }
        config = ExperimentConfig(
            hours=(("flat", 1), ("current", 0)),
            n_orderings=2,
            loss_fractions=(0.0, 0.4),
        )
        table = run_experiment(grid, profiles, config)
        keys = [r.key for r in table.records]
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
        config = ExperimentConfig(
            hours=(("current", 0), ("current", 1)),
            n_orderings=4,
            loss_fractions=(0.0, 0.25, 0.5),
            master_seed=11,
        )
        serial = run_experiment(grid, profiles, config, workers=1)
        parallel = run_experiment(grid, profiles, config, workers=3)
        assert serial.records == parallel.records

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
        config = ExperimentConfig(
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
            r for r in serial.records
            if r.total_unserved_mw > demand[r.hour] - 240.0 * (1.0 - r.loss_fraction) + 1e-6
        ]
        assert network_limited
        parallel = run_experiment(grid, profiles, config, workers=3)
        assert serial.records == parallel.records


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
        config = ExperimentConfig(
            hours=(("current", 1),), n_orderings=1, loss_fractions=(0.0,)
        )
        record = run_experiment(grid, profiles, config).records[0]
        assert record.dispatch_status == STATUS_OK

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


class TestRecordAndTable:
    def test_duplicate_records_rejected(self):
        record = ScenarioRecord(0, 0.1, "current", 0, {"r1": 0.0}, STATUS_OK)
        with pytest.raises(ValidationError, match="duplicate"):
            ResultTable(records=(record, record))


class TestResultsIO:
    def build_table(self):
        grid = copper_plate_grid()
        profiles = {"current": profile_for([[80.0, 50.0]])}
        config = ExperimentConfig(
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
        assert loaded.records == table.records

    def test_failed_write_keeps_previous_file(self, tmp_path):
        table = self.build_table()
        path = tmp_path / "results.csv"
        save_results(table, path)
        before = path.read_bytes()
        broken = SimpleNamespace(records=(table.records[-1], None))
        with pytest.raises(AttributeError):
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
