import csv
import math

import numpy as np
import pytest

from gridshock.analysis import (
    CostCurve,
    CurvePoint,
    RegionalChange,
    build_cost_curve,
    load_costs,
    lost_load_slope,
    marginal_cost_per_gw,
    population_share,
    population_shares,
    regional_relative_change,
    write_cost_curves,
    write_marginal_slopes,
    write_population_shares,
    write_regional_change,
    zero_impact_demand_gw,
)
import gridshock.csvrows as csvrows_module
from gridshock.errors import DegeneratePeaks, MissingCosts, ParseError, ValidationError
from gridshock.grid import Region, RegionTable
from gridshock.profiles import DemandProfile, StudiedDemand

from helpers import Record, aligned, corrupt_rows, first_impact_fraction, loadtxt_alone, records_of, table_of
from oracles import reference_load_costs


def record(ordering, fraction, scenario, hour, unserved):
    return Record(ordering, fraction, scenario, hour, dict(unserved))


def write_impacts(directory, table, costs, regional):
    """impacts.csv and impacts_regional.csv as impact writes them, from
    {record key: cost} and {record key: {zone: delta_va}}; returns the paths."""
    impacts, per_zone = directory / "impacts.csv", directory / "impacts_regional.csv"
    with open(impacts, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["record_id", "total_cost"])
        for rid, r in zip(table.record_ids(), records_of(table)):
            if r.key in costs:
                writer.writerow([rid, repr(costs[r.key])])
    with open(per_zone, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["record_id", "region", "delta_va"])
        for rid, r in zip(table.record_ids(), records_of(table)):
            for zone, value in regional.get(r.key, {}).items():
                writer.writerow([rid, zone, repr(value)])
    return impacts, per_zone


def priced(records, costs):
    """The table of `records` and its costs, given as {record key: cost}."""
    table = table_of(records)
    return table, aligned(table, costs)


def simple_curve(scenario="current", medians=(0.0, 1.0, 2.0), fractions=(0.0, 0.1, 0.2)):
    points = tuple(
        CurvePoint(fraction=f, median=m, minimum=m, maximum=m)
        for f, m in zip(fractions, medians)
    )
    return CostCurve(scenario=scenario, points=points)


class TestCurveTypes:
    def test_point_ordering_enforced(self):
        with pytest.raises(ValidationError, match="not ordered"):
            CurvePoint(fraction=0.1, median=5.0, minimum=6.0, maximum=7.0)

    def test_fractions_ascending(self):
        with pytest.raises(ValidationError, match="ascending"):
            CostCurve(
                scenario="current",
                points=(
                    CurvePoint(0.2, 1.0, 1.0, 1.0),
                    CurvePoint(0.1, 1.0, 1.0, 1.0),
                ),
            )

    def test_median_at_missing_fraction(self):
        with pytest.raises(ValidationError, match="no point"):
            simple_curve().median_at(0.4)


class TestBuildCostCurve:
    def test_zero_costs_at_zero_fraction(self):
        records = [record(k, 0.0, "current", 0, {"r1": 0.0}) for k in range(3)]
        costs = {r.key: 0.0 for r in records}
        curve = build_cost_curve(*priced(records, costs), "current")
        assert curve.points == (CurvePoint(0.0, 0.0, 0.0, 0.0),)

    def test_median_min_max(self):
        records = [record(k, 0.2, "current", 0, {"r1": 1.0}) for k in range(3)]
        costs = {records[0].key: 2.0, records[1].key: 1.0, records[2].key: 3.0}
        curve = build_cost_curve(*priced(records, costs), "current")
        point = curve.points[0]
        assert (point.median, point.minimum, point.maximum) == (2.0, 1.0, 3.0)

    def test_pools_orderings_and_hours(self):
        records = [
            record(o, 0.1, "current", h, {"r1": 0.0})
            for o in range(3)
            for h in (0, 12)
        ]
        costs = {r.key: float(i) for i, r in enumerate(records)}
        curve = build_cost_curve(*priced(records, costs), "current")
        values = sorted(costs.values())
        assert curve.points[0].median == (values[2] + values[3]) / 2
        assert curve.points[0].minimum == values[0]
        assert curve.points[0].maximum == values[-1]

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(3)
        records = []
        costs = {}
        for o in range(7):
            for f in (0.0, 0.15, 0.3):
                r = record(o, f, "current", 5, {"r1": 0.0})
                records.append(r)
                costs[r.key] = float(np.round(rng.uniform(0, 100), 3))
        curve = build_cost_curve(*priced(records, costs), "current")
        for point in curve.points:
            sample = sorted(
                costs[r.key] for r in records if r.loss_fraction == point.fraction
            )
            assert point.minimum == sample[0]
            assert point.maximum == sample[-1]
            assert point.median == sample[len(sample) // 2]

    def test_missing_cost(self, tmp_path):
        records = [record(0, 0.0, "current", 0, {"r1": 0.0})]
        table = table_of(records)
        with pytest.raises(MissingCosts):
            load_costs(table, *write_impacts(tmp_path, table, {}, {}))

    def test_unknown_scenario(self):
        records = [record(0, 0.0, "current", 0, {"r1": 0.0})]
        costs = {records[0].key: 0.0}
        with pytest.raises(ValidationError, match="flat"):
            build_cost_curve(*priced(records, costs), "flat")


class TestLoadCosts:
    def priced_files(self, tmp_path, regional=None):
        records = [record(o, f, "current", 0, {"r1": 0.0}) for o in range(2) for f in (0.0, 0.4)]
        table = table_of(records)
        keys = [r.key for r in records_of(table)]
        costs = {k: 1.5 * i for i, k in enumerate(keys)}
        if regional is None:
            regional = {k: {"z1": -1.5 * i, "z2": 2.0 if i % 2 else -0.0} for i, k in enumerate(keys)}
        return table, keys, costs, regional, write_impacts(tmp_path, table, costs, regional)

    def test_arrays_in_record_order(self, tmp_path):
        table, keys, costs, regional, paths = self.priced_files(tmp_path)
        loaded, zones, losses = load_costs(table, *paths)
        assert loaded.tolist() == [costs[k] for k in keys]
        assert zones == ("z1", "z2")
        assert losses.tolist() == [[max(0.0, -regional[k][z]) for z in zones] for k in keys]
        # a zero loss is +0.0 whatever the sign of the zero delta_va
        assert all(math.copysign(1.0, v) == 1.0 for v in losses.ravel().tolist())

    def test_records_out_of_order_refused(self, tmp_path):
        table, _, _, _, (impacts, regional) = self.priced_files(tmp_path)
        lines = impacts.read_text(encoding="utf-8").splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        impacts.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(MissingCosts, match="rerun impact"):
            load_costs(table, impacts, regional)

    def test_record_lacking_a_zone_refused(self, tmp_path):
        regional = {(o, f, "current", 0): {"z1": 0.0, "z2": 0.0} for o in range(2) for f in (0.0, 0.4)}
        regional[(1, 0.4, "current", 0)] = {"z1": 0.0}
        table, _, _, _, paths = self.priced_files(tmp_path, regional)
        with pytest.raises(MissingCosts):
            load_costs(table, *paths)

    @pytest.mark.parametrize(
        "name, line, edit, message",
        [
            # each a ParseError on its line, not a bare ValueError or
            # IndexError, nor a row read with a NaN cost or an extra field
            ("impacts.csv", 3, lambda row: row.replace(",1.5", ",x"), "bad numeric value in ['0:0.4:current:0', 'x']"),
            ("impacts.csv", 3, lambda row: row.replace(",1.5", ",nan"), "bad numeric value in ['0:0.4:current:0', 'nan']"),
            ("impacts_regional.csv", 4, lambda row: row.rsplit(",", 1)[0], "expected 3 fields, got 2"),
            ("impacts.csv", 1, lambda row: "record_id,cost", "expected header record_id,total_cost, got record_id,cost"),
            ("impacts_regional.csv", 2, lambda row: row + ",9", "expected 3 fields, got 4"),
        ],
    )
    def test_malformed_line_refused(self, tmp_path, name, line, edit, message):
        table, *_, paths = self.priced_files(tmp_path)
        path = tmp_path / name
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[line - 1] = edit(lines[line - 1])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as error:
            load_costs(table, *paths)
        assert error.value.line == line
        assert str(error.value) == f"{name} line {line}: {message}"


ZONES_ROW = np.dtype([("record_id", object), ("region", object), ("delta_va", float)])


def first_bad_regional_line(rows: list[str]) -> int | None:
    """The line of the first of impacts_regional.csv's data `rows` that
    loadtxt refuses alone, that holds a quote, or whose delta_va is NaN."""
    for number, row in enumerate(rows, start=2):
        if not row:
            continue  # a line holding only its line end
        fields = loadtxt_alone(row, ZONES_ROW)
        if fields is None or '"' in row or math.isnan(fields[2]):
            return number
    return None


class TestRegionalFuzz:
    @pytest.mark.parametrize("seed", range(50))
    def test_refused_on_its_first_bad_line_or_read_as_the_reference(self, tmp_path, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        monkeypatch.setattr(csvrows_module, "_CHUNK_ROWS", int(rng.choice([1, 7, 50_000])))
        n_orderings, zones = int(rng.integers(2, 5)), [f"z{k}" for k in range(int(rng.integers(1, 5)))]
        table = table_of([record(o, f, "current", 0, {"r1": 0.0}) for o in range(n_orderings) for f in (0.0, 0.25)])
        keys = [r.key for r in records_of(table)]
        costs = {k: float(rng.uniform(0.0, 10.0)) for k in keys}
        regional = {k: {z: float(rng.choice([0.0, -0.0, rng.uniform(-5.0, 5.0)])) for z in zones} for k in keys}
        impacts, per_zone = write_impacts(tmp_path, table, costs, regional)
        header, *rows = per_zone.read_text(encoding="utf-8").splitlines()
        rows = corrupt_rows(rng, rows, ["x", "nan", "1_0", "z0", "0:0.0:current:0", "7.5", "\u0661"])
        ending = str(rng.choice(["\n", "\r\n", "\r"]))
        per_zone.write_bytes((ending.join([header, *rows]) + ending).encode("utf-8"))
        bad = first_bad_regional_line(rows)
        if bad is not None:
            with pytest.raises(ParseError) as error:
                load_costs(table, impacts, per_zone)
            assert error.value.line == bad
            return
        try:
            reference = reference_load_costs(table, impacts, per_zone)
        except MissingCosts:  # a row dropped, moved or repeated, or an id edited
            with pytest.raises(MissingCosts):
                load_costs(table, impacts, per_zone)
            return
        mine = load_costs(table, impacts, per_zone)
        assert mine[1] == reference[1]
        for ours, theirs in ((mine[0], reference[0]), (mine[2], reference[2])):
            assert ours.tobytes() == theirs.tobytes() and ours.shape == theirs.shape


class TestFirstImpact:
    def test_all_zero_returns_none(self):
        assert first_impact_fraction(simple_curve(medians=(0.0, 0.0, 0.0))) is None

    def test_first_positive_grid_point(self):
        curve = simple_curve(medians=(0.0, 0.0, 7.5), fractions=(0.0, 0.1, 0.15))
        assert first_impact_fraction(curve) == 0.15

    def test_threshold(self):
        curve = simple_curve(medians=(1.0, 2.0, 3.0))
        assert first_impact_fraction(curve, threshold=2.0) == 0.2


class TestMarginalCost:
    def test_two_point_secant(self):
        curves = {
            "current": simple_curve("current", medians=(0.0,), fractions=(0.4,)),
            "heat_pump": simple_curve("heat_pump", medians=(5.6e6,), fractions=(0.4,)),
        }
        peaks = {"current": 52.1, "heat_pump": 57.7}
        slope = marginal_cost_per_gw(curves, peaks, 0.4)
        assert slope == (5.6e6 - 0.0) / (57.7 - 52.1)
        assert slope == pytest.approx(1.0e6, rel=1e-9)

    def test_identical_costs_zero_slope(self):
        curves = {
            s: simple_curve(s, medians=(3.0,), fractions=(0.4,))
            for s in ("a", "b", "c")
        }
        peaks = {"a": 40.0, "b": 50.0, "c": 60.0}
        assert marginal_cost_per_gw(curves, peaks, 0.4) == 0.0

    def test_least_squares_three_points(self):
        curves = {
            "a": simple_curve("a", medians=(1.0,), fractions=(0.4,)),
            "b": simple_curve("b", medians=(2.0,), fractions=(0.4,)),
            "c": simple_curve("c", medians=(4.0,), fractions=(0.4,)),
        }
        peaks = {"a": 10.0, "b": 20.0, "c": 30.0}
        # hand least squares: sxy = 30, sxx = 200
        assert marginal_cost_per_gw(curves, peaks, 0.4) == pytest.approx(0.15)

    def test_degenerate_peaks(self):
        curves = {
            "a": simple_curve("a", medians=(1.0,), fractions=(0.4,)),
            "b": simple_curve("b", medians=(2.0,), fractions=(0.4,)),
        }
        with pytest.raises(DegeneratePeaks):
            marginal_cost_per_gw(curves, {"a": 50.0, "b": 50.0}, 0.4)

    def test_needs_two_scenarios(self):
        curves = {"a": simple_curve("a", medians=(1.0,), fractions=(0.4,))}
        with pytest.raises(ValidationError, match="two scenarios"):
            marginal_cost_per_gw(curves, {"a": 50.0}, 0.4)

    def test_missing_peak(self):
        curves = {
            "a": simple_curve("a", medians=(1.0,), fractions=(0.4,)),
            "b": simple_curve("b", medians=(2.0,), fractions=(0.4,)),
        }
        with pytest.raises(ValidationError, match="peak demand"):
            marginal_cost_per_gw(curves, {"a": 50.0}, 0.4)


class TestLostLoadSlope:
    def test_two_fraction_secant(self):
        records = [
            record(0, 0.0, "current", 0, {"r1": 0.0}),
            record(0, 0.4, "current", 0, {"r1": 2000.0}),
        ]
        costs = {records[0].key: 0.0, records[1].key: 5.0e6}
        slope = lost_load_slope(*priced(records, costs), "current")
        assert slope == pytest.approx(2.5e6)

    def test_never_sheds_returns_none(self):
        records = [
            record(0, 0.0, "current", 0, {"r1": 0.0}),
            record(0, 0.4, "current", 0, {"r1": 0.0}),
        ]
        costs = {r.key: 0.0 for r in records}
        assert lost_load_slope(*priced(records, costs), "current") is None


class TestRegionalChange:
    def build(self, current, scenario, fraction=0.4, name="heat_pump"):
        """(table, zones, records x zones costs) of per-record {zone: cost}."""
        records = []
        costs = {}
        for o, values in enumerate(current):
            r = record(o, fraction, "current", 0, {k: 0.0 for k in values})
            records.append(r)
            costs[r.key] = dict(values)
        for o, values in enumerate(scenario):
            r = record(o, fraction, name, 0, {k: 0.0 for k in values})
            records.append(r)
            costs[r.key] = dict(values)
        table = table_of(records)
        zones = sorted(current[0])
        return table, zones, np.array([[costs[r.key][z] for z in zones] for r in records_of(table)])

    def test_identical_scenarios_ratio_one(self):
        values = [{"R1": 5.0, "R2": 2.0}, {"R1": 7.0, "R2": 4.0}]
        inputs = self.build(values, values)
        change = regional_relative_change(*inputs, "heat_pump", 0.4)
        assert change.ratios == {"R1": 1.0, "R2": 1.0}

    def test_doubled_costs_ratio_two(self):
        current = [{"R1": 5.0}, {"R1": 7.0}]
        doubled = [{"R1": 10.0}, {"R1": 14.0}]
        inputs = self.build(current, doubled)
        change = regional_relative_change(*inputs, "heat_pump", 0.4)
        assert change.ratios == {"R1": 2.0}

    def test_zero_over_zero_is_no_change(self):
        inputs = self.build([{"R1": 0.0}], [{"R1": 0.0}])
        change = regional_relative_change(*inputs, "heat_pump", 0.4)
        assert change.ratios == {"R1": None}

    def test_positive_over_zero_is_inf(self):
        inputs = self.build([{"R1": 0.0}], [{"R1": 3.0}])
        change = regional_relative_change(*inputs, "heat_pump", 0.4)
        assert change.ratios == {"R1": math.inf}

    def test_missing_records(self):
        inputs = self.build([{"R1": 1.0}], [{"R1": 1.0}])
        with pytest.raises(ValidationError, match="flat"):
            regional_relative_change(*inputs, "flat", 0.4)

    def test_matches_hand_computation(self):
        current = [{"R1": 1.0}, {"R1": 3.0}, {"R1": 10.0}]
        other = [{"R1": 6.0}, {"R1": 2.0}, {"R1": 40.0}]
        inputs = self.build(current, other)
        change = regional_relative_change(*inputs, "heat_pump", 0.4)
        assert change.ratios["R1"] == 6.0 / 3.0

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValidationError, match="R1"):
            RegionalChange("a", "current", 0.4, {"R1": -0.5})


def region_table(pops, parent_prefix="E"):
    return RegionTable(
        regions=tuple(
            Region(f"R{k}", f"{parent_prefix}{k}", pop, 1.0, 1.0)
            for k, pop in enumerate(pops)
        )
    )


class TestPopulationShare:
    def change_of(self, ratios):
        return RegionalChange("heat_pump", "current", 0.4, ratios)

    def test_all_unchanged(self):
        change = self.change_of({"R0": 1.0, "R1": 1.0})
        regions = region_table([5.0, 5.0])
        assert population_share(change, regions, "worse") == 0.0
        assert population_share(change, regions, "better") == 0.0

    def test_equal_population_split(self):
        change = self.change_of({"R0": 2.0, "R1": 0.5})
        regions = region_table([5.0, 5.0])
        assert population_share(change, regions, "worse") == 0.5
        assert population_share(change, regions, "better") == 0.5

    def test_weighted_shares_exact(self):
        change = self.change_of({"R0": 1.5, "R1": 1.0, "R2": 0.8})
        regions = region_table([10.0, 30.0, 60.0])
        worse, better, unchanged = population_shares(change, regions)
        assert worse == 0.10
        assert better == 0.60
        assert worse + better + unchanged == 1.0

    def test_no_change_marker_counts_neither(self):
        change = self.change_of({"R0": None, "R1": 2.0})
        regions = region_table([50.0, 50.0])
        assert population_share(change, regions, "worse") == 0.5
        assert population_share(change, regions, "better") == 0.0

    def test_inf_counts_worse(self):
        change = self.change_of({"R0": math.inf, "R1": 0.5})
        regions = region_table([25.0, 75.0])
        assert population_share(change, regions, "worse") == 0.25

    def test_parent_aggregation(self):
        # change keyed by economic regions, populations live on districts
        change = self.change_of({"E": 2.0, "W": 0.5})
        regions = RegionTable(
            regions=(
                Region("d1", "E", 10.0, 1.0, 1.0),
                Region("d2", "E", 30.0, 1.0, 1.0),
                Region("d3", "W", 60.0, 1.0, 1.0),
            )
        )
        assert population_share(change, regions, "worse") == 0.4
        assert population_share(change, regions, "better") == 0.6

    def test_unknown_region(self):
        change = self.change_of({"nowhere": 2.0})
        with pytest.raises(ValidationError, match="nowhere"):
            population_share(change, region_table([1.0]), "worse")

    def test_direction_validated(self):
        change = self.change_of({"R0": 2.0})
        with pytest.raises(ValidationError, match="direction"):
            population_share(change, region_table([1.0]), "sideways")


class TestZeroImpactDemand:
    def profile(self, scenario, demands):
        profile = DemandProfile(
            scenario=scenario,
            regions=("r1",),
            hours=np.arange(len(demands)),
            demand_mw=np.array([demands], dtype=float),
        )
        return StudiedDemand.from_profile(profile, profile.hours)

    def test_largest_quiet_demand(self):
        records = [
            record(o, f, "current", h, {"r1": 0.0})
            for o in range(3)
            for f in (0.0, 0.4)
            for h in (0, 1)
        ]
        costs = {}
        for r in records:
            costly = r.hour == 1 and r.loss_fraction == 0.4
            costs[r.key] = 9.9 if costly else 0.0
        profiles = {"current": self.profile("current", [18600.0, 30000.0])}
        value = zero_impact_demand_gw(*priced(records, costs), profiles)
        assert value == pytest.approx(18.6)

    def test_none_when_everything_costs(self):
        records = [record(0, 0.4, "current", 0, {"r1": 0.0})]
        costs = {records[0].key: 1.0}
        profiles = {"current": self.profile("current", [100.0])}
        assert zero_impact_demand_gw(*priced(records, costs), profiles) is None


class TestWriters:
    def test_cost_curve_round_trip(self, tmp_path):
        curve = simple_curve(medians=(0.0, 1.5, 2.25))
        path = tmp_path / "cost_curve.csv"
        write_cost_curves([curve], path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["scenario", "fraction", "median", "min", "max"]
        assert len(rows) == 4
        assert float(rows[2][2]) == 1.5

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "cost_curve.csv"
        write_cost_curves([simple_curve(medians=(0.0, 1.5, 2.25))], path)
        before = path.read_bytes()
        with pytest.raises(AttributeError):
            write_cost_curves([simple_curve(medians=(0.0, 3.0, 4.0)), None], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cost_curve.csv"]

    def test_marginal_writer(self, tmp_path):
        path = tmp_path / "marginal.csv"
        write_marginal_slopes(
            [("peak_demand", "", 0.4, 1.0e6), ("lost_load", "current", None, 2.5e6)],
            path,
        )
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["axis", "scenario", "fraction", "slope_per_gw"]
        assert rows[1] == ["peak_demand", "", "0.4", "1000000.0"]
        assert rows[2][2] == ""

    def test_regional_change_writer(self, tmp_path):
        change = RegionalChange(
            "heat_pump", "current", 0.4, {"R1": 2.0, "R2": None, "R3": math.inf}
        )
        path = tmp_path / "regional_change.csv"
        write_regional_change(change, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["region", "ratio"]
        assert rows[1] == ["R1", "2.0"]
        assert rows[2] == ["R2", ""]
        assert float(rows[3][1]) == math.inf

    def test_population_share_writer(self, tmp_path):
        path = tmp_path / "population_share.csv"
        write_population_shares([("heat_pump", 0.1, 0.6, 0.3)], path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["scenario", "worse", "better", "unchanged"]
        assert rows[1][0] == "heat_pump"
        assert float(rows[1][1]) == 0.1
