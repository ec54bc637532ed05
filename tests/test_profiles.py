import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import gridshock.csvrows as csvrows_module
from gridshock.errors import (
    MisalignedHours,
    ParseError,
    SharesNotNormalized,
    ValidationError,
)
from gridshock.grid import Region, RegionTable
from gridshock.profiles import (
    DIURNAL_SHAPE,
    HOURS_PER_YEAR,
    DemandProfile,
    ScenarioSpec,
    StudiedDemand,
    apply_efficiency,
    apply_flat,
    apply_heat_pump,
    load_profile,
    load_studied_demand,
    save_profile,
    save_studied_demand,
    synthesize_current,
)
from gridshock.synthetic import generate_gb_like, generate_small, write_fixture
from helpers import corrupt_rows, loadtxt_alone, trough_hour
from oracles import (
    reference_load_profile,
    reference_load_studied_demand,
    reference_save_profile,
    reference_split_load_profile,
)


def make_regions():
    return RegionTable(
        regions=(
            Region("north", "N", 1000.0, 50.0, 87.6),
            Region("south", "S", 3000.0, 150.0, 175.2),
        )
    )


def small_profile(values, regions=("a", "b"), hours=None, scenario="current"):
    values = np.asarray(values, dtype=float)
    if hours is None:
        hours = np.arange(values.shape[1])
    return DemandProfile(
        scenario=scenario, regions=tuple(regions), hours=hours, demand_mw=values
    )


class TestDemandProfile:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="does not match"):
            DemandProfile("current", ("a",), np.arange(3), np.ones((2, 3)))

    def test_duplicate_regions_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            small_profile(np.ones((2, 2)), regions=("a", "a"))

    def test_unsorted_hours_rejected(self):
        with pytest.raises(ValidationError, match="increasing"):
            small_profile(np.ones((1, 2)), regions=("a",), hours=np.array([5, 5]))

    def test_out_of_range_hours_rejected(self):
        with pytest.raises(ValidationError, match="8760"):
            small_profile(
                np.ones((1, 2)), regions=("a",), hours=np.array([8759, 8760])
            )

    def test_negative_demand_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            small_profile([[1.0, -2.0]], regions=("a",))

    def test_national_and_lookups(self):
        profile = small_profile([[1.0, 2.0], [10.0, 20.0]])
        assert np.array_equal(profile.national(), [11.0, 22.0])
        assert profile.demand_at("b", 1) == 20.0
        assert profile.peak_hour() == 1
        assert trough_hour(profile) == 0

    def test_annual_energy(self):
        profile = small_profile([[500.0, 1500.0]], regions=("a",))
        assert profile.annual_gwh("a") == 2.0


class TestScenarioSpec:
    def test_defaults(self):
        spec = ScenarioSpec(kind="heat_pump")
        assert spec.hp_penetration == 0.20
        assert spec.hp_cop == 3.0

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            ScenarioSpec(kind="wibble")

    @pytest.mark.parametrize("penetration", [-0.1, 1.5])
    def test_penetration_range(self, penetration):
        with pytest.raises(ValidationError, match="penetration"):
            ScenarioSpec(kind="heat_pump", hp_penetration=penetration)

    def test_cop_positive(self):
        with pytest.raises(ValidationError, match="COP"):
            ScenarioSpec(kind="heat_pump", hp_cop=0.0)

    @pytest.mark.parametrize("factor", [0.0, 1.2, -0.5])
    def test_factor_range(self, factor):
        with pytest.raises(ValidationError, match="factor"):
            ScenarioSpec(kind="efficiency", efficiency_factors={"heating": factor})


class TestSynthesize:
    def test_annual_energy_preserved(self):
        profile = synthesize_current(make_regions(), seed=7)
        assert profile.scenario == "current"
        assert profile.hours.size == HOURS_PER_YEAR
        # renormalization makes the annual total essentially exact
        assert profile.annual_gwh("north") == pytest.approx(87.6, rel=1e-12)
        assert profile.annual_gwh("south") == pytest.approx(175.2, rel=1e-12)

    def test_peak_is_evening_in_winter(self):
        profile = synthesize_current(make_regions(), seed=3)
        peak = profile.peak_hour()
        assert peak % 24 == 19
        day = peak // 24
        assert day < 60 or day > 300

    def test_minimum_is_overnight_in_summer(self):
        profile = synthesize_current(make_regions(), seed=3)
        trough = trough_hour(profile)
        assert trough % 24 == 3
        assert 120 < trough // 24 < 240

    def test_deterministic_per_seed(self):
        a = synthesize_current(make_regions(), seed=11)
        b = synthesize_current(make_regions(), seed=11)
        c = synthesize_current(make_regions(), seed=12)
        assert np.array_equal(a.demand_mw, b.demand_mw)
        assert not np.array_equal(a.demand_mw, c.demand_mw)

    def test_noise_is_small(self):
        profile = synthesize_current(make_regions(), seed=5)
        quiet = synthesize_current(make_regions(), seed=5, noise_half_width=0.0)
        ratio = profile.demand_mw / quiet.demand_mw
        assert np.all(np.abs(ratio - 1.0) < 0.011)

    def test_diurnal_shape_survives(self):
        profile = synthesize_current(make_regions(), seed=1, noise_half_width=0.0)
        one_day = profile.demand_mw[0, :24]
        expected = DIURNAL_SHAPE / DIURNAL_SHAPE.mean()
        assert np.allclose(one_day / one_day.mean(), expected, rtol=1e-12)


class TestHeatPump:
    def test_uplift_value(self):
        # 20% of 300 MW thermal at COP 3 adds 20 MW
        profile = small_profile([[100.0, 100.0]], regions=("a",))
        heat = small_profile([[300.0, 300.0]], regions=("a",), scenario="heat")
        spec = ScenarioSpec(kind="heat_pump", hp_penetration=0.2, hp_cop=3.0)
        out = apply_heat_pump(profile, spec, heat)
        assert out.scenario == "heat_pump"
        assert np.array_equal(out.demand_mw, [[120.0, 120.0]])

    def test_zero_penetration_is_identity(self):
        profile = small_profile([[100.0, 50.0]], regions=("a",))
        heat = small_profile([[300.0, 300.0]], regions=("a",))
        spec = ScenarioSpec(kind="heat_pump", hp_penetration=0.0)
        out = apply_heat_pump(profile, spec, heat)
        assert np.array_equal(out.demand_mw, profile.demand_mw)

    def test_misaligned_hours(self):
        profile = small_profile([[1.0, 2.0]], regions=("a",), hours=np.array([0, 1]))
        heat = small_profile([[1.0, 2.0]], regions=("a",), hours=np.array([1, 2]))
        with pytest.raises(MisalignedHours):
            apply_heat_pump(profile, ScenarioSpec(kind="heat_pump"), heat)

    def test_missing_heat_region(self):
        profile = small_profile([[1.0], [2.0]])
        heat = small_profile([[1.0]], regions=("a",))
        with pytest.raises(ValidationError, match="missing regions: b"):
            apply_heat_pump(profile, ScenarioSpec(kind="heat_pump"), heat)

    def test_heat_regions_align_by_name(self):
        profile = small_profile([[10.0], [20.0]], regions=("a", "b"))
        heat = small_profile([[30.0], [60.0]], regions=("b", "a"))
        spec = ScenarioSpec(kind="heat_pump", hp_penetration=1.0, hp_cop=1.0)
        out = apply_heat_pump(profile, spec, heat)
        assert np.array_equal(out.demand_mw, [[70.0], [50.0]])

    def test_original_untouched(self):
        profile = small_profile([[100.0]], regions=("a",))
        heat = small_profile([[300.0]], regions=("a",))
        apply_heat_pump(profile, ScenarioSpec(kind="heat_pump"), heat)
        assert profile.demand_mw[0, 0] == 100.0


class TestEfficiency:
    def test_weighted_multiplier(self):
        # equal shares of factors 0.9 and 0.7 scale demand by 0.8
        profile = small_profile([[100.0, 50.0]], regions=("a",))
        spec = ScenarioSpec(
            kind="efficiency", efficiency_factors={"heating": 0.9, "appliances": 0.7}
        )
        shares = {"a": {"heating": 0.5, "appliances": 0.5}}
        out = apply_efficiency(profile, spec, shares)
        assert out.scenario == "efficiency"
        assert np.array_equal(out.demand_mw, [[80.0, 40.0]])

    def test_never_increases(self):
        rng = np.random.default_rng(4)
        profile = small_profile(rng.uniform(1.0, 50.0, (2, 48)))
        spec = ScenarioSpec(
            kind="efficiency",
            efficiency_factors={"heating": 0.85, "lighting": 0.4, "other": 1.0},
        )
        shares = {
            "a": {"heating": 0.3, "lighting": 0.2, "other": 0.5},
            "b": {"heating": 0.6, "lighting": 0.1, "other": 0.3},
        }
        out = apply_efficiency(profile, spec, shares)
        assert np.all(out.demand_mw <= profile.demand_mw)
        assert np.all(out.demand_mw > 0.0)

    def test_shares_not_normalized(self):
        profile = small_profile([[1.0]], regions=("a",))
        spec = ScenarioSpec(kind="efficiency", efficiency_factors={"heating": 0.9})
        with pytest.raises(SharesNotNormalized, match="region a"):
            apply_efficiency(profile, spec, {"a": {"heating": 0.7}})

    def test_missing_region_shares(self):
        profile = small_profile([[1.0], [1.0]])
        spec = ScenarioSpec(kind="efficiency", efficiency_factors={"heating": 0.9})
        with pytest.raises(ValidationError, match="region b"):
            apply_efficiency(profile, spec, {"a": {"heating": 1.0}})

    def test_missing_factor(self):
        profile = small_profile([[1.0]], regions=("a",))
        spec = ScenarioSpec(kind="efficiency", efficiency_factors={"heating": 0.9})
        with pytest.raises(ValidationError, match="lighting"):
            apply_efficiency(profile, spec, {"a": {"heating": 0.5, "lighting": 0.5}})

    def test_spec_without_factors(self):
        profile = small_profile([[1.0]], regions=("a",))
        with pytest.raises(ValidationError, match="factors"):
            apply_efficiency(profile, ScenarioSpec(kind="efficiency"), {"a": {"x": 1.0}})


class TestFlat:
    def test_region_means(self):
        profile = small_profile([[10.0, 30.0], [5.0, 5.0]])
        out = apply_flat(profile)
        assert out.scenario == "flat"
        assert np.array_equal(out.demand_mw, [[20.0, 20.0], [5.0, 5.0]])

    def test_total_energy_preserved_exactly(self):
        rng = np.random.default_rng(9)
        profile = small_profile(rng.uniform(0.0, 100.0, (3, 96)), regions=("a", "b", "c"))
        out = apply_flat(profile)
        for region in profile.regions:
            k = profile.region_pos[region]
            assert out.demand_mw[k].sum() == pytest.approx(
                profile.demand_mw[k].sum(), rel=1e-12
            )

    def test_idempotent(self):
        profile = small_profile([[10.0, 30.0]], regions=("a",))
        once = apply_flat(profile)
        twice = apply_flat(once)
        assert np.array_equal(once.demand_mw, twice.demand_mw)

    def test_flat_peak_below_current_peak(self):
        profile = synthesize_current(make_regions(), seed=2)
        flat = apply_flat(profile)
        assert flat.national().max() < profile.national().max()


class TestScenarioOrdering:
    def test_peak_ordering_on_synthetic_year(self):
        regions = make_regions()
        current = synthesize_current(regions, seed=6)
        heat = replace_scenario(current, 0.6)
        factors = {"heating": 0.85, "lighting": 0.7, "appliances": 0.95}
        shares = {
            r.id: {"heating": 0.4, "lighting": 0.2, "appliances": 0.4}
            for r in regions.regions
        }
        eff_spec = ScenarioSpec(kind="efficiency", efficiency_factors=factors)
        hp = apply_heat_pump(current, ScenarioSpec(kind="heat_pump"), heat)
        eff = apply_efficiency(current, eff_spec, shares)
        flat = apply_flat(current)
        peaks = {p.scenario: p.national().max() for p in (current, hp, eff, flat)}
        assert peaks["heat_pump"] > peaks["current"] > peaks["efficiency"]
        assert peaks["flat"] < peaks["current"]


def replace_scenario(profile, heat_fraction):
    """Thermal series proportional to demand, winter-weighted."""
    return DemandProfile(
        scenario="heat",
        regions=profile.regions,
        hours=profile.hours,
        demand_mw=profile.demand_mw * heat_fraction,
    )


class TestProfileIO:
    def test_round_trip(self, tmp_path):
        profile = small_profile([[1.5, 2.25], [0.125, 7.0]], hours=np.array([4, 9]))
        path = tmp_path / "demand.csv"
        save_profile(profile, path)
        loaded = load_profile(path, scenario="current")
        assert loaded.regions == profile.regions
        assert np.array_equal(loaded.hours, profile.hours)
        assert np.array_equal(loaded.demand_mw, profile.demand_mw)

    def test_writer_refuses_a_region_with_surrounding_blanks(self, tmp_path):
        # the reader strips them, so the file would read back as region 'A'
        path = tmp_path / "current.csv"
        with pytest.raises(ValidationError) as error:
            save_profile(small_profile([[1.0]], regions=(" A",)), path)
        assert str(error.value) == "region id ' A' has surrounding blanks"
        assert not list(tmp_path.iterdir())

    def test_scenario_defaults_to_stem(self, tmp_path):
        path = tmp_path / "efficiency.csv"
        save_profile(small_profile([[1.0]], regions=("a",)), path)
        assert load_profile(path).scenario == "efficiency"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("region,demand_mw\n")
        with pytest.raises(ParseError, match="header"):
            load_profile(path)

    @pytest.mark.parametrize("column", ["heat_mw", "foo", "Demand_MW", ""])
    def test_other_value_column_refused(self, tmp_path, column):
        # three fields are not enough: demand_mw is the only value column
        path = tmp_path / "current.csv"
        path.write_text(f"region,hour,{column}\na,0,1.0\n")
        with pytest.raises(ParseError) as error:
            load_profile(path)
        assert error.value.line == 1
        assert str(error.value) == (
            f"current.csv line 1: expected header region,hour,demand_mw, got region,hour,{column}"
        )

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("region,hour,demand_mw\na,0,1.0\na,one,2.0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_profile(path)

    def test_duplicate_hour_rejected(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("region,hour,demand_mw\na,0,1.0\na,0,2.0\n")
        with pytest.raises(ParseError, match="duplicate hour"):
            load_profile(path)

    def test_ragged_hours_rejected(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("region,hour,demand_mw\na,0,1.0\nb,0,1.0\nb,1,2.0\n")
        with pytest.raises(MisalignedHours):
            load_profile(path)


def random_profile_text(rng, column):
    """A valid profile file as text, with the variations the reader accepts:
    blanks around fields, empty lines, rows in any order."""
    ids = set()
    while len(ids) < int(rng.integers(1, 6)):
        ids.add("".join(rng.choice(list("abxyz019_-.é"), size=int(rng.integers(1, 5)))))
    ids = sorted(ids) if rng.random() < 0.5 else list(ids)
    hours = np.sort(rng.choice(HOURS_PER_YEAR, size=int(rng.integers(1, 40)), replace=False))
    rows = [
        (region, int(hour), float(rng.choice([0.0, 3.0, rng.uniform(0.0, 1e4)])))
        for region in ids
        for hour in hours
    ]
    if rng.random() < 0.5:
        rows = [rows[k] for k in rng.permutation(len(rows))]

    def pad():
        return " " * int(rng.integers(1, 3)) if rng.random() < 0.2 else ""

    lines = [f"region,hour,{column}"]
    for region, hour, value in rows:
        lines.append(f"{pad()}{region}{pad()},{pad()}{hour}{pad()},{pad()}{value!r}{pad()}")
        while rng.random() < 0.1:
            lines.append("")
    ending = "\r\n" if rng.random() < 0.5 else "\n"
    text = ending.join(lines)
    return text + ending if rng.random() < 0.7 else text


def write_lines(path, lines, ending="\n"):
    path.write_bytes((ending.join(lines) + ending).encode("utf-8"))
    return path


def valid_lines(rows=12, blank_every=3):
    """Header plus rows of regions a and b over hours 0.., with blank lines."""
    lines = ["region,hour,demand_mw"]
    for k in range(rows):
        lines.append(f"{'ab'[k % 2]},{k // 2},{k + 0.5!r}")
        if k % blank_every == blank_every - 1:
            lines.append("")
    return lines


def assert_same_profile(mine, reference):
    assert mine.regions == reference.regions
    assert mine.hours.tobytes() == reference.hours.tobytes()
    assert mine.demand_mw.dtype == reference.demand_mw.dtype
    assert mine.demand_mw.tobytes() == reference.demand_mw.tobytes()


class TestChunkedReader:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_reference_parser(self, tmp_path, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        monkeypatch.setattr(csvrows_module, "_CHUNK_ROWS", int(rng.choice([1, 7, 50_000])))
        column = "heat_mw" if rng.random() < 0.3 else "demand_mw"
        path = tmp_path / "demand.csv"
        path.write_bytes(random_profile_text(rng, column).encode("utf-8"))
        if column != "demand_mw":
            # a file of well-formed rows under another value column is refused
            with pytest.raises(ParseError) as mine:
                load_profile(path)
            with pytest.raises(ParseError) as reference:
                reference_load_profile(path)
            assert mine.value.line == reference.value.line == 1
            assert str(mine.value) == str(reference.value)
            return
        mine = load_profile(path)
        reference = reference_load_profile(path)
        assert mine.scenario == reference.scenario == "demand"
        assert mine.regions == reference.regions
        assert mine.hours.dtype == reference.hours.dtype
        assert mine.hours.tobytes() == reference.hours.tobytes()
        assert mine.demand_mw.dtype == reference.demand_mw.dtype
        assert mine.demand_mw.tobytes() == reference.demand_mw.tobytes()
        assert_same_profile(mine, reference_split_load_profile(path))

    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ("a,9", "expected 3 fields, got 2"),
            ("a,9,1.0,2", "expected 3 fields, got 4"),
            ("a,nine,1.0", "bad numeric value in ['a', 'nine', '1.0']"),
            ("a,9,x", "bad numeric value in ['a', '9', 'x']"),
            ("a,9.0,1.0", "bad numeric value in ['a', '9.0', '1.0']"),
            ("a,7.9,1.0", "bad numeric value in ['a', '7.9', '1.0']"),
            ("a,1e3,1.0", "bad numeric value in ['a', '1e3', '1.0']"),
            (" a ,2,9.0", "duplicate hour 2 for region a"),
        ],
    )
    def test_error_line_after_chunk_boundary(self, tmp_path, monkeypatch, ending, bad, message):
        monkeypatch.setattr(csvrows_module, "_CHUNK_ROWS", 3)
        lines = valid_lines()
        lines.insert(11, bad)  # after 8 rows, 2 blank lines and several chunks
        path = write_lines(tmp_path / "demand.csv", lines, ending)
        with pytest.raises(ParseError) as mine:
            load_profile(path)
        with pytest.raises(ParseError) as reference:
            reference_load_profile(path)
        assert mine.value.line == reference.value.line == 12
        assert str(mine.value) == str(reference.value) == f"demand.csv line 12: {message}"

    @pytest.mark.parametrize("repeat_first", [True, False])
    def test_first_of_a_repeated_hour_and_a_bad_row_is_named(self, tmp_path, repeat_first):
        # the exact path finds repeated hours on its parsed columns, so a
        # repeat before the bad row must still be the error
        lines = valid_lines()
        rows = ["a,1,9.0", "a,nine,1.0"] if repeat_first else ["a,nine,1.0", "a,1,9.0"]
        lines.insert(14, rows[1])
        lines.insert(9, rows[0])
        path = write_lines(tmp_path / "demand.csv", lines)
        with pytest.raises(ParseError) as mine:
            load_profile(path)
        with pytest.raises(ParseError) as reference:
            reference_load_profile(path)
        assert str(mine.value) == str(reference.value)
        assert mine.value.line == 10
        assert ("duplicate hour 1 for region a" in str(mine.value)) == repeat_first

    @pytest.mark.parametrize("chunk", [1, 50_000])
    @pytest.mark.parametrize("hour", ["99999999999999999999", "-9223372036854775809"])
    def test_hour_beyond_int64_is_a_parse_error(self, tmp_path, monkeypatch, chunk, hour):
        monkeypatch.setattr(csvrows_module, "_CHUNK_ROWS", chunk)
        lines = valid_lines()
        lines.insert(11, f"a,{hour},1.0")
        path = write_lines(tmp_path / "demand.csv", lines)
        with pytest.raises(ParseError) as error:
            load_profile(path)
        assert error.value.line == 12
        assert str(error.value) == f"demand.csv line 12: bad numeric value in ['a', '{hour}', '1.0']"

    def test_one_row_hour_beyond_int64(self, tmp_path):
        path = write_lines(tmp_path / "demand.csv", ["region,hour,demand_mw", "a,99999999999999999999,1.0"])
        with pytest.raises(ParseError, match="line 2: bad numeric value in .'a', '99999999999999999999'"):
            load_profile(path)

    @pytest.mark.parametrize("chunk", [1, 50_000])
    def test_balanced_field_counts_rejected(self, tmp_path, monkeypatch, chunk):
        # a 4-field and a 2-field row hold the comma count of two good rows
        monkeypatch.setattr(csvrows_module, "_CHUNK_ROWS", chunk)
        lines = valid_lines()
        lines[5:5] = ["a,7,1.0,2", "3,4"]
        path = write_lines(tmp_path / "demand.csv", lines)
        with pytest.raises(ParseError, match="line 6: expected 3 fields, got 4"):
            load_profile(path)

    def test_quoted_field_rejected(self, tmp_path):
        lines = valid_lines()
        lines.insert(7, '"a",9,1.0')
        path = write_lines(tmp_path / "demand.csv", lines)
        with pytest.raises(ParseError, match="line 8: quoted fields"):
            load_profile(path)

    @pytest.mark.parametrize(
        "lines, error",
        [
            (["region,hour,demand_mw", "", ""], ValidationError),
            (["region,hour,demand_mw", "a,0,1.0", "", "b,1,1.0"], MisalignedHours),
            (["region,hour,demand_mw", "a,0,1.0", "a,1,1.0", "b,1,1.0"], MisalignedHours),
            (["region,hour", "a,0,1.0"], ParseError),
            ([""], ParseError),
        ],
    )
    def test_file_level_errors_match_reference(self, tmp_path, lines, error):
        path = write_lines(tmp_path / "demand.csv", lines)
        with pytest.raises(error) as mine:
            load_profile(path)
        with pytest.raises(error) as reference:
            reference_load_profile(path)
        assert str(mine.value) == str(reference.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_bytes(b"")
        with pytest.raises(ParseError, match="^demand.csv line 1: file is empty$"):
            load_profile(path)

    @pytest.mark.parametrize(
        "hour, hour_text, value_text, refused",
        [
            (10, "1_0", "2.5", True),
            (1, "\u0661", "2.5", True),
            (3, "3", "\u0663.\u0665", True),
            (3, "3", "1_0.5", True),
            (4, " +4 ", "\xa01.5", False),
        ],
    )
    def test_int_float_spellings(self, tmp_path, hour, hour_text, value_text, refused):
        # int() and float() also take underscores and non-ASCII digits;
        # the reader takes what loadtxt takes, blanks and signs among them
        lines = ["region,hour,demand_mw"] + [
            f"a,{hour_text},{value_text}" if (r, h) == ("a", hour) else f"{r},{h},{h + 0.5!r}"
            for r in "ab"
            for h in range(12)
        ]
        path = write_lines(tmp_path / "demand.csv", lines)
        if refused:
            with pytest.raises(ParseError) as error:
                load_profile(path)
            assert str(error.value) == (
                f"demand.csv line {hour + 2}: bad numeric value in ['a', '{hour_text}', '{value_text}']"
            )
            return
        mine = load_profile(path)
        assert_same_profile(mine, reference_load_profile(path))
        assert mine.demand_at("a", hour) == float(value_text)

    def test_random_repr_floats_match_reference(self, tmp_path):
        rng = np.random.default_rng(11)
        regions, hours = 100, 5000
        # every finite nonnegative double is equally likely to be drawn
        bits = rng.integers(0, 0x7FF0000000000000, size=regions * hours, dtype=np.uint64)
        values = bits.view(np.float64).tolist()
        lines = ["region,hour,demand_mw"] + [
            f"r{k // hours:03d},{k % hours},{value!r}" for k, value in enumerate(values)
        ]
        path = write_lines(tmp_path / "demand.csv", lines)
        mine = load_profile(path)
        assert_same_profile(mine, reference_load_profile(path))
        assert mine.demand_mw.size == 500_000

    @pytest.mark.parametrize("region", ["a,b", 'a"b', "a\nb", "a\rb"])
    def test_save_rejects_region_needing_quotes(self, tmp_path, region):
        path = tmp_path / "demand.csv"
        with pytest.raises(ValidationError, match="quoting"):
            save_profile(small_profile([[1.0], [2.0]], regions=("a", region)), path)
        assert not path.exists()

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "demand.csv"
        save_profile(small_profile([[1.0, 2.0], [3.0, 4.0]]), path)
        before = path.read_bytes()
        # the second region's row fails after the first region is written
        broken = SimpleNamespace(
            regions=("a", "b"), hours=np.array([0, 1]), demand_mw=(np.array([5.0, 6.0]), None)
        )
        with pytest.raises(AttributeError):
            save_profile(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["demand.csv"]


def write_profiles(fixture, directory):
    """The fixture's profile files as `write_fixture` writes them, alone."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, profile in fixture.profiles.items():
        save_profile(profile, directory / f"{name}.csv")
    return sorted(directory.iterdir())


@pytest.fixture(scope="module")
def gb_like_profiles(tmp_path_factory):
    return write_profiles(generate_gb_like(7), tmp_path_factory.mktemp("gb_like") / "profiles")


@pytest.fixture
def bisections(monkeypatch):
    """The number of lines of each chunk that loadtxt refused, and the
    reader bisected."""
    calls = []
    bisect = csvrows_module._first_refused

    def counted(lines, dtype):
        calls.append(len(lines))
        return bisect(lines, dtype)

    monkeypatch.setattr(csvrows_module, "_first_refused", counted)
    return calls


def rows_of(regions="ab", hours=12):
    return [f"{r},{h},{h + 0.25!r}" for r in regions for h in range(hours)]


class TestLoadtxtReader:
    """`load_profile` parses with `np.loadtxt` and gives the references'
    arrays bit for bit; a line loadtxt refuses is refused, found by
    bisecting its chunk."""

    @pytest.mark.parametrize("generate, seed", [(generate_small, 3), (generate_small, 7)])
    def test_small_fixture_profiles_match_references(self, tmp_path, bisections, generate, seed):
        paths = write_profiles(generate(seed), tmp_path / "profiles")
        assert len(paths) == 4
        for path in paths:
            mine = load_profile(path)
            assert_same_profile(mine, reference_load_profile(path))
            assert_same_profile(mine, reference_split_load_profile(path))
        assert bisections == []

    def test_gb_like_profiles_match_references(self, gb_like_profiles, bisections):
        assert len(gb_like_profiles) == 4
        for path in gb_like_profiles:
            mine = load_profile(path)
            assert mine.demand_mw.shape == (44, HOURS_PER_YEAR)
            assert_same_profile(mine, reference_load_profile(path))
            assert_same_profile(mine, reference_split_load_profile(path))
        assert bisections == []

    @pytest.mark.parametrize("chunk", [1, 7, 50_000])
    @pytest.mark.parametrize("ending", ["\r", "\n", "\r\n"])
    def test_every_line_end_takes_loadtxt(self, tmp_path, monkeypatch, bisections, chunk, ending):
        monkeypatch.setattr(csvrows_module, "_CHUNK_ROWS", chunk)
        lines = ["region,hour,demand_mw"] + rows_of()
        lines[5:5] = ["", ""]  # lines holding only a line end
        path = write_lines(tmp_path / "demand.csv", lines, ending)
        assert_same_profile(load_profile(path), reference_load_profile(path))
        assert bisections == []

    @pytest.mark.parametrize("chunk", [1, 7, 50_000])
    @pytest.mark.parametrize("ending", ["\r", "\n", "\r\n"])
    @pytest.mark.parametrize(
        "row, line, message",
        [
            # spellings int() and float() accept, loadtxt refuses
            ("a,1_0,10.25", 12, "bad numeric value in ['a', '1_0', '10.25']"),
            ("a,\u0661\u0660,10.25", 12, "bad numeric value in ['a', '\u0661\u0660', '10.25']"),
            ("a,10,1_0.25", 12, "bad numeric value in ['a', '10', '1_0.25']"),
            ("a,10,\u0661\u0660.25", 12, "bad numeric value in ['a', '10', '\u0661\u0660.25']"),
            # whitespace-only lines: one field of blanks
            ("  ", 3, "expected 3 fields, got 1"),
            ("\t", 14, "expected 3 fields, got 1"),
            ("\x0c", 25, "expected 3 fields, got 1"),
        ],
    )
    def test_int_float_only_spellings_and_blank_lines_refused(
        self, tmp_path, monkeypatch, bisections, chunk, ending, row, line, message
    ):
        monkeypatch.setattr(csvrows_module, "_CHUNK_ROWS", chunk)
        lines = ["region,hour,demand_mw"] + rows_of()
        if row.strip():
            lines[line - 1] = row  # the same row as (a, 10, 10.25), spelled otherwise
        else:
            lines.insert(line - 1, row)
        path = write_lines(tmp_path / "demand.csv", lines, ending)
        with pytest.raises(ParseError) as error:
            load_profile(path)
        assert error.value.line == line
        assert str(error.value) == f"demand.csv line {line}: {message}"
        # loadtxt refused one chunk, the one that holds the line, and no other
        start = (line - 2) // chunk * chunk  # of the data lines, after the header
        assert bisections == [min(chunk, len(lines) - 1 - start)]

    def test_hard_decimal_spellings_take_loadtxt_with_float_values(self, tmp_path, bisections):
        # halfway cases, subnormals, the largest double and long digit strings
        texts = [
            "0.1000000000000000055511151231257827021181583404541015625",
            "2.2250738585072011e-308",
            "2.4703282292062327e-324",
            "2.4703282292062328e-324",
            "1.7976931348623158e308",
            "9007199254740993",
            "1" + "0" * 300,
            "." + "0" * 400 + "1",
            " +4 ",
            "\xa01.5",
        ]
        lines = ["region,hour,demand_mw"] + [f"a,{h},{text}" for h, text in enumerate(texts)]
        path = write_lines(tmp_path / "demand.csv", lines)
        mine = load_profile(path)
        assert bisections == []
        assert mine.demand_mw[0].tolist() == [float(text) for text in texts]
        assert_same_profile(mine, reference_load_profile(path))

    @pytest.mark.parametrize("chunk", [1, 7, 50_000])
    @pytest.mark.parametrize("region, line", [('a"', 2), ('b"b', 14), ('"', 25)])
    def test_quote_in_region_id_names_its_line(self, tmp_path, monkeypatch, chunk, region, line):
        # loadtxt takes quotes as text, so the reader checks region ids itself
        monkeypatch.setattr(csvrows_module, "_CHUNK_ROWS", chunk)
        lines = ["region,hour,demand_mw"] + rows_of() + ["c,0,1.0"]
        lines[line - 1] = f"{region},{lines[line - 1].split(',', 1)[1]}"
        path = write_lines(tmp_path / "demand.csv", lines)
        with pytest.raises(ParseError) as error:
            load_profile(path)
        assert error.value.line == line
        assert str(error.value) == f"demand.csv line {line}: quoted fields are not supported"

    def test_peak_memory_stays_chunked(self, gb_like_profiles):
        # a whole-file parse of current.csv (385,440 rows) would peak far above this
        path = next(p for p in gb_like_profiles if p.name == "current.csv")
        tracemalloc.start()
        try:
            load_profile(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18 * 2**20

    def test_refusal_on_the_last_line_peak_memory(self, gb_like_profiles, tmp_path, bisections):
        # current.csv with its last hour spelled 8_759, which int() reads and
        # loadtxt refuses: the file is read in chunks up to that line
        source = next(p for p in gb_like_profiles if p.name == "current.csv")
        rest, last, end = source.read_bytes().rsplit(b"\r\n", 2)
        region, hour, value = last.split(b",")
        assert hour == b"8759" and end == b""
        path = tmp_path / "current.csv"
        path.write_bytes(b"\r\n".join([rest, b",".join([region, b"8_759", value]), end]))
        lines = rest.count(b"\r\n") + 2
        del rest
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as error:
                load_profile(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lines == 44 * HOURS_PER_YEAR + 1
        assert str(error.value) == (
            f"current.csv line {lines}: bad numeric value in ['{region.decode()}', '8_759', '{value.decode()}']"
        )
        assert bisections == [(lines - 2) % csvrows_module._CHUNK_ROWS + 1]
        assert peak < 18 * 2**20


def corrupt_profile(rng, lines: list[str]) -> list[str]:
    """lines (a header, then data rows) with one or two random edits: a row
    dropped, repeated or moved, a field added or lost, a bad number, `1_0`,
    NaN or an hour wider than int64, a quote, or an empty or
    whitespace-only line."""
    lines = list(lines)
    for _ in range(int(rng.integers(1, 3))):
        i = int(rng.integers(1, len(lines)))
        fields = lines[i].split(",")
        edit = str(rng.choice(["drop", "repeat", "move", "width", "value", "blank", "quote"]))
        if edit == "drop" and len(lines) > 2:
            lines.pop(i)
        elif edit == "repeat":
            lines.insert(int(rng.integers(1, len(lines) + 1)), lines[i])
        elif edit == "move":
            lines.insert(int(rng.integers(1, len(lines))), lines.pop(i))
        elif edit == "width":
            lines[i] = lines[i] + ",x" if rng.random() < 0.5 else lines[i].rsplit(",", 1)[0]
        elif edit == "value" and len(fields) == 3:
            texts = ["x", "1_0", "nan", "99999999999999999999", "7.5", "\u0661", "12"]
            fields[int(rng.integers(1, 3))] = str(rng.choice(texts))
            lines[i] = ",".join(fields)
        elif edit == "blank":
            lines.insert(i, str(rng.choice(["", "  ", "\t"])))
        elif edit == "quote":
            lines[i] = '"' + lines[i]
    return lines


def first_bad_line(lines: list[str]) -> int | None:
    """The number of the first data line that loadtxt refuses alone, that
    holds a quote, or whose (region, hour) an earlier row holds."""
    row_type = np.dtype([("region", object), ("hour", np.int64), ("value", np.float64)])
    seen = set()
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue  # a line holding only its line end
        try:
            (region, hour, _), = np.loadtxt([line], row_type, delimiter=",", comments=None, ndmin=1)
        except ValueError:
            return number
        if '"' in line or (region.strip(), hour) in seen:
            return number
        seen.add((region.strip(), hour))
    return None


class TestProfileFuzz:
    @pytest.mark.parametrize("seed", range(60))
    def test_refused_on_its_first_bad_line_or_read_as_the_reference(self, tmp_path, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        monkeypatch.setattr(csvrows_module, "_CHUNK_ROWS", int(rng.choice([1, 7, 50_000])))
        lines = corrupt_profile(rng, random_profile_text(rng, "demand_mw").splitlines())
        path = write_lines(tmp_path / "demand.csv", lines, str(rng.choice(["\n", "\r\n", "\r"])))
        bad = first_bad_line(lines)
        if bad is not None:
            with pytest.raises(ParseError) as error:
                load_profile(path)
            assert error.value.line == bad
            return
        try:
            reference = reference_load_profile(path)
        except ValidationError as error:  # rows dropped, a NaN value or none left
            with pytest.raises(type(error)) as mine:
                load_profile(path)
            assert str(mine.value) == str(error)
            return
        assert_same_profile(load_profile(path), reference)


# values whose repr is in scientific notation, signed or subnormal
SPECIAL_VALUES = (0.0, -0.0, 5e-324, 2.225073858507203e-309, 1e-5, 1e16, 1e300)


def random_profile(rng, n_hours):
    """A profile with awkward region ids, special values and random doubles.
    An id keeps its blanks inside: the writer refuses surrounding ones."""
    alphabet = list("abz09 _-.éßж€")
    ids = {"r", "long_" + "x" * int(rng.integers(50, 300)), "in side", "ünïcødé 区"}
    while len(ids) < int(rng.integers(5, 9)):
        ids.add("".join(rng.choice(alphabet, size=int(rng.integers(1, 12)))).strip() or "b")
    ids = sorted(ids)
    regions = [ids[k] for k in rng.permutation(len(ids))[: int(rng.integers(1, len(ids) + 1))]]
    hours = np.sort(rng.choice(HOURS_PER_YEAR, size=n_hours, replace=False))
    bits = rng.integers(0, 0x7FF0000000000000, size=(len(regions), n_hours), dtype=np.uint64)
    values = np.where(
        rng.random(bits.shape) < 0.5, bits.view(np.float64), rng.uniform(0.0, 1e4, bits.shape)
    )
    special = rng.random(bits.shape) < 0.3
    values[special] = rng.choice(SPECIAL_VALUES, size=int(special.sum()))
    return DemandProfile("current", tuple(regions), hours, values)


def assert_same_bytes_as_reference(tmp_path, profile):
    mine, reference = tmp_path / "mine.csv", tmp_path / "reference.csv"
    save_profile(profile, mine)
    reference_save_profile(profile, reference)
    assert mine.read_bytes() == reference.read_bytes()


class TestProfileWriterAgainstReference:
    @pytest.mark.parametrize("seed", range(24))
    def test_random_profiles(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n_hours = (0, 1, int(rng.integers(2, 200)), HOURS_PER_YEAR)[seed % 4]
        assert_same_bytes_as_reference(tmp_path, random_profile(rng, n_hours))

    def test_special_values_are_written(self, tmp_path):
        values = np.array([SPECIAL_VALUES])
        profile = DemandProfile("current", ("a b",), np.arange(values.size), values)
        assert_same_bytes_as_reference(tmp_path, profile)
        text = (tmp_path / "mine.csv").read_bytes().decode("utf-8")
        for value in SPECIAL_VALUES:
            assert f",{value!r}\r\n" in text
        assert "e-324" in text and "e+300" in text

    def test_no_regions(self, tmp_path):
        profile = DemandProfile("current", (), np.arange(3), np.empty((0, 3)))
        assert_same_bytes_as_reference(tmp_path, profile)
        assert (tmp_path / "mine.csv").read_bytes() == b"region,hour,demand_mw\r\n"

    @pytest.mark.parametrize("seed", [3, 11])
    def test_small_fixture_profiles(self, tmp_path, seed):
        fixture = generate_small(seed)
        write_fixture(fixture, tmp_path / "fx")
        for name, profile in fixture.profiles.items():
            reference_save_profile(profile, tmp_path / "reference.csv")
            written = tmp_path / "fx" / "profiles" / f"{name}.csv"
            assert written.read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert len(list((tmp_path / "fx" / "profiles").iterdir())) == len(fixture.profiles)

    def test_gb_like_current_profile(self, tmp_path):
        assert_same_bytes_as_reference(tmp_path, generate_gb_like(7).profiles["current"])


class TestStudiedDemand:
    @pytest.mark.parametrize("generate", [generate_small, generate_gb_like])
    def test_national_and_peak_bit_for_bit(self, tmp_path, generate):
        profiles = generate(7).profiles
        studied = {
            scenario: sorted({0, 427, profile.peak_hour(), trough_hour(profile)})
            for scenario, profile in profiles.items()
        }
        path = tmp_path / "demand.csv"
        save_studied_demand(
            {s: StudiedDemand.from_profile(p, studied[s]) for s, p in profiles.items()}, path
        )
        loaded = load_studied_demand(path)
        assert sorted(loaded) == sorted(profiles)
        for scenario, profile in profiles.items():
            demand = loaded[scenario]
            national = profile.national()
            assert demand.peak_mw.hex() == float(national.max()).hex()
            assert demand.hours.tolist() == studied[scenario]
            assert demand.regions == profile.regions
            for row, hour in enumerate(studied[scenario]):
                k = profile.hour_pos[hour]
                assert float(demand.national_mw[row]).hex() == float(national[k]).hex()
                for col, region in enumerate(profile.regions):
                    assert demand.district_mw[row, col] == profile.demand_at(region, hour)

    def test_region_named_like_a_kind_stays_a_district(self, tmp_path):
        profile = small_profile([[1.0, 2.0], [3.0, 4.0]], regions=("national", "peak"))
        path = tmp_path / "demand.csv"
        save_studied_demand({"current": StudiedDemand.from_profile(profile, [1])}, path)
        demand = load_studied_demand(path)["current"]
        assert demand.regions == ("national", "peak")
        assert demand.hours.tolist() == [1]
        assert demand.district_mw.tolist() == [[2.0, 4.0]]
        assert demand.national_mw.tolist() == [6.0]
        assert demand.peak_mw == 6.0

    @pytest.mark.parametrize(
        "row, message",
        [
            ("current,national,a,0,1.0", "malformed row ['current', 'national', 'a', '0']"),
            ("current,district,a,x,1.0", "malformed row ['current', 'district', 'a', 'x']"),
            ("current,peak,,,1.0,2", "expected 5 fields, got 6"),
        ],
    )
    def test_malformed_row_names_line(self, tmp_path, row, message):
        path = tmp_path / "demand.csv"
        save_studied_demand(
            {"current": StudiedDemand.from_profile(small_profile([[1.0], [2.0]]), [0])}, path
        )
        lines = path.read_text(encoding="utf-8").splitlines()
        lines.insert(2, row)
        write_lines(path, lines)
        with pytest.raises(ParseError) as error:
            load_studied_demand(path)
        assert str(error.value) == f"demand.csv line 3: {message}"

    def two_hours(self, tmp_path):
        """demand.csv lines for regions a, b at hours 0 and 1."""
        path = tmp_path / "demand.csv"
        profile = small_profile([[1.0, 3.0], [2.0, 4.0]])
        save_studied_demand({"current": StudiedDemand.from_profile(profile, [0, 1])}, path)
        return path, path.read_text(encoding="utf-8").splitlines()

    @pytest.mark.parametrize(
        "row, line", [("current,district,a,0,999.0", 6), ("current,national,,1,999.0", 8)]
    )
    def test_repeated_row_names_line(self, tmp_path, row, line):
        # a repeated row used to overwrite the earlier one silently
        path, lines = self.two_hours(tmp_path)
        lines.insert(line - 1, row)
        write_lines(path, lines)
        kind = row.split(",")[1]
        with pytest.raises(ParseError, match=f"^demand.csv line {line}: repeated row \\['current', '{kind}'"):
            load_studied_demand(path)

    def test_hour_lacking_a_district_rejected(self, tmp_path):
        path, lines = self.two_hours(tmp_path)
        write_lines(path, [line for line in lines if line != "current,district,b,1,4.0"])
        with pytest.raises(ValidationError, match=r"scenario current lacks .* no \('district', 1, 'b'\) row"):
            load_studied_demand(path)

    def test_missing_peak_rejected(self, tmp_path):
        path = tmp_path / "demand.csv"
        save_studied_demand(
            {"current": StudiedDemand.from_profile(small_profile([[1.0], [2.0]]), [0])}, path
        )
        lines = path.read_text(encoding="utf-8").splitlines()
        write_lines(path, [line for line in lines if ",peak," not in line])
        with pytest.raises(ValidationError, match="scenario current lacks its peak"):
            load_studied_demand(path)

    @pytest.mark.parametrize(
        "row, message",
        [('"current",national,,0,3.0', "quoted fields are not supported"), ("  ", "expected 5 fields, got 1")],
    )
    def test_quote_or_line_of_blanks_refused(self, tmp_path, row, message):
        # the grammar of every table, refused before any demand.csv rule
        path, lines = self.two_hours(tmp_path)
        write_lines(path, [lines[0], row, *lines[1:]])
        with pytest.raises(ParseError) as error:
            load_studied_demand(path)
        assert str(error.value) == f"demand.csv line 2: {message}"

    @pytest.mark.parametrize("scenario, region", [("a,b", "a"), ("current", 'r"1')])
    def test_writer_refuses_ids_csv_would_quote(self, tmp_path, scenario, region):
        demand = StudiedDemand.from_profile(small_profile([[1.0], [2.0]], regions=("b", region)), [0])
        with pytest.raises(ValidationError, match="id .* needs csv quoting"):
            save_studied_demand({scenario: demand}, tmp_path / "demand.csv")
        assert not list(tmp_path.iterdir())


DEMAND_ROW = np.dtype(
    [("scenario", object), ("kind", object), ("region", object), ("hour", object), ("demand_mw", float)]
)


def first_bad_demand_line(rows: list[str]) -> int | None:
    """The line of the first of demand.csv's data `rows` that loadtxt
    refuses alone, that holds a quote, that is malformed (an unknown kind,
    a region outside a district row, an hour in a peak row or, in another,
    none that loadtxt reads as an int64), or whose (scenario, kind, hour,
    region) an earlier row holds."""
    seen = set()
    for number, row in enumerate(rows, start=2):
        if not row:
            continue  # a line holding only its line end
        fields = loadtxt_alone(row, DEMAND_ROW)
        if fields is None or '"' in row:
            return number
        scenario, kind, region, hour, _ = fields
        parsed = loadtxt_alone(hour, np.dtype([("hour", np.int64)])) if hour else None
        timed = not hour if kind == "peak" else parsed is not None
        if kind not in ("district", "national", "peak") or (region and kind != "district") or not timed:
            return number
        key = (scenario, kind, parsed, region)
        if key in seen:
            return number
        seen.add(key)
    return None


class TestStudiedDemandFuzz:
    @pytest.mark.parametrize("seed", range(50))
    def test_refused_on_its_first_bad_line_or_read_as_the_reference(self, tmp_path, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        monkeypatch.setattr(csvrows_module, "_CHUNK_ROWS", int(rng.choice([1, 7, 50_000])))
        # ids keep blanks inside only: the writer refuses surrounding ones
        draws = ("".join(rng.choice(list("abz09 _-.é"), size=int(rng.integers(1, 4)))) for _ in range(4))
        regions = sorted({text.strip() or "b" for text in draws})
        scenarios = rng.choice(["current", "flat", "heat_pump"], size=int(rng.integers(1, 3)), replace=False)
        demands = {}
        for scenario in scenarios.tolist():
            profile = small_profile(rng.uniform(0.0, 1e3, (len(regions), 24)), regions=regions)
            demands[scenario] = StudiedDemand.from_profile(profile, rng.choice(24, size=int(rng.integers(1, 4))))
        path = tmp_path / "demand.csv"
        save_studied_demand(demands, path)
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        texts = ["x", "1_0", "nan", "", "peak", "national", "district", "7", " 3 ", "a", "\u0661", "current"]
        rows = corrupt_rows(rng, rows, texts)
        write_lines(path, [header, *rows], str(rng.choice(["\n", "\r\n", "\r"])))
        bad = first_bad_demand_line(rows)
        if bad is not None:
            with pytest.raises(ParseError) as error:
                load_studied_demand(path)
            assert error.value.line == bad
            return
        try:
            reference = reference_load_studied_demand(path)
        except ValidationError as error:  # a row dropped, or a new scenario or region
            with pytest.raises(type(error)) as mine:
                load_studied_demand(path)
            assert str(mine.value) == str(error)
            return
        mine = load_studied_demand(path)
        assert sorted(mine) == sorted(reference)
        for scenario, demand in mine.items():
            theirs = reference[scenario]
            assert demand.regions == theirs.regions
            assert demand.hours.tolist() == theirs.hours.tolist()
            for array in ("district_mw", "national_mw", "peak_mw"):
                ours, expected = np.ravel(getattr(demand, array)), np.ravel(getattr(theirs, array))
                assert [v.hex() for v in ours.tolist()] == [v.hex() for v in expected.tolist()]
