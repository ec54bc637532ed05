import csv
import multiprocessing
import os
import re
import shutil
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from gridshock.analysis import load_costs
import gridshock.cli as cli_module
import gridshock.mria as mria_module
from gridshock.cli import main
from gridshock.errors import MissingCosts, ParseError, ValidationError
from gridshock.grid import Grid, load_grid, load_regions, serialize_grid
from gridshock.mria import (
    SupplyUseModel,
    assemble_program,
    assess_impact,
    load_supply_use,
    save_supply_use,
    shock_from_unserved,
)
from gridshock.numerics import lp_solve, lp_solve_stack
from gridshock.profiles import load_profile, load_studied_demand, save_profile
from gridshock.results import load_results
from gridshock.runconfig import DEFAULT_LOSS_FRACTIONS, load_run_config

from helpers import Record, run_python, table_of

SMALL_SCENARIOS = ("current", "heat_pump", "efficiency", "flat")


@pytest.fixture(scope="module")
def fx(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_fixture")
    assert main(["gen-synthetic", "--size", "small", "--seed", "7", "--out", str(root)]) == 0
    return root


@pytest.fixture(scope="module")
def out_dir(fx):
    cfg = str(fx / "run.cfg")
    assert main(["simulate", "--config", cfg]) == 0
    assert main(["impact", "--config", cfg]) == 0
    return fx / "out"


@pytest.fixture
def run_copy(fx, out_dir, tmp_path):
    """A copy of the fixture after simulate and impact, safe to damage."""
    return shutil.copytree(fx, tmp_path / "run")


def write_cfg(directory, name, text):
    path = directory / name
    path.write_text(text, encoding="utf-8")
    return path


MINIMAL = """\
grid = grid.csv
regions = regions.csv
hours = current:10
profile.current = profiles/current.csv
"""


class TestRunConfig:
    def test_generated_config_parses(self, fx):
        config = load_run_config(fx / "run.cfg")
        assert config.grid == fx / "grid.csv"
        assert config.regions == fx / "regions.csv"
        assert config.supply_use_dir == fx / "economy"
        assert tuple(sorted(config.profiles)) == tuple(sorted(SMALL_SCENARIOS))
        assert tuple(s for s, _ in config.hours) == SMALL_SCENARIOS
        assert all(0 <= h < 8760 for _, h in config.hours)
        assert config.n_orderings == 5
        assert config.loss_fractions == (0.0, 0.5)
        assert config.master_seed == 7
        assert config.shed_step == 0.1
        assert config.workers == 1
        assert config.interconnector_penalty == 10.0
        assert config.headroom == 1.2
        assert config.out_dir == fx / "out"
        assert config.analyze_fraction == 0.5
        assert config.analyze_scenario == "heat_pump"
        assert config.analyze_baseline == "current"

    def test_defaults(self, fx):
        config = load_run_config(write_cfg(fx, "minimal.cfg", MINIMAL))
        assert config.supply_use_dir is None
        assert config.n_orderings == 10
        assert config.loss_fractions == DEFAULT_LOSS_FRACTIONS
        assert config.master_seed == 0
        assert config.shed_step == 0.1
        assert config.workers == 1
        assert config.interconnector_penalty == 10.0
        assert config.headroom == 1.2
        assert config.out_dir == fx / "out"
        assert config.analyze_fraction == 0.4
        assert config.analyze_scenario == "heat_pump"
        assert config.analyze_baseline == "current"

    def test_relative_paths_resolve_against_config_dir(self, fx):
        sub = fx / "sub"
        sub.mkdir(exist_ok=True)
        text = (
            "grid = ../grid.csv\n"
            "regions = ../regions.csv\n"
            "hours = current:10\n"
            "profile.current = ../profiles/current.csv\n"
        )
        config = load_run_config(write_cfg(sub, "alt.cfg", text))
        assert config.grid.resolve() == (fx / "grid.csv").resolve()
        assert config.profiles["current"].is_file()

    def test_inline_comments_and_blank_lines(self, fx):
        text = MINIMAL + "\nmaster_seed = 5  # five\n\n# trailing note\n"
        assert load_run_config(write_cfg(fx, "comments.cfg", text)).master_seed == 5

    def test_duplicate_key_rejected(self, fx):
        text = MINIMAL + "master_seed = 1\nmaster_seed = 2\n"
        with pytest.raises(ValidationError, match="duplicate"):
            load_run_config(write_cfg(fx, "dup.cfg", text))

    def test_unknown_key_rejected(self, fx):
        with pytest.raises(ValidationError, match="unknown configuration keys: tempo"):
            load_run_config(write_cfg(fx, "unknown.cfg", MINIMAL + "tempo = 3\n"))

    def test_missing_required_keys(self, fx):
        with pytest.raises(ValidationError, match="missing configuration keys"):
            load_run_config(write_cfg(fx, "missing.cfg", "grid = grid.csv\n"))

    def test_no_profiles_rejected(self, fx):
        text = "grid = grid.csv\nregions = regions.csv\nhours = current:10\n"
        with pytest.raises(ValidationError, match="no profile"):
            load_run_config(write_cfg(fx, "noprof.cfg", text))

    def test_hours_need_matching_profile(self, fx):
        text = MINIMAL.replace("hours = current:10", "hours = current:10, heat:3")
        with pytest.raises(ValidationError, match="without profiles: heat"):
            load_run_config(write_cfg(fx, "orphan.cfg", text))

    def test_baseline_needs_a_profile(self, fx):
        text = MINIMAL + "analyze.baseline = nosuch\n"
        with pytest.raises(ValidationError, match="analyze.baseline names scenario 'nosuch'"):
            load_run_config(write_cfg(fx, "baseline.cfg", text))

    def test_scenario_needs_a_profile(self, fx):
        text = MINIMAL + "analyze.scenario = nosuch\n"
        with pytest.raises(ValidationError, match="analyze.scenario names scenario 'nosuch'"):
            load_run_config(write_cfg(fx, "scenario.cfg", text))

    def test_malformed_hours(self, fx):
        bad_shape = MINIMAL.replace("current:10", "current-10")
        with pytest.raises(ValidationError, match="not scenario:hour"):
            load_run_config(write_cfg(fx, "hours1.cfg", bad_shape))
        bad_hour = MINIMAL.replace("current:10", "current:ten")
        with pytest.raises(ValidationError, match="non-integer hour"):
            load_run_config(write_cfg(fx, "hours2.cfg", bad_hour))

    def test_malformed_loss_fractions(self, fx):
        text = MINIMAL + "loss_fractions = 0.1, abc\n"
        with pytest.raises(ValidationError, match="not a number list"):
            load_run_config(write_cfg(fx, "fractions.cfg", text))

    def test_missing_grid_file_rejected(self, fx):
        text = MINIMAL.replace("grid = grid.csv", "grid = nope.csv")
        with pytest.raises(ValidationError, match="grid file does not exist"):
            load_run_config(write_cfg(fx, "ghost.cfg", text))

    def test_experiment_config_seed_override(self, fx):
        config = load_run_config(fx / "run.cfg")
        assert config.experiment_config().master_seed == 7
        assert config.experiment_config(99).master_seed == 99


class TestRecordIds:
    def test_round_trip(self):
        table = table_of([Record(3, 0.25, "flat", 12, {"r1": 0.0})])
        assert table.record_ids() == ["3:0.25:flat:12"]
        assert fraction_of(table.record_ids()[0]) == 0.25

    def test_malformed_id(self, tmp_path):
        table = table_of([Record(3, 0.25, "flat", 12, {"r1": 0.0})])
        (tmp_path / "impacts.csv").write_text("record_id,total_cost\n3:0.25:flat,1.0\n")
        (tmp_path / "regional.csv").write_text("record_id,region,delta_va\n3:0.25:flat,z1,-1.0\n")
        with pytest.raises(MissingCosts):
            load_costs(table, tmp_path / "impacts.csv", tmp_path / "regional.csv")


def fraction_of(record_id):
    return float(record_id.split(":")[1])


def bad_float(text):
    header, first, rest = text.split("\n", 2)
    return f"{header}\n{first}e\n{rest}"


def renamed_header(text):
    return text.replace("total_cost", "cost", 1)


def cut_mid_row(text):
    # the last row keeps its record id and loses its cost
    middle = text.index("\n", len(text) // 2) + 1
    return text[: text.index(",", middle)]


class TestPipeline:
    def test_gen_synthetic_writes_fixture(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        assert main(["gen-synthetic", "--size", "small", "--seed", "1", "--out", str(out)]) == 0
        assert sum(1 for p in out.rglob("*") if p.is_file()) == 12
        stdout = capsys.readouterr().out
        assert "wrote 12 files" in stdout
        assert "current national peak" in stdout

    def test_gen_synthetic_rejects_unknown_size(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen-synthetic", "--size", "huge", "--out", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_simulate_outputs(self, fx, out_dir):
        lines = (out_dir / "results.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "ordering,fraction,scenario,hour,region,unserved_mw,status"
        assert len(lines) == 1 + 5 * 2 * 4 * 2  # orderings x fractions x hours x regions
        provenance = (out_dir / "provenance.txt").read_text(encoding="utf-8")
        assert "records = 40" in provenance
        assert "results = sha256:" in provenance
        assert "demand = sha256:" in provenance
        assert "master_seed = 7" in provenance
        assert "workers" not in provenance

    def test_simulate_refuses_unknown_baseline_before_reading_profiles(
        self, fx, tmp_path, monkeypatch, capsys, pool_sizes
    ):
        text = (fx / "run.cfg").read_text(encoding="utf-8")
        text = text.replace("analyze.baseline = current", "analyze.baseline = nosuch")
        cfg = write_cfg(fx, "nosuch_baseline.cfg", text)
        loaded = []
        monkeypatch.setattr(cli_module, "load_profile", lambda *args, **kwargs: loaded.append(args))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "error: analyze.baseline names scenario 'nosuch'" in capsys.readouterr().err
        assert not loaded
        assert pool_sizes[0] == []  # no profile parsed in a child either
        assert not (tmp_path / "out").exists()

    def test_simulate_refuses_unknown_scenario_before_reading_profiles(
        self, fx, tmp_path, monkeypatch, capsys, pool_sizes
    ):
        text = (fx / "run.cfg").read_text(encoding="utf-8")
        assert "analyze.scenario = heat_pump" in text
        text = text.replace("analyze.scenario = heat_pump", "analyze.scenario = nosuch")
        cfg = write_cfg(fx, "nosuch_scenario.cfg", text)
        loaded = []
        monkeypatch.setattr(cli_module, "load_profile", lambda *args, **kwargs: loaded.append(args))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "error: analyze.scenario names scenario 'nosuch'" in capsys.readouterr().err
        assert not loaded
        assert pool_sizes[0] == []  # no profile parsed in a child either
        assert not (tmp_path / "out").exists()

    def test_simulate_rerun_byte_identical(self, fx, tmp_path):
        cfg = str(fx / "run.cfg")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
        for name in ("results.csv", "provenance.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_hash_seed_does_not_change_outputs(self, fx, tmp_path):
        cfg = str(fx / "run.cfg")
        written = []
        for seed in (1, 2):
            out = tmp_path / f"hash{seed}"
            run_python(["-m", "gridshock", "simulate", "--config", cfg, "--out", str(out)], seed)
            written.append((out / "results.csv").read_bytes())
        assert written[0] == written[1]

    def test_worker_count_does_not_change_outputs(self, fx, out_dir, tmp_path):
        cfg = str(fx / "run.cfg")
        w4 = tmp_path / "w4"
        assert main(["simulate", "--config", cfg, "--workers", "4", "--out", str(w4)]) == 0
        for name in ("results.csv", "provenance.txt"):
            assert (w4 / name).read_bytes() == (out_dir / name).read_bytes()

    def test_seed_override_lands_in_provenance(self, fx, tmp_path):
        cfg = str(fx / "run.cfg")
        seeded = tmp_path / "seeded"
        assert main(["simulate", "--config", cfg, "--seed", "1", "--out", str(seeded)]) == 0
        assert "master_seed = 1" in (seeded / "provenance.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("stage", ["impact", "analyze"])
    def test_seed_rejected_where_unused(self, fx, stage):
        with pytest.raises(SystemExit) as excinfo:
            main([stage, "--config", str(fx / "run.cfg"), "--seed", "1"])
        assert excinfo.value.code == 2

    def test_impact_outputs(self, out_dir):
        with open(out_dir / "impacts.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 40
        zero_rows = [r for r in rows if fraction_of(r["record_id"]) == 0.0]
        assert len(zero_rows) == 20
        assert all(r["total_cost"] == "0.0" for r in zero_rows)
        assert any(
            float(r["total_cost"]) > 0.0
            for r in rows
            if fraction_of(r["record_id"]) == 0.5
        )
        with open(out_dir / "impacts_regional.csv", encoding="utf-8", newline="") as handle:
            regional = list(csv.DictReader(handle))
        assert len(regional) == 80
        assert {r["region"] for r in regional} == {"z1", "z2"}

    def test_impact_prices_one_hour_shocks(self, fx, out_dir):
        # each record's cost is its shock row priced as a one-hour event
        config = load_run_config(fx / "run.cfg")
        table = load_results(out_dir / "results.csv")
        model = load_supply_use(config.supply_use_dir)
        shocks = shock_from_unserved(
            table,
            load_regions(config.regions),
            load_studied_demand(out_dir / "demand.csv"),
            model.regions,
        )
        with open(out_dir / "impacts.csv", encoding="utf-8", newline="") as handle:
            costs = [float(row["total_cost"]) for row in csv.DictReader(handle)]
        k = int(np.argmax(costs))
        assert costs[k] > 0.0
        assert assess_impact(model, shocks[k : k + 1, :, None])[0].total_cost == costs[k]

    def test_impact_reports_simplex_iterations(self, run_copy, capsys):
        cfg = str(run_copy / "run.cfg")
        assert main(["impact", "--config", cfg]) == 0
        line = capsys.readouterr().out.strip()
        match = re.fullmatch(
            r"priced 40 records \((\d+) distinct programs; (\d+) simplex iterations, "
            r"(\d+) from the baseline's path\)",
            line,
        )
        assert match, line
        programs, total, replayed = map(int, match.groups())
        # the total is what every distinct program takes when solved cold
        config = load_run_config(run_copy / "run.cfg")
        regions = load_regions(config.regions)
        demands = load_studied_demand(config.out_dir / "demand.csv")
        model = load_supply_use(config.supply_use_dir)
        shocks = shock_from_unserved(
            load_results(config.out_dir / "results.csv"), regions, demands, model.regions
        )
        deltas = {row.tobytes(): row[:, None] for row in shocks}
        assert programs == len(deltas)
        shocked = [assemble_program(model, d) for d in deltas.values() if d.any()]
        assert total == sum(lp_solve(program).iterations for program in shocked) > 0
        # and of those, the replayed part is what each program takes from
        # the unshocked program's recorded path
        path = lp_solve(model.program).path
        assert replayed == sum(s.replayed for s in lp_solve_stack(shocked, path=path))
        assert 0 < replayed < total
        assert main(["impact", "--config", cfg]) == 0
        assert capsys.readouterr().out.strip() == line

    def test_analyze_outputs(self, fx, out_dir, capsys):
        assert main(["analyze", "--config", str(fx / "run.cfg")]) == 0
        stdout = capsys.readouterr().out
        assert "largest national demand with zero median cost" in stdout
        for name in (
            "cost_curve.csv",
            "marginal.csv",
            "regional_change.csv",
            "population_share.csv",
        ):
            assert (out_dir / name).is_file()
        curve_lines = (out_dir / "cost_curve.csv").read_text(encoding="utf-8").splitlines()
        assert len(curve_lines) == 1 + 4 * 2  # scenarios x fractions

    def test_analyze_before_impact_fails(self, tmp_path):
        root = tmp_path / "bare"
        assert main(["gen-synthetic", "--size", "small", "--seed", "3", "--out", str(root)]) == 0
        assert main(["analyze", "--config", str(root / "run.cfg")]) == 2

    def test_truncated_results_refused(self, run_copy, capsys):
        results = run_copy / "out" / "results.csv"
        lines = results.read_bytes().splitlines(keepends=True)
        results.write_bytes(b"".join(lines[: 1 + (len(lines) - 1) // 2]))
        for stage in ("impact", "analyze"):
            assert main([stage, "--config", str(run_copy / "run.cfg")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert "results.csv holds 20 records" in err
            assert "provenance.txt records 40" in err

    def test_results_cut_inside_last_record_refused(self, run_copy, capsys):
        # dropping the final region row keeps the record count at 40
        results = run_copy / "out" / "results.csv"
        lines = results.read_bytes().splitlines(keepends=True)
        results.write_bytes(b"".join(lines[:-1]))
        for stage in ("impact", "analyze"):
            assert main([stage, "--config", str(run_copy / "run.cfg")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert "results.csv does not match its hash" in err

    def test_profile_edited_after_simulate_refused(self, run_copy, capsys):
        path = run_copy / "profiles" / "current.csv"
        profile = load_profile(path)
        save_profile(replace(profile, demand_mw=profile.demand_mw * 1.01), path)
        for stage in ("impact", "analyze"):
            assert main([stage, "--config", str(run_copy / "run.cfg")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert "current.csv does not match its hash" in err

    def test_profile_hour_beyond_int64_exits_1(self, run_copy, capsys):
        path = run_copy / "profiles" / "current.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        region = lines[1].split(b",")[0]
        lines.insert(2, region + b",99999999999999999999,1.0\n")
        path.write_bytes(b"".join(lines))
        assert main(["simulate", "--config", str(run_copy / "run.cfg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 3: bad numeric value in " in err
        assert "'99999999999999999999', '1.0']" in err

    def test_profile_with_another_value_column_exits_1(self, run_copy, capsys):
        path = run_copy / "profiles" / "current.csv"
        text = path.read_bytes()
        path.write_bytes(text.replace(b"region,hour,demand_mw", b"region,hour,heat_mw", 1))
        assert main(["simulate", "--config", str(run_copy / "run.cfg")]) == 1
        assert capsys.readouterr().err == (
            "error: line 1: expected header region,hour,demand_mw, got region,hour,heat_mw\n"
        )

    def test_demand_edited_after_simulate_refused(self, run_copy, capsys):
        path = run_copy / "out" / "demand.csv"
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(",national,,", ",national,,1", 1), encoding="utf-8")
        for stage in ("impact", "analyze"):
            assert main([stage, "--config", str(run_copy / "run.cfg")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert "demand.csv does not match its hash" in err

    def test_impact_records_what_it_read_and_wrote(self, run_copy):
        text = (run_copy / "out" / "impact_provenance.txt").read_text(encoding="utf-8")
        keys = [line.split(" = ")[0] for line in text.splitlines()]
        assert keys == [
            "results", "demand", "economy.supply", "economy.use", "economy.final_demand",
            "economy.value_added", "economy.trade", "impacts", "impacts_regional",
        ]
        assert all(" = sha256:" in line for line in text.splitlines())

    def test_analyze_refuses_impacts_of_another_seed(self, run_copy, capsys):
        cfg = str(run_copy / "run.cfg")
        results = run_copy / "out" / "results.csv"
        before = results.read_bytes()
        assert main(["simulate", "--config", cfg, "--seed", "11"]) == 0
        assert results.read_bytes() != before
        capsys.readouterr()
        assert main(["analyze", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "results.csv does not match its hash in" in err
        assert "impact_provenance.txt; rerun impact" in err

    @pytest.mark.parametrize("damage", [bad_float, renamed_header, cut_mid_row])
    def test_analyze_refuses_damaged_impacts(self, run_copy, capsys, damage):
        path = run_copy / "out" / "impacts.csv"
        path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")
        assert main(["analyze", "--config", str(run_copy / "run.cfg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "impacts.csv does not match its hash" in err

    def test_analyze_after_rerun_simulate_with_the_same_seed(self, run_copy):
        cfg = str(run_copy / "run.cfg")
        assert main(["simulate", "--config", cfg]) == 0
        assert main(["analyze", "--config", cfg]) == 0

    def test_missing_demand_exits_2(self, run_copy, capsys):
        (run_copy / "out" / "demand.csv").unlink()
        for stage in ("impact", "analyze"):
            assert main([stage, "--config", str(run_copy / "run.cfg")]) == 2
            assert "demand.csv" in capsys.readouterr().err

    def test_only_simulate_parses_profiles(self, run_copy, monkeypatch):
        import gridshock.cli as cli

        def refuse(path, **kwargs):
            raise AssertionError(f"{path} parsed outside simulate")

        monkeypatch.setattr(cli, "load_profile", refuse)
        for stage in ("impact", "analyze"):
            assert main([stage, "--config", str(run_copy / "run.cfg")]) == 0

    def test_demand_holds_the_studied_hours(self, fx, out_dir):
        config = load_run_config(fx / "run.cfg")
        demands = load_studied_demand(out_dir / "demand.csv")
        assert sorted(demands) == sorted(config.profiles)
        for scenario, path in config.profiles.items():
            profile = load_profile(path)
            national = profile.national()
            studied = sorted(h for s, h in config.hours if s == scenario)
            assert demands[scenario].hours.tolist() == studied
            assert demands[scenario].peak_mw == float(national.max())
            for k, hour in enumerate(studied):
                assert demands[scenario].national_mw[k] == national[profile.hour_pos[hour]]

    def test_baseline_mismatch_refused(self, run_copy, capsys):
        # the interchangeable-industries economy: the LP picks an extreme
        # split, not the tabled 50/50, so the baseline check fails
        model = SupplyUseModel(
            regions=("A",),
            industries=("i1", "i2"),
            products=("p1", "p2"),
            supply=np.array([[[50.0, 50.0], [50.0, 50.0]]]),
            use=np.zeros((1, 2, 2)),
            final_demand=np.array([[100.0, 100.0]]),
            value_added_coeff=np.full((1, 2), 0.5),
            trade_allowed=np.zeros((1, 1, 2), dtype=bool),
        )
        save_supply_use(model, run_copy / "economy")
        before = (run_copy / "out" / "impacts.csv").read_bytes()
        assert main(["impact", "--config", str(run_copy / "run.cfg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: region A")
        assert (run_copy / "out" / "impacts.csv").read_bytes() == before

    def test_parent_outside_the_economy_refused(self, run_copy, capsys):
        # the small economy has regions z1 and z2 only
        path = run_copy / "regions.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        k = next(k for k, line in enumerate(lines) if line.startswith("REGION,"))
        fields = lines[k].split(",")
        fields[2] = "z9"
        lines[k] = ",".join(fields)
        path.write_text("".join(lines), encoding="utf-8")
        cfg = str(run_copy / "run.cfg")
        assert main(["simulate", "--config", cfg]) == 0
        capsys.readouterr()
        before = (run_copy / "out" / "impacts.csv").read_bytes()
        assert main(["impact", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "z9" in err
        assert (run_copy / "out" / "impacts.csv").read_bytes() == before

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_invalid_config_exits_1(self, fx, capsys):
        path = write_cfg(fx, "broken.cfg", MINIMAL + "tempo = 3\n")
        assert main(["simulate", "--config", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


POOLED_OUTPUTS = ("results.csv", "demand.csv", "impacts.csv", "impacts_regional.csv")


def shocked_programs(run):
    """Distinct nonzero shock rows of a run's results: impact's programs."""
    config = load_run_config(run / "run.cfg")
    shocks = shock_from_unserved(
        load_results(config.out_dir / "results.csv"),
        load_regions(config.regions),
        load_studied_demand(config.out_dir / "demand.csv"),
        load_supply_use(config.supply_use_dir).regions,
    )
    return len(np.unique(shocks[shocks.any(axis=1)], axis=0))


@pytest.fixture(scope="module")
def gb_fx(tmp_path_factory):
    """The gb-like fixture at seed 7 with a second config, `congested.cfg`:
    backbone and cross-link ratings cut to 35%, calibrated with headroom
    1.0, over 10 orderings, so that branch limits bind."""
    root = tmp_path_factory.mktemp("gb_fixture")
    assert main(["gen-synthetic", "--size", "gb-like", "--seed", "7", "--out", str(root)]) == 0
    grid = load_grid(root / "grid.csv")
    branches = tuple(
        replace(b, rating_mw=b.rating_mw * 0.35) if b.id.startswith(("bb", "br")) else b
        for b in grid.branches
    )
    serialize_grid(replace(grid, branches=branches), root / "congested.csv")
    text = (root / "run.cfg").read_text(encoding="utf-8")
    for old, new in (("grid.csv", "congested.csv"), ("n_orderings = 50", "n_orderings = 10"),
                     ("headroom = 1.2", "headroom = 1.0")):
        assert old in text
        text = text.replace(old, new)
    write_cfg(root, "congested.cfg", text)
    return root


class TestSimulateCounts:
    """simulate's closing line says how many cells shed load and how many
    the merit-order fill left to network rounds, the same at any worker
    count: the network limits no gb-like default cell and 177 congested
    ones."""

    @pytest.mark.parametrize("workers", ["1", "3"])
    @pytest.mark.parametrize(
        "cfg, records, shed, network",
        [("run.cfg", 2000, 806, 0), ("congested.cfg", 400, 223, 177)],
    )
    def test_closing_line(self, gb_fx, tmp_path, capsys, workers, cfg, records, shed, network):
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(gb_fx / cfg), "--workers", workers, "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            f"wrote {records} records to {out / 'results.csv'} "
            f"({shed} shed load; {network} overloaded a branch after the deficit shed)\n"
        )


class TestProcessPools:
    """simulate parses its profiles, and impact solves its programs, in
    fork pools sized by the CPUs available; no output depends on that."""

    def test_outputs_do_not_depend_on_cpu_count(self, fx, tmp_path, pool_sizes):
        started, cpus = pool_sizes
        written = []
        for n in (1, 2, 6):
            cpus(n)
            run = shutil.copytree(fx, tmp_path / f"cpus{n}", ignore=shutil.ignore_patterns("out"))
            cfg = str(run / "run.cfg")
            assert main(["simulate", "--config", cfg]) == 0
            assert main(["impact", "--config", cfg]) == 0
            programs = shocked_programs(run)
            assert 1 < programs < 6
            # no pool is started for a single process
            assert started == [k for k in (min(len(SMALL_SCENARIOS), n), min(programs, n)) if k > 1]
            assert not multiprocessing.active_children()
            written.append({name: (run / "out" / name).read_bytes() for name in POOLED_OUTPUTS})
            started.clear()
        assert written[0] == written[1] == written[2]

    def test_malformed_profile_line_through_the_pool(self, run_copy, pool_sizes, capsys):
        started, cpus = pool_sizes
        cpus(2)
        path = run_copy / "profiles" / "heat_pump.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[5] = lines[5].replace(b",", b";", 1)
        path.write_bytes(b"".join(lines))
        with pytest.raises(ParseError) as alone:
            load_profile(path, scenario="heat_pump")
        assert alone.value.line == 6
        cfg = str(run_copy / "run.cfg")
        assert main(["simulate", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {alone.value}\n"
        args = cli_module.build_parser().parse_args(["simulate", "--config", cfg])
        with pytest.raises(ParseError) as pooled:
            args.func(args)
        assert (str(pooled.value), pooled.value.line) == (str(alone.value), 6)
        assert started == [2, 2]
        assert not multiprocessing.active_children()

    def test_one_cpu_starts_no_process(self, fx, tmp_path, pool_sizes, monkeypatch):
        started, cpus = pool_sizes

        def outputs(name):
            run = shutil.copytree(fx, tmp_path / name, ignore=shutil.ignore_patterns("out"))
            for stage in ("simulate", "impact", "analyze"):
                assert main([stage, "--config", str(run / "run.cfg")]) == 0
            return {path.name: path.read_bytes() for path in (run / "out").iterdir()}

        cpus(2)
        pooled = outputs("cpus2")
        assert started == [2, 2] and len(pooled) == 10

        def refuse(self, *args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(type(multiprocessing.get_context("fork")), "Pool", refuse)
        cpus(1)
        assert outputs("cpus1") == pooled

    def test_non_utf8_profile_through_the_pool(self, run_copy, pool_sizes, capsys):
        started, cpus = pool_sizes
        cpus(2)
        path = run_copy / "profiles" / "current.csv"
        text = path.read_bytes()
        path.write_bytes(text[:100] + b"\xff" + text[101:])
        assert main(["simulate", "--config", str(run_copy / "run.cfg")]) == 1
        assert capsys.readouterr().err == "error: current.csv is not UTF-8 text (invalid start byte)\n"
        assert started == [2]
        assert not multiprocessing.active_children()

    def test_non_utf8_results_refused(self, run_copy, pool_sizes, capsys):
        started, cpus = pool_sizes
        cpus(2)
        path = run_copy / "out" / "results.csv"
        text = path.read_bytes()
        path.write_bytes(text[:100] + b"\xff" + text[101:])
        with pytest.raises(ParseError, match=r"^results.csv is not UTF-8 text \(invalid start byte\)$"):
            load_results(path)
        for stage in ("impact", "analyze"):
            assert main([stage, "--config", str(run_copy / "run.cfg")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "results.csv does not match its hash" in err
        assert started == []
        assert not multiprocessing.active_children()

    def test_refused_shock_through_the_pool(self, run_copy, pool_sizes, monkeypatch, capsys):
        started, cpus = pool_sizes
        cpus(2)
        parent = os.getpid()

        def refuse(programs, *, path):
            assert path is not None  # every chunk starts on the baseline's path
            where = "a child" if os.getpid() != parent else "the parent"
            raise ValidationError(f"{len(programs)} shocks refused in {where}")

        monkeypatch.setattr(mria_module, "lp_solve_stack", refuse)
        before = (run_copy / "out" / "impacts.csv").read_bytes()
        assert main(["impact", "--config", str(run_copy / "run.cfg")]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \d+ shocks refused in a child\n", err)
        assert started == [2]
        assert not multiprocessing.active_children()
        assert (run_copy / "out" / "impacts.csv").read_bytes() == before

    def test_simulate_builds_one_hop_table(self, fx, tmp_path, monkeypatch):
        builds = []
        build = Grid.hop_distance.func

        def counted(grid):
            builds.append(grid)
            return build(grid)

        prop = cached_property(counted)
        prop.__set_name__(Grid, "hop_distance")
        monkeypatch.setattr(Grid, "hop_distance", prop)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(fx / "run.cfg"), "--out", str(out)]) == 0
        assert len(builds) == 1



class TestStageImports:
    """Each stage imports only the layers it runs: `cli` imports a heavy
    layer when a command first fetches one of its names from the module."""

    # stage -> (a layer it runs, modules it must not load)
    LAYERS = {
        "simulate": (
            "gridshock.failures",
            ("gridshock.mria", "gridshock.analysis", "gridshock.synthetic"),
        ),
        "impact": (
            "gridshock.mria",
            (
                "gridshock.dispatch",
                "gridshock.failures",
                "gridshock.analysis",
                "gridshock.synthetic",
                "numpy.ma",
            ),
        ),
        "analyze": (
            "gridshock.analysis",
            (
                "gridshock.dispatch",
                "gridshock.numerics",
                "gridshock.failures",
                "gridshock.mria",
                "gridshock.synthetic",
                "multiprocessing",
                "numpy.ma",
            ),
        ),
    }
    # runs one stage, then prints its exit code and every module loaded when main returned
    PROBE = "import sys\nfrom gridshock.cli import main\nprint(main(sys.argv[1:]), *sys.modules)"

    def test_each_stage_in_a_fresh_interpreter(self, fx, tmp_path):
        run = shutil.copytree(fx, tmp_path / "run", ignore=shutil.ignore_patterns("out"))
        for stage, (runs, absent) in self.LAYERS.items():
            argv = ["-c", self.PROBE, stage, "--config", str(run / "run.cfg")]
            code, *loaded = run_python(argv, 0).splitlines()[-1].split()
            assert code == "0", stage
            assert runs in loaded, stage
            assert [name for name in absent if name in loaded] == [], stage

    def test_impact_runs_the_function_set_on_the_module(self, run_copy, monkeypatch):
        # the benchmark's tracer wraps cli's names with setattr before a stage runs
        calls = []
        priced = cli_module.assess_impact

        def counting(*args, **kwargs):
            calls.append(args)
            return priced(*args, **kwargs)

        monkeypatch.setattr(cli_module, "assess_impact", counting)
        assert main(["impact", "--config", str(run_copy / "run.cfg")]) == 0
        assert len(calls) == 1

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
            cli_module.nosuch

    def test_each_stage_hashes_each_file_once(self, fx, tmp_path, monkeypatch, pool_sizes):
        _, cpus = pool_sizes
        cpus(1)  # profiles parsed and hashed in this process, where the spy sees them
        run = shutil.copytree(fx, tmp_path / "run", ignore=shutil.ignore_patterns("out"))
        hashed = []
        sha256 = cli_module._sha256

        def spy(path):
            hashed.append(path)
            return sha256(path)

        monkeypatch.setattr(cli_module, "_sha256", spy)
        for stage in ("simulate", "impact", "analyze"):
            assert main([stage, "--config", str(run / "run.cfg")]) == 0
            assert hashed and len(hashed) == len(set(hashed)), stage
            hashed.clear()
