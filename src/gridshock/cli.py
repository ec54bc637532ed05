"""Command-line pipeline: gen-synthetic, simulate, impact, analyze.

simulate calibrates branch ratings against the current-day peak, runs
the generator-failure sweep, and writes `results.csv`, the demand at the
studied hours (`demand.csv`) and a provenance record. It is the only stage
that parses the demand profiles. impact checks that the supply-use program
reproduces the tables' baseline, then prices every result row through it.
Both impact and analyze first refuse a results or demand file whose
provenance record does not match the current inputs; impact then records
the hashes of what it read and wrote, and analyze refuses impacts priced
from other results or economy files, or changed since. analyze aggregates
costs into the published curve, slope, regional and population outputs.
Every output is a pure function of (inputs, seed), independent of the
worker count.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import sys
from pathlib import Path

from .analysis import (
    build_cost_curve,
    lost_load_slope,
    marginal_cost_per_gw,
    population_shares,
    regional_relative_change,
    write_cost_curves,
    write_marginal_slopes,
    write_population_shares,
    write_regional_change,
    zero_impact_demand_gw,
)
from .atomic import atomic_open
from .errors import GridShockError, ParseError, ProvenanceMismatch
from .failures import calibrate_ratings, load_results, run_experiment, save_results
from .grid import load_grid, load_regions
from .mria import assess_impact, load_supply_use, shock_from_unserved, solve_baseline
from .profiles import (
    StudiedDemand,
    load_profile,
    load_studied_demand,
    save_studied_demand,
)
from .runconfig import RunConfig, load_run_config
from .synthetic import generate, write_fixture


def _record_id(record) -> str:
    return f"{record.ordering_index}:{record.loss_fraction!r}:{record.scenario}:{record.hour}"


def _parse_record_id(text: str) -> tuple[int, float, str, int]:
    parts = text.split(":")
    if len(parts) != 4:
        raise ParseError(f"malformed record id {text!r}", 0)
    return int(parts[0]), float(parts[1]), parts[2], int(parts[3])


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while block := handle.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def _hashed_files(config: RunConfig, config_path: Path) -> list[tuple[str, Path]]:
    """(provenance key, path) of every file simulate hashes: inputs and outputs."""
    return (
        [("config", config_path), ("grid", config.grid), ("regions", config.regions)]
        + [(f"profile.{s}", p) for s, p in sorted(config.profiles.items())]
        + [("results", config.out_dir / "results.csv"), ("demand", config.out_dir / "demand.csv")]
    )


def _priced_files(config: RunConfig) -> list[tuple[str, Path]]:
    """(provenance key, path) of every file impact hashes: the results and
    demand it prices, the economy it prices them in, and its outputs."""
    if config.supply_use_dir is None:
        raise GridShockError("configuration has no supply_use_dir; impact needs one")
    out = config.out_dir
    economy = ("supply", "use", "final_demand", "value_added", "trade")
    return (
        [("results", out / "results.csv"), ("demand", out / "demand.csv")]
        + [(f"economy.{name}", config.supply_use_dir / f"{name}.csv") for name in economy]
        + [("impacts", out / "impacts.csv"), ("impacts_regional", out / "impacts_regional.csv")]
    )


def _hash_lines(files: list[tuple[str, Path]]) -> list[str]:
    return [f"{key} = sha256:{_sha256(path)}" for key, path in files]


def _read_provenance(path: Path) -> dict[str, str]:
    return dict(
        line.split(" = ", 1)
        for line in path.read_text(encoding="utf-8").splitlines()
        if " = " in line
    )


def _check_hashes(path: Path, recorded: dict[str, str], files, stage: str) -> None:
    """Refuse any file whose hash is not the one `path` records for it."""
    for key, hashed_path in files:
        if recorded.get(key) != f"sha256:{_sha256(hashed_path)}":
            raise ProvenanceMismatch(
                f"{hashed_path} does not match its hash in {path}; rerun {stage}"
            )


def _check_provenance(config: RunConfig, config_path: Path, table) -> None:
    """Refuse outputs that simulate did not write from the current inputs.

    The record count in `provenance.txt` must match the results table read
    back, and every recorded hash must match its file as it is now.
    """
    path = config.out_dir / "provenance.txt"
    recorded = _read_provenance(path)
    if recorded.get("records") != str(len(table.records)):
        raise ProvenanceMismatch(
            f"{config.out_dir / 'results.csv'} holds {len(table.records)} records, "
            f"but {path} records {recorded.get('records')}; rerun simulate"
        )
    _check_hashes(path, recorded, _hashed_files(config, config_path), "simulate")


def _resolve(config: RunConfig, args) -> RunConfig:
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["master_seed"] = args.seed
    if getattr(args, "workers", None) is not None:
        updates["workers"] = args.workers
    if getattr(args, "out", None) is not None:
        updates["out_dir"] = Path(args.out).resolve()
    if updates:
        from dataclasses import replace

        config = replace(config, **updates)
    return config


def cmd_gen_synthetic(args) -> int:
    fixture = generate(args.size, args.seed)
    written = write_fixture(fixture, args.out)
    peak = fixture.profiles["current"].national().max()
    print(f"wrote {len(written)} files to {args.out}")
    print(f"{fixture.name}: current national peak {peak / 1000.0:.3f} GW")
    return 0


def cmd_simulate(args) -> int:
    config = _resolve(load_run_config(args.config), args)
    grid = load_grid(config.grid)
    profiles = {
        scenario: load_profile(path, scenario=scenario)
        for scenario, path in sorted(config.profiles.items())
    }
    grid = calibrate_ratings(
        grid,
        profiles[config.analyze_baseline],
        headroom=config.headroom,
        interconnector_penalty=config.interconnector_penalty,
    )
    experiment = config.experiment_config(config.master_seed)
    table = run_experiment(
        grid,
        profiles,
        experiment,
        workers=config.workers,
        interconnector_penalty=config.interconnector_penalty,
    )
    config.out_dir.mkdir(parents=True, exist_ok=True)
    save_results(table, config.out_dir / "results.csv")
    save_studied_demand(
        {
            scenario: StudiedDemand.from_profile(
                profile, [h for s, h in experiment.hours if s == scenario]
            )
            for scenario, profile in profiles.items()
        },
        config.out_dir / "demand.csv",
    )

    lines = _hash_lines(_hashed_files(config, Path(args.config)))
    lines += [
        f"master_seed = {experiment.master_seed}",
        f"n_orderings = {experiment.n_orderings}",
        f"loss_fractions = {', '.join(repr(f) for f in experiment.loss_fractions)}",
        f"shed_step = {experiment.shed_step!r}",
        f"hours = {', '.join(f'{s}:{h}' for s, h in experiment.hours)}",
        f"records = {len(table.records)}",
    ]
    with atomic_open(config.out_dir / "provenance.txt") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {len(table.records)} records to {config.out_dir / 'results.csv'}")
    return 0


def cmd_impact(args) -> int:
    config = _resolve(load_run_config(args.config), args)
    priced = _priced_files(config)
    table = load_results(config.out_dir / "results.csv")
    _check_provenance(config, Path(args.config), table)
    regions = load_regions(config.regions)
    model = load_supply_use(config.supply_use_dir)
    solve_baseline(model)
    demands = load_studied_demand(config.out_dir / "demand.csv")

    cache = {}
    totals: list[tuple[str, float]] = []
    regional: list[tuple[str, str, float]] = []
    for record in table.records:
        shock = shock_from_unserved(record, regions, demands[record.scenario])
        key = (shock.duration_hours, tuple(sorted(shock.delta.items())))
        if key not in cache:
            cache[key] = assess_impact(model, shock)
        impact = cache[key]
        rid = _record_id(record)
        totals.append((rid, impact.total_cost))
        va_by_region = impact.delta_va.sum(axis=1)
        for k, zone in enumerate(impact.regions):
            regional.append((rid, zone, float(va_by_region[k])))

    with atomic_open(config.out_dir / "impacts.csv") as handle:
        writer = csv.writer(handle)
        writer.writerow(["record_id", "total_cost"])
        writer.writerows((rid, repr(cost)) for rid, cost in totals)
    with atomic_open(config.out_dir / "impacts_regional.csv") as handle:
        writer = csv.writer(handle)
        writer.writerow(["record_id", "region", "delta_va"])
        writer.writerows((rid, zone, repr(value)) for rid, zone, value in regional)
    with atomic_open(config.out_dir / "impact_provenance.txt") as handle:
        handle.write("\n".join(_hash_lines(priced)) + "\n")
    run = sum(impact.iterations for impact in cache.values())
    replayed = sum(impact.replayed for impact in cache.values())
    print(
        f"priced {len(totals)} records ({len(cache)} distinct programs; "
        f"{replayed} of {run + replayed} simplex iterations replayed)"
    )
    return 0


def _read_impacts(out_dir: Path) -> dict[tuple[int, float, str, int], float]:
    costs = {}
    with open(out_dir / "impacts.csv", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            costs[_parse_record_id(row["record_id"])] = float(row["total_cost"])
    return costs


def _read_regional(out_dir: Path) -> dict[tuple[int, float, str, int], dict[str, float]]:
    regional: dict[tuple[int, float, str, int], dict[str, float]] = {}
    with open(out_dir / "impacts_regional.csv", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            key = _parse_record_id(row["record_id"])
            cost = max(0.0, -float(row["delta_va"]))
            regional.setdefault(key, {})[row["region"]] = cost
    return regional


def cmd_analyze(args) -> int:
    config = _resolve(load_run_config(args.config), args)
    table = load_results(config.out_dir / "results.csv")
    _check_provenance(config, Path(args.config), table)
    path = config.out_dir / "impact_provenance.txt"
    _check_hashes(path, _read_provenance(path), _priced_files(config), "impact")
    costs = _read_impacts(config.out_dir)
    regional_costs = _read_regional(config.out_dir)
    regions = load_regions(config.regions)
    demands = load_studied_demand(config.out_dir / "demand.csv")
    scenarios = sorted({record.scenario for record in table.records})

    curves = {s: build_cost_curve(table, costs, s) for s in scenarios}
    write_cost_curves([curves[s] for s in scenarios], config.out_dir / "cost_curve.csv")

    peaks = {s: demands[s].peak_mw / 1000.0 for s in scenarios}
    slope_rows = [
        (
            "peak_demand",
            "",
            config.analyze_fraction,
            marginal_cost_per_gw(curves, peaks, config.analyze_fraction),
        )
    ]
    for scenario in scenarios:
        slope = lost_load_slope(table, costs, scenario)
        if slope is not None:
            slope_rows.append(("lost_load", scenario, None, slope))
    write_marginal_slopes(slope_rows, config.out_dir / "marginal.csv")

    change = regional_relative_change(
        table,
        regional_costs,
        config.analyze_scenario,
        config.analyze_fraction,
        baseline=config.analyze_baseline,
    )
    write_regional_change(change, config.out_dir / "regional_change.csv")

    share_rows = []
    for scenario in scenarios:
        if scenario == config.analyze_baseline:
            continue
        shares = population_shares(
            regional_relative_change(
                table,
                regional_costs,
                scenario,
                config.analyze_fraction,
                baseline=config.analyze_baseline,
            ),
            regions,
        )
        share_rows.append((scenario, *shares))
    write_population_shares(share_rows, config.out_dir / "population_share.csv")

    threshold = zero_impact_demand_gw(table, costs, demands)
    label = "none" if threshold is None else f"{threshold!r} GW"
    print(f"wrote 4 analysis files to {config.out_dir}")
    print(f"largest national demand with zero median cost: {label}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridshock",
        description="generation-shortage simulation and economic impact pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-synthetic", help="write a synthetic fixture file set")
    gen.add_argument("--size", choices=("small", "gb-like"), required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen_synthetic)

    for name, func, description in (
        ("simulate", cmd_simulate, "calibrate ratings and run the failure sweep"),
        ("impact", cmd_impact, "price simulated shortages through the economy"),
        ("analyze", cmd_analyze, "aggregate priced results into analysis files"),
    ):
        cmd = sub.add_parser(name, help=description)
        cmd.add_argument("--config", required=True)
        if name == "simulate":
            cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--workers", type=int, default=None)
        cmd.add_argument("--out", default=None)
        cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GridShockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
