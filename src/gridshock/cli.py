"""Command-line pipeline: gen-synthetic, simulate, impact, analyze.

simulate calibrates branch ratings against the current-day peak, runs
the generator-failure sweep, and writes `results.csv`, the demand at the
studied hours (`demand.csv`) and a provenance record. It is the only stage
that parses the demand profiles. impact checks that the supply-use program
reproduces the tables' baseline, then prices each distinct shock row of
the result table through it once.
Both impact and analyze first refuse a results or demand file whose
provenance record does not match the current inputs; impact then records
the hashes of what it read and wrote, and analyze refuses impacts priced
from other results or economy files, or changed since. analyze aggregates
costs into the published curve, slope, regional and population outputs.

Processes are started only through `forkpool.fork_map`, which runs its
calls in this process where it would start only one. gen-synthetic
writes its profile files in min(files, CPUs) processes. simulate parses its
profiles in min(profiles, CPUs) and runs the sweep's orderings in
min(workers, orderings). impact solves its programs in min(programs,
CPUs), one contiguous chunk each. analyze starts no process. Every
output is a pure function of (inputs, seed), independent of the worker
count and of the number of CPUs.

Each stage imports only the layers it runs, since every stage is a process
of its own that pays for its imports. At the top this module imports the
light layers: configuration, grid and profile readers, the result table
(`results`) and the pool. The heavy names are imported on first use, by
the module `__getattr__` (PEP 562): `calibrate_ratings` and
`run_experiment` from `failures`, which brings the dispatch engine and
the solver; `assess_impact`, `load_supply_use`, `shock_from_unserved` and
`solve_baseline` from `mria`, which brings the solver; `load_costs` and the
statistics from `analysis`; `generate` and `write_fixture` from
`synthetic`. So simulate loads no `mria`, `analysis` or `synthetic`;
impact no `dispatch`, `failures`, `analysis` or `synthetic`; and analyze
none of those nor `numerics`, `multiprocessing` or `numpy.ma`. A bare
global name in a function does not reach the module `__getattr__`, so
each command fetches its heavy names from this module when it starts
(`_fetch`): a function set on the module with setattr, such as a tracer's
wrapper, is then the one that runs. A stage hashes each file once:
simulate hashes a profile in the process that parses it, and impact and
analyze keep the digests of one command in a dict of that command.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import sys
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .errors import GridShockError, ParseError, ProvenanceMismatch
from .forkpool import available_cpus, fork_map
from .grid import load_grid, load_regions
from .profiles import (
    StudiedDemand,
    load_profile,
    load_studied_demand,
    save_studied_demand,
)
from .results import ResultTable, load_results, save_results
from .runconfig import RunConfig, load_run_config

# name -> the module `__getattr__` imports it from on first use
_LAZY = {
    "calibrate_ratings": "failures",
    "run_experiment": "failures",
    "assess_impact": "mria",
    "load_supply_use": "mria",
    "shock_from_unserved": "mria",
    "solve_baseline": "mria",
    "build_cost_curve": "analysis",
    "load_costs": "analysis",
    "lost_load_slope": "analysis",
    "marginal_cost_per_gw": "analysis",
    "population_shares": "analysis",
    "regional_relative_change": "analysis",
    "write_cost_curves": "analysis",
    "write_marginal_slopes": "analysis",
    "write_population_shares": "analysis",
    "write_regional_change": "analysis",
    "zero_impact_demand_gw": "analysis",
    "generate": "synthetic",
    "write_fixture": "synthetic",
}


def __getattr__(name: str):
    """Import a lazy name's layer on first use and bind the name here (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    globals()[name] = value
    return value


def _fetch(*names: str) -> list:
    """Each name as this module binds it now: a function set on the module
    with setattr, such as a tracer's wrapper, is the one returned."""
    module = sys.modules[__name__]
    return [getattr(module, name) for name in names]


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


def _digest(path: Path, digests: dict[Path, str]) -> str:
    """The sha256 of `path`, read once per command: `digests` belongs to the
    command, so a file edited between two commands is hashed again."""
    if path not in digests:
        digests[path] = _sha256(path)
    return digests[path]


def _hash_lines(files: list[tuple[str, Path]], digests: dict[Path, str]) -> list[str]:
    return [f"{key} = sha256:{_digest(path, digests)}" for key, path in files]


def _read_provenance(path: Path) -> dict[str, str]:
    return dict(
        line.split(" = ", 1)
        for line in path.read_text(encoding="utf-8").splitlines()
        if " = " in line
    )


def _check_hashes(
    path: Path, recorded: dict[str, str], files, stage: str, digests: dict[Path, str]
) -> None:
    """Refuse any file whose hash is not the one `path` records for it."""
    for key, hashed_path in files:
        if recorded.get(key) != f"sha256:{_digest(hashed_path, digests)}":
            raise ProvenanceMismatch(
                f"{hashed_path} does not match its hash in {path}; rerun {stage}"
            )


def _load_results(config: RunConfig, config_path: Path, digests: dict[Path, str]) -> ResultTable:
    """Read `results.csv`, refusing outputs that simulate did not write from
    the current inputs.

    The record count in `provenance.txt` must match the table read back,
    and every recorded hash must match its file as it is now. A results
    file that does not parse is refused as stale when its hash does not
    match, and by its parse error otherwise.
    """
    path = config.out_dir / "provenance.txt"
    hashed = _hashed_files(config, config_path)
    try:
        table = load_results(config.out_dir / "results.csv")
    except ParseError:
        _check_hashes(path, _read_provenance(path), hashed, "simulate", digests)
        raise
    recorded = _read_provenance(path)
    if recorded.get("records") != str(len(table)):
        raise ProvenanceMismatch(
            f"{config.out_dir / 'results.csv'} holds {len(table)} records, "
            f"but {path} records {recorded.get('records')}; rerun simulate"
        )
    _check_hashes(path, recorded, hashed, "simulate", digests)
    return table


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
    generate, write_fixture = _fetch("generate", "write_fixture")
    fixture = generate(args.size, args.seed)
    written = write_fixture(fixture, args.out)
    peak = fixture.profiles["current"].national().max()
    print(f"wrote {len(written)} files to {args.out}")
    print(f"{fixture.name}: current national peak {peak / 1000.0:.3f} GW")
    return 0


def cmd_simulate(args) -> int:
    calibrate_ratings, run_experiment = _fetch("calibrate_ratings", "run_experiment")
    config = _resolve(load_run_config(args.config), args)
    grid = load_grid(config.grid)

    def parse(scenario: str):
        path = config.profiles[scenario]
        return load_profile(path, scenario=scenario), _sha256(path)

    # one task per profile file, each parsed and hashed in a forked process
    scenarios = sorted(config.profiles)
    parsed = fork_map(parse, scenarios, available_cpus())
    profiles = {s: profile for s, (profile, _) in zip(scenarios, parsed)}
    digests = {config.profiles[s]: digest for s, (_, digest) in zip(scenarios, parsed)}
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

    lines = _hash_lines(_hashed_files(config, Path(args.config)), digests)
    lines += [
        f"master_seed = {experiment.master_seed}",
        f"n_orderings = {experiment.n_orderings}",
        f"loss_fractions = {', '.join(repr(f) for f in experiment.loss_fractions)}",
        f"shed_step = {experiment.shed_step!r}",
        f"hours = {', '.join(f'{s}:{h}' for s, h in experiment.hours)}",
        f"records = {len(table)}",
    ]
    with atomic_open(config.out_dir / "provenance.txt") as handle:
        handle.write("\n".join(lines) + "\n")
    print(
        f"wrote {len(table)} records to {config.out_dir / 'results.csv'} ({table.shed.sum()} "
        f"shed load; {table.network_cells} overloaded a branch after the deficit shed)"
    )
    return 0


def cmd_impact(args) -> int:
    assess_impact, load_supply_use, shock_from_unserved, solve_baseline = _fetch(
        "assess_impact", "load_supply_use", "shock_from_unserved", "solve_baseline"
    )
    config = _resolve(load_run_config(args.config), args)
    priced = _priced_files(config)
    digests: dict[Path, str] = {}
    table = _load_results(config, Path(args.config), digests)
    regions = load_regions(config.regions)
    model = load_supply_use(config.supply_use_dir)
    solve_baseline(model)
    demands = load_studied_demand(config.out_dir / "demand.csv")

    # one program per distinct shock row, all priced in one call
    shocks = shock_from_unserved(table, regions, demands, model.regions)
    distinct, inverse = np.unique(shocks, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    impacts = assess_impact(model, distinct[:, :, None])
    costs = [impacts[k].total_cost for k in inverse.tolist()]
    va_by_zone = np.array([impact.delta_va.sum(axis=1) for impact in impacts])[inverse]
    ids = table.record_ids()

    with atomic_open(config.out_dir / "impacts.csv") as handle:
        writer = csv.writer(handle)
        writer.writerow(["record_id", "total_cost"])
        writer.writerows(zip(ids, map(repr, costs)))
    with atomic_open(config.out_dir / "impacts_regional.csv") as handle:
        writer = csv.writer(handle)
        writer.writerow(["record_id", "region", "delta_va"])
        writer.writerows(
            (rid, zone, repr(value))
            for rid, row in zip(ids, va_by_zone.tolist())
            for zone, value in zip(model.regions, row)
        )
    with atomic_open(config.out_dir / "impact_provenance.txt") as handle:
        handle.write("\n".join(_hash_lines(priced, digests)) + "\n")
    iterations = sum(impact.iterations for impact in impacts)
    replayed = sum(impact.replayed for impact in impacts)
    print(
        f"priced {len(table)} records ({len(impacts)} distinct programs; "
        f"{iterations} simplex iterations, {replayed} from the baseline's path)"
    )
    return 0


def cmd_analyze(args) -> int:
    (
        build_cost_curve,
        load_costs,
        lost_load_slope,
        marginal_cost_per_gw,
        population_shares,
        regional_relative_change,
        write_cost_curves,
        write_marginal_slopes,
        write_population_shares,
        write_regional_change,
        zero_impact_demand_gw,
    ) = _fetch(
        "build_cost_curve",
        "load_costs",
        "lost_load_slope",
        "marginal_cost_per_gw",
        "population_shares",
        "regional_relative_change",
        "write_cost_curves",
        "write_marginal_slopes",
        "write_population_shares",
        "write_regional_change",
        "zero_impact_demand_gw",
    )
    config = _resolve(load_run_config(args.config), args)
    digests: dict[Path, str] = {}
    table = _load_results(config, Path(args.config), digests)
    path = config.out_dir / "impact_provenance.txt"
    _check_hashes(path, _read_provenance(path), _priced_files(config), "impact", digests)
    costs, zones, regional_costs = load_costs(
        table, config.out_dir / "impacts.csv", config.out_dir / "impacts_regional.csv"
    )
    regions = load_regions(config.regions)
    demands = load_studied_demand(config.out_dir / "demand.csv")
    scenarios = sorted(set(table.scenario))

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
        zones,
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
                zones,
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
        ignored = "" if name == "simulate" else "; ignored by this stage"
        cmd.add_argument("--workers", type=int, default=None, help=f"sweep processes{ignored}")
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
