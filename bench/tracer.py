"""Spans around the public functions of each gridshock layer.

The tracer patches each function at the name its caller looks up (for
example `gridshock.cli.load_profile`, `gridshock.dispatch.lp_solve`), so
no code inside the package changes. Spans are kept in memory and written
out once, at the end. A span's self time is its duration minus the time
its child spans cover.

Run one traced stage in its own process, the way the pipeline runs it:

    PYTHONPATH=src python3 bench/tracer.py simulate --config run.cfg --spans spans.json
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from collections import defaultdict

ANALYSIS_FUNCTIONS = (
    "build_cost_curve",
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

# (module, attribute looked up by the caller, span name)
WRAPPED = (
    ("gridshock.cli", "load_run_config", "runconfig.load_run_config"),
    ("gridshock.cli", "load_grid", "grid.load_grid"),
    ("gridshock.cli", "load_regions", "grid.load_regions"),
    ("gridshock.cli", "load_profile", "profiles.load_profile"),
    ("gridshock.cli", "calibrate_ratings", "failures.calibrate_ratings"),
    ("gridshock.cli", "run_experiment", "failures.run_experiment"),
    ("gridshock.cli", "save_results", "failures.save_results"),
    ("gridshock.cli", "load_results", "failures.load_results"),
    ("gridshock.cli", "load_supply_use", "mria.load_supply_use"),
    ("gridshock.cli", "shock_from_unserved", "mria.shock_from_unserved"),
    ("gridshock.cli", "assess_impact", "mria.assess_impact"),
    ("gridshock.failures", "GridContext", "dispatch.grid_context"),
    ("gridshock.failures", "dispatch_with_shedding", "dispatch.cell"),
    ("gridshock.dispatch", "redispatch", "dispatch.redispatch"),
    ("gridshock.dispatch", "lp_solve", "numerics.lp_solve.dispatch"),
    ("gridshock.mria", "lp_solve", "numerics.lp_solve.mria"),
    ("gridshock.synthetic", "generate", "synthetic.generate"),
    ("gridshock.synthetic", "write_fixture", "synthetic.write_fixture"),
) + tuple(("gridshock.cli", name, f"analysis.{name}") for name in ANALYSIS_FUNCTIONS)


def _profile_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _limit_rows(args, result):
    a_ub = args[0].a_ub
    return {"limit_rows": 0 if a_ub is None else int(a_ub.shape[0])}


def _feasible(args, result):
    return {"feasible": result.status == "feasible"}


def _shed(args, result):
    return {"shed": result.total_shed_mw > 0.0}


# extra attributes recorded on a span once its call returns
ATTRIBUTES = {
    "profiles.load_profile": _profile_bytes,
    "numerics.lp_solve.dispatch": _limit_rows,
    "dispatch.redispatch": _feasible,
    "dispatch.cell": _shed,
}


class Tracer:
    """Records (name, start, end, parent, attrs) spans in one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        if attrs:
            span[4].update(attrs)
        self._stack.pop()

    def wrap(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        describe = ATTRIBUTES.get(name)

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                self.close(index, {"error": type(exc).__name__})
                raise
            self.close(index, describe(args, result) if describe else None)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            self.wrap(importlib.import_module(module_name), attr, name)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans: list[list]) -> tuple[dict[str, tuple[float, str]], dict[str, int]]:
    """Per-layer metrics as {name: (value, unit)}, plus the sample count of each percentile."""
    duration = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for k, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[k]
    by_name: dict[str, list[int]] = defaultdict(list)
    for k, span in enumerate(spans):
        by_name[span[0]].append(k)

    def total(name: str) -> float:
        return sum(duration[k] for k in by_name[name])

    def calls(name: str) -> int:
        return len(by_name[name])

    def self_time(prefix: str) -> float:
        return sum(
            duration[k] - child_time[k]
            for k, span in enumerate(spans)
            if span[0].startswith(prefix)
        )

    def enclosing_cell(k: int) -> int:
        while k >= 0 and spans[k][0] != "dispatch.cell":
            k = spans[k][3]
        return k

    cells = by_name["dispatch.cell"]
    congested = set()
    cell_lps = 0
    for k in by_name["numerics.lp_solve.dispatch"]:
        cell = enclosing_cell(k)
        if cell >= 0:
            cell_lps += 1
            if spans[k][4].get("limit_rows"):
                congested.add(cell)
    limit_rows = [spans[k][4].get("limit_rows", 0) for k in by_name["numerics.lp_solve.dispatch"]]
    redispatch = by_name["dispatch.redispatch"]
    profile_s = total("profiles.load_profile")
    profile_mb = sum(spans[k][4].get("bytes", 0) for k in by_name["profiles.load_profile"]) / 1e6
    cell_ms = [duration[k] * 1e3 for k in cells]
    mria_ms = [duration[k] * 1e3 for k in by_name["numerics.lp_solve.mria"]]
    shocks = calls("mria.shock_from_unserved")
    n_cells = len(cells)

    metrics = {
        "profiles.load_profile.calls": (calls("profiles.load_profile"), "count"),
        "profiles.load_profile.s": (profile_s, "s"),
        "profiles.load_profile.mb_per_s": (profile_mb / profile_s if profile_s else 0.0, "MB/s"),
        "grid.load.s": (total("grid.load_grid") + total("grid.load_regions"), "s"),
        "runconfig.load_run_config.s": (total("runconfig.load_run_config"), "s"),
        "failures.calibrate_ratings.s": (total("failures.calibrate_ratings"), "s"),
        "failures.run_experiment.s": (total("failures.run_experiment"), "s"),
        "failures.cells": (n_cells, "count"),
        "failures.save_results.s": (total("failures.save_results"), "s"),
        "failures.load_results.calls": (calls("failures.load_results"), "count"),
        "failures.load_results.s": (total("failures.load_results"), "s"),
        "dispatch.grid_context.s": (total("dispatch.grid_context"), "s"),
        "dispatch.cells": (n_cells, "count"),
        "dispatch.cell_ms.p50": (_percentile(cell_ms, 50), "ms"),
        "dispatch.cell_ms.p95": (_percentile(cell_ms, 95), "ms"),
        "dispatch.cell_ms.p99": (_percentile(cell_ms, 99), "ms"),
        "dispatch.redispatch.calls": (len(redispatch), "count"),
        "dispatch.redispatch.s": (total("dispatch.redispatch"), "s"),
        "dispatch.redispatch.feasible_ratio": (
            sum(spans[k][4].get("feasible", False) for k in redispatch) / len(redispatch)
            if redispatch else 0.0,
            "ratio",
        ),
        "dispatch.rounds_per_cell": (len(redispatch) / n_cells if n_cells else 0.0, "ratio"),
        "dispatch.shed_cells": (sum(spans[k][4].get("shed", False) for k in cells), "count"),
        "dispatch.congested_cells": (len(congested), "count"),
        "dispatch.unstable_cells": (
            sum(spans[k][4].get("error") == "Unstable" for k in cells), "count"
        ),
        "dispatch.limit_rows.max": (max(limit_rows, default=0), "count"),
        "dispatch.limit_rows.total": (sum(limit_rows), "count"),
        "dispatch.self_s": (self_time("dispatch."), "s"),
        "numerics.lp_solve.dispatch.calls": (calls("numerics.lp_solve.dispatch"), "count"),
        "numerics.lp_solve.dispatch.s": (total("numerics.lp_solve.dispatch"), "s"),
        "numerics.lp_solve.dispatch.lps_per_cell": (
            cell_lps / n_cells if n_cells else 0.0, "ratio"
        ),
        "numerics.lp_solve.mria.calls": (len(mria_ms), "count"),
        "numerics.lp_solve.mria.s": (total("numerics.lp_solve.mria"), "s"),
        "numerics.lp_solve.mria.ms.p50": (_percentile(mria_ms, 50), "ms"),
        "numerics.lp_solve.mria.ms.p95": (_percentile(mria_ms, 95), "ms"),
        "mria.load_supply_use.s": (total("mria.load_supply_use"), "s"),
        "mria.shock_from_unserved.s": (total("mria.shock_from_unserved"), "s"),
        "mria.assess_impact.calls": (calls("mria.assess_impact"), "count"),
        "mria.assess_impact.s": (total("mria.assess_impact"), "s"),
        "mria.self_s": (self_time("mria."), "s"),
        "mria.cache_hit_ratio": (
            1.0 - calls("mria.assess_impact") / shocks if shocks else 0.0, "ratio"
        ),
        "analysis.s": (sum(total(f"analysis.{name}") for name in ANALYSIS_FUNCTIONS), "s"),
        "synthetic.generate.s": (total("synthetic.generate"), "s"),
        "synthetic.write_fixture.s": (total("synthetic.write_fixture"), "s"),
    }
    for stage in ("simulate", "impact", "analyze"):
        metrics[f"cli.{stage}.self_s"] = (self_time(f"cli.{stage}"), "s")
    samples = {f"dispatch.cell_ms.p{q}": n_cells for q in (50, 95, 99)}
    samples.update({f"numerics.lp_solve.mria.ms.p{q}": len(mria_ms) for q in (50, 95)})
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one gridshock stage with layer spans")
    parser.add_argument("stage", choices=("simulate", "impact", "analyze"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--spans", required=True, help="JSON file the spans are written to")
    args = parser.parse_args(argv)

    from gridshock import cli

    tracer = Tracer()
    tracer.install()
    index = tracer.open(f"cli.{args.stage}")
    # one worker: spans recorded in forked sweep workers would be lost
    code = cli.main([args.stage, "--config", args.config, "--workers", "1"])
    tracer.close(index)
    tracer.uninstall()
    with open(args.spans, "w", encoding="utf-8") as handle:
        json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
