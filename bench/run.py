"""gridshock pipeline benchmark.

Writes the workload's inputs (bench/fixture.py; --seed draws the sweep's
failure orderings), runs each stage as a user would (`python -m gridshock
<stage>`, one process at a time, each started after the last exits),
checks the outputs (bench/checks.py), and prints every metric by name with
its unit and sample count. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 bench/run.py --workload gb-default --seed 7 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 7

--trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
metrics instead: it runs the serial pipeline once untraced and once with
the spans of bench/tracer.py, and reports the difference as the tracing
overhead. The same report goes to .bench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import fixture
import tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

# workload name -> fixture variant (see bench/README.md for why each exists)
WORKLOADS = {"gb-default": "default", "gb-congested": "congested"}
# workloads whose run also checks that `simulate --workers 2` writes the
# serial results.csv; gb-congested's results are checked against the stored
# serial reference instead, since its orderings never change
PARALLEL_CHECKED = ("gb-default",)
STAGES = ("simulate", "impact", "analyze")
SETUP_REPEATS = 2
PARALLEL_WORKERS = 2
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "simulate_s": "s",
    "impact_s": "s",
    "analyze_s": "s",
    "pipeline_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class StageRun:
    stage: str
    seconds: float
    exit_code: int
    peak_rss_mb: float


def run_stage(stage: str, argv: list[str], cwd: Path, log: Path, deadline: float) -> StageRun:
    """Run one stage process to completion; time it and read its peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    return StageRun(stage, seconds, proc.returncode, usage.ru_maxrss / 1024.0)


def stage_argv(stage: str, config: Path, *, workers: int = 1, out: Path | None = None,
               spans: Path | None = None) -> list[str]:
    if spans is None:
        argv = [sys.executable, "-m", "gridshock", stage, "--workers", str(workers)]
    else:
        argv = [sys.executable, str(BENCH / "tracer.py"), stage, "--spans", str(spans)]
    argv += ["--config", str(config)]
    if out is not None:
        argv += ["--out", str(out)]
    return argv


def machine() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class Run:
    """One workload at one seed: set-up, timed stage runs, checks."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.variant = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.log = work / "stages.log"
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.out = work / "fixture" / "out"
        self.config = work / "fixture" / "run.cfg"
        self.stage_runs: list[StageRun] = []
        self.failed: set[int] = set()  # indices into stage_runs
        self.mismatches: list[str] = []
        self.first_digest: dict[str, str] = {}

    def setup(self, repeats: int) -> list[float]:
        import gridshock.synthetic  # imported here so the timed set-ups exclude import time
        from gridshock.runconfig import load_run_config

        times = []
        for k in range(repeats):
            target = self.work / f"setup{k}"
            start = time.perf_counter()
            fixture.build(self.seed, target, self.variant)
            times.append(time.perf_counter() - start)
            if k:
                shutil.rmtree(target)
        (self.work / "setup0").rename(self.work / "fixture")
        sweep = load_run_config(self.config)
        self.cells = sweep.n_orderings * len(sweep.loss_fractions) * len(sweep.hours)
        self.master_seed = sweep.master_seed
        return times

    def stage(self, stage: str, spans: Path | None = None) -> StageRun:
        """Run one stage process, then check that it wrote the bytes its first run wrote."""
        if stage == "simulate_parallel":
            argv = stage_argv("simulate", self.config, workers=PARALLEL_WORKERS,
                              out=self.work / "out_parallel")
        else:
            argv = stage_argv(stage, self.config, spans=spans)
        run = run_stage(stage, argv, self.work, self.log, self.deadline)
        index = len(self.stage_runs)
        self.stage_runs.append(run)
        if run.exit_code != 0:
            self.failed.add(index)
            return run
        if stage == "simulate_parallel":
            written = {"results.csv": checks.sha256(self.work / "out_parallel" / "results.csv")}
        else:
            written = {name: checks.sha256(self.out / name)
                       for name, producer in checks.PRODUCER.items() if producer == stage}
        for name, digest in written.items():
            if self.first_digest.setdefault(name, digest) != digest:
                self.mismatch(index, f"{name} from {stage} differs from the first run's")
        return run

    def mismatch(self, index: int, message: str) -> None:
        self.mismatches.append(message)
        self.failed.add(index)

    def check_outputs(self) -> None:
        """Check the first serial pipeline's outputs (see checks.check_outputs)."""
        first_run = {}
        for index, run in enumerate(self.stage_runs):
            first_run.setdefault(run.stage, index)
        for stage, message in checks.check_outputs(self.out, self.variant, self.master_seed, self.cells):
            self.mismatch(first_run[stage], message)

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics and their sample counts for one workload.

    Every stage runs once, in pipeline order. Then, while `seconds` allows,
    the stage with the fewest samples (the shortest among equals) whose last
    run still fits runs again, so short stages gather more samples and each
    stage's samples spread over the run.
    """
    setup = run.setup(SETUP_REPEATS)
    times: dict[str, list[float]] = {stage: [] for stage in STAGES}
    start = time.perf_counter()
    for stage in STAGES:
        stage_run = run.stage(stage)
        if stage_run.exit_code != 0:
            break
        times[stage].append(stage_run.seconds)
    else:
        run.check_outputs()
    while not run.failed:
        elapsed = time.perf_counter() - start
        fitting = [stage for stage in STAGES
                   if elapsed + times[stage][-1] <= seconds
                   and 2 * times[stage][-1] < run.time_left()]
        if not fitting:
            break
        stage = min(fitting, key=lambda name: (len(times[name]), times[name][-1]))
        stage_run = run.stage(stage)
        if stage_run.exit_code == 0:
            times[stage].append(stage_run.seconds)

    medians = {stage: statistics.median(values) if values else float("nan")
               for stage, values in times.items()}
    values = {
        "setup_s": statistics.median(setup),
        "simulate_s": medians["simulate"],
        "impact_s": medians["impact"],
        "analyze_s": medians["analyze"],
        "pipeline_s": sum(medians[stage] for stage in STAGES),
        "cells_per_s": run.cells / medians["simulate"],
        "peak_rss_mb": max(r.peak_rss_mb for r in run.stage_runs),
    }
    samples = {
        "setup_s": len(setup),
        "simulate_s": len(times["simulate"]),
        "impact_s": len(times["impact"]),
        "analyze_s": len(times["analyze"]),
        "pipeline_s": min(len(times[stage]) for stage in STAGES),
        "cells_per_s": len(times["simulate"]),
        "peak_rss_mb": len(run.stage_runs),
    }
    metrics = {name: (values[name], END_TO_END_UNITS[name]) for name in END_TO_END_UNITS}
    if run.workload in PARALLEL_CHECKED and not run.failed:
        run.stage("simulate_parallel")
    return metrics, samples


def measure_traced(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics from one traced serial pass, with the tracing overhead."""
    setup_tracer = tracer.Tracer()
    setup_tracer.install()
    try:
        run.setup(1)
    finally:
        setup_tracer.uninstall()
    untraced = {}
    for stage in STAGES:
        untraced[stage] = run.stage(stage)
        if untraced[stage].exit_code != 0:
            break
    else:
        run.check_outputs()

    spans_dir = run.work / "spans"
    spans_dir.mkdir()
    overhead = {}
    spans = list(setup_tracer.spans)
    for stage in untraced:
        traced = run.stage(stage, spans=spans_dir / f"{stage}.json")
        if traced.exit_code != 0:
            break
        overhead[stage] = traced.seconds - untraced[stage].seconds
        offset = len(spans)
        for name, start, end, parent, attrs in json.loads(
            (spans_dir / f"{stage}.json").read_text(encoding="utf-8")
        ):
            spans.append([name, start, end, parent + offset if parent >= 0 else -1, attrs])

    metrics, samples = tracer.layer_metrics(spans)
    for stage in STAGES:
        metrics[f"trace.overhead_s.{stage}"] = (overhead.get(stage, float("nan")), "s")
    metrics["trace.overhead_s"] = (sum(overhead.values()), "s")
    return metrics, samples


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, seed, work)
    try:
        metrics, samples = measure_traced(run) if trace else measure(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(run.stage_runs)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "machine": machine(),
        "closed_loop": "one stage process at a time, each started after the last exits",
        "metrics": {name: {"value": value, "unit": unit, "samples": samples.get(name)}
                    for name, (value, unit) in metrics.items()},
        "output_mismatches": len(run.mismatches),
        "failed_stage_share": len(run.failed) / attempted if attempted else 1.0,
        "mismatches": run.mismatches,
        "stage_runs": [vars(stage_run) for stage_run in run.stage_runs],
        "attempted": attempted,
        "failed": len(run.failed),
    }


def print_report(report: dict) -> None:
    m = report["machine"]
    print(f"== {report['workload']} seed {report['seed']} trace {report['trace']} "
          f"({m['nproc']} cpus, {m['cpu']}, Python {m['python']}, numpy {m['numpy']})")
    for name, metric in report["metrics"].items():
        samples = "" if metric["samples"] is None else f" (n={metric['samples']})"
        print(f"{report['workload']} {name} = {metric['value']:.6g} {metric['unit']}{samples}")
    print(f"{report['workload']} output_mismatches = {report['output_mismatches']}")
    print(f"{report['workload']} failed_stage_share = {report['failed_stage_share']:.6g} "
          f"({report['failed']}/{report['attempted']} stage runs)")
    for stage_run in report["stage_runs"]:
        if stage_run["stage"] == "simulate_parallel":
            print(f"{report['workload']} check run: simulate --workers {PARALLEL_WORKERS} took "
                  f"{stage_run['seconds']:.6g} s; its results.csv must equal the serial one")
    for message in report["mismatches"]:
        print(f"{report['workload']} mismatch: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS) + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=checks.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gridshock" / "__init__.py").is_file():
        print(f"error: no gridshock sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    workloads = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    for workload in workloads:
        report = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
        (results / name).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print_report(report)
        print(json.dumps({
            "correct": report["output_mismatches"] == 0 and report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                        for name, metric in report["metrics"].items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
