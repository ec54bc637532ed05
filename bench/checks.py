"""Output checks for the benchmark runs.

When the sweep's `master_seed` is the reference seed (the gb-like fixture's
own seed, 7), `results.csv` must match a stored sha256 and every
impact and analysis file must match the stored reference within 1e-9
relative (1e-9 absolute near zero). On any seed, every results record must
have exactly one impact row, a record with nothing unserved must cost 0,
and the parallel sweep must write the same bytes as the serial one.

Capture the references again (only when a change is meant to move the
outputs, and say so in that change):

    PYTHONPATH=src python3 bench/checks.py capture OUT_DIR VARIANT
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import math
import sys
from pathlib import Path

REFERENCE_SEED = 7
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
ABS_TOL = 1e-9

# output file -> stage that writes it
IMPACT_OUTPUTS = ("impacts.csv", "impacts_regional.csv")
ANALYSIS_OUTPUTS = ("cost_curve.csv", "marginal.csv", "regional_change.csv", "population_share.csv")
PRODUCER = {"results.csv": "simulate"}
PRODUCER.update({name: "impact" for name in IMPACT_OUTPUTS})
PRODUCER.update({name: "analyze" for name in ANALYSIS_OUTPUTS})


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def compare_tables(actual: list[list[str]], reference: list[list[str]]) -> str | None:
    """None when the tables agree, else the first difference."""
    if len(actual) != len(reference):
        return f"{len(actual)} rows, reference has {len(reference)}"
    for lineno, (row, ref) in enumerate(zip(actual, reference), start=1):
        if len(row) != len(ref):
            return f"line {lineno}: {len(row)} fields, reference has {len(ref)}"
        for got, want in zip(row, ref):
            a, b = _number(got), _number(want)
            if a is None or b is None:
                if got != want:
                    return f"line {lineno}: {got!r} != {want!r}"
            elif not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                return f"line {lineno}: {got} differs from {want} by more than {REL_TOL:g} relative"
    return None


def _reference(variant: str) -> Path:
    return REFERENCE_DIR / f"seed{REFERENCE_SEED}" / variant


def check_outputs(out_dir: Path, variant: str, master_seed: int, cells: int) -> list[tuple[str, str]]:
    """(stage, failure) for every check the serial pipeline's outputs fail."""
    failures: list[tuple[str, str]] = []
    results = out_dir / "results.csv"
    impacts = out_dir / "impacts.csv"
    for name in PRODUCER:
        if not (out_dir / name).is_file():
            failures.append((PRODUCER[name], f"{name} is missing"))
    if failures:
        return failures

    unserved: dict[str, float] = {}
    for row in csv.DictReader(results.open(encoding="utf-8", newline="")):
        rid = f"{row['ordering']}:{row['fraction']}:{row['scenario']}:{row['hour']}"
        unserved[rid] = unserved.get(rid, 0.0) + float(row["unserved_mw"])
    if len(unserved) != cells:
        failures.append(("simulate", f"results.csv holds {len(unserved)} records, expected {cells}"))
    costs: dict[str, list[float]] = {}
    for row in csv.DictReader(impacts.open(encoding="utf-8", newline="")):
        costs.setdefault(row["record_id"], []).append(float(row["total_cost"]))
    if set(costs) != set(unserved) or any(len(v) != 1 for v in costs.values()):
        failures.append(("impact", "impacts.csv does not hold exactly one row per record"))
    elif any(unserved[rid] == 0.0 and costs[rid][0] != 0.0 for rid in unserved):
        failures.append(("impact", "a record with nothing unserved has a nonzero cost"))

    if master_seed == REFERENCE_SEED:
        reference = _reference(variant)
        expected = (reference / "results.sha256").read_text(encoding="utf-8").split()[0]
        if sha256(results) != expected:
            failures.append(("simulate", "results.csv differs from the reference sha256"))
        for name in IMPACT_OUTPUTS + ANALYSIS_OUTPUTS:
            with gzip.open(reference / f"{name}.gz", "rt", encoding="utf-8", newline="") as handle:
                want = _rows(handle.read())
            got = _rows((out_dir / name).read_text(encoding="utf-8"))
            difference = compare_tables(got, want)
            if difference:
                failures.append((PRODUCER[name], f"{name}: {difference}"))
    return failures


def capture(out_dir: Path, variant: str) -> None:
    """Store out_dir's outputs as the reference for `variant`."""
    reference = _reference(variant)
    reference.mkdir(parents=True, exist_ok=True)
    (reference / "results.sha256").write_text(
        f"{sha256(out_dir / 'results.csv')}  results.csv\n", encoding="utf-8"
    )
    for name in IMPACT_OUTPUTS + ANALYSIS_OUTPUTS:
        data = (out_dir / name).read_bytes()
        (reference / f"{name}.gz").write_bytes(gzip.compress(data, mtime=0))


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "capture":
        sys.exit("usage: checks.py capture OUT_DIR VARIANT")
    capture(Path(sys.argv[2]), sys.argv[3])
