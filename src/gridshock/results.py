"""The sweep's result table and its file, `results.csv`.

`ResultTable` is the one record type from simulate to analyze: key columns
plus a records x regions matrix of unserved MW. A record's status is
derived: "shed" where any unserved value is positive, else "ok". In
`results.csv` a record is one row per region; `save_results` writes each
record as one joined string, and `load_results` reads the file with
`profiles.read_rows`.

This module needs neither the dispatch engine nor the solver, so impact
and analyze read the table without importing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .atomic import atomic_open
from .errors import ParseError, ValidationError
from .profiles import check_unquoted, read_rows

__all__ = ["STATUS_OK", "STATUS_SHED", "ResultTable", "save_results", "load_results"]

STATUS_OK = "ok"
STATUS_SHED = "shed"

_RESULTS_ROW = np.dtype(
    [("ordering", np.int64), ("fraction", float), ("scenario", object), ("hour", np.int64)]
    + [("region", object), ("unserved_mw", float), ("status", object)]
)
_IS_SHED = {STATUS_OK: False, STATUS_SHED: True}


@dataclass(frozen=True, eq=False)
class ResultTable:
    """All records of one experiment, in ascending key order.

    The key columns `ordering` (int64), `fraction`, `scenario` (a tuple)
    and `hour` (int64) hold one entry per record; `unserved_mw` is records
    x `regions` (sorted). `network_cells` counts the records whose fill
    overloaded a branch or fell short after the energy-deficit shed (None
    for a table read from a file).
    """

    ordering: np.ndarray
    fraction: np.ndarray
    scenario: tuple[str, ...]
    hour: np.ndarray
    regions: tuple[str, ...]
    unserved_mw: np.ndarray
    network_cells: int | None = None

    def __post_init__(self):
        if len(set(self.keys())) != len(self):
            raise ValidationError("duplicate (ordering, fraction, scenario, hour) records")
        if list(self.regions) != sorted(set(self.regions)):
            raise ValidationError("result regions must be sorted and unique")

    def __len__(self) -> int:
        return len(self.scenario)

    @property
    def shed(self) -> np.ndarray:
        """Whether each record shed load: any unserved value is positive."""
        return (self.unserved_mw > 0.0).any(axis=1)

    @property
    def total_unserved_mw(self) -> np.ndarray:
        """Unserved MW per record, its regions added left to right as
        Python's `sum` adds them (`np.sum` can round otherwise)."""
        total = np.zeros(len(self))
        for column in self.unserved_mw.T:
            total += column
        return total

    def keys(self) -> Iterator[tuple[int, float, str, int]]:
        """(ordering, fraction, scenario, hour) per record, as Python values."""
        columns = (self.ordering, self.fraction, self.hour)
        ordering, fraction, hour = (column.tolist() for column in columns)
        return zip(ordering, fraction, self.scenario, hour)

    def record_ids(self) -> list[str]:
        """`ordering:fraction:scenario:hour` per record, as impact writes them."""
        return [f"{o}:{f!r}:{s}:{h}" for o, f, s, h in self.keys()]


def save_results(table: ResultTable, path) -> None:
    """Write one csv row per record per region, each record as one string.

    Fields are unquoted and lines end in CRLF, as `csv.writer` writes them;
    a region or scenario id that csv would quote is refused. The file
    appears whole or not at all.
    """
    for region in table.regions:
        check_unquoted(region, "region id")
    for scenario in set(table.scenario):
        check_unquoted(scenario, "scenario id")
    status = np.where(table.shed, STATUS_SHED, STATUS_OK).tolist()
    with atomic_open(path) as handle:
        handle.write(",".join(_RESULTS_ROW.names) + "\r\n")
        for (o, f, s, h), shed, row in zip(table.keys(), status, table.unserved_mw):
            key, end = f"{o},{f!r},{s},{h},", f",{shed}\r\n"
            lines = [f"{key}{r},{mw!r}{end}" for r, mw in zip(table.regions, row.tolist())]
            handle.write("".join(lines))


def load_results(path) -> ResultTable:
    """Read a results csv back into a table, sorted by key.

    `profiles.read_rows` parses the rows and refuses a NaN fraction as a
    bad number. A record is a run of rows with one key. Each record must
    name the first record's regions in their order and give the status
    its unserved MW give, and no (record, region) row may repeat. The first
    fault is raised where a line-by-line reader meets it: a record's
    regions and statuses are complete once the next record starts or the
    file ends, so a record that a refused line cuts off is not short.
    """
    rows = read_rows(Path(path), _RESULTS_ROW, _check_header, lambda chunk: np.isnan(chunk["fraction"]))
    ordering, fraction, scenario, hour, region, unserved, status = rows.columns.values()
    names, texts, n = rows.texts["scenario"], rows.texts["region"], len(ordering)
    if not n:
        raise rows.refusal or ValidationError("results file contains no records")
    # (row, step, error): within a row, a repeated row, the end of the record before it, its region
    faults = [(n, 0, rows.refusal)] if rows.refusal else []

    def fault(row, step, k, message):  # message(key) names the record of row k
        key = int(ordering[k]), float(fraction[k]), names[scenario[k]], int(hour[k])
        faults.append((int(row), step, ParseError(message(key), rows.line(k))))

    keys = (ordering, fraction, scenario, hour)
    new = np.append(True, np.logical_or.reduce([c[1:] != c[:-1] for c in keys]))
    starts, run = np.flatnonzero(new), np.cumsum(new) - 1
    lengths = np.diff(starts, append=n)
    width = int(lengths[0])
    first, position = region[:width], np.arange(n) - starts[run]
    wrong = (run > 0) & ((position >= width) | (region != first[np.minimum(position, width - 1)]))
    if wrong.any():
        k = wrong.argmax()
        fault(k, 3, k, lambda key: f"record {key} does not repeat the first record's regions")
    given = np.array([_IS_SHED.get(text, -1) for text in rows.texts["status"]])[status]
    disagrees = given != np.logical_or.reduceat(unserved > 0.0, starts)[run]
    short = (lengths < width) & (np.arange(len(starts)) > 0)
    ended = len(starts) - (rows.refusal is not None)  # the records whose end was read
    bad = np.flatnonzero((short | np.logical_or.reduceat(disagrees, starts))[:ended])
    if bad.size:
        start, end = starts[bad[0]], starts[bad[0]] + lengths[bad[0]]
        if short[bad[0]]:
            fault(end, 2, end - 1, lambda key: f"record {key} lacks regions of the first record")
        else:
            k = start + disagrees[start:end].argmax()
            given = rows.texts["status"][status[k]]
            fault(end, 2, k, lambda key: f"status {given} of record {key} disagrees with its unserved MW")
    if not faults:
        regions = [texts[k] for k in first.tolist()]
        rank = np.argsort(np.argsort(names))[scenario[starts]]
        order = np.lexsort((hour[starts], rank, fraction[starts], ordering[starts]))
        top = starts[order]  # the first row of each record, in key order
        try:
            return ResultTable(
                ordering=ordering[top],
                fraction=fraction[top],
                scenario=tuple(names[k] for k in scenario[top].tolist()),
                hour=hour[top],
                regions=tuple(sorted(regions)),
                unserved_mw=unserved.reshape(-1, width)[order][:, np.argsort(regions)],
            )
        except ValidationError:
            pass  # a repeated record or region, named below
    order = np.lexsort((region, hour, scenario, fraction, ordering))  # stable
    same = np.logical_and.reduce([c[order][1:] == c[order][:-1] for c in (*keys, region)])
    if same.any():
        k = order[1:][same].min()
        fault(k, 1, k, lambda key: f"repeated row for record {key}, region {texts[region[k]]}")
    raise min(faults, key=lambda fault: fault[:2])[2]


def _check_header(line: str) -> None:
    if [h.strip() for h in line.split(",")] != list(_RESULTS_ROW.names):
        raise ParseError(f"expected header {','.join(_RESULTS_ROW.names)}", 1)
