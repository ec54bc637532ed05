"""Hourly regional demand profiles and the scenario transforms.

A profile holds one year (or a selected subset) of hourly MW demand per
region. The synthetic generator layers a winter-peaking seasonal sinusoid
and a double-peaked diurnal shape over each region's annual mean, with a
little seeded noise, then rescales so annual energy is preserved. The
scenario transforms derive the efficiency, heat-pump and flat variants
from a current-day profile.

On disk a profile is csv rows `region,hour,demand_mw` under that exact
header, with unquoted fields and CRLF line ends. `read_rows`, the csv
reader of profiles and of the sweep's results, hands a file's lines to
`np.loadtxt` a chunk at a time, and the file format is what that call
accepts. `save_profile` writes a profile region by region, one joined
string per region, refuses a region id that csv would have to quote, and
makes the file appear whole or not at all.

`StudiedDemand` is one scenario's demand at its studied hours, as arrays.
simulate writes it to `demand.csv` (`save_studied_demand`), and impact and
analyze read that file (`load_studied_demand`) instead of the full-year
profiles; a repeated row or an hour that lacks a district is refused.
"""

from __future__ import annotations

import csv
import warnings
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .atomic import atomic_open
from .errors import (
    MisalignedHours,
    ParseError,
    SharesNotNormalized,
    ValidationError,
)
from .grid import RegionTable

__all__ = [
    "SCENARIO_KINDS",
    "DemandProfile",
    "StudiedDemand",
    "ScenarioSpec",
    "synthesize_current",
    "apply_heat_pump",
    "apply_efficiency",
    "apply_flat",
    "load_profile",
    "save_profile",
    "save_studied_demand",
    "load_studied_demand",
]

SCENARIO_KINDS = ("current", "efficiency", "heat_pump", "flat")

HOURS_PER_YEAR = 8760

# Relative within-day demand shape; evening maximum at 19:00, overnight
# minimum at 03:00. Normalized to unit mean when applied.
DIURNAL_SHAPE = np.array(
    [
        0.86, 0.83, 0.81, 0.79, 0.80, 0.83,
        0.88, 0.95, 1.00, 1.03, 1.05, 1.06,
        1.07, 1.06, 1.05, 1.05, 1.07, 1.11,
        1.14, 1.18, 1.12, 1.05, 0.97, 0.90,
    ]
)

SEASONAL_AMPLITUDE = 0.08
SEASONAL_PEAK_DAY = 15
NOISE_HALF_WIDTH = 0.005

# `read_rows` hands this many lines to each `np.loadtxt` call.
_CHUNK_ROWS = 50_000
_PROFILE_ROW = np.dtype([("region", object), ("hour", np.int64), ("value", np.float64)])

# Characters that make csv quote a field. save_profile and save_results
# write unquoted fields, so they refuse an id holding any of them.
_QUOTED_CHARS = ',"\r\n'

_PROFILE_HEADER = "region,hour,demand_mw"
_DEMAND_HEADER = ("scenario", "kind", "region", "hour", "demand_mw")
_DEMAND_KINDS = ("district", "national", "peak")


@dataclass(frozen=True)
class DemandProfile:
    """Per-region hourly demand in MW on a shared hour axis."""

    scenario: str
    regions: tuple[str, ...]
    hours: np.ndarray
    demand_mw: np.ndarray

    def __post_init__(self):
        hours = np.asarray(self.hours, dtype=int)
        demand = np.asarray(self.demand_mw, dtype=float)
        object.__setattr__(self, "hours", hours)
        object.__setattr__(self, "demand_mw", demand)
        if demand.shape != (len(self.regions), hours.size):
            raise ValidationError(
                f"demand array {demand.shape} does not match "
                f"{len(self.regions)} regions x {hours.size} hours"
            )
        if len(set(self.regions)) != len(self.regions):
            raise ValidationError("profile regions must be unique")
        if hours.size and (np.diff(hours) <= 0).any():
            raise ValidationError("hour axis must be strictly increasing")
        if hours.size and (hours[0] < 0 or hours[-1] >= HOURS_PER_YEAR):
            raise ValidationError("hour indices must lie in [0, 8760)")
        if not np.isfinite(demand).all() or (demand < 0).any():
            raise ValidationError("demand must be finite and nonnegative")

    @cached_property
    def region_pos(self) -> dict[str, int]:
        return {r: k for k, r in enumerate(self.regions)}

    @cached_property
    def hour_pos(self) -> dict[int, int]:
        return {int(h): k for k, h in enumerate(self.hours)}

    def national(self) -> np.ndarray:
        """Total demand across regions per hour."""
        return self.demand_mw.sum(axis=0)

    def peak_hour(self) -> int:
        """Hour index of the national maximum (first on ties)."""
        return int(self.hours[int(np.argmax(self.national()))])

    def demand_at(self, region: str, hour: int) -> float:
        return float(self.demand_mw[self.region_pos[region], self.hour_pos[hour]])

    def annual_gwh(self, region: str) -> float:
        return float(self.demand_mw[self.region_pos[region]].sum()) / 1000.0


@dataclass(frozen=True, eq=False)
class StudiedDemand:
    """One scenario's demand at its studied hours, cut from the full profile.

    `hours` ascend; `district_mw` is hours x `regions` of the profile's own
    values. `national_mw` (per hour) and `peak_mw` come from the full
    profile's `national()`: a sum over one column taken again can differ
    from that row-wise sum in the last bit.
    """

    regions: tuple[str, ...]
    hours: np.ndarray
    district_mw: np.ndarray
    national_mw: np.ndarray
    peak_mw: float

    @classmethod
    def from_profile(cls, profile: DemandProfile, hours) -> StudiedDemand:
        national = profile.national()
        columns = [profile.hour_pos[h] for h in sorted({int(h) for h in hours})]
        return cls(
            profile.regions,
            profile.hours[columns],
            profile.demand_mw[:, columns].T,
            national[columns],
            float(national.max()),
        )

    def rows(self, hours: np.ndarray) -> np.ndarray:
        """The row of each of `hours`; an hour not studied is a ValidationError."""
        # np.isin, not np.setdiff1d: its np.unique imports numpy.ma (17-36 ms) on first use
        missing = np.asarray(hours)[~np.isin(hours, self.hours)]
        if missing.size:
            raise ValidationError(f"no studied demand at hour {missing.min()}")
        return np.searchsorted(self.hours, hours)


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters for deriving one scenario from the current-day profile."""

    kind: str
    hp_penetration: float = 0.20
    hp_cop: float = 3.0
    efficiency_factors: Mapping[str, float] | None = None

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValidationError(f"unknown scenario kind {self.kind!r}")
        if not 0.0 <= self.hp_penetration <= 1.0:
            raise ValidationError("heat pump penetration must lie in [0, 1]")
        if not self.hp_cop > 0.0:
            raise ValidationError("heat pump COP must be positive")
        if self.efficiency_factors is not None:
            for use, factor in self.efficiency_factors.items():
                if not 0.0 < factor <= 1.0:
                    raise ValidationError(
                        f"efficiency factor for {use!r} must lie in (0, 1]"
                    )


def synthesize_current(
    regions: RegionTable,
    seed: int = 0,
    *,
    seasonal_amplitude: float = SEASONAL_AMPLITUDE,
    seasonal_peak_day: int = SEASONAL_PEAK_DAY,
    noise_half_width: float = NOISE_HALF_WIDTH,
) -> DemandProfile:
    """Build a full-year current-day profile from regional annual energy.

    Per region: annual mean MW, scaled by a winter-peaking seasonal cosine
    and the diurnal shape, perturbed by seeded uniform noise, then rescaled
    so the region's annual energy is met exactly. The noise stream for row
    k of the region table is seeded by (seed, k), so a given file and seed
    always reproduce the same profile.
    """
    hours = np.arange(HOURS_PER_YEAR)
    day = hours // 24
    seasonal = 1.0 + seasonal_amplitude * np.cos(
        2.0 * np.pi * (day - seasonal_peak_day) / 365.0
    )
    diurnal = (DIURNAL_SHAPE / DIURNAL_SHAPE.mean())[hours % 24]
    shape = seasonal * diurnal

    rows = []
    names = []
    for k, region in enumerate(regions.regions):
        rng = np.random.default_rng([seed, k])
        noise = 1.0 + rng.uniform(-noise_half_width, noise_half_width, HOURS_PER_YEAR)
        target_mwh = region.annual_gwh * 1000.0
        mean_mw = target_mwh / HOURS_PER_YEAR
        row = mean_mw * shape * noise
        row *= target_mwh / row.sum()
        rows.append(row)
        names.append(region.id)
    return DemandProfile(
        scenario="current",
        regions=tuple(names),
        hours=hours,
        demand_mw=np.array(rows),
    )


def apply_heat_pump(
    profile: DemandProfile, spec: ScenarioSpec, heat_demand: DemandProfile
) -> DemandProfile:
    """Add electrified heating: demand + penetration * heat / COP.

    `heat_demand` carries thermal MW on the same hour axis and region set;
    a mismatched hour axis raises MisalignedHours.
    """
    if not np.array_equal(profile.hours, heat_demand.hours):
        raise MisalignedHours("heat demand is not on the profile's hour axis")
    missing = sorted(set(profile.regions) - set(heat_demand.regions))
    if missing:
        raise ValidationError(f"heat demand missing regions: {', '.join(missing)}")
    heat_rows = np.array(
        [heat_demand.demand_mw[heat_demand.region_pos[r]] for r in profile.regions]
    )
    uplift = spec.hp_penetration * heat_rows / spec.hp_cop
    return replace(profile, scenario=spec.kind, demand_mw=profile.demand_mw + uplift)


def apply_efficiency(
    profile: DemandProfile,
    spec: ScenarioSpec,
    end_use_shares: Mapping[str, Mapping[str, float]],
) -> DemandProfile:
    """Scale each region by its share-weighted mean efficiency factor."""
    if spec.efficiency_factors is None:
        raise ValidationError("scenario spec carries no efficiency factors")
    multipliers = np.empty(len(profile.regions))
    for k, region in enumerate(profile.regions):
        if region not in end_use_shares:
            raise ValidationError(f"no end-use shares for region {region}")
        shares = end_use_shares[region]
        total = sum(shares.values())
        if abs(total - 1.0) > 1e-6:
            raise SharesNotNormalized(
                f"end-use shares for region {region} sum to {total!r}"
            )
        acc = 0.0
        for use, share in sorted(shares.items()):
            if use not in spec.efficiency_factors:
                raise ValidationError(f"no efficiency factor for end use {use!r}")
            acc += share * spec.efficiency_factors[use]
        multipliers[k] = acc
    return replace(
        profile,
        scenario=spec.kind,
        demand_mw=profile.demand_mw * multipliers[:, None],
    )


def apply_flat(profile: DemandProfile) -> DemandProfile:
    """Replace every region's series with its own mean value."""
    means = profile.demand_mw.mean(axis=1)
    flat = np.repeat(means[:, None], profile.hours.size, axis=1)
    return replace(profile, scenario="flat", demand_mw=flat)


def load_profile(path, scenario: str | None = None) -> DemandProfile:
    """Read `region,hour,demand_mw` rows; any other header is a ParseError.

    `read_rows` parses the rows, and region ids lose their surrounding
    blanks. The region x hour matrix is then built with array operations;
    rows that already arrive in (region, hour) order, as `save_profile`
    writes them, are not sorted. The first fault in file order is raised:
    a line `read_rows` refuses, or a row whose (region, hour) pair an
    earlier row holds.
    """
    path = Path(path)
    rows = read_rows(path, _PROFILE_ROW, _check_header)
    ids: dict[str, int] = {}
    stripped = [ids.setdefault(text.strip(), len(ids)) for text in rows.texts["region"]]
    names, code, hours, values = list(ids), *rows.columns.values()
    if len(names) < len(stripped):  # ids that differ only in blanks share a code
        code = np.array(stripped)[code]
    # in (region, hour) order with no repeated pair? Shifted views compare
    # into boolean temporaries, not int64 differences
    later, same = code[1:] > code[:-1], code[1:] == code[:-1]
    if not (later | (same & (hours[1:] > hours[:-1]))).all():
        order = np.lexsort((hours, code))  # stable: equal pairs stay in file order
        code, hours, values = code[order], hours[order], values[order]
        repeats = np.flatnonzero((code[1:] == code[:-1]) & (hours[1:] == hours[:-1])) + 1
        if repeats.size:
            k = repeats[np.argmin(order[repeats])]
            message = f"duplicate hour {hours[k]} for region {names[code[k]]}"
            raise ParseError(message, rows.line(order[k]))
    if rows.refusal:
        raise rows.refusal
    if not names:
        raise ValidationError(f"profile {path.name} contains no data rows")
    counts = np.bincount(code)
    width = int(counts[0])
    if not ((counts == width).all() and (hours.reshape(-1, width) == hours[:width]).all()):
        raise MisalignedHours(f"regions in {path.name} disagree on the hour axis")
    by_name = sorted(range(len(names)), key=names.__getitem__)
    return DemandProfile(
        scenario=scenario or path.stem,
        regions=tuple(names[k] for k in by_name),
        hours=hours[:width].copy(),
        demand_mw=values.reshape(-1, width)[by_name],
    )


def _check_header(line: str) -> None:
    """Refuse a header line other than `region,hour,demand_mw`."""
    if not line:
        raise ParseError("empty profile file", 1)
    header = ",".join(h.strip() for h in line.split(","))
    if header != _PROFILE_HEADER:
        raise ParseError(f"expected header {_PROFILE_HEADER}, got {header}", 1)


class Rows(NamedTuple):
    """The data rows of a csv file up to its first refused line: an array
    per field, a text field as int64 codes into its list of `texts`; the
    refused line's ParseError, or None; and per skipped empty line, the
    number of rows before it."""

    columns: dict[str, np.ndarray]
    texts: dict[str, list[str]]
    refusal: ParseError | None
    skipped: list[int]

    def line(self, row) -> int:
        """The line of data row `row` (from 0), the header and skipped lines counted."""
        return 2 + int(row) + bisect_right(self.skipped, row)


def read_rows(path: Path, dtype: np.dtype, check_header: Callable, refuse: Callable | None = None) -> Rows:
    """Parse the csv rows after the header line of `path` as rows of `dtype`.

    The file format is what one `np.loadtxt` call accepts: fields split at
    commas, decimal integers, the float spellings loadtxt takes, unquoted
    fields; text fields keep their blanks. A line holding only its line end
    is skipped. The first line that loadtxt refuses, that holds a `"`, or
    whose row `refuse` marks (given a chunk's rows) is `Rows.refusal`, and
    no later line is read. Bytes that are not UTF-8 are a ParseError.
    Lines go to loadtxt `_CHUNK_ROWS` at a time; where it refuses a chunk,
    bisecting the chunk's lines with the same call finds the refused line.
    """
    codes = {name: defaultdict() for name in dtype.names if dtype[name] == object}
    for code in codes.values():
        code.default_factory = code.__len__  # a new text takes the next code
    parts = {name: [np.empty(0, np.int64 if name in codes else dtype[name])] for name in dtype.names}
    skipped, n, first_line, refusal = [], 0, 2, None
    try:
        with open(path, encoding="utf-8", newline="") as handle, warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*contained no data", UserWarning)  # a chunk of no rows
            check_header(handle.readline())
            while refusal is None and (lines := list(islice(handle, _CHUNK_ROWS))):
                end = len(lines)
                if '"' in "".join(lines):
                    end = next(k for k, text in enumerate(lines) if '"' in text)
                try:
                    chunk = _parse(lines[:end], dtype)
                except ValueError:
                    end = _first_refused(lines[:end], dtype)
                    chunk = _parse(lines[:end], dtype)
                # per skipped line, the number of the chunk's rows before it
                empty = [] if len(chunk) == end else [k for k in range(end) if not lines[k].rstrip("\r\n")]
                before = [k - j for j, k in enumerate(empty)]
                if refuse is not None and (marked := np.flatnonzero(refuse(chunk))).size:
                    row = int(marked[0])
                    chunk, end = chunk[:row], row + bisect_right(before, row)
                if end < len(lines):
                    refusal = _refused(lines[end], len(dtype.names), first_line + end)
                skipped += [n + k for k in before]
                n, first_line = n + len(chunk), first_line + len(lines)
                for name in dtype.names:
                    column = chunk[name]
                    if name in codes:  # one lookup per run of equal texts
                        starts = np.flatnonzero(np.append(len(column) > 0, column[1:] != column[:-1]))
                        runs = [codes[name][text] for text in column[starts].tolist()]
                        column = np.repeat(np.array(runs, np.int64), np.diff(starts, append=len(column)))
                    parts[name].append(column.copy())
                del lines, chunk, column  # before the next chunk is read
    except UnicodeDecodeError as error:
        raise ParseError(f"{path.name} is not UTF-8 text ({error.reason})") from None
    # popped one by one, so that only one column is held twice
    columns = {name: np.concatenate(parts.pop(name)) for name in dtype.names}
    return Rows(columns, {name: list(code) for name, code in codes.items()}, refusal, skipped)


def _parse(lines: list[str], dtype: np.dtype) -> np.ndarray:
    return np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=1)


def _first_refused(lines: list[str], dtype: np.dtype) -> int:
    """Index of the first of `lines` that `_parse` refuses, given that it
    refuses them all together; each call parses half the lines left."""
    low, high = 0, len(lines)  # lines[:low] parse; lines[low:high] hold a refused one
    while high - low > 1:
        middle = (low + high) // 2
        try:
            _parse(lines[low:middle], dtype)
            low = middle
        except ValueError:
            high = middle
    return low


def _refused(text: str, width: int, line: int) -> ParseError:
    """The ParseError of a refused line of `width` fields."""
    fields = text.rstrip("\r\n").split(",")
    if '"' in text:
        return ParseError("quoted fields are not supported", line)
    if len(fields) != width:
        return ParseError(f"expected {width} fields, got {len(fields)}", line)
    return ParseError(f"bad numeric value in {fields!r}", line)


def save_profile(profile: DemandProfile, path) -> None:
    """Write the profile as rows `region,hour,demand_mw`, region by region.

    Fields are unquoted and every line ends in CRLF, so the bytes are those
    `csv.writer` writes; each region's rows go out as one joined string. A
    region id that csv would quote is rejected, because `load_profile`
    reads unquoted fields only. The file appears whole or not at all.
    """
    check_profile_fields(profile)
    hour_fields = [f",{hour}," for hour in profile.hours.tolist()]
    with atomic_open(path) as handle:
        handle.write(f"{_PROFILE_HEADER}\r\n")
        for region, row in zip(profile.regions, profile.demand_mw):
            fields = zip(repeat(region), hour_fields, map(repr, row.tolist()), repeat("\r\n"))
            handle.write("".join(chain.from_iterable(fields)))


def check_profile_fields(profile: DemandProfile) -> None:
    """Refuse a region id that `save_profile` cannot write unquoted."""
    for region in profile.regions:
        check_unquoted(region, "region id")


def check_unquoted(field: str, kind: str) -> None:
    if any(char in field for char in _QUOTED_CHARS):
        raise ValidationError(f"{kind} {field!r} needs csv quoting")


def save_studied_demand(demands: Mapping[str, StudiedDemand], path) -> None:
    """Write `scenario,kind,region,hour,demand_mw` rows, scenario by scenario.

    Per studied hour, a `district` row for each region and then a `national`
    row with an empty region; last, one `peak` row with empty region and
    hour. The kind column keeps a national row apart from any region id.
    The file appears whole or not at all.
    """
    with atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(_DEMAND_HEADER)
        for scenario in sorted(demands):
            demand = demands[scenario]
            for hour, district, national in zip(
                demand.hours.tolist(), demand.district_mw.tolist(), demand.national_mw.tolist()
            ):
                writer.writerows(
                    (scenario, "district", region, hour, repr(mw))
                    for region, mw in zip(demand.regions, district)
                )
                writer.writerow((scenario, "national", "", hour, repr(national)))
            writer.writerow((scenario, "peak", "", "", repr(demand.peak_mw)))


def load_studied_demand(path) -> dict[str, StudiedDemand]:
    """Read the rows `save_studied_demand` writes, keyed by scenario.

    A repeated row is a ParseError on its line. Each hour a scenario names
    needs its national row and a district row for each of its regions.
    """
    path = Path(path)
    rows: dict[tuple, float] = {}  # (scenario, kind, hour or None, region) -> MW
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        if next(reader, None) != list(_DEMAND_HEADER):
            raise ParseError(f"expected header {','.join(_DEMAND_HEADER)} in {path.name}", 1)
        for lineno, row in enumerate(reader, start=2):
            try:
                scenario, kind, region, hour, value = row
                key = (scenario, kind, None if kind == "peak" else int(hour), region)
                if kind not in _DEMAND_KINDS or (kind != "district" and region):
                    raise ValueError
                if kind == "peak" and hour:
                    raise ValueError
                value = float(value)
            except ValueError:
                raise ParseError(f"malformed row {row!r} in {path.name}", lineno) from None
            if key in rows:
                raise ParseError(f"repeated row {row!r} in {path.name}", lineno)
            rows[key] = value
    demands = {}
    for scenario in sorted({key[0] for key in rows}):
        hours = sorted({h for s, _, h, _ in rows if s == scenario and h is not None})
        districts = (r for s, kind, _, r in rows if s == scenario and kind == "district")
        regions = tuple(dict.fromkeys(districts))
        try:
            demands[scenario] = StudiedDemand(
                regions,
                np.array(hours, dtype=np.int64),
                np.array([[rows[scenario, "district", h, r] for r in regions] for h in hours])
                .reshape(len(hours), len(regions)),
                np.array([rows[scenario, "national", h, ""] for h in hours]),
                rows[scenario, "peak", None, ""],
            )
        except KeyError as missing:
            raise ValidationError(
                f"{path.name}: scenario {scenario} lacks its peak or an hour's rows: "
                f"no {missing.args[0][1:]} row"
            ) from None
    return demands

