"""Hourly regional demand profiles and the scenario transforms.

A profile holds one year (or a selected subset) of hourly MW demand per
region. The synthetic generator layers a winter-peaking seasonal sinusoid
and a double-peaked diurnal shape over each region's annual mean, with a
little seeded noise, then rescales so annual energy is preserved. The
scenario transforms derive the efficiency, heat-pump and flat variants
from a current-day profile.

On disk a profile is csv rows `region,hour,demand_mw` under that exact
header, with unquoted fields and CRLF line ends, read by
`csvrows.read_rows`. `save_profile` writes a profile region by region, one
joined string per region, refuses a region id that csv would have to
quote, and makes the file appear whole or not at all.

`StudiedDemand` is one scenario's demand at its studied hours, as arrays.
simulate writes it to `demand.csv` (`save_studied_demand`), and impact and
analyze read that file (`load_studied_demand`) instead of the full-year
profiles; a repeated row or an hour that lacks a district is refused.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import Mapping

import numpy as np

from .atomic import atomic_open
from .csvrows import check_unquoted, first_repeat, int_field, read_rows
from .errors import (
    MisalignedHours,
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

_PROFILE_ROW = np.dtype([("region", object), ("hour", np.int64), ("demand_mw", np.float64)])
_DEMAND_ROW = np.dtype(
    [("scenario", object), ("kind", object), ("region", object), ("hour", object), ("demand_mw", float)]
)
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
    rows = read_rows(path, _PROFILE_ROW)
    names, code = rows.stripped("region")
    hours, values = rows.columns["hour"], rows.columns["demand_mw"]
    # in (region, hour) order with no repeated pair? Shifted views compare
    # into boolean temporaries, not int64 differences
    later, same = code[1:] > code[:-1], code[1:] == code[:-1]
    if not (later | (same & (hours[1:] > hours[:-1]))).all():
        if (k := first_repeat(hours, code)) is not None:
            raise rows.fault(k, f"duplicate hour {hours[k]} for region {names[code[k]]}")
        order = np.lexsort((hours, code))
        code, hours, values = code[order], hours[order], values[order]
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


def save_profile(profile: DemandProfile, path) -> None:
    """Write the profile as rows `region,hour,demand_mw`, region by region.

    Fields are unquoted and every line ends in CRLF, so the bytes are those
    `csv.writer` writes; each region's rows go out as one joined string. A
    region id that csv would quote is rejected, because `load_profile`
    reads unquoted fields only. The file appears whole or not at all.
    """
    check_unquoted(profile.regions, "region id")
    hour_fields = [f",{hour}," for hour in profile.hours.tolist()]
    with atomic_open(path) as handle:
        handle.write(",".join(_PROFILE_ROW.names) + "\r\n")
        for region, row in zip(profile.regions, profile.demand_mw):
            fields = zip(repeat(region), hour_fields, map(repr, row.tolist()), repeat("\r\n"))
            handle.write("".join(chain.from_iterable(fields)))


def save_studied_demand(demands: Mapping[str, StudiedDemand], path) -> None:
    """Write `scenario,kind,region,hour,demand_mw` rows, scenario by scenario.

    Per studied hour, a `district` row for each region and then a `national`
    row with an empty region; last, one `peak` row with empty region and
    hour. The kind column keeps a national row apart from any region id.
    A scenario or region id that csv would quote is refused. The file
    appears whole or not at all.
    """
    check_unquoted(demands, "scenario id")
    for demand in demands.values():
        check_unquoted(demand.regions, "region id")
    with atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(_DEMAND_ROW.names)
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

    `hour` is read as text, empty in a `peak` row, and elsewhere as an
    int64 field. The first fault in file order is a ParseError on its
    line: a line `read_rows` refuses, a malformed row (an unknown kind, a
    region outside a district row, an hour in a peak row or none in
    another), or a repeated row. Each hour a scenario names needs its
    national row and a district row for each of its regions.
    """
    path = Path(path)
    rows = read_rows(path, _DEMAND_ROW)
    texts, (scenario, kind_code, region, hour_code, value) = rows.texts, rows.columns.values()
    kinds = [_DEMAND_KINDS.index(text) if text in _DEMAND_KINDS else -1 for text in texts["kind"]]
    kind = np.array(kinds, np.int64)[kind_code]
    district, peak = kind == _DEMAND_KINDS.index("district"), kind == _DEMAND_KINDS.index("peak")
    parsed = [int_field(text) for text in texts["hour"]]
    hour = np.array([h or 0 for h in parsed], np.int64)[hour_code]
    has_hour = np.array([h is not None for h in parsed], bool)[hour_code]
    no_hour = np.array([not text for text in texts["hour"]], bool)[hour_code]
    regional = np.array([bool(text) for text in texts["region"]], bool)[region]
    malformed = (kind < 0) | (regional & ~district) | np.where(peak, ~no_hour, ~has_hour)
    repeated = first_repeat(scenario, kind, hour, region)

    def fault(k, step, what):
        fields = [texts[name][rows.columns[name][k]] for name in ("scenario", "kind", "region", "hour")]
        return int(k), step, rows.fault(k, f"{what} row {fields!r}")

    faults = [(len(scenario), 2, rows.refusal)] if rows.refusal else []
    if malformed.any():
        faults.append(fault(malformed.argmax(), 0, "malformed"))
    if repeated is not None:
        faults.append(fault(repeated, 1, "repeated"))
    if faults:
        raise min(faults, key=lambda fault: fault[:2])[2]
    demands, names = {}, texts["scenario"]
    for s in sorted(range(len(names)), key=names.__getitem__):
        mine = scenario == s
        timed = mine & ~peak
        studied = np.array(sorted(set(hour[timed].tolist())), np.int64)
        codes = list(dict.fromkeys(region[mine & district].tolist()))
        column = np.zeros(len(texts["region"]), np.int64)
        column[codes] = np.arange(len(codes))
        # a column per region, then the national one, as the rows are written
        cell = np.searchsorted(studied, hour[timed]), np.where(district, column[region], -1)[timed]
        mw = np.zeros((len(studied), len(codes) + 1))
        given = np.zeros(mw.shape, bool)
        mw[cell], given[cell] = value[timed], True
        regions = tuple(texts["region"][c] for c in codes)
        named = [("district", r) for r in regions] + [("national", "")]
        missing = [(named[c][0], int(studied[h]), named[c][1]) for h, c in np.argwhere(~given)]
        missing.sort(key=lambda row: row[0] == "national")  # stable: districts first, each by hour
        if missing or not (mine & peak).any():
            first = missing[0] if missing else ("peak", None, "")
            message = f"scenario {names[s]} lacks its peak or an hour's rows: no {first} row"
            raise ValidationError(f"{path.name}: {message}")
        peak_mw = float(value[mine & peak][0])
        demands[names[s]] = StudiedDemand(regions, studied, mw[:, :-1], mw[:, -1], peak_mw)
    return demands
