"""Flat `key = value` run configuration files.

One file names every input, the experiment sweep, and the analysis
settings, so a run is reproducible from the file alone. Relative paths
resolve against the directory containing the configuration file. Lines
starting with `#` and blank lines are ignored; inline `#` comments are
stripped.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError

DEFAULT_LOSS_FRACTIONS = tuple(round(0.05 * k, 2) for k in range(10))

_KNOWN_KEYS = {
    "grid",
    "regions",
    "supply_use_dir",
    "hours",
    "n_orderings",
    "loss_fractions",
    "master_seed",
    "shed_step",
    "workers",
    "interconnector_penalty",
    "headroom",
    "out_dir",
    "analyze.fraction",
    "analyze.scenario",
    "analyze.baseline",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep definition: orderings x loss fractions x studied hours."""

    hours: tuple[tuple[str, int], ...]
    n_orderings: int
    loss_fractions: tuple[float, ...]
    master_seed: int
    shed_step: float

    def __post_init__(self):
        object.__setattr__(
            self, "hours", tuple((str(s), int(h)) for s, h in self.hours)
        )
        object.__setattr__(
            self, "loss_fractions", tuple(float(f) for f in self.loss_fractions)
        )
        if not self.hours:
            raise ValidationError("config needs at least one (scenario, hour) pair")
        if len(set(self.hours)) != len(self.hours):
            raise ValidationError("duplicate (scenario, hour) pairs in config")
        if self.n_orderings < 1:
            raise ValidationError("n_orderings must be at least 1")
        if not self.loss_fractions:
            raise ValidationError("config needs at least one loss fraction")
        fr = np.array(self.loss_fractions)
        if (fr < 0.0).any() or (fr > 1.0).any() or (np.diff(fr) <= 0).any():
            raise ValidationError("loss fractions must be ascending within [0, 1]")
        if not 0.0 < self.shed_step <= 1.0:
            raise ValidationError("shed_step must lie in (0, 1]")


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for one simulate/impact/analyze run."""

    base_dir: Path
    grid: Path
    regions: Path
    profiles: dict[str, Path]
    hours: tuple[tuple[str, int], ...]
    supply_use_dir: Path | None
    n_orderings: int
    loss_fractions: tuple[float, ...]
    master_seed: int
    shed_step: float
    workers: int
    interconnector_penalty: float
    headroom: float
    out_dir: Path
    analyze_fraction: float
    analyze_scenario: str
    analyze_baseline: str

    def experiment_config(self, master_seed: int | None = None) -> ExperimentConfig:
        return ExperimentConfig(
            hours=self.hours,
            n_orderings=self.n_orderings,
            loss_fractions=self.loss_fractions,
            master_seed=self.master_seed if master_seed is None else master_seed,
            shed_step=self.shed_step,
        )


def _parse_entries(path: Path) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path.name} line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ValidationError(f"{path.name} line {lineno}: empty key or value")
        if key in entries:
            raise ValidationError(f"{path.name} line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _number(entries: dict[str, str], key: str, default: float, kind=float):
    if key not in entries:
        return default
    try:
        return kind(entries[key])
    except ValueError:
        raise ValidationError(f"configuration key {key} is not a number: {entries[key]!r}") from None


def _parse_hours(text: str) -> tuple[tuple[str, int], ...]:
    pairs = []
    for item in text.split(","):
        item = item.strip()
        if ":" not in item:
            raise ValidationError(f"hours entry {item!r} is not scenario:hour")
        scenario, _, hour = item.partition(":")
        try:
            pairs.append((scenario.strip(), int(hour)))
        except ValueError:
            raise ValidationError(f"hours entry {item!r} has a non-integer hour") from None
    return tuple(pairs)


def load_run_config(path) -> RunConfig:
    """Parse and validate a configuration file; inputs must exist."""
    path = Path(path)
    base = path.resolve().parent
    entries = _parse_entries(path)

    profiles: dict[str, Path] = {}
    for key in list(entries):
        if key.startswith("profile."):
            scenario = key.split(".", 1)[1]
            profiles[scenario] = base / entries.pop(key)

    unknown = sorted(set(entries) - _KNOWN_KEYS)
    if unknown:
        raise ValidationError(f"unknown configuration keys: {', '.join(unknown)}")
    missing = sorted({"grid", "regions", "hours"} - set(entries))
    if missing:
        raise ValidationError(f"missing configuration keys: {', '.join(missing)}")
    if not profiles:
        raise ValidationError("configuration names no profile.<scenario> files")

    hours = _parse_hours(entries["hours"])
    uncovered = sorted({s for s, _ in hours} - set(profiles))
    if uncovered:
        raise ValidationError(f"hours reference scenarios without profiles: {', '.join(uncovered)}")

    baseline = entries.get("analyze.baseline", "current")
    # left unset, analyze.scenario keeps its default even without that profile
    named = (("analyze.baseline", baseline), ("analyze.scenario", entries.get("analyze.scenario")))
    for key, scenario in named:
        if scenario is not None and scenario not in profiles:
            raise ValidationError(
                f"{key} names scenario {scenario!r}, which has no profile.{scenario}"
            )

    if "loss_fractions" in entries:
        try:
            fractions = tuple(float(part) for part in entries["loss_fractions"].split(","))
        except ValueError:
            raise ValidationError(
                f"loss_fractions is not a number list: {entries['loss_fractions']!r}"
            ) from None
    else:
        fractions = DEFAULT_LOSS_FRACTIONS

    config = RunConfig(
        base_dir=base,
        grid=base / entries["grid"],
        regions=base / entries["regions"],
        profiles=profiles,
        hours=hours,
        supply_use_dir=base / entries["supply_use_dir"] if "supply_use_dir" in entries else None,
        n_orderings=_number(entries, "n_orderings", 10, int),
        loss_fractions=fractions,
        master_seed=_number(entries, "master_seed", 0, int),
        shed_step=_number(entries, "shed_step", 0.1),
        workers=_number(entries, "workers", 1, int),
        interconnector_penalty=_number(entries, "interconnector_penalty", 10.0),
        headroom=_number(entries, "headroom", 1.2),
        out_dir=base / entries.get("out_dir", "out"),
        analyze_fraction=_number(entries, "analyze.fraction", 0.4),
        analyze_scenario=entries.get("analyze.scenario", "heat_pump"),
        analyze_baseline=baseline,
    )

    for label, file in (("grid", config.grid), ("regions", config.regions)) + tuple(
        (f"profile.{s}", p) for s, p in sorted(config.profiles.items())
    ):
        if not file.is_file():
            raise ValidationError(f"configured {label} file does not exist: {file}")
    if config.supply_use_dir is not None and not config.supply_use_dir.is_dir():
        raise ValidationError(
            f"configured supply_use_dir does not exist: {config.supply_use_dir}"
        )
    return config
