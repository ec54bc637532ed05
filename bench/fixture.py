"""Benchmark inputs: the gb-like fixture and the workload variants.

The network, profiles and economy are always the gb-like fixture at
FIXTURE_SEED, the one fixed benchmark fixture. In the default variant the
benchmark seed sets the sweep's `master_seed`, which draws the 50
generator-failure orderings; over 2,000 cells the work per run stays
comparable across seeds.

The congested variant cuts the backbone (`bb*`) and cross-link (`br*`)
ratings to 35% and calibrates with `headroom = 1.0`, so branch limits bind.
Its cost is dominated by a few heavy cells: over master seeds 1-6 its 10
orderings needed 7,458 to 17,262 dispatch LPs. So it keeps the orderings of
FIXTURE_SEED whatever the benchmark seed, and runs the same inputs each time.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

FIXTURE_SEED = 7
CONGESTED_RATING_SCALE = 0.35
BACKBONE_PREFIXES = ("bb", "br")

# run.cfg overrides per workload; keys absent here keep the generated value
VARIANTS = {
    "default": {},
    "congested": {"n_orderings": "10", "headroom": "1.0", "master_seed": str(FIXTURE_SEED)},
}


def _override(config_text: str, updates: dict[str, str]) -> str:
    lines = []
    seen = set()
    for line in config_text.splitlines():
        key = line.split("=", 1)[0].strip()
        if key in updates:
            line = f"{key} = {updates[key]}"
            seen.add(key)
        lines.append(line)
    missing = sorted(set(updates) - seen)
    if missing:
        raise ValueError(f"generated run.cfg has no keys {', '.join(missing)}")
    return "\n".join(lines) + "\n"


def _tighten_backbone(path: Path) -> None:
    from gridshock.grid import load_grid, serialize_grid

    grid = load_grid(path)
    branches = tuple(
        replace(b, rating_mw=b.rating_mw * CONGESTED_RATING_SCALE)
        if b.id.startswith(BACKBONE_PREFIXES)
        else b
        for b in grid.branches
    )
    serialize_grid(replace(grid, branches=branches), path)


def build(seed: int, out_dir: Path, variant: str) -> Path:
    """Write the fixture, derive `variant` with the sweep seeded by `seed`; return its run.cfg."""
    from gridshock.synthetic import generate, write_fixture

    fixture = generate("gb-like", FIXTURE_SEED)
    write_fixture(fixture, out_dir)
    config = out_dir / "run.cfg"
    updates = {"master_seed": str(seed), **VARIANTS[variant]}
    config.write_text(_override(fixture.config_text, updates), encoding="utf-8")
    if variant == "congested":
        _tighten_backbone(out_dir / "grid.csv")
    return config
