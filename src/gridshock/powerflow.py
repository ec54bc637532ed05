"""DC power-flow solution on a Grid.

The linearized model: branch flow is proportional to the angle difference
across the branch, net injections balance at every bus, and one slack bus
(angle zero) absorbs any system imbalance. Susceptances are per-unit on the
grid's base power; injections and flows are in MW.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import DisconnectedGrid, ValidationError
from .grid import Grid, validate_connectivity
from .numerics import lu_solve

__all__ = [
    "FlowSolution",
    "LimitViolation",
    "default_slack_bus",
    "build_susceptance_matrix",
    "dc_power_flow",
    "check_limits",
]


@dataclass(frozen=True)
class FlowSolution:
    """Bus angles and branch flows for one injection pattern."""

    slack_bus: str
    bus_ids: tuple[str, ...]
    angles_rad: np.ndarray
    branch_ids: tuple[str, ...]
    flows_mw: np.ndarray

    @cached_property
    def angle_of(self) -> dict[str, float]:
        return dict(zip(self.bus_ids, map(float, self.angles_rad)))

    @cached_property
    def flow_of(self) -> dict[str, float]:
        return dict(zip(self.branch_ids, map(float, self.flows_mw)))


@dataclass(frozen=True)
class LimitViolation:
    branch_id: str
    flow_mw: float
    rating_mw: float

    @property
    def overload_fraction(self) -> float:
        return abs(self.flow_mw) / self.rating_mw - 1.0


def default_slack_bus(grid: Grid) -> str:
    """The bus carrying the most derated non-international capacity.

    Ties break toward the lexicographically smallest bus id.
    """
    capacity: dict[str, float] = {}
    for gen in grid.generators:
        if not gen.is_international:
            capacity[gen.bus] = capacity.get(gen.bus, 0.0) + gen.derated_mw
    if not capacity:
        raise ValidationError("no local generation from which to pick a slack bus")
    return min(capacity, key=lambda bid: (-capacity[bid], bid))


def _reduced_system(grid: Grid, slack_bus: str):
    """Reduced nodal susceptance matrix and the bus order it refers to."""
    if slack_bus not in grid.bus_by_id:
        raise ValidationError(f"slack bus {slack_bus!r} is not in the grid")
    others = [bus.id for bus in grid.buses if bus.id != slack_bus]
    index = {bid: k for k, bid in enumerate(others)}
    n = len(others)
    matrix = np.zeros((n, n))
    for br in grid.branches:
        b = br.susceptance_pu
        i = index.get(br.from_bus)
        j = index.get(br.to_bus)
        if i is not None:
            matrix[i, i] += b
        if j is not None:
            matrix[j, j] += b
        if i is not None and j is not None:
            matrix[i, j] -= b
            matrix[j, i] -= b
    return matrix, others


def build_susceptance_matrix(grid: Grid, slack_bus: str) -> np.ndarray:
    """Nodal susceptance matrix with the slack row and column removed.

    Requires a connected grid; the reduced matrix of a disconnected grid
    would be singular.
    """
    report = validate_connectivity(grid)
    if not report.is_connected:
        raise DisconnectedGrid(f"grid has {report.count} components")
    matrix, _ = _reduced_system(grid, slack_bus)
    return matrix


def _injection_vector(grid: Grid, injections) -> np.ndarray:
    if isinstance(injections, Mapping):
        unknown = sorted(set(injections) - set(grid.bus_by_id))
        if unknown:
            raise ValidationError(f"injections name unknown buses: {', '.join(unknown)}")
        vec = np.array([float(injections.get(bus.id, 0.0)) for bus in grid.buses])
    else:
        vec = np.asarray(injections, dtype=float)
        if vec.shape != (len(grid.buses),):
            raise ValidationError(
                f"injection vector has shape {vec.shape}, expected ({len(grid.buses)},)"
            )
    if not np.isfinite(vec).all():
        raise ValidationError("injections must be finite")
    return vec


def dc_power_flow(grid: Grid, injections, slack_bus: str | None = None) -> FlowSolution:
    """Solve for angles and flows given net MW injections per bus.

    `injections` is a mapping from bus id to MW (omitted buses are zero) or
    an array aligned with grid.buses. Any imbalance lands on the slack bus,
    whose angle is fixed at zero. SingularMatrix propagates from the linear
    solver when the network is disconnected or degenerate.
    """
    if slack_bus is None:
        slack_bus = default_slack_bus(grid)
    vec = _injection_vector(grid, injections)
    matrix, others = _reduced_system(grid, slack_bus)

    per_unit = vec / grid.base_mva
    rhs = np.array([per_unit[k] for k, bus in enumerate(grid.buses) if bus.id != slack_bus])
    theta_reduced = lu_solve(matrix, rhs) if others else np.zeros(0)

    angle = {bid: float(theta_reduced[k]) for k, bid in enumerate(others)}
    angle[slack_bus] = 0.0
    bus_ids = tuple(bus.id for bus in grid.buses)
    angles = np.array([angle[bid] for bid in bus_ids])

    branch_ids = tuple(br.id for br in grid.branches)
    flows = np.array(
        [
            grid.base_mva * br.susceptance_pu * (angle[br.from_bus] - angle[br.to_bus])
            for br in grid.branches
        ]
    )
    return FlowSolution(
        slack_bus=slack_bus,
        bus_ids=bus_ids,
        angles_rad=angles,
        branch_ids=branch_ids,
        flows_mw=flows,
    )


def check_limits(grid: Grid, flows_mw, tolerance: float = 1e-9) -> tuple[LimitViolation, ...]:
    """Branches whose |flow| exceeds the rating beyond a relative tolerance.

    `flows_mw` holds one MW flow per branch in grid branch order, as in
    FlowSolution.flows_mw and DispatchSolution.flows_mw.
    """
    violations = []
    for br, flow in zip(grid.branches, flows_mw, strict=True):
        if abs(flow) > br.rating_mw * (1.0 + tolerance):
            violations.append(
                LimitViolation(branch_id=br.id, flow_mw=float(flow), rating_mw=br.rating_mw)
            )
    return tuple(violations)
