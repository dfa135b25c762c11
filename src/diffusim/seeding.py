"""Innovator placement patterns and tick-by-tick activation schedules.

Innovators (the exogenously adopting 2.5% of the population by default) are
placed on the lattice in one of three spatial dispersion patterns, then
activated in blocks of gamma per tick, in randomly permuted order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from diffusim.network import LatticeSpec


class Pattern(enum.Enum):
    COMPACT = "compact"
    INTERMEDIATE = "intermediate"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class SeedingPlan:
    """Which agents adopt exogenously, and when.

    `positions` is in activation order: innovators activate in blocks of
    `gamma` per tick, the block for tick t = 1, 2, ... being
    positions[(t-1)*gamma : t*gamma]; the final block may be partial.
    """

    positions: np.ndarray
    gamma: int

    def __post_init__(self) -> None:
        if self.gamma < 1:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        if len(np.unique(self.positions)) != len(self.positions):
            raise ValueError("innovator positions must be distinct")

    @property
    def last_tick(self) -> int:
        """Tick of the final activation block: ceil(len(positions) / gamma);
        0 when the plan is empty."""
        return -(-len(self.positions) // self.gamma)

    def seeds_at(self, tick: int) -> np.ndarray:
        """Innovators activating at `tick` (>= 1); empty after last_tick."""
        return self.positions[(tick - 1) * self.gamma : tick * self.gamma]


@lru_cache(maxsize=32)
def _cells_by_distance(rows: int, cols: int, center_r: int, center_c: int) -> np.ndarray:
    """All cell indices sorted by (Chebyshev distance to center, row-major)."""
    r = np.arange(rows, dtype=np.int64)[:, None]
    c = np.arange(cols, dtype=np.int64)[None, :]
    dist = np.maximum(np.abs(r - center_r), np.abs(c - center_c)).ravel()
    order = np.lexsort((np.arange(rows * cols), dist)).astype(np.int32)
    order.setflags(write=False)
    return order


def place_innovators(
    spec: LatticeSpec,
    pattern: Pattern,
    count: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Choose innovator cells for one spatial dispersion pattern.

    Compact: the `count` cells nearest the lattice center by Chebyshev
    distance (ties row-major), ordered nearest-first. Intermediate: five
    equal sub-clusters built the same way around the lattice center and the
    four quadrant centers, remainder cells going to the central cluster.
    Uniform: distinct cells sampled uniformly without replacement, in draw
    order (requires rng).

    Raises:
        ValueError: count out of range, missing rng for Uniform, or
            Intermediate clusters overlapping (lattice too small to separate
            them).
    """
    n = spec.node_count
    if not 1 <= count <= n:
        raise ValueError(f"count must be in [1, {n}], got {count}")

    if pattern is Pattern.COMPACT:
        order = _cells_by_distance(spec.rows, spec.cols, spec.rows // 2, spec.cols // 2)
        return order[:count].copy()

    if pattern is Pattern.INTERMEDIATE:
        centers = [
            (spec.rows // 2, spec.cols // 2),
            (spec.rows // 4, spec.cols // 4),
            (spec.rows // 4, 3 * spec.cols // 4),
            (3 * spec.rows // 4, spec.cols // 4),
            (3 * spec.rows // 4, 3 * spec.cols // 4),
        ]
        sizes = [count // 5 + count % 5] + [count // 5] * 4
        clusters = []
        for (cr, cc), size in zip(centers, sizes):
            if size == 0:
                clusters.append(np.empty(0, dtype=np.int32))
                continue
            order = _cells_by_distance(spec.rows, spec.cols, cr, cc)
            clusters.append(order[:size].copy())
        all_cells = np.concatenate(clusters)
        if len(np.unique(all_cells)) != len(all_cells):
            raise ValueError(
                "intermediate clusters overlap; lattice too small to separate them"
            )
        return all_cells

    if pattern is Pattern.UNIFORM:
        if rng is None:
            raise ValueError("uniform placement requires an rng")
        return rng.choice(n, size=count, replace=False).astype(np.int32)

    raise ValueError(f"unknown pattern: {pattern!r}")


def schedule_innovators(
    positions: np.ndarray,
    gamma: int,
    rng: np.random.Generator,
) -> SeedingPlan:
    """Randomly permute positions into activation order, gamma per tick.

    Draws one `rng.permutation(len(positions))`.
    """
    positions = np.asarray(positions)
    return SeedingPlan(positions[rng.permutation(len(positions))], int(gamma))


def build_plan(
    spec: LatticeSpec,
    pattern: Pattern,
    count: int,
    gamma: int,
    rng: np.random.Generator,
) -> SeedingPlan:
    """Place innovators and schedule them in one step (placement first)."""
    positions = place_innovators(spec, pattern, count, rng)
    return schedule_innovators(positions, gamma, rng)


def default_innovator_count(spec: LatticeSpec, fraction: float = 0.025) -> int:
    """Round the innovator quota (default 2.5% of the population)."""
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    return max(1, math.floor(spec.node_count * fraction + 0.5))
