"""Innovator placement patterns and tick-by-tick activation schedules.

Innovators (the exogenously adopting 2.5% of the population by default) are
placed on the lattice in one of three spatial dispersion patterns, then
activated in blocks of gamma per tick, in randomly permuted order.

Compact and intermediate placement are deterministic, and a sweep places
the same few clusters in every run, so each (lattice, pattern, count)
placement is computed and checked once per process and cached read-only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from diffusim.network import LatticeSpec, _check_integer, _check_real

INNOVATOR_SHARE = 0.025  # the default innovator_fraction, SimConfig's too


class Pattern(enum.Enum):
    COMPACT = "compact"
    INTERMEDIATE = "intermediate"
    UNIFORM = "uniform"


def _has_repeat(values: np.ndarray) -> bool:
    """Whether any value occurs twice (a sort is cheaper than counting uniques)."""
    ordered = np.sort(values)
    return bool(np.any(ordered[1:] == ordered[:-1]))


def last_activation_tick(count: int, gamma: int) -> int:
    """Tick of the final block when `count` innovators activate `gamma` per
    tick: ceil(count / gamma); 0 when there are none."""
    return -(-count // gamma)


@dataclass(frozen=True, eq=False)
class SeedingPlan:
    """Which agents adopt exogenously, and when.

    `positions`, a 1-D integer array kept as the read-only copy that was
    checked, is in activation order: innovators activate in blocks of
    `gamma` per tick, the block for tick t = 1, 2, ... being
    positions[(t-1)*gamma : t*gamma]; the final block may be partial, and
    only `seeds_at` reads this layout. Compared by identity.
    """

    positions: np.ndarray
    gamma: int

    def __post_init__(self) -> None:
        positions = self.positions
        if not (isinstance(positions, np.ndarray) and positions.ndim == 1
                and np.issubdtype(positions.dtype, np.integer)):
            raise ValueError(
                f"positions must be a 1-D integer ndarray, got {positions!r}")
        _check_integer("gamma", self.gamma, 1)
        positions = positions.copy()
        positions.setflags(write=False)
        object.__setattr__(self, "positions", positions)
        if _has_repeat(positions):
            raise ValueError("innovator positions must be distinct")

    @property
    def last_tick(self) -> int:
        """Tick of the final activation block (see last_activation_tick)."""
        return last_activation_tick(len(self.positions), self.gamma)

    def seeds_at(self, tick: int) -> np.ndarray:
        """Innovators activating at `tick` (>= 1); empty after last_tick."""
        return self.positions[(tick - 1) * self.gamma : tick * self.gamma]


@lru_cache(maxsize=32)
def _clustered(spec: LatticeSpec, pattern: Pattern, count: int) -> np.ndarray:
    """Compact or intermediate cells for `count` innovators (int32, read-only).

    Each cluster is the first `size` cells of one stable sort of the whole
    lattice by Chebyshev distance to its center, so ties fall row-major.
    """
    rows, cols = spec.rows, spec.cols
    centers = [(rows // 2, cols // 2)]
    sizes = [count]
    if pattern is Pattern.INTERMEDIATE:
        # then the four quadrant centers, row-major
        centers += [(a * rows // 4, b * cols // 4) for a in (1, 3) for b in (1, 3)]
        sizes = [count // 5 + count % 5] + [count // 5] * 4
    r, c = np.indices((rows, cols), dtype=np.int32, sparse=True)
    cells = np.concatenate([
        np.argsort(np.maximum(np.abs(r - cr), np.abs(c - cc)), axis=None,
                   kind="stable")[:size]
        for (cr, cc), size in zip(centers, sizes)
    ]).astype(np.int32)
    if _has_repeat(cells):
        raise ValueError(
            "intermediate clusters overlap; lattice too small to separate them"
        )
    cells.setflags(write=False)
    return cells


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
    Both are cached per (spec, pattern, count) and returned as the same
    read-only array on every call. Uniform: distinct cells sampled
    uniformly without replacement, in draw order (requires rng).

    Raises:
        ValueError: count out of range, missing rng for Uniform, or
            Intermediate clusters overlapping (lattice too small to separate
            them).
    """
    n = spec.node_count
    _check_integer("count", count, 1, n)

    if pattern is Pattern.UNIFORM:
        if rng is None:
            raise ValueError("uniform placement requires an rng")
        return rng.choice(n, size=count, replace=False).astype(np.int32)

    if not isinstance(pattern, Pattern):
        raise ValueError(f"unknown pattern: {pattern!r}")
    return _clustered(spec, pattern, count)


def build_plan(
    spec: LatticeSpec,
    pattern: Pattern,
    count: int,
    gamma: int,
    rng: np.random.Generator,
) -> SeedingPlan:
    """Place innovators, then draw their activation order, `gamma` per tick.

    Draws `rng.choice` for uniform placement (compact and intermediate draw
    nothing), then one `rng.permutation(count)`.
    """
    positions = place_innovators(spec, pattern, count, rng)
    return SeedingPlan(positions[rng.permutation(len(positions))], gamma)


def default_innovator_count(
    spec: LatticeSpec, fraction: float = INNOVATOR_SHARE,
) -> int:
    """Round the innovator quota (default 2.5% of the population)."""
    _check_real("innovator_fraction", fraction)
    if not 0 < fraction <= 1:
        raise ValueError(f"innovator_fraction must be in (0, 1], got {fraction}")
    return max(1, math.floor(spec.node_count * fraction + 0.5))
