"""Irreversible threshold-adoption dynamics on a social network.

Each tick, scheduled innovators adopt unconditionally; every other
non-adopted agent weighs the adopted fraction of its neighbors v+ against its
private utility difference and adopts iff

    delta_U = alpha * (2 v+ - 1) + (1 - alpha) * delta_u > 0.

Updates are synchronous by default: all decisions in tick t read the adoption
state as of the end of tick t-1. A random-sequential mode is available as a
sensitivity check; it is never the default. Its contract: after the tick's
seeds activate, one `rng.permutation` is drawn over the eligible agents (in
index order); an agent adopts iff its adopter-neighbor count at its turn
reaches its threshold, so adoptions count for later-ranked agents in the
same tick.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from diffusim.network import SocialNetwork
from diffusim.seeding import SeedingPlan

SYNCHRONOUS = "synchronous"
RANDOM_SEQUENTIAL = "random_sequential"


@dataclass(frozen=True)
class DecisionParams:
    """Homogeneous decision weights shared by all agents.

    Attributes:
        delta_u: private utility difference between adopting and not.
        alpha: weight of social influence relative to private preference.
    """

    delta_u: float
    alpha: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not np.isfinite(self.delta_u):
            raise ValueError(f"delta_u must be finite, got {self.delta_u}")


@dataclass(frozen=True)
class AdoptionTrajectory:
    """Cumulative adoption proportion per tick; index 0 is the pre-launch 0.

    saturated_at is the first tick at which every agent has adopted, or None
    if the run stopped before full adoption.
    """

    proportions: np.ndarray
    population: int
    saturated_at: int | None

    def __post_init__(self) -> None:
        props = np.asarray(self.proportions, dtype=float)
        if props[0] != 0.0:
            raise ValueError("trajectory must start at proportion 0")
        if np.any(np.diff(props) < 0):
            raise ValueError("adoption proportions must be non-decreasing")
        if self.saturated_at is not None and props[-1] != 1.0:
            raise ValueError("saturated_at set but final proportion is not 1")

    @property
    def adopter_counts(self) -> np.ndarray:
        return np.rint(np.asarray(self.proportions) * self.population).astype(np.int64)

    @property
    def final_proportion(self) -> float:
        return float(self.proportions[-1])

    @property
    def ticks(self) -> np.ndarray:
        return np.arange(len(self.proportions))


def delta_utility(v_plus: float, params: DecisionParams) -> float:
    """Utility gain of adopting when a fraction v_plus of neighbors adopted."""
    if not 0.0 <= v_plus <= 1.0:
        raise ValueError(f"v_plus must be in [0, 1], got {v_plus}")
    return params.alpha * (2.0 * v_plus - 1.0) + (1.0 - params.alpha) * params.delta_u


def adoption_threshold(neighbor_count: int, params: DecisionParams) -> int:
    """Minimum adopter neighbors that push delta_utility above zero.

    Returns 0 when adoption is spontaneous (no adopter neighbors needed) and
    neighbor_count + 1 when no attainable fraction suffices.
    """
    if neighbor_count < 1:
        raise ValueError(f"neighbor_count must be >= 1, got {neighbor_count}")
    for m in range(neighbor_count + 1):
        if delta_utility(m / neighbor_count, params) > 0.0:
            return m
    return neighbor_count + 1


def _thresholds_by_node(net: SocialNetwork, params: DecisionParams) -> np.ndarray:
    """Per-node adopter-neighbor threshold, looked up in a table indexed by
    degree; isolated nodes can only adopt spontaneously (their v+ is taken
    as 0)."""
    degrees = net.degrees
    isolated = 0 if delta_utility(0.0, params) > 0.0 else net.node_count + 1
    table = [isolated] + [
        adoption_threshold(d, params) for d in range(1, degrees.max(initial=0) + 1)
    ]
    return np.asarray(table, dtype=np.int64)[degrees]


def _gather_neighbors(net: SocialNetwork, nodes: np.ndarray) -> np.ndarray:
    """Concatenate the neighbor lists of `nodes` (repeat-offset gather)."""
    starts = net.indptr[nodes]
    counts = net.indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=net.indices.dtype)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    idx = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts) + np.repeat(
        starts, counts
    )
    return net.indices[idx]


def _random_sequential_pass(
    net: SocialNetwork,
    thresholds: np.ndarray,
    counts: np.ndarray,
    eligible: np.ndarray,
    adopted: np.ndarray,
    rng: np.random.Generator,
) -> int:
    """One tick's decisions in rng-permuted order, applied immediately.

    Gives what visiting the eligible agents one by one, in the order of one
    `rng.permutation(len(candidates))`, and adopting each whose count has
    reached its threshold at its turn gives, but computed in waves. In that
    loop an agent adopts iff its start-of-tick count plus the number of its
    neighbors that adopt earlier in the order reaches its threshold. The
    definition refers only to earlier-ranked agents, so it has exactly one
    solution. `seen` holds each agent's start count plus its earlier-ranked
    neighbors found to adopt so far. Wave 0 is the agents ready at the start
    of the tick; each later wave is the still-eligible agents whose `seen`
    has just reached their threshold. Only adopters are counted, so every
    wave member belongs to the solution. By induction on rank every member
    of the solution joins a wave: it is ready at the start, or it joins the
    wave after the one holding the last of its earlier-ranked adopter
    neighbors. So the waves stop exactly at the solution. `counts` gains
    every adopter's neighbors, as the loop's increments leave it at the end
    of the tick.

    Updates `counts`, `eligible` and `adopted` in place; returns the number
    of agents that adopted.
    """
    n = net.node_count
    candidates = np.flatnonzero(eligible)
    rank = np.full(n, n, dtype=np.int64)  # agents not deciding rank last
    rank[candidates[rng.permutation(len(candidates))]] = np.arange(len(candidates))
    seen = counts.copy()
    wave = np.flatnonzero(eligible & (counts >= thresholds))
    touched_by_wave = []
    total = 0
    while len(wave):
        adopted[wave] = True
        eligible[wave] = False
        total += len(wave)
        touched = _gather_neighbors(net, wave)
        touched_by_wave.append(touched)
        degrees = net.indptr[wave + 1] - net.indptr[wave]
        later = touched[rank[touched] > np.repeat(rank[wave], degrees)]
        np.add.at(seen, later, 1)
        later = later[eligible[later]]
        wave = np.unique(later[seen[later] >= thresholds[later]])
    if touched_by_wave:
        counts += np.bincount(np.concatenate(touched_by_wave), minlength=n)
    return total


def simulate(
    net: SocialNetwork,
    plan: SeedingPlan,
    params: DecisionParams,
    max_ticks: int,
    rng: np.random.Generator | None = None,
    update: str = SYNCHRONOUS,
    on_tick: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
) -> AdoptionTrajectory:
    """Run the adoption dynamics and record the cumulative trajectory.

    Per tick: scheduled innovators activate first, then imitators decide. In
    synchronous mode every decision reads the adoption state from the start
    of the tick, so tick-t seeds influence imitators from tick t+1 onward.
    The run stops at saturation, at max_ticks, or once two consecutive
    post-seeding ticks pass with no change.

    Args:
        net: the social network.
        plan: innovators in activation order; tick t activates
            plan.seeds_at(t).
        params: shared decision weights.
        max_ticks: hard tick cap; must cover the seeding schedule.
        rng: required only for the random-sequential update mode.
        update: SYNCHRONOUS (default) or RANDOM_SEQUENTIAL (sensitivity
            mode: each tick, after the seeds, one rng.permutation over the
            eligible agents orders the decisions; an agent adopts iff its
            adopter-neighbor count at its turn reaches its threshold, and
            its adoption counts for later-ranked agents in the same tick).
        on_tick: optional callback (tick, adopted_mask, innovator_mask) with
            read-only views, called after each tick is recorded.

    Returns:
        AdoptionTrajectory starting at proportion 0.
    """
    n = net.node_count
    if len(plan.positions) and (
        int(plan.positions.min()) < 0 or int(plan.positions.max()) >= n
    ):
        raise ValueError("seeding plan references nodes outside the network")
    if max_ticks < plan.last_tick:
        raise ValueError(
            f"max_ticks={max_ticks} does not cover the seeding schedule "
            f"(last tick {plan.last_tick})"
        )
    if update not in (SYNCHRONOUS, RANDOM_SEQUENTIAL):
        raise ValueError(f"unknown update mode: {update!r}")
    if update == RANDOM_SEQUENTIAL and rng is None:
        raise ValueError("random-sequential mode requires an rng")

    thresholds = _thresholds_by_node(net, params)
    adopted = np.zeros(n, dtype=bool)
    innovator = np.zeros(n, dtype=bool)
    innovator[plan.positions] = True
    eligible = ~innovator
    counts = np.zeros(n, dtype=np.int64)  # adopter neighbors, kept incrementally

    proportions = [0.0]
    adopted_total = 0
    saturated_at = None
    zero_change_streak = 0

    for t in range(1, max_ticks + 1):
        seeds = plan.seeds_at(t)

        if update == SYNCHRONOUS:
            # decisions read start-of-tick state: counts not yet including
            # this tick's seeds or adopters
            deciders = np.flatnonzero(eligible & (counts >= thresholds))
            newly = np.concatenate((seeds, deciders))
            adopted[newly] = True
            eligible[deciders] = False
            if len(newly):
                touched = _gather_neighbors(net, newly.astype(np.int64))
                counts += np.bincount(touched, minlength=n)
            adopted_total += len(newly)
        else:
            adopted[seeds] = True
            adopted_total += len(seeds)
            if len(seeds):
                touched = _gather_neighbors(net, seeds.astype(np.int64))
                counts += np.bincount(touched, minlength=n)
            adopted_total += _random_sequential_pass(
                net, thresholds, counts, eligible, adopted, rng
            )

        delta = adopted_total - round(proportions[-1] * n)
        assert delta >= 0, "adoption must be irreversible"
        proportions.append(adopted_total / n)

        if on_tick is not None:
            a_view = adopted.view()
            a_view.setflags(write=False)
            i_view = innovator.view()
            i_view.setflags(write=False)
            on_tick(t, a_view, i_view)

        if adopted_total == n:
            saturated_at = t
            break
        if t >= plan.last_tick:
            zero_change_streak = zero_change_streak + 1 if delta == 0 else 0
            if zero_change_streak >= 2:
                break

    props = np.asarray(proportions)
    props.setflags(write=False)
    return AdoptionTrajectory(
        proportions=props, population=n, saturated_at=saturated_at
    )


def write_trajectory_csv(traj: AdoptionTrajectory, path) -> None:
    """Export `tick,adopters,proportion` rows, one per recorded tick."""
    counts = traj.adopter_counts
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tick", "adopters", "proportion"])
        for tick, (count, prop) in enumerate(zip(counts, traj.proportions)):
            writer.writerow([tick, int(count), repr(float(prop))])
