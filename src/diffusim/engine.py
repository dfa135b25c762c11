"""Irreversible threshold-adoption dynamics on a social network.

Each tick, scheduled innovators adopt unconditionally; every other
non-adopted agent weighs the adopted fraction of its neighbors v+ against its
private utility difference and adopts iff

    delta_U = alpha * (2 v+ - 1) + (1 - alpha) * delta_u > 0.

Updates are synchronous by default: all decisions in tick t read the adoption
state as of the end of tick t-1. A random-sequential mode is available as a
sensitivity check; it is never the default. Its contract: after the tick's
seeds activate, one `rng.permutation` is drawn over the undecided agents
(neither innovators nor adopted, in index order); an agent adopts iff its
adopter-neighbor count at its turn reaches its threshold, so adoptions count
for later-ranked agents in the same tick.

An agent's only state is one int32 countdown, `need`: its threshold minus its
adopter neighbors so far; it adopts once `need` <= 0. Innovators and adopters
hold `_DONE`, which no later decrement brings below `_DECIDED`, while an
undecided agent's `need` stays within [-node_count, node_count + 1]; so
`need < _DECIDED` is "undecided". Neighbors are gathered with one `take` of
rows of the network's padded `neighbor_table`, whose padding entries name
node_count: `need` has one spare last slot, held at `_DONE`, that soaks up
their decrements. A synchronous tick is one compare into a bool mask
allocated once per run, one `nonzero`, one neighbor gather and one scatter;
the tick's seeds are joined to its deciders only while seeding lasts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from diffusim.network import SocialNetwork, _check_integer, _check_real
from diffusim.seeding import SeedingPlan

SYNCHRONOUS = "synchronous"
RANDOM_SEQUENTIAL = "random_sequential"
_DONE = np.iinfo(np.int32).max  # `need` of innovators and adopters
_DECIDED = _DONE // 2  # `need` at or above it: an innovator or an adopter
_ONE = np.int32(1)  # a Python int sends ufunc.at on int32 down a slow path


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
        _check_real("alpha", self.alpha, 0, 1)
        _check_real("delta_u", self.delta_u)


@dataclass(frozen=True, eq=False)
class AdoptionTrajectory:
    """Cumulative adoption proportion per tick, kept as the read-only float64
    copy that was checked; index 0 is the pre-launch 0. Compared by identity."""

    proportions: np.ndarray
    population: int

    def __post_init__(self) -> None:
        props = np.array(self.proportions, dtype=np.float64)
        props.setflags(write=False)
        object.__setattr__(self, "proportions", props)
        if len(props) == 0 or not np.all((props >= 0.0) & (props <= 1.0)):
            raise ValueError("adoption proportions must be non-empty and in [0, 1]")
        if props[0] != 0.0:
            raise ValueError("trajectory must start at proportion 0")
        if np.any(np.diff(props) < 0):
            raise ValueError("adoption proportions must be non-decreasing")
        _check_integer("population", self.population, 1)

    @cached_property
    def saturated_at(self) -> int | None:
        """The first tick at which every agent has adopted (the first
        proportion of 1), or None if the run stopped before full adoption."""
        full = np.flatnonzero(self.proportions == 1.0)
        return int(full[0]) if len(full) else None

    @property
    def adopter_counts(self) -> np.ndarray:
        return np.rint(self.proportions * self.population).astype(np.int64)

    @property
    def final_proportion(self) -> float:
        return float(self.proportions[-1])


def delta_utility(v_plus: float, params: DecisionParams) -> float:
    """Utility gain of adopting when a fraction v_plus of neighbors adopted."""
    _check_real("v_plus", v_plus, 0, 1)
    return params.alpha * (2.0 * v_plus - 1.0) + (1.0 - params.alpha) * params.delta_u


def adoption_threshold(neighbor_count: int, params: DecisionParams) -> int:
    """Minimum adopter neighbors that push delta_utility above zero.

    Returns 0 when adoption is spontaneous (no adopter neighbors needed) and
    neighbor_count + 1 when no attainable fraction suffices. An agent with no
    neighbors reads v+ as 0, so its threshold is 0 or 1.
    """
    _check_integer("neighbor_count", neighbor_count, 0)
    for m in range(neighbor_count + 1):
        if delta_utility(m / max(neighbor_count, 1), params) > 0.0:
            return m
    return neighbor_count + 1


def _thresholds_by_node(net: SocialNetwork, params: DecisionParams) -> np.ndarray:
    """Per-node adopter-neighbor threshold, looked up in a table indexed by
    degree.

    Returned as the run's starting int32 countdown: n + 1 entries, the last
    (the padding's slot) `_DONE`. An isolated node's threshold, 0 or 1, is
    never counted down: its row is all padding, so no row names it. The
    lookup writes straight into it: `take` with `out` buffers its whole
    result under mode "raise", and "clip" never acts here, as every degree
    indexes the table."""
    n, degrees = net.node_count, net.degrees
    table = [adoption_threshold(d, params) for d in range(degrees.max(initial=0) + 1)]
    need = np.empty(n + 1, dtype=np.int32)
    need[n] = _DONE
    np.asarray(table, dtype=np.int32).take(degrees, out=need[:n], mode="clip")
    return need


def _adopt(table: np.ndarray, nodes: np.ndarray, need: np.ndarray) -> int:
    """Mark `nodes` adopted (`_DONE`), then take one off the `need` of each
    of their neighbors (and the spare slot's, once per padding entry of their
    `table` rows), in place; returns len(nodes). After set-up it is the only
    writer of `need`."""
    need[nodes] = _DONE
    np.subtract.at(need, table.take(nodes, axis=0).ravel(), _ONE)
    return len(nodes)


def _random_sequential_pass(
    table: np.ndarray, need: np.ndarray, rng: np.random.Generator,
) -> np.ndarray:
    """One tick's decisions under the random-sequential contract (module
    docstring), computed in waves.

    The candidates are the undecided agents, `need < _DECIDED`. Visiting
    them one by one in the order of one `rng.permutation(len(candidates))`
    and adopting each whose `need` has reached 0 at its turn is the
    contract. In that loop an agent adopts iff its start-of-tick `need` minus
    the number of its neighbors that adopt earlier in the order is at most 0.
    The definition refers only to earlier-ranked agents, so it has exactly
    one solution. `seen`, a copy of `need`, holds each agent's start `need`
    minus its earlier-ranked neighbors found to adopt so far. Wave 0 is the
    agents ready at the start of the tick; each later wave is the agents
    whose `seen` has just reached 0 (wave members leave at `_DONE`). Only
    adopters are counted, so every wave member belongs to the solution. By
    induction on rank every member of the solution joins a wave: it is ready
    at the start, or it joins the wave after the one holding the last of its
    earlier-ranked adopter neighbors. So the waves stop exactly at the
    solution.

    A wave's neighbors are gathered as rows of the padded `table`, and
    "ranked after the adopter" is one 2-D compare of their ranks against
    the adopter's. A padding entry names the spare last slot, which ranks
    -1 like every agent not deciding, so it is never ranked after an
    adopter. The gathered rows are cast to intp once per wave: numpy casts
    an int32 index array to intp on every fancy index and `ufunc.at`, and
    their entries index 2-5 times. The table itself stays int32, which
    halves its memory; `rank` is int32 too, read with `take`.

    Reads `need` only; returns the tick's adopters, each once, wave by wave.
    """
    n = len(table)
    candidates = np.flatnonzero(need[:n] < _DECIDED)
    rank = np.full(n + 1, -1, dtype=np.int32)  # non-deciders and slot n
    rank[candidates[rng.permutation(len(candidates))]] = np.arange(
        len(candidates), dtype=np.int32
    )
    seen = need.copy()
    slot = np.empty(n, dtype=np.int64)  # scratch for the wave dedupe
    waves = [np.flatnonzero(need <= 0)]
    while len(wave := waves[-1]):
        seen[wave] = _DONE
        touched = table.take(wave, axis=0).astype(np.intp)
        later = touched[rank.take(touched) > rank.take(wave)[:, None]]
        np.subtract.at(seen, later, _ONE)
        ready = later[seen[later] <= 0]
        # dedupe in O(wave): of the entries naming one agent, exactly one
        # reads back its own stamp; the waves' order does not matter
        stamp = np.arange(len(ready))
        slot[ready] = stamp
        waves.append(ready[slot[ready] == stamp])
    return np.concatenate(waves)


def simulate(
    net: SocialNetwork,
    plan: SeedingPlan,
    params: DecisionParams,
    max_ticks: int,
    rng: np.random.Generator | None = None,
    update: str = SYNCHRONOUS,
    on_tick: Callable[[int, np.ndarray], None] | None = None,
) -> AdoptionTrajectory:
    """Run the adoption dynamics and record the cumulative trajectory.

    Per tick: scheduled innovators activate first, then imitators decide. In
    synchronous mode every decision reads the adoption state from the start
    of the tick, so tick-t seeds influence imitators from tick t+1 onward.
    The run stops at saturation, at max_ticks, or once two consecutive
    post-seeding ticks pass with no change. Agents are tracked by their `need`
    countdown (module docstring), which leaves both update rules unchanged.

    Args:
        net: the social network.
        plan: innovators in activation order; tick t activates
            plan.seeds_at(t).
        params: shared decision weights.
        max_ticks: hard tick cap; must cover the seeding schedule.
        rng: required only for the random-sequential update mode.
        update: SYNCHRONOUS (default) or RANDOM_SEQUENTIAL (the
            sensitivity mode whose contract the module docstring states).
        on_tick: optional callback (tick, adopters) called after each tick
            is recorded. `adopters` holds the agents that adopted in that
            tick, innovators released at it included, each once, in a fresh
            array; `ticks[adopters] = tick` collects each agent's tick.

    Returns:
        AdoptionTrajectory starting at proportion 0.
    """
    _check_integer("max_ticks", max_ticks, 0)
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

    table = net.neighbor_table
    need = _thresholds_by_node(net, params)
    need[plan.positions] = _DONE
    ready = np.empty(n + 1, dtype=bool)  # the synchronous deciders' mask
    last_tick = plan.last_tick

    proportions = [0.0]
    adopted_total = 0
    zero_change_streak = 0

    for t in range(1, max_ticks + 1):
        if update == SYNCHRONOUS:
            # decisions read start-of-tick state: need not yet counting
            # this tick's seeds or adopters
            np.less_equal(need, 0, out=ready)
            nodes = ready.nonzero()[0]
            if t <= last_tick:
                nodes = np.concatenate((plan.seeds_at(t), nodes))
            delta = _adopt(table, nodes, need)
        else:
            seeds = plan.seeds_at(t)
            delta = _adopt(table, seeds, need)
            nodes = _random_sequential_pass(table, need, rng)
            delta += _adopt(table, nodes, need)
            nodes = np.concatenate((seeds, nodes))
        adopted_total += delta
        proportions.append(adopted_total / n)

        if on_tick is not None:
            on_tick(t, nodes)

        if adopted_total == n:
            break
        if t >= last_tick:
            zero_change_streak = zero_change_streak + 1 if delta == 0 else 0
            if zero_change_streak >= 2:
                break

    return AdoptionTrajectory(proportions=proportions, population=n)


def write_trajectory_csv(traj: AdoptionTrajectory, path) -> None:
    """Export `tick,adopters,proportion` rows, one per recorded tick."""
    pairs = zip(traj.adopter_counts, traj.proportions)
    _write_csv(path, ["tick", "adopters", "proportion"],
               ([tick, int(count), repr(float(prop))]
                for tick, (count, prop) in enumerate(pairs)))


def _write_csv(path, header: list[str], rows) -> None:
    """Write `header`, then each of `rows`, in the csv module's default
    dialect (comma-separated, CRLF line ends). Every CSV writer writes
    through it, as every reader reads through `_read_csv`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path) -> tuple[list[str], list[dict[str, str]]]:
    """A CSV file's header ([] for an empty file) and its non-blank rows as
    dicts keyed by it. Every CSV reader reads through it, so a row whose field
    count is not its header's raises ValueError naming its line; csv.DictReader
    would pad a short row with None and drop a long row's extra fields."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header, rows = next(reader, []), []
        for fields in filter(None, reader):
            if len(fields) != len(header):
                raise ValueError(f"line {reader.line_num} has {len(fields)} "
                                 f"fields, its header {len(header)}")
            rows.append(dict(zip(header, fields)))
    return header, rows


def read_trajectory_csv(path) -> AdoptionTrajectory:
    """Load a trajectory from CSV with header tick,proportion. With an
    adopters column, as write_trajectory_csv writes, the population is the
    integer N the last row with a proportion above 0 gives, and every row
    must have rint(proportion * N) == adopters; without one it is 1."""
    header, rows = _read_csv(path)
    if "tick" not in header or "proportion" not in header:
        raise ValueError(f"missing tick/proportion columns in {header}")
    if [int(row["tick"]) for row in rows] != list(range(len(rows))):
        raise ValueError("ticks must be consecutive from 0")
    props = np.asarray([float(row["proportion"]) for row in rows], dtype=float)
    population = 1
    if "adopters" in header:
        adopters = np.asarray([int(row["adopters"]) for row in rows], dtype=np.int64)
        positive = np.flatnonzero(props > 0.0)
        if len(positive):
            last = positive[-1]
            # capped, so that a near-zero proportion cannot overflow
            population = round(min(int(adopters[last]) / float(props[last]), 2.0**62))
        if population < 1 or np.any(np.rint(props * population) != adopters):
            raise ValueError(f"adopters disagree with population {population}")
    return AdoptionTrajectory(props, population=population)
