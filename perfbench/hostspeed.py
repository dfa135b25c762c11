"""A fixed probe of the host's speed, to take host slowdowns out of timings.

The benchmark's host is a share of a larger machine. A core's speed drops by
up to half for seconds to minutes at a time, each core on its own, and CPU
time slows with wall time, so neither the fastest of several passes nor CPU
time removes it. What does: time a fixed piece of interpreter work right
next to the measured work, often, and rescale the measured time by how much
slower than usual the probe ran. Work timed while the probe took `p`
seconds counts as `t * REFERENCE_S / p`, the time it would have taken on a
host where the probe takes REFERENCE_S.

The probe does not touch diffusim, so no change to the package moves it.
"""

from __future__ import annotations

import time

# the probe's time on an unloaded core of the 2-vCPU Xeon (Sapphire Rapids,
# Python 3.11) the benchmark was written on; a constant, so rescaled times
# compare across runs and commits
REFERENCE_S = 2.2e-4


def _work() -> int:
    table = {}
    acc = 0
    for i in range(1500):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
    return acc


class SpeedLog:
    """Probes taken through a stretch of timed work, at its start, its end
    and points in between (each run, each tick of a long run)."""

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []  # (probe start, probe end)

    def mark(self) -> None:
        start = time.perf_counter()
        _work()
        self.marks.append((start, time.perf_counter()))

    def probe_seconds(self) -> float:
        return sum(end - start for start, end in self.marks)

    def work_seconds(self) -> tuple[float, float]:
        """(measured, at reference speed) time between the first and the
        last mark, probes left out. Each stretch between two marks is
        rescaled by the mean of the two probes."""
        measured = rescaled = 0.0
        for (s0, e0), (s1, e1) in zip(self.marks, self.marks[1:]):
            stretch = s1 - e0
            measured += stretch
            rescaled += stretch * REFERENCE_S / (((e0 - s0) + (e1 - s1)) / 2)
        return measured, rescaled
