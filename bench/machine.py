"""Machine-speed calibration: timing that survives a drifting host.

The sandboxes this benchmark runs in are small VMs on shared hosts whose
effective speed drifts: the *same* deterministic 2 s simulator instance was
measured at anything from 1.6 s to 4.2 s within one hour, CPU time moving
with wall time and no steal reported. Medians, minima and longer runs do
not help — the drift is slower than a run — and the raw spread (25-45 %)
is far beyond any useful regression bound.

So every wall-clock number is **normalised**: a fixed pure-Python slice
(heap, dict, tuple and call traffic — the interpreter work the program
itself is made of) is timed before and after each measured piece, and at
the end of the run every measured second is scaled by ``REFERENCE_S /
median slice seconds``. The result reads as "seconds on a machine that runs
the slice in ``REFERENCE_S``" (this box, in a quiet phase). One factor per
run, from all of its ~20 slices: a single slice is itself ±15 % noisy, and
scaling each piece by its own two neighbours was measured to *add* noise
whenever the host was quiet. The run's detail file keeps the seconds as
clocked and the factor.

The slice is part of the benchmark, not of the program: no change under
``src/`` can make it faster.
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter
from typing import List

#: Seconds the slice takes on the reference machine.
REFERENCE_S = 0.070


def slice_seconds() -> float:
    """Time one calibration slice (~0.07 s)."""
    started = perf_counter()
    heap: list = []
    table: dict = {}
    total = 0
    push, pop = heapq.heappush, heapq.heappop
    for index in range(100_000):
        push(heap, ((index * 7919) % 10007, index))
        if len(heap) > 512:
            total += pop(heap)[1]
        table[index % 977] = (index, total)
        total += len(table)
    return perf_counter() - started


class Speedometer:
    """Collects calibration slices over one run."""

    def __init__(self) -> None:
        self.slices: List[float] = []

    def sample(self) -> None:
        self.slices.append(slice_seconds())

    def factor(self) -> float:
        """What to multiply measured seconds by (< 1 on a slow machine)."""
        return REFERENCE_S / statistics.median(self.slices)
