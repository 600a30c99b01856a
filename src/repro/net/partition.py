"""Network partition schedules.

A :class:`PartitionSchedule` maps simulated time to a partitioning of the
replica set into connected components. The paper's model admits only
*temporary* partitions (Section 2.3): messages sent across a partition are
buffered by the network and delivered once the partition heals, which keeps
reliable broadcast reliable.

An *asynchronous run* in the paper's sense is simply a run evaluated while a
partition is still in force (or with ``partition_forever``); a *stable run*
is one whose schedule heals all partitions.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import FrozenSet, Iterable, List, Sequence, Tuple

Component = FrozenSet[int]


class PartitionSchedule:
    """A time-indexed sequence of partitionings.

    The schedule starts fully connected. ``split(at, components)`` installs a
    partitioning at time ``at``; ``heal(at)`` restores full connectivity.
    Components must be disjoint; any process not mentioned forms a singleton
    component (i.e. it is isolated from everyone mentioned elsewhere).
    """

    def __init__(self, n_processes: int) -> None:
        if n_processes <= 0:
            raise ValueError("n_processes must be positive")
        self.n_processes = n_processes
        everyone = frozenset(range(n_processes))
        # Sorted list of (time, partitioning); partitioning = tuple of frozensets.
        self._changes: List[Tuple[float, Tuple[Component, ...]]] = [
            (float("-inf"), (everyone,))
        ]
        #: The change times alone, kept in step with ``_changes`` by
        #: :meth:`split` so a lookup bisects without building a list.
        self._times: List[float] = [float("-inf")]

    def _validate(self, components: Sequence[Iterable[int]]) -> Tuple[Component, ...]:
        frozen = [frozenset(c) for c in components]
        seen: set = set()
        for comp in frozen:
            for pid in comp:
                if not (0 <= pid < self.n_processes):
                    raise ValueError(f"unknown process id {pid}")
                if pid in seen:
                    raise ValueError(f"process {pid} appears in two components")
                seen.add(pid)
        # Unmentioned processes become singletons.
        for pid in range(self.n_processes):
            if pid not in seen:
                frozen.append(frozenset([pid]))
        return tuple(frozen)

    def split(self, at: float, components: Sequence[Iterable[int]]) -> None:
        """Install a partitioning at time ``at`` (replacing later changes)."""
        partitioning = self._validate(components)
        self._changes = [c for c in self._changes if c[0] < at]
        self._changes.append((at, partitioning))
        self._changes.sort(key=lambda c: c[0])
        self._times = [c[0] for c in self._changes]

    def heal(self, at: float) -> None:
        """Restore full connectivity at time ``at``."""
        self.split(at, [range(self.n_processes)])

    def partitioning_at(self, time: float) -> Tuple[Component, ...]:
        """Return the partitioning in force at ``time``."""
        return self._changes[bisect_right(self._times, time) - 1][1]

    def connected(self, a: int, b: int, time: float) -> bool:
        """True if processes ``a`` and ``b`` can exchange messages at ``time``."""
        if a == b:
            return True
        changes = self._changes
        # One epoch (nobody ever split the schedule) needs no lookup by time.
        partitioning = (
            changes[0][1] if len(changes) == 1 else self.partitioning_at(time)
        )
        for component in partitioning:
            if a in component:
                return b in component
        return False

    def component_of(self, pid: int, time: float) -> Component:
        """Return the component containing ``pid`` at ``time``."""
        for component in self.partitioning_at(time):
            if pid in component:
                return component
        return frozenset([pid])

    def next_change_after(self, time: float) -> float:
        """Return the time of the next scheduled change strictly after ``time``.

        Returns ``inf`` if the schedule never changes again; the network uses
        this to decide when to retry delivery of buffered cross-partition
        messages.
        """
        for change_time, _ in self._changes:
            if change_time > time:
                return change_time
        return float("inf")
