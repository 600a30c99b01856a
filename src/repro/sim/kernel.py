"""The discrete-event simulation kernel.

A :class:`Simulator` owns a priority queue of :class:`ScheduledEvent` objects.
Each event carries a callback and the positional arguments to call it with
(``schedule(delay, callback, *args)``, the shape of ``loop.call_later``), so
a caller hands over a bound method and its arguments instead of building a
closure per event. Events scheduled for the same simulated time are executed
in scheduling order (a monotonically increasing sequence number breaks
ties), which makes every run fully deterministic.

The kernel knows nothing about replicas, networks, or protocols; those are
layered on top (see :mod:`repro.net` and :mod:`repro.core`).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised when the kernel is used incorrectly (e.g. scheduling in the past)."""


class ScheduledEvent:
    """A single entry in the simulator's event queue.

    The record is all an event is: when, what to call with which arguments,
    a label for whoever inspects the queue, and whether it was cancelled.
    Its place among same-time events (``seq``) lives in the heap entry only.
    """

    __slots__ = ("time", "callback", "args", "label", "cancelled")

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
        label: str,
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True


class Simulator:
    """A deterministic discrete-event simulator.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.0, lambda: print("hello at t=1"))
        sim.run()

    The simulator tracks the number of executed events and exposes
    :meth:`run_until_quiescent` which is how experiment harnesses detect that
    a protocol converged (no pending messages or timers).
    """

    def __init__(self, *, max_events: int = 10_000_000) -> None:
        #: Heap of ``(time, seq, event)`` — raw tuples keep heap comparisons
        #: in C (a hot path: every message, timer and internal step passes
        #: through here).
        self._queue: List[Tuple[float, int, ScheduledEvent]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._executed = 0
        self._max_events = max_events

    @property
    def now(self) -> float:
        """The current simulated time."""
        return self._now

    @property
    def executed_events(self) -> int:
        """The number of callbacks executed so far."""
        return self._executed

    @property
    def pending_events(self) -> int:
        """The number of non-cancelled events still queued."""
        return sum(1 for _, _, event in self._queue if not event.cancelled)

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now.

        Returns the :class:`ScheduledEvent`, which can be cancelled. A zero
        delay is allowed and means "as soon as the current callback returns",
        still respecting scheduling order among same-time events.
        """
        # bench/tracing.py patches this method from outside and books each
        # event to the layer whose module *defined* the callback: keep the
        # callback second positional and ``label`` keyword-only, and hand
        # over functions or bound methods, never a ``functools.partial``
        # (module ``functools``: its work would vanish from the ledger).
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self._now + delay
        event = ScheduledEvent(time, callback, args, label)
        heapq.heappush(self._queue, (time, next(self._seq), event))
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        return self.schedule(time - self._now, callback, *args, label=label)

    def _advance(self, time: float) -> None:
        """Move the clock to a popped event's ``time`` and count the event."""
        if time < self._now:
            raise SimulationError("event queue corrupted: time went backwards")
        self._now = time
        self._executed += 1
        if self._executed > self._max_events:
            raise SimulationError(
                f"exceeded max_events={self._max_events}; "
                "likely a livelock in the simulated protocol"
            )

    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event was executed, ``False`` if the queue is
        empty (the simulation is quiescent).
        """
        queue = self._queue
        while queue:
            time, _, event = heapq.heappop(queue)
            if not event.cancelled:
                self._advance(time)
                event.callback(*event.args)
                return True
        return False

    def run(self, *, until: Optional[float] = None) -> None:
        """Run until the queue is empty or simulated time exceeds ``until``.

        Events scheduled exactly at ``until`` are still executed; the first
        event strictly beyond it is left in the queue.
        """
        queue = self._queue
        heappop = heapq.heappop
        max_events = self._max_events
        while queue:
            time, _, event = queue[0]
            if event.cancelled:
                heappop(queue)
                continue
            if until is not None and time > until:
                self._now = max(self._now, until)
                break
            heappop(queue)
            # ``_advance`` inlined; the call is only taken to raise.
            if time < self._now or self._executed >= max_events:
                self._advance(time)
            self._now = time
            self._executed += 1
            event.callback(*event.args)

    def run_until_quiescent(self) -> float:
        """Run until no events remain; return the quiescence time."""
        self.run()
        return self._now

    def advance_to(self, time: float) -> None:
        """Advance simulated time without executing events (for tests)."""
        if time < self._now:
            raise SimulationError("cannot move time backwards")
        earliest = min(
            (e.time for _, _, e in self._queue if not e.cancelled),
            default=float("inf"),
        )
        if earliest < time:
            raise SimulationError("cannot skip over pending events")
        self._now = time
