"""The span sink: a bounded ring of structured span events.

A :class:`SpanEvent` is one recorded step of an operation's lifecycle
(``submit``, ``tob.cast``, ``commit``, …) tied to a trace by
``(trace_id, span_id, parent_id)``. The :class:`Tracer` collects them in
arrival order; with a ``capacity`` it becomes a ring that drops the
oldest events and counts the drops — long runs stop accreting unbounded
telemetry.

Spans here are *events*, not open/close pairs: each carries the single
timestamp at which the step happened (sim time on the kernel, wall clock
on asyncio). Durations fall out of the tree — a child's time minus its
parent's — which keeps recording to one append on the hot path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class SpanEvent:
    """One recorded lifecycle step, tied to a trace."""

    time: float
    process: int
    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanEvent(t={self.time:.3f}, p={self.process}, {self.name}, "
            f"{self.trace_id}/{self.span_id})"
        )


class Tracer:
    """An append-only span sink, optionally bounded to a ring."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.capacity = capacity
        self._events: Deque[SpanEvent] = deque(maxlen=capacity)
        #: Events evicted by the ring (0 while unbounded or under capacity).
        self.dropped = 0

    def record(
        self,
        time: float,
        process: int,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str] = None,
        **attrs: Any,
    ) -> SpanEvent:
        """Append one span event and return it."""
        event = SpanEvent(
            time=time,
            process=process,
            name=name,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            attrs=dict(attrs),
        )
        if self.capacity is not None and len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[SpanEvent]:
        return iter(self._events)

    def events(
        self,
        *,
        trace_id: Optional[str] = None,
        name: Optional[str] = None,
        process: Optional[int] = None,
        predicate: Optional[Callable[[SpanEvent], bool]] = None,
    ) -> List[SpanEvent]:
        """Events filtered by trace, name, process and/or a predicate."""
        result = []
        for event in self._events:
            if trace_id is not None and event.trace_id != trace_id:
                continue
            if name is not None and event.name != name:
                continue
            if process is not None and event.process != process:
                continue
            if predicate is not None and not predicate(event):
                continue
            result.append(event)
        return result

    def trace_ids(self) -> List[str]:
        """Distinct trace ids in first-seen order."""
        seen: Dict[str, None] = {}
        for event in self._events:
            if event.trace_id not in seen:
                seen[event.trace_id] = None
        return list(seen)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0
