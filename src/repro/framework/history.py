"""Histories — the observable behaviour of a run (Section 3.2).

A history is an event graph ``H = (E, op, rval, rb, ß, lvl)``. We represent
each event as a :class:`HistoryEvent` carrying the paper's attributes plus
the instrumentation needed by the Theorem-2-style builders:

- ``timestamp`` — the request's Bayou timestamp (``req`` order);
- ``tob_cast`` / ``tob_no`` — whether the event's request was TOB-cast, and
  its position in the final TOB delivery order (``tobNo``), if delivered;
- ``perceived_trace`` — ``exec(e)``: the state trace at the instant the
  returned response was computed (Appendix A.2.3).

Pending events (a strong operation stuck in an asynchronous run) have
``rval is PENDING`` (the paper's ∇) and no return time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.datatypes.base import DataType, Operation
from repro.framework.relations import Relation


class _Pending:
    """Singleton sentinel ∇ for operations that never returned."""

    _instance: Optional["_Pending"] = None

    def __new__(cls) -> "_Pending":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "∇"


#: The paper's ∇: the "return value" of a pending operation.
PENDING = _Pending()

WEAK = "weak"
STRONG = "strong"


@dataclass(frozen=True)
class HistoryEvent:
    """One invocation event with its observable and instrumented attributes."""

    eid: Any
    session: int
    op: Operation
    level: str
    invoke_time: float
    return_time: Optional[float] = None
    rval: Any = PENDING
    timestamp: float = 0.0
    readonly: bool = False
    tob_cast: bool = True
    tob_no: Optional[int] = None
    perceived_trace: Optional[Tuple[Any, ...]] = None
    stable: bool = False
    #: Global invocation sequence number; breaks same-instant ties so that
    #: session order is preserved even for zero-latency responses.
    seq: int = 0

    @property
    def pending(self) -> bool:
        """True iff the operation never returned (rval = ∇)."""
        return self.rval is PENDING

    @property
    def req_key(self) -> Tuple[float, Any]:
        """The ``(timestamp, dot)`` request order key."""
        return (self.timestamp, self.eid)


class MalformedHistoryError(ValueError):
    """Raised when a history violates well-formedness (Section 3.2)."""


class History:
    """A recorded history plus derived relations.

    ``horizon`` is the stabilisation time used by the finite-run liveness
    checks (EV, CPar): events invoked after the horizon are the "infinitely
    many later events" of the paper's definitions.
    """

    def __init__(
        self,
        events: Iterable[HistoryEvent],
        datatype: DataType,
        *,
        horizon: Optional[float] = None,
        well_formed: bool = True,
    ) -> None:
        self.events: List[HistoryEvent] = sorted(
            events, key=lambda e: (e.invoke_time, e.seq, repr(e.eid))
        )
        self.datatype = datatype
        self.horizon = horizon
        self._by_eid: Dict[Any, HistoryEvent] = {}
        for event in self.events:
            if event.eid in self._by_eid:
                raise MalformedHistoryError(f"duplicate event id {event.eid!r}")
            self._by_eid[event.eid] = event
        if well_formed:
            self.assert_well_formed()

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def event(self, eid: Any) -> HistoryEvent:
        """Look up an event by id."""
        return self._by_eid[eid]

    @property
    def eids(self) -> List[Any]:
        return [event.eid for event in self.events]

    def with_level(self, level: str) -> List[HistoryEvent]:
        """Events whose lvl attribute equals ``level`` (the paper's L)."""
        return [event for event in self.events if event.level == level]

    def sessions(self) -> Dict[int, List[HistoryEvent]]:
        """Events grouped by session, in invocation order."""
        grouped: Dict[int, List[HistoryEvent]] = {}
        for event in self.events:
            grouped.setdefault(event.session, []).append(event)
        return grouped

    # ------------------------------------------------------------------
    # Well-formedness (Section 3.2)
    # ------------------------------------------------------------------
    def assert_well_formed(self) -> None:
        """Sessions are sequential and no operation follows a pending one."""
        for session, events in self.sessions().items():
            previous: Optional[HistoryEvent] = None
            for event in events:
                if previous is not None:
                    if previous.pending:
                        raise MalformedHistoryError(
                            f"session {session}: {event.eid!r} follows pending "
                            f"{previous.eid!r}"
                        )
                    if previous.return_time is None or (
                        previous.return_time > event.invoke_time
                    ):
                        raise MalformedHistoryError(
                            f"session {session}: {event.eid!r} invoked before "
                            f"{previous.eid!r} returned"
                        )
                previous = event

    # ------------------------------------------------------------------
    # Derived relations
    # ------------------------------------------------------------------
    def returns_before(self) -> Relation:
        """``rb``: e returned (in real time) before e' was invoked."""
        pairs = []
        for a in self.events:
            if a.return_time is None:
                continue
            for b in self.events:
                if a is not b and a.return_time < b.invoke_time:
                    pairs.append((a.eid, b.eid))
        return Relation(pairs, universe=self.eids)

    def same_session(self) -> Relation:
        """``ß``: symmetric same-session relation."""
        pairs = []
        for session_events in self.sessions().values():
            for a in session_events:
                for b in session_events:
                    if a is not b:
                        pairs.append((a.eid, b.eid))
        return Relation(pairs, universe=self.eids)

    def session_order(self) -> Relation:
        """``so = rb ∩ ß`` — program order within each session."""
        pairs = []
        for session_events in self.sessions().values():
            for i, a in enumerate(session_events):
                if a.return_time is None:
                    continue
                for b in session_events[i + 1:]:
                    if a.return_time < b.invoke_time:
                        pairs.append((a.eid, b.eid))
        return Relation(pairs, universe=self.eids)

    def events_after_horizon(self) -> List[HistoryEvent]:
        """Events invoked after the stabilisation horizon (for EV/CPar)."""
        if self.horizon is None:
            return []
        return [event for event in self.events if event.invoke_time > self.horizon]


def freeze_history(
    records: Iterable[Any],
    datatype: DataType,
    tob_order: Sequence[Any],
    *,
    horizon: Optional[float] = None,
    well_formed: bool = True,
) -> History:
    """Freeze a deployment's per-operation records into a History.

    ``records`` are its :class:`~repro.core.session.OpFuture` objects in
    invocation order (their position is the event's ``seq``); ``tob_order``
    is the final TOB delivery order of dots, empty for systems without one.
    Unanswered operations freeze as pending (``rval = ∇``).
    """
    tob_index = {dot: index for index, dot in enumerate(tob_order)}
    events = [
        HistoryEvent(
            eid=record.dot,
            session=record.pid,
            op=record.op,
            level=STRONG if record.strong else WEAK,
            invoke_time=record.invoke_time,
            return_time=record.response_time,
            rval=record.rval,
            timestamp=record.request.timestamp,
            readonly=datatype.is_readonly(record.op),
            tob_cast=record.tob_cast,
            tob_no=tob_index.get(record.dot),
            perceived_trace=record.perceived,
            stable=record.responded_stable,
            seq=seq,
        )
        for seq, record in enumerate(records, start=1)
    ]
    return History(events, datatype, horizon=horizon, well_formed=well_formed)
