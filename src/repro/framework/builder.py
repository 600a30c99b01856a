"""Deriving ``(vis, ar, par)`` from an instrumented run (Appendix A.2.3).

The proof of Theorem 2 constructs the abstract execution for a Bayou run as
follows, and we mechanise it verbatim:

**Arbitration** ``ar``: for events a ≠ b, ``a → b`` iff

1. both TOB-delivered and ``tobNo(a) < tobNo(b)``; or
2. a delivered, b TOB-cast but never delivered; or
3. both TOB-cast, neither delivered, and ``req(a) < req(b)``; or
4. at least one not TOB-cast, and ``req(a) < req(b)``

where ``req`` order is the lexicographic ``(timestamp, dot)`` order.

**Perceived order** ``par(e)``: based on ``exec'(e) = exec(e) · req(e)``
(the state trace when e's returned response was computed, plus e itself);
events on the list are ordered by position, TOB-cast events off the list go
after all on-list events, and non-TOB-cast events off the list are placed
relative to everything by ``ar``.

**Visibility**: ``a vis b`` iff ``a --par(b)--> b``; concretely, iff
``req(a) ∈ exec(b)``, or a was never TOB-cast and ``req(a) < req(b)``.

A note on totality: as observed in ``abstract_execution.py``, rule 4 can in
corner cases contradict rule 1 transitively (a never-broadcast read-only
event whose timestamp falls between two updating events that TOB ordered
against their timestamps). The constructed ``ar`` is then still a faithful
*relation*; the predicate checkers operate on relations directly, and
read-only events are dropped from spec contexts, so no check depends on the
corner case. ``ar.is_total_order()`` is exposed for diagnostics.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.framework.abstract_execution import AbstractExecution
from repro.framework.history import History, HistoryEvent
from repro.framework.relations import Relation


def _tob_delivered(event: HistoryEvent) -> bool:
    return event.tob_no is not None


def _req_less(a: HistoryEvent, b: HistoryEvent) -> bool:
    return a.req_key < b.req_key


def build_ar(history: History) -> Relation:
    """The final arbitration order of Appendix A.2.3."""
    events = history.events
    pairs = []
    for a in events:
        for b in events:
            if a is b:
                continue
            if _ar_before(a, b):
                pairs.append((a.eid, b.eid))
    return Relation(pairs, universe=history.eids)


def _ar_before(a: HistoryEvent, b: HistoryEvent) -> bool:
    a_delivered, b_delivered = _tob_delivered(a), _tob_delivered(b)
    if a_delivered and b_delivered:
        return a.tob_no < b.tob_no
    if a_delivered and b.tob_cast and not b_delivered:
        return True
    if b_delivered and a.tob_cast and not a_delivered:
        return False
    # Remaining cases compare by request order (rules 3 and 4).
    return _req_less(a, b)


def build_vis(history: History) -> Relation:
    """Visibility: trace membership, or request order for invisible reads.

    The request-order fallback exists for events that are never broadcast
    and therefore can never appear in any trace — in Bayou these are
    exactly the weak *read-only* operations of the modified protocol
    ("invisible reads"). Non-broadcast *updating* events (as in the LWW
    baseline, which has no TOB at all) are visible only through traces.
    """
    events = history.events
    pairs = []
    for b in events:
        trace = set(b.perceived_trace or ())
        for a in events:
            if a is b:
                continue
            if a.eid in trace:
                pairs.append((a.eid, b.eid))
            elif not a.tob_cast and a.readonly and _req_less(a, b):
                pairs.append((a.eid, b.eid))
    return Relation(pairs, universe=history.eids)


def build_par(history: History, ar: Relation) -> Dict[Any, Relation]:
    """``par(e)`` for every event with a recorded perceived trace."""
    par: Dict[Any, Relation] = {}
    for event in history.events:
        if event.perceived_trace is None:
            # Pending (or uninstrumented) event: par defaults to ar.
            continue
        par[event.eid] = _perceived_relation(history, event, ar)
    return par


def _perceived_relation(
    history: History, event: HistoryEvent, ar: Relation
) -> Relation:
    exec_prime: List[Any] = list(event.perceived_trace or ())
    if event.eid not in exec_prime:
        exec_prime.append(event.eid)
    position: Dict[Any, int] = {eid: i for i, eid in enumerate(exec_prime)}
    # Traces may mention requests the history doesn't model (none in our
    # harnesses, but hand-built histories could); restrict to known events.
    known = set(history.eids)
    pairs = []
    for a in history.events:
        for b in history.events:
            if a is b:
                continue
            pos_a = position.get(a.eid)
            pos_b = position.get(b.eid)
            if pos_a is not None and pos_b is not None:
                if pos_a < pos_b:
                    pairs.append((a.eid, b.eid))
            elif pos_a is not None and pos_b is None and b.tob_cast:
                pairs.append((a.eid, b.eid))
            elif pos_b is None and not b.tob_cast:
                if ar.holds(a.eid, b.eid):
                    pairs.append((a.eid, b.eid))
            elif pos_a is None and not a.tob_cast:
                if ar.holds(a.eid, b.eid):
                    pairs.append((a.eid, b.eid))
            elif pos_a is None and pos_b is None:
                if ar.holds(a.eid, b.eid):
                    pairs.append((a.eid, b.eid))
    return Relation(
        (pair for pair in pairs if pair[0] in known and pair[1] in known),
        universe=history.eids,
    )


def build_abstract_execution(history: History) -> AbstractExecution:
    """Assemble the full abstract execution for an instrumented history."""
    ar = build_ar(history)
    vis = build_vis(history)
    par = build_par(history, ar)
    return AbstractExecution(history=history, vis=vis, ar=ar, par=par)
