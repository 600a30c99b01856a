"""Abstract executions ``A = (H, vis, ar, par)`` (Section 3.2).

``vis`` and ``ar`` are :class:`~repro.framework.relations.Relation` objects
over event ids; ``par`` maps each event id to the total order (again a
Relation) that the event *perceived*. Contexts and fluctuating contexts
(Section 3.4 / 4.2) are derived here.

Read-only events are dropped when a context is linearised for the
specification ``F``: by the Section 3.4 closure requirement their presence
cannot change any return value, and dropping them sidesteps the corner cases
where the paper's constructed ``ar`` fails to order them totally against
TOB-delivered events (see ``docs`` note in builder.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.framework.history import History, HistoryEvent
from repro.framework.relations import Relation


@dataclass
class AbstractExecution:
    """A history extended with visibility, arbitration and perceived orders."""

    history: History
    vis: Relation
    ar: Relation
    par: Dict[Any, Relation]

    @property
    def datatype(self):
        return self.history.datatype

    def perceived_order(self, eid: Any) -> Relation:
        """``par(e)``; defaults to ``ar`` when no fluctuation was recorded."""
        return self.par.get(eid, self.ar)

    # ------------------------------------------------------------------
    # Contexts (Section 3.4 and 4.2)
    # ------------------------------------------------------------------
    def visible_events(self, eid: Any) -> List[Any]:
        """``vis⁻¹(e)`` as a list (unordered)."""
        return list(self.vis.predecessors(eid))

    def context_operations(self, eid: Any, *, fluctuating: bool) -> List[HistoryEvent]:
        """The operations of e's context, linearised for the spec ``F``.

        ``fluctuating=False`` linearises ``vis⁻¹(e)`` by ``ar`` (the classic
        ``context``); ``fluctuating=True`` uses ``par(e)`` (``fcontext``).

        Read-only events are removed *before* linearising: the Section 3.4
        closure property makes them irrelevant to the result, and the
        paper's constructed orders place never-broadcast reads by request
        timestamp, which can contradict trace/TOB positions and produce a
        cycle through the read — restricted to updating events the
        constructed orders are guaranteed acyclic.
        """
        visible = [
            x for x in self.visible_events(eid)
            if not self.history.event(x).readonly
        ]
        order = self.perceived_order(eid) if fluctuating else self.ar
        linearised = order.topological_sort(visible)
        return [self.history.event(x) for x in linearised]

    def expected_return(self, eid: Any, *, fluctuating: bool) -> Any:
        """``F(op(e), context)`` — the specification's verdict for e."""
        event = self.history.event(eid)
        preceding = [
            context_event.op
            for context_event in self.context_operations(eid, fluctuating=fluctuating)
        ]
        return self.datatype.spec_return(event.op, preceding)
