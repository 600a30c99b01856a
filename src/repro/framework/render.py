"""Human-readable rendering of histories and abstract executions.

Debugging aid for experiment authors: dump what the framework derived
(visibility sets, arbitration positions, perceived orders) next to the
observable history, in the spirit of the paper's figure annotations.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.framework.abstract_execution import AbstractExecution
from repro.framework.history import History


def render_history(history: History) -> str:
    """The observable history as a table (one row per event)."""
    rows = []
    for event in history.events:
        rows.append(
            [
                repr(event.eid),
                event.session,
                repr(event.op),
                event.level,
                f"{event.invoke_time:.2f}",
                "∇" if event.pending else repr(event.rval),
                "-" if event.tob_no is None else event.tob_no,
            ]
        )
    return format_table(
        ["event", "session", "operation", "lvl", "invoked", "rval", "tobNo"],
        rows,
        title="History",
    )


def render_execution(execution: AbstractExecution) -> str:
    """History plus derived vis/ar/par, one block per event."""
    history = execution.history
    ar_positions = _ar_positions(execution)
    rows = []
    for event in history.events:
        visible = sorted(
            execution.vis.predecessors(event.eid), key=repr
        )
        perceived = execution.perceived_order(event.eid)
        perceived_before = sorted(
            (x for x in visible if perceived.holds(x, event.eid)), key=repr
        )
        rows.append(
            [
                repr(event.eid),
                "∇" if event.pending else repr(event.rval),
                ar_positions.get(event.eid, "-"),
                "{" + ", ".join(repr(x) for x in visible) + "}",
                len(perceived_before),
            ]
        )
    table = format_table(
        ["event", "rval", "ar-pos", "vis⁻¹(e)", "|par-before|"],
        rows,
        title="Abstract execution",
    )
    notes = []
    if not execution.ar.is_acyclic():
        notes.append("note: constructed ar contains a cycle (corner case)")
    if not execution.vis.is_acyclic():
        notes.append("note: vis is cyclic — circular causality present")
    return "\n".join([table] + notes)


def _ar_positions(execution: AbstractExecution) -> dict:
    """Best-effort arbitration positions (predecessor counts)."""
    positions = {}
    eids = execution.history.eids
    for eid in eids:
        positions[eid] = sum(
            1 for other in eids if execution.ar.holds(other, eid)
        )
    return positions
