"""Executable correctness predicates (Section 4).

Each predicate takes an :class:`AbstractExecution` and returns a
:class:`CheckResult` listing violations instead of just a boolean, so test
failures and experiment reports can explain *what* went wrong.

Finite-run semantics for the liveness-flavoured predicates:

- **EV** — the paper requires that only finitely many rb-successors of any
  event fail to observe it. Over a finite quiesced run we check: every event
  invoked *after the stabilisation horizon* observes every event that
  returns-before it. Harnesses issue post-quiescence probe events so the
  check has witnesses.
- **CPar** — ``par(e')`` must agree with ``ar`` (on ranks within
  ``vis⁻¹(e')``) for every event e' returning after the horizon.

If the history has no horizon these two checks pass vacuously and say so in
their notes; safety predicates (NCC, RVal, FRVal, SinOrd, SessArb) are
always checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.framework.abstract_execution import AbstractExecution
from repro.framework.relations import rank

#: Cap on violations retained per check (full counts are still reported).
MAX_VIOLATIONS = 25


@dataclass
class CheckResult:
    """Outcome of one predicate check."""

    name: str
    ok: bool
    violations: List[str] = field(default_factory=list)
    violation_count: int = 0
    note: str = ""

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        status = "OK" if self.ok else f"FAIL ({self.violation_count} violations)"
        suffix = f" — {self.note}" if self.note else ""
        return f"[{self.name}: {status}{suffix}]"


def _result(name: str, violations: List[str], note: str = "") -> CheckResult:
    return CheckResult(
        name=name,
        ok=not violations,
        violations=violations[:MAX_VIOLATIONS],
        violation_count=len(violations),
        note=note,
    )


# ----------------------------------------------------------------------
# EV — eventual visibility (Section 4)
# ----------------------------------------------------------------------
def check_ev(execution: AbstractExecution) -> CheckResult:
    """Every post-horizon event observes everything that returned before it."""
    history = execution.history
    if history.horizon is None:
        return CheckResult(
            "EV", True, note="vacuous: history has no stabilisation horizon"
        )
    probes = history.events_after_horizon()
    if not probes:
        return CheckResult("EV", True, note="vacuous: no post-horizon events")
    violations = []
    for target in probes:
        for event in history.events:
            if event.eid == target.eid:
                continue
            if event.return_time is None or event.return_time >= target.invoke_time:
                continue  # not rb-before the probe
            if not execution.vis.holds(event.eid, target.eid):
                violations.append(
                    f"{event.eid!r} returned before probe {target.eid!r} "
                    "but is not visible to it"
                )
    return _result("EV", violations, note=f"{len(probes)} post-horizon probes")


# ----------------------------------------------------------------------
# NCC — no circular causality (Section 4)
# ----------------------------------------------------------------------
def check_ncc(execution: AbstractExecution) -> CheckResult:
    """``hb = (so ∪ vis)⁺`` must be acyclic."""
    so = execution.history.session_order()
    hb = so.union(execution.vis).transitive_closure()
    cycle = hb.find_cycle()
    if cycle is None:
        return CheckResult("NCC", True)
    return _result(
        "NCC",
        [f"circular causality: {' -> '.join(repr(x) for x in cycle)}"],
    )


# ----------------------------------------------------------------------
# RVal / FRVal — return value correctness (Sections 4.1 and 4.2)
# ----------------------------------------------------------------------
def _check_rval(
    execution: AbstractExecution, level: Optional[str], *, fluctuating: bool
) -> CheckResult:
    name = ("FRVal" if fluctuating else "RVal") + (f"({level})" if level else "")
    violations = []
    events = (
        execution.history.with_level(level)
        if level is not None
        else list(execution.history.events)
    )
    for event in events:
        if event.pending:
            violations.append(f"{event.eid!r} is pending (rval = ∇)")
            continue
        try:
            expected = execution.expected_return(event.eid, fluctuating=fluctuating)
        except ValueError as error:
            violations.append(f"{event.eid!r}: context not linearisable: {error}")
            continue
        if expected != event.rval:
            violations.append(
                f"{event.eid!r} op={event.op!r}: returned {event.rval!r}, "
                f"specification expects {expected!r}"
            )
    return _result(name, violations, note=f"{len(events)} events checked")


def check_rval(
    execution: AbstractExecution, level: Optional[str] = None
) -> CheckResult:
    """``RVal(l, F)``: return values explained by contexts under final ``ar``."""
    return _check_rval(execution, level, fluctuating=False)


def check_frval(
    execution: AbstractExecution, level: Optional[str] = None
) -> CheckResult:
    """``FRVal(l, F)``: return values explained under perceived ``par(e)``."""
    return _check_rval(execution, level, fluctuating=True)


# ----------------------------------------------------------------------
# CPar — perceived order converges to ar (Section 4.2)
# ----------------------------------------------------------------------
def check_cpar(execution: AbstractExecution, level: str) -> CheckResult:
    """Post-horizon events of the level perceive past events at ar ranks."""
    history = execution.history
    if history.horizon is None:
        return CheckResult(
            f"CPar({level})", True, note="vacuous: no stabilisation horizon"
        )
    violations = []
    fluctuation_count = 0
    for observer in history.with_level(level):
        if observer.return_time is None:
            continue
        visible = execution.visible_events(observer.eid)
        par = execution.perceived_order(observer.eid)
        for eid in visible:
            perceived_rank = rank(visible, par, eid)
            final_rank = rank(visible, execution.ar, eid)
            if perceived_rank != final_rank:
                fluctuation_count += 1
                if observer.return_time > history.horizon:
                    violations.append(
                        f"post-horizon {observer.eid!r} perceives {eid!r} at rank "
                        f"{perceived_rank}, final ar rank is {final_rank}"
                    )
    return _result(
        f"CPar({level})",
        violations,
        note=f"{fluctuation_count} perceived-rank fluctuations in total",
    )


# ----------------------------------------------------------------------
# SinOrd / SessArb — the Seq ingredients (Section 4.3)
# ----------------------------------------------------------------------
def check_sinord(execution: AbstractExecution, level: str) -> CheckResult:
    """``∃E' ⊆ pending: vis_L = ar_L \\ (E' × E)``."""
    history = execution.history
    level_eids = {event.eid for event in history.with_level(level)}
    vis_l = execution.vis.restrict_targets(level_eids)
    ar_l = execution.ar.restrict_targets(level_eids)
    violations = []
    for a, b in vis_l:
        if not execution.ar.holds(a, b):
            violations.append(f"vis pair ({a!r}, {b!r}) not in ar")
    missing = ar_l.pairs - vis_l.pairs
    excluded_sources = set()
    for a, b in missing:
        source = history.event(a)
        if not source.pending:
            violations.append(
                f"completed {a!r} arbitrated before {b!r} but not visible to it"
            )
        else:
            excluded_sources.add(a)
    # An excluded pending source must be excluded wholesale (E' × E).
    for a in excluded_sources:
        for a2, b in vis_l:
            if a2 == a:
                violations.append(
                    f"pending {a!r} is visible to {b!r} but its other "
                    "ar-edges were excluded"
                )
    return _result(f"SinOrd({level})", violations)


def check_sessarb(execution: AbstractExecution, level: str) -> CheckResult:
    """``so_L ⊆ ar``: session order into level-l events respects arbitration."""
    history = execution.history
    level_eids = {event.eid for event in history.with_level(level)}
    violations = []
    for a, b in history.session_order():
        if b in level_eids and not execution.ar.holds(a, b):
            violations.append(f"session order {a!r} -> {b!r} not in ar")
    return _result(f"SessArb({level})", violations)
