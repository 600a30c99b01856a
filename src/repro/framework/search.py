"""Exhaustive satisfiability search for abstract executions.

The paper's ``H |= P`` is existential: a history is correct when *some*
extension ``(vis, ar, par)`` satisfies P. For small histories we can close
the existential by brute force, which is how Theorem 1 is mechanised: the
proof's four-event history admits *no* extension satisfying
``BEC(weak) ∧ Seq(strong)``.

Search space and pruning
------------------------
- ``ar`` ranges over all permutations of the events (every total order).
- ``vis`` is assembled per event from candidate predecessor sets; a set is a
  candidate only if replaying it in ``ar`` order reproduces the event's
  observed return value (the RVal constraint), which prunes most of the
  ``2^(n(n-1))`` raw space. Completed strong events additionally have their
  predecessor set forced by SinOrd (vis into them must equal ar).
- ``par`` is fixed to ``ar`` (no fluctuation): this is exactly what makes
  the search check *BEC* rather than FEC. For FEC witnesses we exhibit an
  execution directly (see :mod:`repro.framework.impossibility`).

EV is a liveness property and is not constrained here; omitting a predicate
only enlarges the set of acceptable extensions, so an exhaustive "no
extension found" verdict remains valid for the conjunction that includes EV.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, permutations, product
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.framework.abstract_execution import AbstractExecution
from repro.framework.history import STRONG, WEAK, History, HistoryEvent
from repro.framework.predicates import (
    check_ncc,
    check_rval,
    check_sessarb,
    check_sinord,
)
from repro.framework.relations import Relation

#: Refuse to search histories larger than this (space grows as n!·2^(n²)).
MAX_SEARCH_EVENTS = 6


@dataclass
class SearchOutcome:
    """Result of an exhaustive search."""

    satisfiable: bool
    witness: Optional[AbstractExecution]
    arbitrations_tried: int
    candidates_examined: int
    description: str = ""

    def __bool__(self) -> bool:
        return self.satisfiable


def _powerset(items: Sequence[Any]) -> Iterable[Tuple[Any, ...]]:
    return chain.from_iterable(
        combinations(items, size) for size in range(len(items) + 1)
    )


def _spec_value_for(
    history: History,
    event: HistoryEvent,
    predecessors: Sequence[Any],
    ar_position: dict,
) -> Any:
    """Replay ``predecessors`` in ar order and execute the event's op."""
    ordered = sorted(predecessors, key=lambda eid: ar_position[eid])
    ops = [
        history.event(eid).op
        for eid in ordered
        if not history.event(eid).readonly
    ]
    return history.datatype.spec_return(event.op, ops)


def find_bec_seq_execution(
    history: History,
    *,
    weak_level: str = WEAK,
    strong_level: str = STRONG,
) -> SearchOutcome:
    """Search for an extension satisfying BEC(weak) ∧ Seq(strong).

    Concretely: RVal(weak) ∧ RVal(strong) ∧ NCC ∧ SinOrd(strong) ∧
    SessArb(strong), with par = ar (no temporary reordering — the defining
    restriction of BEC). Returns a witness if one exists; otherwise the
    history provably admits none.
    """
    events = list(history.events)
    if len(events) > MAX_SEARCH_EVENTS:
        raise ValueError(
            f"history has {len(events)} events; exhaustive search is capped "
            f"at {MAX_SEARCH_EVENTS}"
        )
    eids = [event.eid for event in events]
    arbitrations = 0
    candidates_examined = 0

    for ordering in permutations(eids):
        arbitrations += 1
        ar = Relation.from_total_order(ordering)
        ar_position = {eid: index for index, eid in enumerate(ordering)}

        per_event_options: List[List[Tuple[Any, ...]]] = []
        feasible = True
        for event in events:
            others = [eid for eid in eids if eid != event.eid]
            if event.level == strong_level and not event.pending:
                # SinOrd forces visibility into completed strong events.
                forced = tuple(
                    eid for eid in others if ar.holds(eid, event.eid)
                )
                options = [forced]
            else:
                options = list(_powerset(others))
            valid_options = []
            for option in options:
                candidates_examined += 1
                if event.pending:
                    valid_options.append(option)
                    continue
                expected = _spec_value_for(history, event, option, ar_position)
                if expected == event.rval:
                    valid_options.append(option)
            if not valid_options:
                feasible = False
                break
            per_event_options.append(valid_options)
        if not feasible:
            continue

        for combo in product(*per_event_options):
            pairs = []
            for event, predecessors in zip(events, combo):
                for eid in predecessors:
                    pairs.append((eid, event.eid))
            vis = Relation(pairs, universe=eids)
            execution = AbstractExecution(history=history, vis=vis, ar=ar, par={})
            checks = [
                check_ncc(execution),
                check_rval(execution, weak_level),
                check_rval(execution, strong_level),
                check_sinord(execution, strong_level),
                check_sessarb(execution, strong_level),
            ]
            if all(checks):
                return SearchOutcome(
                    satisfiable=True,
                    witness=execution,
                    arbitrations_tried=arbitrations,
                    candidates_examined=candidates_examined,
                    description="found BEC(weak) ∧ Seq(strong) extension",
                )
    return SearchOutcome(
        satisfiable=False,
        witness=None,
        arbitrations_tried=arbitrations,
        candidates_examined=candidates_examined,
        description=(
            "no abstract execution satisfies BEC(weak) ∧ Seq(strong) "
            f"for this history ({arbitrations} arbitrations examined)"
        ),
    )


def find_guarantee_execution(
    history: History,
    checker,
    level: str,
) -> SearchOutcome:
    """Generic search: does any (vis, ar, par=ar) extension satisfy checker?

    ``checker(execution, level)`` must return a
    :class:`~repro.framework.guarantees.GuaranteeReport`-like object that is
    truthy when satisfied. Used by tests to cross-validate the specialised
    search above.
    """
    events = list(history.events)
    if len(events) > MAX_SEARCH_EVENTS:
        raise ValueError("history too large for exhaustive search")
    eids = [event.eid for event in events]
    arbitrations = 0
    candidates_examined = 0
    for ordering in permutations(eids):
        arbitrations += 1
        ar = Relation.from_total_order(ordering)
        all_subsets = [list(_powerset([e for e in eids if e != eid]))
                       for eid in eids]
        for combo in product(*all_subsets):
            candidates_examined += 1
            pairs = []
            for eid, predecessors in zip(eids, combo):
                for pred in predecessors:
                    pairs.append((pred, eid))
            vis = Relation(pairs, universe=eids)
            execution = AbstractExecution(history=history, vis=vis, ar=ar, par={})
            report = checker(execution, level)
            if report:
                return SearchOutcome(
                    True, execution, arbitrations, candidates_examined,
                    description="witness found",
                )
    return SearchOutcome(
        False, None, arbitrations, candidates_examined,
        description="no extension satisfies the guarantee",
    )
