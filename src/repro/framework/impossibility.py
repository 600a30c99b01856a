"""Theorem 1, mechanised.

The proof of Theorem 1 constructs an execution with four operations:

- ``a``: a weak updating operation on replica *i* (``append("a")``),
- ``b``: a weak updating operation on replica *j* (``append("b")``),
  where a and b do not commute,
- ``r``: a weak read-only operation on replica *k*, after k RB-delivered
  both messages — by Lemma 2 it must observe both, so it returns ``"ab"``
  (fixing ``a --ar--> b``),
- ``c``: a strong operation on replica *j* (``append("c")``), invoked after
  b returned, while the message about a has still not reached j. The
  non-blocking property forces j to answer from what it has: ``"bc"``.

The contradiction: RVal(r) forces a→b, SessArb+SinOrd force b→c, and
SinOrd with a invisible to c forces c→a — a cycle in ``ar``.

This module provides three artefacts:

1. :func:`build_theorem1_history` — the four-event history above;
2. :func:`prove_impossibility` — exhaustive search (via
   :mod:`repro.framework.search`) showing *no* extension satisfies
   ``BEC(weak) ∧ Seq(strong)``;
3. :func:`build_fec_witness` — an explicit extension showing the very same
   history *does* satisfy ``FEC(weak) ∧ Seq(strong)``, i.e. temporary
   operation reordering is exactly what must be admitted.

The live-systems counterpart (driving a real Bayou cluster through this
schedule) lives in :mod:`repro.analysis.experiments.theorem1`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.datatypes.rlist import RList
from repro.framework.abstract_execution import AbstractExecution
from repro.framework.builder import build_abstract_execution
from repro.framework.guarantees import GuaranteeReport, check_fec, check_seq
from repro.framework.history import STRONG, WEAK, History, HistoryEvent
from repro.framework.search import SearchOutcome, find_bec_seq_execution

#: Session ids used in the constructed history.
REPLICA_I, REPLICA_J, REPLICA_K = 0, 1, 2


def build_theorem1_history() -> History:
    """The four-event history from the proof of Theorem 1.

    Timestamps order a before b before r before c (consistent with the
    real-time schedule of the proof); the perceived traces record what each
    replica's state reflected when the response was computed, enabling the
    FEC witness to be assembled by the standard builder.
    """
    datatype = RList()
    a = HistoryEvent(
        eid="a",
        session=REPLICA_I,
        op=RList.append("a"),
        level=WEAK,
        invoke_time=1.0,
        return_time=1.5,
        rval="a",
        timestamp=1.0,
        tob_cast=True,
        tob_no=2,  # final order: b, c, a
        perceived_trace=(),
    )
    b = HistoryEvent(
        eid="b",
        session=REPLICA_J,
        op=RList.append("b"),
        level=WEAK,
        invoke_time=2.0,
        return_time=2.5,
        rval="b",
        timestamp=2.0,
        tob_cast=True,
        tob_no=0,
        perceived_trace=(),
    )
    r = HistoryEvent(
        eid="r",
        session=REPLICA_K,
        op=RList.read(),
        level=WEAK,
        invoke_time=4.0,
        return_time=4.1,
        rval="ab",
        timestamp=4.0,
        readonly=True,
        tob_cast=True,  # in unmodified Bayou even reads are broadcast
        tob_no=3,
        perceived_trace=("a", "b"),
    )
    c = HistoryEvent(
        eid="c",
        session=REPLICA_J,
        op=RList.append("c"),
        level=STRONG,
        invoke_time=5.0,
        return_time=6.0,
        rval="bc",
        timestamp=5.0,
        tob_cast=True,
        tob_no=1,
        perceived_trace=("b",),
    )
    return History([a, b, r, c], datatype)


def prove_impossibility(history: Optional[History] = None) -> SearchOutcome:
    """Exhaustively verify that no extension satisfies BEC(weak) ∧ Seq(strong).

    Returns the (unsatisfiable) :class:`SearchOutcome`; ``outcome.satisfiable``
    is False, mechanically confirming Theorem 1 on the proof's history.
    """
    return find_bec_seq_execution(history or build_theorem1_history())


@dataclass
class FecWitness:
    """The satisfiable side: an extension meeting FEC(weak) ∧ Seq(strong)."""

    execution: AbstractExecution
    fec_weak: GuaranteeReport
    seq_strong: GuaranteeReport

    @property
    def ok(self) -> bool:
        return self.fec_weak.ok and self.seq_strong.ok


def build_fec_witness(history: Optional[History] = None) -> FecWitness:
    """Build (via the standard Theorem-2 builder) the FEC ∧ Seq extension.

    The builder derives ``ar`` from the TOB order (b, c, a), ``vis`` from
    the perceived traces and ``par`` from ``exec'(e)`` — exactly the
    construction of Appendix A.2.3. The read ``r`` perceives a before b
    while the final arbitration has b before a: temporary operation
    reordering, admitted by FEC and fatal to BEC.
    """
    history = history or build_theorem1_history()
    execution = build_abstract_execution(history)
    return FecWitness(
        execution=execution,
        fec_weak=check_fec(execution, WEAK),
        seq_strong=check_seq(execution, STRONG),
    )
