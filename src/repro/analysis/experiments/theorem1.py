"""Experiment E4 (live half) — driving a real cluster through the Theorem 1
schedule.

The proof of Theorem 1 constructs an adversarial execution; here we realise
it on the actual Bayou implementation:

- replica i (R0) invokes weak ``append("a")``; replica j (R1) invokes weak
  ``append("b")`` — two non-commuting weak updates;
- every message carrying knowledge of ``a`` into R1 is delayed past the
  interesting window (the link-level partition of the proof), while R2 (k)
  hears both;
- k invokes a weak read once passive: by Lemma 2 it must reflect both
  updates — it returns ``"ab"``;
- j invokes strong ``append("c")``; the sequencer (at k) orders it before
  the delayed ``a``, and j — non-blocking, knowing nothing of ``a`` —
  returns ``"bc"``.

The resulting four-event history is byte-for-byte the history of
:func:`repro.framework.impossibility.build_theorem1_history`; feeding it to
the exhaustive search shows *no* abstract execution satisfies
``BEC(weak) ∧ Seq(strong)``, while the run itself (checked end-to-end after
healing) satisfies ``FEC(weak) ∧ Seq(strong)`` — Bayou pays for the mix
with temporary operation reordering, exactly as the theorem mandates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.core.cluster import ORIGINAL
from repro.datatypes.rlist import RList
from repro.framework.guarantees import GuaranteeReport
from repro.framework.history import History
from repro.framework.search import SearchOutcome, find_bec_seq_execution
from repro.scenario import Scenario


@dataclass
class Theorem1LiveResult:
    """Observables of the live Theorem-1 schedule."""

    responses: Dict[str, Any]
    converged: bool
    bec_weak: GuaranteeReport = field(repr=False, default=None)
    fec_weak: GuaranteeReport = field(repr=False, default=None)
    seq_strong: GuaranteeReport = field(repr=False, default=None)
    search: SearchOutcome = field(repr=False, default=None)
    history: History = field(repr=False, default=None)
    core_history: History = field(repr=False, default=None)


def theorem1_scenario(*, protocol: str = ORIGINAL) -> Scenario:
    """The proof's adversarial schedule as a declarative scenario."""
    return (
        Scenario(RList(), name="theorem1")
        .replicas(3)
        .protocol(protocol)
        .exec_delay(0.5)
        .message_delay(1.0)
        # The sequencer lives with k (replica 2), reachable by all.
        .tob("sequencer", sequencer=2)
        # TOB is slower than RB everywhere (as in the figures), so the read
        # on k happens before anything commits and returns the tentative
        # order "ab".
        .tob_extra_delay(10.0)
        # a's dot will be (0, 1): delay all knowledge of it into replica 1.
        .quarantine_dot((0, 1), receiver=1, extra=300.0)
        # Delay only a's TOB messages at the sequencer (replica 2) so the
        # final order becomes b, r, c, a; a's RB still reaches k immediately.
        .delay_tob_for_dot((0, 1), receiver=2, extra=25.0)
        .invoke(1.0, 0, RList.append("a"), label="a")
        .invoke(2.0, 1, RList.append("b"), label="b")
        .invoke(3.6, 2, RList.read(), label="r")
        .invoke(8.0, 1, RList.append("c"), strong=True, label="c")
        .probes(RList.read)
        .checks(bec="weak", fec="weak", seq="strong")
    )


def run_theorem1_live(*, protocol: str = ORIGINAL) -> Theorem1LiveResult:
    """Drive the proof's schedule on a real 3-replica Bayou cluster.

    Works for both protocols: the modified protocol's weak read on k also
    reflects the tentative order (a, b), so the same BEC violation appears —
    Theorem 1 binds the modified protocol too, which is the whole point of
    FEC.
    """
    result = theorem1_scenario(protocol=protocol).run()
    # The four proof events, extracted for the exhaustive search.
    core_history = result.sub_history(["a", "b", "r", "c"])
    return Theorem1LiveResult(
        responses=result.responses,
        converged=result.converged,
        bec_weak=result.check("bec:weak"),
        fec_weak=result.check("fec:weak"),
        seq_strong=result.check("seq:strong"),
        search=find_bec_seq_execution(core_history),
        history=result.history,
        core_history=core_history,
    )


def main() -> None:
    result = run_theorem1_live()
    print(f"responses: {result.responses}")
    print(f"converged: {result.converged}")
    print(result.bec_weak.summary())
    print(result.fec_weak.summary())
    print(result.seq_strong.summary())
    print(
        "exhaustive search:",
        "NO BEC(weak) ∧ Seq(strong) extension exists"
        if not result.search.satisfiable
        else "unexpectedly satisfiable!",
        f"({result.search.arbitrations_tried} arbitrations examined)",
    )
