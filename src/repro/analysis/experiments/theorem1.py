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

from repro.core.cluster import ORIGINAL
from repro.datatypes.rlist import RList
from repro.framework.search import find_bec_seq_execution
from repro.scenario import Scenario


def theorem1_scenario(*, protocol: str = ORIGINAL) -> Scenario:
    """The proof's adversarial schedule as a declarative scenario.

    Works for both protocols: the modified protocol's weak read on k also
    reflects the tentative order (a, b), so the same BEC violation appears
    — Theorem 1 binds the modified protocol too. The proof's four events
    are ``result.sub_history(["a", "b", "r", "c"])``.
    """
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


def main() -> None:
    result = theorem1_scenario().run()
    search = find_bec_seq_execution(result.sub_history(["a", "b", "r", "c"]))
    print(f"responses: {result.responses}")
    print(f"converged: {result.converged}")
    print(result.check("bec:weak").summary())
    print(result.check("fec:weak").summary())
    print(result.check("seq:strong").summary())
    print(
        "exhaustive search:",
        "NO BEC(weak) ∧ Seq(strong) extension exists"
        if not search.satisfiable
        else "unexpectedly satisfiable!",
        f"({search.arbitrations_tried} arbitrations examined)",
    )
