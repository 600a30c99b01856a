"""Experiment E1 — Figure 1: temporary operation reordering.

The schedule (two replicas, an initially empty replicated list):

1. R0 invokes weak ``append("a")``; it commits and replicates everywhere.
2. R0 invokes weak ``append("x")`` (timestamp 10); R1 invokes strong
   ``duplicate()`` slightly later in real time but with a *smaller*
   timestamp (R1's clock runs 0.5 behind), so the tentative order is
   ``duplicate, append(x)``.
3. R0's local execution is delayed (per-step processing cost 1.5) long
   enough that the RB message about ``duplicate()`` arrives first, so the
   speculative execution at R0 runs ``duplicate`` then ``append(x)`` and the
   weak ``append(x)`` returns the tentative response **aax**.
4. TOB (made slower than RB, as in the figure) establishes the final order
   ``append(a), append(x), duplicate``, so the strong ``duplicate()``
   returns **axax** — and the two clients have observed ``append(x)`` and
   ``duplicate()`` in opposite orders.

Paper-expected observables reproduced exactly:

- weak ``append(x)`` → ``aax`` (paper: ``append(x) → aax``),
- strong ``duplicate()`` → ``axax``,
- the strong-append variant returns ``ax`` (paper: ``(→ ax)``),
- both replicas converge to ``axax``,
- the framework detects the anomalies: ``BEC(weak)`` fails and (because the
  original protocol also creates circular causality here) NCC reports an
  hb-cycle between ``append(x)`` and ``duplicate()``.
"""

from __future__ import annotations

from repro.analysis.metrics import count_reordering_witnesses
from repro.core.cluster import MODIFIED, ORIGINAL
from repro.datatypes.rlist import RList
from repro.scenario import Scenario


def figure1_scenario(
    *, protocol: str = ORIGINAL, strong_append: bool = False
) -> Scenario:
    """The Figure 1 schedule as a declarative scenario."""
    return (
        Scenario(RList(), name="figure1")
        .replicas(2)
        .protocol(protocol)
        .exec_delay(1.5)
        .message_delay(1.0)
        .clock_drift(1, offset=-0.5)
        .tob("sequencer", sequencer=0)
        .tob_extra_delay(10.0)
        .invoke(1.0, 0, RList.append("a"), label="append_a")
        .invoke(10.0, 0, RList.append("x"), strong=strong_append, label="append_x")
        .invoke(10.2, 1, RList.duplicate(), strong=True, label="duplicate")
        .probes(RList.read)
        .checks(bec="weak", fec="weak", seq="strong")
    )


def main() -> None:
    for protocol in (ORIGINAL, MODIFIED):
        for strong_append in (False, True):
            result = figure1_scenario(
                protocol=protocol, strong_append=strong_append
            ).run()
            print(
                f"{protocol:8s} strong_append={strong_append!s:5s} "
                f"responses={result.responses} "
                f"final={result.query(RList.read())!r} "
                f"reorder={count_reordering_witnesses(result.history)} "
                f"BEC(weak) ok={result.ok('bec:weak')} "
                f"FEC(weak) ok={result.ok('fec:weak')}"
            )
