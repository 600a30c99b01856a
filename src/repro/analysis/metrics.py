"""Metrics extracted from runs and histories.

Two quantifications of *temporary operation reordering*:

- :func:`count_reordering_witnesses` — pairs of operations that two
  different observers perceived in opposite relative orders (the clients of
  Figure 1 "observe append(x) and duplicate() in a different order");
- :func:`count_trace_final_discords` — pairs inside a single perceived
  trace whose order contradicts the final TOB order (the observer saw a
  state the final serialisation never passes through).

Plus the shared throughput/latency/staleness folds that
:class:`~repro.scenario.RunResult` and every sharded experiment (E12–E15)
reduce their futures with: :func:`rate`, :func:`committed_op_rate`,
:func:`commit_latency_samples` and :func:`weak_staleness_samples`. One
definition, one set of edge-case conventions (empty window → the
caller's default; half-open ``start <= t < end`` windows). And
:func:`replica_fingerprint`, what the recovery and sharding experiments
(E11, E12) compare to call two replicas bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.framework.history import History


@dataclass
class LatencyStats:
    """Summary statistics over a set of response latencies."""

    count: int
    mean: float
    p50: float
    p95: float
    maximum: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        if not samples:
            return cls(count=0, mean=0.0, p50=0.0, p95=0.0, maximum=0.0)
        ordered = sorted(samples)

        def percentile(fraction: float) -> float:
            index = min(len(ordered) - 1, int(fraction * len(ordered)))
            return ordered[index]

        return cls(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            p50=percentile(0.50),
            p95=percentile(0.95),
            maximum=ordered[-1],
        )

    def __repr__(self) -> str:
        return (
            f"LatencyStats(n={self.count}, mean={self.mean:.3f}, "
            f"p50={self.p50:.3f}, p95={self.p95:.3f}, max={self.maximum:.3f})"
        )


# ----------------------------------------------------------------------
# Shared throughput / staleness folds (E12–E15)
# ----------------------------------------------------------------------
def rate(count: float, span: float, *, default: float = 0.0) -> float:
    """``count`` per unit ``span``; ``default`` when the span is empty.

    Wall-clock callers (E15) pass ``default=float("inf")`` — a burst
    measured over zero elapsed time is *fast*, not absent.
    """
    return count / span if span > 0 else default


def committed_op_rate(
    futures: Iterable,
    *,
    start: Optional[float] = None,
    end: Optional[float] = None,
    default: float = 0.0,
) -> float:
    """Committed (stable) operations per time unit.

    Without a window: every stable future counts, over the span from the
    first invoke to the last stabilisation. With ``start``/``end``: only
    futures that stabilised inside the half-open window
    ``start <= stable_time < end``, over ``end - start``.
    """
    if start is not None and end is not None:
        stable = [
            f for f in futures
            if f.stable_time is not None and start <= f.stable_time < end
        ]
        return rate(len(stable), end - start, default=default)
    futures = list(futures)
    stable = [f.stable_time for f in futures if f.stable_time is not None]
    invoked = [f.invoke_time for f in futures if f.invoke_time is not None]
    if not stable or not invoked:
        return default
    return rate(len(stable), max(stable) - min(invoked), default=default)


def commit_latency_samples(futures: Iterable) -> List[float]:
    """``stable − invoke`` of every op that stabilised."""
    return [f.commit_latency for f in futures if f.commit_latency is not None]


def weak_staleness_samples(futures: Iterable) -> List[float]:
    """``stable − response`` of every weak op holding both timestamps.

    The freshness price of tentative responses: how long a client
    acting on a weak response waited before that response became final.
    """
    return [
        f.staleness for f in futures if not f.strong and f.staleness is not None
    ]


def replica_fingerprint(replica) -> Tuple[Any, ...]:
    """The bit-identity fingerprint of one replica's converged state:
    snapshot, committed order and executed sequence."""
    return (
        tuple(sorted(replica.state.snapshot().items(), key=repr)),
        tuple(req.dot for req in replica.committed),
        tuple(req.dot for req in replica.executed),
    )


def _pair_orders(trace: Sequence) -> Dict[Tuple, bool]:
    """Map each unordered pair in ``trace`` to whether (a, b) appear a-first.

    Keys are normalised (min, max) by repr; the value records whether the
    smaller-keyed element came first.
    """
    orders: Dict[Tuple, bool] = {}
    for i, a in enumerate(trace):
        for b in trace[i + 1:]:
            key = (a, b) if repr(a) <= repr(b) else (b, a)
            orders[key] = key == (a, b)
    return orders


def _extended_trace(event) -> List:
    """``exec'(e)`` — the perceived trace with the observer appended.

    Including the observer is essential: in Figure 1 the weak ``append(x)``
    perceives ``duplicate`` *before itself* while ``duplicate`` perceives
    ``append(x)`` before itself; neither bare trace contains both events.
    """
    trace = list(event.perceived_trace or ())
    if event.eid not in trace:
        trace.append(event.eid)
    return trace


def count_reordering_witnesses(history: History) -> int:
    """Pairs perceived in opposite orders by two different events."""
    seen: Dict[Tuple, bool] = {}
    discordant = set()
    for event in history.events:
        if event.perceived_trace is None:
            continue
        for key, a_first in _pair_orders(_extended_trace(event)).items():
            if key in seen and seen[key] != a_first:
                discordant.add(key)
            else:
                seen.setdefault(key, a_first)
    return len(discordant)


def count_trace_final_discords(history: History) -> int:
    """(observer, pair) occurrences where a trace contradicts the TOB order."""
    final_rank = {
        event.eid: event.tob_no
        for event in history.events
        if event.tob_no is not None
    }
    discords = 0
    for event in history.events:
        if event.perceived_trace is None:
            continue
        trace = _extended_trace(event)
        for i, a in enumerate(trace):
            for b in trace[i + 1:]:
                rank_a, rank_b = final_rank.get(a), final_rank.get(b)
                if rank_a is not None and rank_b is not None and rank_a > rank_b:
                    discords += 1
    return discords


def stable_vs_tentative_mismatches(history: History) -> int:
    """Events whose tentative return value differs from the final-order value.

    For every completed non-read-only event, recompute the value the
    operation *would* return in the final arbitration order (its committed
    prefix) and compare with the actually returned (possibly tentative)
    value. This is the client-facing impact of temporary reordering.
    """
    ordered = sorted(
        (event for event in history.events if event.tob_no is not None),
        key=lambda event: event.tob_no,
    )
    mismatches = 0
    for index, event in enumerate(ordered):
        if event.pending:
            continue
        preceding = [prior.op for prior in ordered[:index] if not prior.readonly]
        final_value = history.datatype.spec_return(event.op, preceding)
        if final_value != event.rval:
            mismatches += 1
    return mismatches
