"""Experiment E3 — Section 2.3: Bayou is not bounded wait-free.

Two scenarios, both with n replicas saturated by one weak request per
replica every Δt:

**Slow replica.** Replica ``Rs`` processes internal steps much slower than
the others. Under the original protocol every new operation invoked on Rs
is scheduled behind the (growing) backlog, so its response time grows with
every invocation — the paper's unbounded-wait argument. Under the modified
protocol weak responses are immediate (bounded wait-free, Appendix A.1.2).

**Slowed clock.** The counter-measure the paper discusses — artificially
slowing Rs's clock to give its operations "unfair priority" — makes every
operation issued on Rs appear to come from a distant past, so on the other
replicas it is inserted ever deeper into the tentative list and triggers a
growing number of rollbacks. We measure cumulative rollbacks on the fast
replicas with and without the slowdown (TOB is stalled during the window so
the tentative list is the live order, as in a long partition).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.cluster import MODIFIED, ORIGINAL
from repro.datatypes.counter import Counter
from repro.scenario import Scenario


@dataclass
class SlowReplicaResult:
    """Latency trajectory of the slow replica's own weak operations."""

    protocol: str
    rounds: int
    delta_t: float
    latencies: List[float]
    backlog_curve: List[int] = field(default_factory=list)

    @property
    def growth(self) -> float:
        """Last-quarter mean latency minus first-quarter mean latency."""
        if len(self.latencies) < 4:
            return 0.0
        quarter = max(1, len(self.latencies) // 4)
        head = self.latencies[:quarter]
        tail = self.latencies[-quarter:]
        return sum(tail) / len(tail) - sum(head) / len(head)


def run_slow_replica(
    *,
    protocol: str = ORIGINAL,
    n_replicas: int = 3,
    rounds: int = 30,
    delta_t: float = 1.0,
    slow_pid: int = 2,
    slow_exec_delay: float = 0.6,
    fast_exec_delay: float = 0.02,
) -> SlowReplicaResult:
    """Saturate the cluster and track the slow replica's response times.

    ``slow_exec_delay`` is chosen so that Rs needs ``n_replicas *
    slow_exec_delay > delta_t`` time units of processing per round — the
    saturation condition of the paper's argument.
    """
    slow_futures = []
    backlog_curve: List[int] = []

    def one_round(run) -> None:
        for pid in range(n_replicas):
            future = run.submit(pid, Counter.increment(1))
            if pid == slow_pid:
                slow_futures.append(future)
        backlog_curve.append(run.cluster.replicas[slow_pid].backlog)

    scenario = (
        Scenario(Counter(), name="slow-replica")
        .replicas(n_replicas)
        .protocol(protocol)
        .exec_delay(fast_exec_delay, overrides={slow_pid: slow_exec_delay})
        .message_delay(0.1)
    )
    for round_index in range(rounds):
        scenario.at(1.0 + round_index * delta_t, one_round)
    live = scenario.build()
    live.run_until_quiescent()

    latencies = [
        future.latency for future in slow_futures if future.latency is not None
    ]
    return SlowReplicaResult(
        protocol=protocol,
        rounds=rounds,
        delta_t=delta_t,
        latencies=latencies,
        backlog_curve=backlog_curve,
    )


@dataclass
class ClockSlowdownResult:
    """Rollback counts on the fast replicas, with/without the slowed clock."""

    slow_rate: float
    rounds: int
    rollbacks_fast_replicas: int
    rollbacks_per_round: List[int]

    @property
    def late_vs_early_ratio(self) -> float:
        """How much rollback activity grew from the first to the last third."""
        if len(self.rollbacks_per_round) < 3:
            return 1.0
        third = max(1, len(self.rollbacks_per_round) // 3)
        early = sum(self.rollbacks_per_round[:third]) or 1
        late = sum(self.rollbacks_per_round[-third:])
        return late / early


def run_clock_slowdown(
    *,
    slow_rate: float = 0.4,
    n_replicas: int = 3,
    rounds: int = 25,
    delta_t: float = 1.0,
    slow_pid: int = 2,
) -> ClockSlowdownResult:
    """Measure the rollback storm caused by a deliberately slowed clock.

    TOB is delayed past the measurement window, so the tentative list is
    where ordering happens (the regime the paper's argument addresses).
    """
    fast_pids = [pid for pid in range(n_replicas) if pid != slow_pid]
    rollbacks_per_round: List[int] = []
    previous_total = [0]

    def one_round(run) -> None:
        for pid in range(n_replicas):
            run.submit(pid, Counter.increment(1))
        total = sum(
            run.cluster.replicas[pid].rollback_count for pid in fast_pids
        )
        rollbacks_per_round.append(total - previous_total[0])
        previous_total[0] = total

    scenario = (
        Scenario(Counter(), name="clock-slowdown")
        .replicas(n_replicas)
        .exec_delay(0.01)
        .message_delay(0.1)
        .clock_drift(slow_pid, rate=slow_rate)
        .tob_extra_delay(10_000.0)
    )
    for round_index in range(rounds):
        scenario.at(1.0 + round_index * delta_t, one_round)
    live = scenario.build()
    # Stop before the delayed TOB messages arrive: an asynchronous-run
    # window, exactly like a long-lasting partition.
    live.run(until=1.0 + rounds * delta_t + 50.0)

    return ClockSlowdownResult(
        slow_rate=slow_rate,
        rounds=rounds,
        rollbacks_fast_replicas=sum(
            live.cluster.replicas[pid].rollback_count for pid in fast_pids
        ),
        rollbacks_per_round=rollbacks_per_round,
    )


def main() -> None:
    for protocol in (ORIGINAL, MODIFIED):
        result = run_slow_replica(protocol=protocol)
        print(
            f"{protocol:8s} latencies head={result.latencies[:3]} "
            f"tail={result.latencies[-3:]} growth={result.growth:.2f}"
        )
    for rate in (1.0, 0.4):
        slowdown = run_clock_slowdown(slow_rate=rate)
        print(
            f"clock rate {rate}: fast-replica rollbacks="
            f"{slowdown.rollbacks_fast_replicas} "
            f"late/early={slowdown.late_vs_early_ratio:.2f}"
        )
