"""Experiment E8 — the performance envelope of weak vs strong operations.

The paper's qualitative performance claims, measured:

- weak operations respond without waiting for consensus, so their latency
  tracks local processing (modified protocol: ~0) while strong operations
  pay at least a TOB round (Section 2.1);
- under a partition strong operations stall for the partition's duration
  while weak operations keep answering (Section 2.3);
- the sequencer and Paxos TOB engines order the same workload, Paxos paying
  extra rounds but tolerating sequencer/leader failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.metrics import LatencyStats
from repro.core.cluster import MODIFIED, ORIGINAL
from repro.datatypes.counter import Counter
from repro.framework.history import STRONG, WEAK
from repro.scenario import Scenario


@dataclass
class LatencySplit:
    """Latency statistics split by consistency level."""

    protocol: str
    tob_engine: str
    message_delay: float
    weak: LatencyStats
    strong: LatencyStats


def run_latency_split(
    *,
    protocol: str = MODIFIED,
    tob_engine: str = "sequencer",
    message_delay: float = 1.0,
    ops_per_session: int = 10,
    n_replicas: int = 3,
    seed: int = 1,
) -> LatencySplit:
    """Random counter workload; measure weak vs strong response latency."""
    result = (
        Scenario(Counter(), name="latency-split")
        .replicas(n_replicas)
        .protocol(protocol)
        .exec_delay(0.02)
        .message_delay(message_delay)
        .tob(tob_engine)
        .seed(seed)
        .workload(
            "counter",
            ops_per_session=ops_per_session,
            seed=seed,
            strong_probability=0.4,
        )
        .run(well_formed=False, max_time=50_000.0)
    )
    return LatencySplit(
        protocol=protocol,
        tob_engine=tob_engine,
        message_delay=message_delay,
        weak=LatencyStats.from_samples(result.weak_latencies),
        strong=LatencyStats.from_samples(result.strong_latencies),
    )


@dataclass
class PartitionSweepPoint:
    """One partition duration's impact on strong-op latency."""

    duration: float
    weak_mean: float
    strong_mean: float
    strong_max: float


def run_partition_sweep(
    durations: Optional[List[float]] = None,
    *,
    n_replicas: int = 3,
) -> List[PartitionSweepPoint]:
    """Strong-op latency grows with the partition; weak stays flat.

    A partition isolates replica 2 from the sequencer for each duration;
    replica 2 issues one weak and one strong operation mid-partition.
    """
    durations = durations if durations is not None else [0.0, 20.0, 50.0, 100.0]
    points = []
    for duration in durations:
        scenario = (
            Scenario(Counter(), name="partition-sweep")
            .replicas(n_replicas)
            .protocol(MODIFIED)
            .exec_delay(0.02)
            .message_delay(1.0)
            .invoke(1.0, 0, Counter.increment(1))
            .invoke(10.0, 2, Counter.increment(1))                       # weak
            .invoke(11.0, 2, Counter.increment(1), strong=True)
        )
        if duration > 0:
            scenario.partition(5.0, [[0, 1], [2]]).heal(5.0 + duration)
        result = scenario.run(well_formed=False)
        weak = result.latencies(WEAK, session=2)
        strong = result.latencies(STRONG)
        points.append(
            PartitionSweepPoint(
                duration=duration,
                weak_mean=sum(weak) / len(weak) if weak else float("nan"),
                strong_mean=sum(strong) / len(strong) if strong else float("nan"),
                strong_max=max(strong) if strong else float("nan"),
            )
        )
    return points


@dataclass
class ThroughputPoint:
    """Completed operations and makespan for one configuration."""

    protocol: str
    ops_completed: int
    makespan: float
    rollbacks: int

    @property
    def throughput(self) -> float:
        return self.ops_completed / self.makespan if self.makespan else 0.0


def run_throughput(
    *,
    protocol: str = ORIGINAL,
    ops_per_session: int = 20,
    n_replicas: int = 3,
    seed: int = 3,
) -> ThroughputPoint:
    """Closed-loop throughput of a mixed workload."""
    live = (
        Scenario(Counter(), name="throughput")
        .replicas(n_replicas)
        .protocol(protocol)
        .exec_delay(0.02)
        .message_delay(0.5)
        .seed(seed)
        .workload(
            "counter",
            ops_per_session=ops_per_session,
            think_time=0.1,
            seed=seed,
            strong_probability=0.25,
        )
        .build()
    )
    live.run_until_quiescent()
    return ThroughputPoint(
        protocol=protocol,
        ops_completed=sum(
            session.completed
            for workload in live.workloads
            for session in workload.sessions
        ),
        makespan=live.now,
        rollbacks=sum(r.rollback_count for r in live.cluster.replicas),
    )


def main() -> None:
    for engine in ("sequencer", "paxos"):
        split = run_latency_split(tob_engine=engine)
        print(
            f"{engine:10s} weak mean={split.weak.mean:.2f} "
            f"strong mean={split.strong.mean:.2f}"
        )
    for point in run_partition_sweep():
        print(
            f"partition {point.duration:6.1f}: weak={point.weak_mean:.2f} "
            f"strong={point.strong_mean:.2f}"
        )
    for protocol in (ORIGINAL, MODIFIED):
        tp = run_throughput(protocol=protocol)
        print(
            f"{protocol:8s} throughput={tp.throughput:.2f} ops/t "
            f"rollbacks={tp.rollbacks}"
        )
