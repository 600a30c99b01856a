"""A sharded closed-loop run is pinned field by field.

The unsharded goldens (``tests/test_history_golden.py``) drive open-loop
invocations on one cluster. This run drives closed-loop
:class:`~repro.analysis.workload.RandomWorkload` sessions through a
:class:`~repro.shard.router.ShardRouter` over 2 shards × 3 replicas with
telemetry on, while replica 1 of shard 0 crash-recovers twice (sessions
bound to it pause and resume, and one operation in flight when the second
window opens is never answered, which wedges its session) and shard 1
splits live (queued routes are forwarded, moving keys deferred).

Four things are pinned: every future's dot, lifecycle times and route
shard; each session's ``completed`` and ``latencies``; every span's
``(trace_id, name, span_id, parent_id)`` (by count and digest); and the
labelled metrics snapshot.

Re-record (``python tests/test_sharded_golden.py``) only in a change that
*means* to alter behaviour.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Tuple

from repro.analysis.workload import RandomWorkload, bank_profile
from repro.core.config import BayouConfig
from repro.datatypes.bank import BankAccounts
from repro.net.faults import CrashSchedule
from repro.shard import ShardRouter, ShardedCluster


def _sharded_run() -> Tuple[ShardedCluster, ShardRouter, RandomWorkload]:
    config = BayouConfig(
        n_replicas=3,
        exec_delay=0.05,
        message_delay=0.5,
        durability="memory",
        enable_telemetry=True,
        seed=11,
    )
    crashes = CrashSchedule()
    crashes.add(1, 2.0, 6.0, mode="recover")
    crashes.add(1, 9.0, 12.0, mode="recover")
    deployment = ShardedCluster(BankAccounts(), config, n_shards=2)
    crashes.arm(deployment.sim, dict(enumerate(deployment.shards[0].nodes)))
    router = ShardRouter(deployment)
    workload = RandomWorkload(
        router, bank_profile(), ops_per_session=8, think_time=0.5, seed=5, sessions=6
    )
    workload.start()
    deployment.sim.schedule_at(8.0, lambda: deployment.split(1, transfer_delay=0.5))
    deployment.run_until_quiescent()
    return deployment, router, workload


def _futures(workload: RandomWorkload) -> List[Tuple[Any, ...]]:
    """``(type, dot, submit, invoke, response, stable, route shard)`` each."""
    rows = []
    for future in workload.futures:
        route = getattr(future, "_route", None)
        rows.append((
            type(future).__name__,
            future.dot,
            future.submit_time,
            future.invoke_time,
            future.response_time,
            future.stable_time,
            route[0] if route is not None else "unrouted",
        ))
    return rows


def _sessions(workload: RandomWorkload) -> List[Tuple[int, List[float]]]:
    return [(session.completed, list(session.latencies)) for session in workload.sessions]


def _spans(deployment: ShardedCluster) -> Tuple[int, str]:
    """Span count and the sha256 of every span's identity, in record order."""
    identities = [
        (event.trace_id, event.name, event.span_id, event.parent_id)
        for event in deployment.telemetry.tracer
    ]
    return len(identities), hashlib.sha256(repr(identities).encode()).hexdigest()


def _metrics(deployment: ShardedCluster) -> Dict[str, Dict[str, Any]]:
    snapshot = deployment.telemetry.registry.snapshot()
    return {kind: dict(sorted(snapshot[kind].items())) for kind in sorted(snapshot)}


# Recorded at the commit before the closed-loop session discipline moved
# into one base class; re-recorded when RB relays stopped going back to
# their sender (fewer same-instant messages per link, so fewer FIFO
# epsilons in the times and the span digest).
FUTURES = [
    ('OpFuture', (0, 1), 0.0, 0.0, 0.05, 1.0, 0),
    ('OpFuture', (0, 3), 0.0, 0.55, 0.8000000000000003, 1.55, 0),
    ('OpFuture', (0, 1), 0.0, 1.3000000000000003, 1.3500000000000003, 2.3000000000000003, 1),
    ('OpFuture', (0, 5), 0.0, 1.8500000000000003, 1.9000000000000004, 2.8500000000000005, 0),
    ('OpFuture', (0, 6), 0.0, 2.4000000000000004, 3.4000000000000004, 3.4000000000000004, 0),
    ('OpFuture', (0, 9), 0.0, 3.9000000000000004, 3.95, 4.9, 0),
    ('CrossShardFuture', None, 0.0, 4.45, 5.45, 6.45, None),
    ('OpFuture', (0, 5), 0.0, 5.95, 6.0, 6.95, 1),
    ('CrossShardFuture', None, 0.0, 0.0, 1.0000000020000002, 1.0000000020000002, None),
    ('OpFuture', (1, 3), 0.0, 1.5000000020000002, 1.6000000010000002, 2.5000000040000003, 0),
    ('OpFuture', (1, 5), 0.0, 6.0, 6.749999999999997, 7.000000007000001, 0),
    ('OpFuture', (1, 6), 0.0, 7.249999999999997, 8.250000000999997, 8.250000000999997, 0),
    ('OpFuture', (1, 8), 0.0, 8.750000000999997, 8.800000000999999, 9.750000001999997, 0),
    ('OpFuture', (1, 1), 0.0, 10.5, 10.55, 11.500000001, 2),
    ('OpFuture', (1, 9), 0.0, 12.0, 13.550000000000022, 13.550000000000022, 0),
    ('OpFuture', (1, 10), 0.0, 14.050000000000022, 15.050000001000022, 15.050000001000022, 0),
    ('OpFuture', (2, 1), 0.0, 0.0, 0.05, 1.0000000020000002, 0),
    ('OpFuture', (2, 3), 0.0, 0.55, 0.9000000000000004, 1.5500000010000001, 0),
    ('OpFuture', (2, 1), 0.0, 1.4000000000000004, 2.4000000010000004, 2.4000000010000004, 1),
    ('OpFuture', (2, 5), 0.0, 2.9000000010000004, 3.0999999999999996, 3.9000000020000005, 0),
    ('CrossShardFuture', None, 0.0, 3.5999999999999996, 4.600000001, 5.600000002, None),
    ('OpFuture', (2, 8), 0.0, 5.100000001, 6.100000002, 6.100000002, 0),
    ('OpFuture', (2, 9), 0.0, 6.600000002, 6.650000002, 7.600000003, 0),
    ('OpFuture', (2, 10), 0.0, 7.150000002, 7.2000000019999995, 8.150000002999999, 0),
    ('OpFuture', (0, 2), 0.0, 0.0, 0.1, 1.0000000030000002, 0),
    ('OpFuture', (0, 4), 0.0, 0.6, 1.6, 1.6, 0),
    ('OpFuture', (0, 2), 0.0, 2.1, 2.15, 3.1, 1),
    ('OpFuture', (0, 7), 0.0, 2.65, 2.6999999999999997, 3.65, 0),
    ('OpFuture', (0, 8), 0.0, 3.1999999999999997, 4.199999999999999, 4.199999999999999, 0),
    ('OpFuture', (0, 10), 0.0, 4.699999999999999, 4.749999999999999, 5.699999999999999, 0),
    ('OpFuture', (0, 11), 0.0, 5.249999999999999, 5.300000000999999, 6.249999999999999, 0),
    ('OpFuture', (0, 4), 0.0, 5.800000000999999, 5.850000000999999, 6.800000000999999, 1),
    ('CrossShardFuture', None, 0.0, 0.0, 1.000000001, 1.000000001, None),
    ('OpFuture', (1, 2), 0.0, 1.500000001, 1.5500000010000001, 2.500000002, 0),
    ('OpFuture', (1, 4), 0.0, 6.0, 6.6999999999999975, 7.000000005, 0),
    ('OpFuture', (1, 2), 0.0, 7.1999999999999975, 8.200000000999998, 8.200000000999998, 1),
    ('OpFuture', (1, 7), 0.0, 8.700000000999998, None, None, 0),
    ('CrossShardFuture', None, 0.0, None, None, None, None),
    ('CrossShardFuture', None, 0.0, None, None, None, None),
    ('OpFuture', None, 0.0, None, None, None, 1),
    ('OpFuture', (2, 2), 0.0, 0.0, 1.0000000050000004, 1.0000000050000004, 0),
    ('OpFuture', (2, 2), 0.0, 1.5000000050000004, 1.5500000050000005, 2.5000000060000005, 1),
    ('OpFuture', (2, 3), 0.0, 2.0500000050000002, 2.100000005, 3.0500000060000003, 1),
    ('OpFuture', (2, 4), 0.0, 2.600000005, 2.650000005, 3.600000006, 0),
    ('OpFuture', (2, 4), 0.0, 3.150000005, 3.2000000049999997, 4.150000006, 1),
    ('OpFuture', (2, 6), 0.0, 3.7000000049999997, 3.7999999999999994, 4.700000006, 0),
    ('OpFuture', (2, 6), 0.0, 4.299999999999999, 4.349999999999999, 5.300000000999999, 1),
    ('OpFuture', (2, 7), 0.0, 4.849999999999999, 5.850000000999999, 5.850000000999999, 1),
]
SESSIONS = [
    (8, [0.05, 0.2500000000000002, 0.050000000000000044, 0.050000000000000044, 1.0, 0.04999999999999982, 1.0, 0.04999999999999982]),
    (8, [1.0000000020000002, 0.099999999, 0.7499999999999973, 1.0000000009999992, 0.05000000000000249, 0.05000000000000071, 1.550000000000022, 1.000000001]),
    (8, [0.05, 0.3500000000000003, 1.000000001, 0.1999999989999992, 1.000000001, 1.000000001, 0.04999999999999982, 0.04999999999999982]),
    (8, [0.1, 1.0, 0.04999999999999982, 0.04999999999999982, 0.9999999999999996, 0.04999999999999982, 0.050000000999999905, 0.04999999999999982]),
    (4, [1.000000001, 0.050000000000000044, 0.6999999999999975, 1.000000001]),
    (8, [1.0000000050000004, 0.050000000000000044, 0.04999999999999982, 0.04999999999999982, 0.04999999999999982, 0.09999999499999968, 0.04999999999999982, 1.000000001]),
]
SPANS = (460, 'b58d54221e0f780aab6c18765416521e6d6f85edc71e14fb51817ef76c060f55')
METRICS = {
    'counters': {
        'repro_commits_delivered{replica="0",shard="S0"}': 32.0,
        'repro_commits_delivered{replica="0",shard="S1"}': 15.0,
        'repro_commits_delivered{replica="0",shard="S2"}': 2.0,
        'repro_commits_delivered{replica="1",shard="S0"}': 32.0,
        'repro_commits_delivered{replica="1",shard="S1"}': 15.0,
        'repro_commits_delivered{replica="1",shard="S2"}': 2.0,
        'repro_commits_delivered{replica="2",shard="S0"}': 32.0,
        'repro_commits_delivered{replica="2",shard="S1"}': 15.0,
        'repro_commits_delivered{replica="2",shard="S2"}': 2.0,
        'repro_executions{replica="0",shard="S0"}': 41.0,
        'repro_executions{replica="0",shard="S1"}': 17.0,
        'repro_executions{replica="0",shard="S2"}': 2.0,
        'repro_executions{replica="1",shard="S0"}': 78.0,
        'repro_executions{replica="1",shard="S1"}': 15.0,
        'repro_executions{replica="1",shard="S2"}': 2.0,
        'repro_executions{replica="2",shard="S0"}': 38.0,
        'repro_executions{replica="2",shard="S1"}': 18.0,
        'repro_executions{replica="2",shard="S2"}': 2.0,
        'repro_migrations{outcome="completed"}': 1.0,
        'repro_migrations{outcome="started"}': 1.0,
        'repro_ops_routed{shard="S0"}': 32.0,
        'repro_ops_routed{shard="S1"}': 14.0,
        'repro_ops_routed{shard="S2"}': 1.0,
        'repro_ops_submitted{shard="S0"}': 32.0,
        'repro_ops_submitted{shard="S1"}': 14.0,
        'repro_ops_submitted{shard="S2"}': 1.0,
        'repro_rollbacks{replica="0",shard="S0"}': 9.0,
        'repro_rollbacks{replica="0",shard="S1"}': 2.0,
        'repro_rollbacks{replica="0",shard="S2"}': 0.0,
        'repro_rollbacks{replica="1",shard="S0"}': 6.0,
        'repro_rollbacks{replica="1",shard="S1"}': 0.0,
        'repro_rollbacks{replica="1",shard="S2"}': 0.0,
        'repro_rollbacks{replica="2",shard="S0"}': 6.0,
        'repro_rollbacks{replica="2",shard="S1"}': 3.0,
        'repro_rollbacks{replica="2",shard="S2"}': 0.0,
        'repro_routes_deferred': 1.0,
        'repro_routes_forwarded': 1.0,
        'repro_tob_casts{engine="sequencer",shard="S0"}': 36.0,
        'repro_tob_casts{engine="sequencer",shard="S1"}': 15.0,
        'repro_tob_casts{engine="sequencer",shard="S2"}': 2.0,
        'repro_tob_delivers{engine="sequencer",shard="S0"}': 96.0,
        'repro_tob_delivers{engine="sequencer",shard="S1"}': 45.0,
        'repro_tob_delivers{engine="sequencer",shard="S2"}': 6.0,
        'repro_xshard_plans{outcome="aborted"}': 2.0,
        'repro_xshard_plans{outcome="committed"}': 2.0,
        'repro_xshard_plans{outcome="staged"}': 4.0,
    },
    'gauges': {
    },
    'histograms': {
        'repro_op_commit_latency{shard="S0"}': {'count': 31, 'sum': 31.550000038000025, 'min': 0.9999999999999996, 'max': 1.550000000000022, 'mean': 1.0177419367096783, 'p50': 1.000000001, 'p95': 1.0000000069000006, 'p99': 1.550000000000022},
        'repro_op_commit_latency{shard="S1"}': {'count': 14, 'sum': 14.000000009, 'min': 1.0, 'max': 1.000000001, 'mean': 1.000000000642857, 'p50': 1.000000001, 'p95': 1.000000001, 'p99': 1.000000001},
        'repro_op_commit_latency{shard="S2"}': {'count': 1, 'sum': 1.000000001, 'min': 1.000000001, 'max': 1.000000001, 'mean': 1.000000001, 'p50': 1.000000001, 'p95': 1.000000001, 'p99': 1.000000001},
        'repro_weak_staleness{shard="S0"}': {'count': 20, 'sum': 16.850000033, 'min': 0.25000000700000324, 'max': 0.9500000020000001, 'mean': 0.84250000165, 'p50': 0.9500000000000001, 'p95': 0.9500000015000002, 'p99': 0.9500000020000001},
        'repro_weak_staleness{shard="S1"}': {'count': 8, 'sum': 7.600000004000001, 'min': 0.95, 'max': 0.9500000010000003, 'mean': 0.9500000005000001, 'p50': 0.9500000005000001, 'p95': 0.9500000010000003, 'p99': 0.9500000010000003},
        'repro_weak_staleness{shard="S2"}': {'count': 1, 'sum': 0.9500000009999994, 'min': 0.9500000009999994, 'max': 0.9500000009999994, 'mean': 0.9500000009999994, 'p50': 0.9500000009999994, 'p95': 0.9500000009999994, 'p99': 0.9500000009999994},
    },
}


def test_sharded_closed_loop_run_matches_recorded_values():
    deployment, router, workload = _sharded_run()
    rows = _futures(workload)
    assert len(rows) == len(FUTURES)
    for index, (row, expected) in enumerate(zip(rows, FUTURES)):
        assert row == expected, f"future {index}"
    assert _sessions(workload) == SESSIONS
    assert _spans(deployment) == SPANS
    assert _metrics(deployment) == METRICS


def test_sharded_golden_run_covers_what_the_refactor_could_move():
    """The run crosses both crash windows with paused sessions, loses one
    operation in flight to a crash, stages cross-shard plans and forwards
    and defers routes across the split."""
    deployment, router, workload = _sharded_run()
    assert deployment.n_shards == 3
    assert router.forwarded_count >= 1 and router.deferred_count >= 1
    kinds = {row[0] for row in FUTURES}
    assert kinds == {"OpFuture", "CrossShardFuture"}
    # Invoked on shard 0 just before the second window, never answered.
    lost = [row for row in FUTURES if row[3] is not None and row[4] is None]
    assert [(row[-1], row[3] < 9.0) for row in lost] == [(0, True)]
    invokes = [row[3] for row in FUTURES if row[-1] == 0 and row[3] is not None]
    assert invokes.count(6.0) == 2  # both paused sessions resumed at recovery
    assert 12.0 in invokes  # ...and one again at the second recovery
    answered = sum(row[4] is not None for row in FUTURES)
    assert sum(completed for completed, _ in SESSIONS) == answered


if __name__ == "__main__":  # pragma: no cover - re-recording entry point
    recorded_deployment, _router, recorded_workload = _sharded_run()
    print("FUTURES = [")
    for recorded_row in _futures(recorded_workload):
        print(f"    {recorded_row!r},")
    print("]")
    print("SESSIONS = [")
    for recorded_session in _sessions(recorded_workload):
        print(f"    {recorded_session!r},")
    print("]")
    print(f"SPANS = {_spans(recorded_deployment)!r}")
    print("METRICS = {")
    for kind, values in _metrics(recorded_deployment).items():
        print(f"    {kind!r}: {{")
        for name, value in values.items():
            print(f"        {name!r}: {value!r},")
        print("    },")
    print("}")
