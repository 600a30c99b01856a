"""Edge-case coverage across the stack: odd configs, boundary behaviours."""

import pytest

from repro.core.cluster import BayouCluster, MODIFIED, ORIGINAL
from repro.core.config import BayouConfig
from repro.datatypes.counter import Counter
from repro.datatypes.rlist import RList
from repro.framework.history import PENDING
from repro.net.network import FixedLatency, UniformLatency
from repro.net.partition import PartitionSchedule
from repro.shard import ShardedCluster
from repro.sim.rng import SeededRngRegistry


def test_single_replica_cluster_works():
    config = BayouConfig(n_replicas=1, exec_delay=0.05, message_delay=1.0)
    cluster = BayouCluster(Counter(), config)
    cluster.invoke(0, Counter.increment(7))
    cluster.invoke(0, Counter.read(), strong=True)
    cluster.run_until_quiescent()
    history = cluster.build_history(well_formed=False)
    assert [event.rval for event in history.events] == [7, 7]
    assert cluster.converged()


def test_zero_exec_delay_is_legal():
    config = BayouConfig(n_replicas=2, exec_delay=0.0, message_delay=1.0)
    cluster = BayouCluster(Counter(), config)
    cluster.schedule_invoke(1.0, 0, Counter.increment(1))
    cluster.run_until_quiescent()
    assert cluster.converged()


def test_invalid_latency_models():
    with pytest.raises(ValueError):
        FixedLatency(-1.0)
    with pytest.raises(ValueError):
        UniformLatency(2.0, 1.0, SeededRngRegistry(0))
    with pytest.raises(ValueError):
        UniformLatency(-1.0, 1.0, SeededRngRegistry(0))


def test_uniform_latency_within_bounds():
    model = UniformLatency(1.0, 3.0, SeededRngRegistry(1))
    samples = [model.sample(0, 1) for _ in range(200)]
    assert all(1.0 <= sample <= 3.0 for sample in samples)
    assert max(samples) - min(samples) > 0.5  # actually random


def test_invalid_dissemination_rejected():
    with pytest.raises(ValueError):
        BayouConfig(dissemination="carrier-pigeon").validate()


def test_weak_op_invoked_during_pending_rollbacks_modified():
    """Algorithm 2's immediate execution is safe mid-reconciliation."""
    config = BayouConfig(
        n_replicas=2,
        exec_delay=1.0,  # slow engine: rollbacks linger
        message_delay=0.5,
        clock_offsets={1: -100.0},
    )
    cluster = BayouCluster(RList(), config, protocol=MODIFIED)
    cluster.schedule_invoke(5.0, 0, RList.append("x"))
    cluster.schedule_invoke(5.4, 1, RList.append("y"))
    # Invoke while replica 0 is mid rollback/re-execution churn.
    responses = []
    cluster.sim.schedule_at(
        7.3,
        lambda: responses.append(cluster.invoke(0, RList.append("z"))),
    )
    cluster.run_until_quiescent()
    assert cluster.converged()
    history = cluster.build_history(well_formed=False)
    z_event = history.event(responses[0].dot)
    assert z_event.rval is not PENDING


def test_empty_history_builds_and_checks():
    from repro.framework.builder import build_abstract_execution
    from repro.framework.guarantees import check_bec, check_fec

    config = BayouConfig(n_replicas=2)
    cluster = BayouCluster(Counter(), config)
    cluster.run_until_quiescent()
    history = cluster.build_history()
    execution = build_abstract_execution(history)
    assert check_bec(execution, "weak").ok
    assert check_fec(execution, "weak").ok


def test_history_snapshot_mid_run_is_consistent():
    config = BayouConfig(n_replicas=3, exec_delay=0.05, message_delay=1.0)
    cluster = BayouCluster(Counter(), config)
    for index in range(5):
        cluster.schedule_invoke(1.0 + index, index % 3, Counter.increment(1))
    cluster.run(until=3.5)
    partial = cluster.build_history(well_formed=False)
    assert 0 < len(partial) <= 5
    cluster.run_until_quiescent()
    full = cluster.build_history(well_formed=False)
    assert len(full) == 5
    # The partial snapshot's responded events agree with the final record.
    for event in partial.events:
        if event.rval is not PENDING:
            assert full.event(event.eid).rval == event.rval


def test_duplicate_weak_and_strong_mix_on_one_replica():
    config = BayouConfig(n_replicas=2, exec_delay=0.05, message_delay=1.0)
    cluster = BayouCluster(RList(), config, protocol=MODIFIED)
    session_values = []

    def sequence():
        session_values.append(cluster.invoke(0, RList.append("1")))

    cluster.sim.schedule_at(1.0, sequence)
    cluster.sim.schedule_at(
        8.0, lambda: session_values.append(
            cluster.invoke(0, RList.read(), strong=True)
        )
    )
    cluster.run_until_quiescent()
    history = cluster.build_history(well_formed=False)
    strong_read = history.event(session_values[1].dot)
    assert strong_read.rval == "1"
    assert strong_read.stable


def test_rlist_render_handles_non_string_elements():
    from repro.datatypes.base import PlainDb

    rlist = RList()
    db = PlainDb()
    rlist.execute(RList.append(1), db)
    rlist.execute(RList.append(2), db)
    assert rlist.execute(RList.read(), db) == "12"
    assert rlist.execute(RList.get_first(), db) == 1


def _never_healed(n_replicas):
    """Replica ``n - 1`` is cut off from t=0.5 on and nobody heals it."""
    partitions = PartitionSchedule(n_replicas)
    partitions.split(0.5, [list(range(n_replicas - 1)), [n_replicas - 1]])
    return partitions


def _asynchronous_cluster():
    config = BayouConfig(n_replicas=3, exec_delay=0.05, message_delay=1.0)
    cluster = BayouCluster(Counter(), config, partitions=_never_healed(3))
    cluster.schedule_invoke(1.0, 2, Counter.increment(1))
    return cluster, cluster.network


def _asynchronous_sharded_cluster():
    config = BayouConfig(n_replicas=3, exec_delay=0.05, message_delay=1.0)
    deployment = ShardedCluster(
        Counter(), config, n_shards=2, partitions={0: _never_healed(3)}
    )
    shard = deployment.shards[0]
    shard.schedule_invoke(1.0, 2, Counter.increment(1))
    return deployment, shard.network


@pytest.mark.parametrize(
    "build", [_asynchronous_cluster, _asynchronous_sharded_cluster]
)
def test_run_until_stable_returns_when_the_queue_drains_unconverged(build):
    """The paper's asynchronous run: the minority's messages stay buffered,
    the queue drains, and the clock stops short of ``max_time`` — the answer
    is "not converged", not another empty ``run`` forever."""
    cluster, network = build()
    run, calls = cluster.sim.run, []

    def bounded_run(**kwargs):
        calls.append(kwargs)
        assert len(calls) < 50, "run_until_stable spins on a drained queue"
        run(**kwargs)

    cluster.sim.run = bounded_run
    assert cluster.run_until_stable(max_time=500.0) is False
    assert cluster.sim.pending_events == 0
    assert cluster.sim.now < 500.0
    assert network.held_count == 3
