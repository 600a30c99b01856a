"""Tests for shard routing, sessions and the cross-shard coordinator."""

import pytest

from repro.core.config import BayouConfig
from repro.datatypes.bank import BankAccounts
from repro.datatypes.base import DataType, DbView, Operation, operation
from repro.datatypes.counter import Counter
from repro.datatypes.kvstore import KVStore
from repro.errors import CrossShardError
from repro.shard import (
    CrossShardFuture,
    RangePartitioner,
    ShardRouter,
    ShardedCluster,
)


def _deployment(datatype, *, n_shards=2, partitioner=None, **config_kwargs):
    config = BayouConfig(
        n_replicas=2,
        exec_delay=0.01,
        message_delay=0.2,
        **config_kwargs,
    )
    return ShardedCluster(
        datatype, config, n_shards=n_shards, partitioner=partitioner
    )


def _router(datatype, **kwargs):
    deployment = _deployment(datatype, **kwargs)
    return ShardRouter(deployment), deployment


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
def test_unkeyed_datatype_routes_to_home_shard():
    router, deployment = _router(Counter(), n_shards=3)
    future = router.submit(0, Counter.increment(5))
    deployment.run_until_quiescent()
    assert future.value == 5
    # Only the home shard saw traffic; the others stay empty.
    assert router.routed_counts[0] == 1
    assert router.routed_counts[1:] == [0, 0]
    assert deployment.shards[1].replicas[0].execution_count == 0


def test_keyed_ops_route_to_owner_shard():
    router, deployment = _router(
        KVStore(), n_shards=2, partitioner=RangePartitioner(["m"])
    )
    low = router.submit(0, KVStore.put("alpha", 1))
    high = router.submit(0, KVStore.put("zeta", 2))
    deployment.run_until_quiescent()
    assert low.done and high.done
    assert router.routed_counts == [1, 1]
    assert router.query(KVStore.get("alpha")) == 1
    assert router.query(KVStore.get("zeta")) == 2
    # Each shard's replicas only executed their own keys' traffic.
    assert deployment.shards[0].replicas[0].execution_count == 1
    assert deployment.shards[1].replicas[0].execution_count == 1


def test_weak_cross_shard_operation_refused_at_call_site():
    router, _ = _router(
        BankAccounts(), n_shards=2, partitioner=RangePartitioner(["m"])
    )
    with pytest.raises(CrossShardError, match="must be strong"):
        router.submit(0, BankAccounts.transfer("alpha", "zeta", 5))


class _PairType(DataType):
    """A keyed type with a multi-key op but no cross-shard plan."""

    @operation
    def link(a, b) -> Operation:
        return Operation("link", (a, b))

    def execute(self, op: Operation, view: DbView):
        view.write(op.args[0], op.args[1])
        return True

    def keys_of(self, op):
        return op.args


def test_planless_multi_key_strong_op_refused():
    router, _ = _router(
        _PairType(), n_shards=2, partitioner=RangePartitioner(["m"])
    )
    with pytest.raises(CrossShardError, match="no cross-shard plan"):
        router.submit(0, _PairType.link("alpha", "zeta"), strong=True)


# ----------------------------------------------------------------------
# Cross-shard strong operations
# ----------------------------------------------------------------------
def test_cross_shard_transfer_commits_and_conserves():
    router, deployment = _router(
        BankAccounts(), n_shards=2, partitioner=RangePartitioner(["m"])
    )
    router.submit(0, BankAccounts.deposit("alpha", 100))
    router.submit(0, BankAccounts.deposit("zeta", 10))
    deployment.run_until_quiescent()
    future = router.submit(
        0, BankAccounts.transfer("alpha", "zeta", 30), strong=True
    )
    assert isinstance(future, CrossShardFuture)
    deployment.run_until_quiescent()
    assert future.value is True and future.stable
    assert future.committed is True
    assert router.query(BankAccounts.balance("alpha")) == 70
    assert router.query(BankAccounts.balance("zeta")) == 40
    assert router.coordinator.staged_count == 1
    assert router.coordinator.committed_count == 1
    # The staged sub-operations appear in the owner shards' histories;
    # the parent holds no history position of its own.
    debit_ops = [
        e.op.name
        for e in deployment.shards[0].build_history(well_formed=False).events
    ]
    credit_ops = [
        e.op.name
        for e in deployment.shards[1].build_history(well_formed=False).events
    ]
    assert "withdraw" in debit_ops
    assert "deposit" in credit_ops


def test_cross_shard_transfer_aborts_without_touching_target():
    router, deployment = _router(
        BankAccounts(), n_shards=2, partitioner=RangePartitioner(["m"])
    )
    router.submit(0, BankAccounts.deposit("alpha", 5))
    deployment.run_until_quiescent()
    future = router.submit(
        0, BankAccounts.transfer("alpha", "zeta", 500), strong=True
    )
    deployment.run_until_quiescent()
    assert future.value is False and future.stable
    assert future.committed is False
    assert router.coordinator.aborted_count == 1
    assert router.query(BankAccounts.balance("alpha")) == 5
    assert router.query(BankAccounts.balance("zeta")) == 0
    # No commit sub-op ever reached the target shard.
    assert not future.commit_futures


def test_same_shard_transfer_goes_direct_not_staged():
    router, deployment = _router(
        BankAccounts(), n_shards=2, partitioner=RangePartitioner(["m"])
    )
    router.submit(0, BankAccounts.deposit("alpha", 50))
    deployment.run_until_quiescent()
    future = router.submit(
        0, BankAccounts.transfer("alpha", "beta", 20), strong=True
    )
    deployment.run_until_quiescent()
    assert not isinstance(future, CrossShardFuture)
    assert future.value is True
    assert router.coordinator.staged_count == 0  # atomic on the owner shard


def test_put_many_spans_shards_and_stabilises():
    router, deployment = _router(
        KVStore(), n_shards=2, partitioner=RangePartitioner(["m"])
    )
    future = router.submit(
        0, KVStore.put_many(("alpha", 1), ("zeta", 2)), strong=True
    )
    deployment.run_until_quiescent()
    assert future.value == 2 and future.stable
    assert router.query(KVStore.get("alpha")) == 1
    assert router.query(KVStore.get("zeta")) == 2


# ----------------------------------------------------------------------
# Sharded sessions
# ----------------------------------------------------------------------
def test_sharded_session_closed_loop_across_shards():
    router, deployment = _router(
        KVStore(), n_shards=2, partitioner=RangePartitioner(["m"])
    )
    session = router.connect(0, think_time=0.1)
    puts = [session.put("alpha", 1), session.put("zeta", 2)]
    read = session.get("alpha")
    deployment.run_until_quiescent()
    assert session.idle and session.completed == 3
    assert all(f.done for f in puts)
    assert read.value == 1
    # Closed loop: the second op was invoked only after the first returned.
    assert puts[1].invoke_time > puts[0].response_time


def test_sharded_session_typed_strong_proxy_and_cross_shard():
    router, deployment = _router(
        BankAccounts(), n_shards=2, partitioner=RangePartitioner(["m"])
    )
    session = router.connect(0)
    session.deposit("alpha", 100)
    session.deposit("zeta", 1)
    moved = session.strong.transfer("alpha", "zeta", 40)
    balance = session.balance("zeta")
    deployment.run_until_quiescent()
    assert isinstance(moved, CrossShardFuture)
    assert moved.value is True
    assert balance.value == 41  # issued after the transfer responded


def test_sharded_session_weak_cross_shard_raises_at_submit():
    router, _ = _router(
        BankAccounts(), n_shards=2, partitioner=RangePartitioner(["m"])
    )
    session = router.connect(0)
    with pytest.raises(CrossShardError, match="must be strong"):
        session.transfer("alpha", "zeta", 1)


def test_sharded_session_pauses_across_owner_recovery():
    router, deployment = _router(
        KVStore(),
        n_shards=2,
        partitioner=RangePartitioner(["m"]),
        durability="memory",
    )
    session = router.connect(0, think_time=0.0)
    deployment.sim.schedule_at(1.0, lambda: deployment.crash_replica(1, 0))
    deployment.sim.schedule_at(5.0, lambda: deployment.recover_replica(1, 0))
    deployment.sim.schedule_at(
        2.0, lambda: session.put("zeta", 9)
    )  # owner replica is down at t=2
    deployment.run_until_quiescent()
    future = session.futures[0]
    assert future.done and future.invoke_time >= 5.0  # waited for recovery
    assert router.query(KVStore.get("zeta")) == 9


def test_paused_sharded_sessions_register_one_recovery_hook_each():
    """A session pausing on a crashed replica again and again registers
    its wake-up hook on that node once, not once per paused pump."""

    def hooks_after(cycles):
        config = BayouConfig(
            n_replicas=3, exec_delay=0.01, message_delay=0.2, durability="memory"
        )
        deployment = ShardedCluster(Counter(), config, n_shards=2)
        router = ShardRouter(deployment)
        # Counter is unkeyed: every operation lives on the home shard 0.
        sessions = [router.connect(1, think_time=1.0) for _ in range(3)]
        for session in sessions:
            for _ in range(20 * cycles + 10):
                session.increment(1)
        for cycle in range(cycles):
            deployment.sim.schedule_at(
                20.0 * cycle + 5.0, lambda: deployment.crash_replica(0, 1)
            )
            deployment.sim.schedule_at(
                20.0 * cycle + 15.0, lambda: deployment.recover_replica(0, 1)
            )
        deployment.run(until=20.0 * cycles)
        # Every session paused in the last window and resumed after it.
        last_recovery = 20.0 * (cycles - 1) + 15.0
        for session in sessions:
            answered = session.futures[session.completed - 1]
            assert answered.invoke_time >= last_recovery
        return len(deployment.shards[0].nodes[1]._crash_hooks)

    once = hooks_after(1)
    assert once == 4 + 3  # the node's own components, then one per session
    assert hooks_after(2) == once
    assert hooks_after(4) == once


def test_cross_shard_commit_survives_target_recovery_window():
    """The commit lands after the target shard's replica recovers — the
    run keeps going (no ReplicaUnavailableError escapes the event loop)
    and conservation holds at quiescence."""
    router, deployment = _router(
        BankAccounts(),
        n_shards=2,
        partitioner=RangePartitioner(["m"]),
        durability="memory",
    )
    router.submit(0, BankAccounts.deposit("alpha", 100))
    deployment.run_until_quiescent()
    # Take down *both* replicas of the target shard, then transfer.
    deployment.crash_replica(1, 0)
    deployment.crash_replica(1, 1)
    future = router.submit(
        0, BankAccounts.transfer("alpha", "zeta", 30), strong=True
    )
    deployment.sim.schedule_at(5.0, lambda: deployment.recover_replica(1, 0))
    deployment.sim.schedule_at(5.5, lambda: deployment.recover_replica(1, 1))
    deployment.run_until_quiescent()
    assert future.value is True and future.stable
    assert router.query(BankAccounts.balance("alpha")) == 70
    assert router.query(BankAccounts.balance("zeta")) == 30


def test_recovery_waiters_leave_the_hook_list_when_they_fire():
    """A transfer that waits out a whole-shard outage parks its credit on
    the shard's first recovering replica, once. Four such outages in a
    row leave that node's hook list as long as it was after the first."""
    router, deployment = _router(
        BankAccounts(),
        n_shards=2,
        partitioner=RangePartitioner(["m"]),
        durability="memory",
    )
    router.submit(0, BankAccounts.deposit("alpha", 100))
    deployment.run_until_quiescent()
    node = deployment.shards[1].nodes[0]
    hooks = []
    for _ in range(4):
        deployment.crash_replica(1, 0)
        deployment.crash_replica(1, 1)
        future = router.submit(
            0, BankAccounts.transfer("alpha", "zeta", 10), strong=True
        )
        now = deployment.sim.now
        deployment.sim.schedule_at(now + 5.0, lambda: deployment.recover_replica(1, 0))
        deployment.sim.schedule_at(now + 5.5, lambda: deployment.recover_replica(1, 1))
        deployment.run_until_quiescent()
        assert future.value is True and future.stable
        hooks.append(len(node._crash_hooks))
    assert hooks == [hooks[0]] * 4
    assert router.query(BankAccounts.balance("zeta")) == 40


def test_cross_shard_commit_fails_over_to_live_replica():
    """Preferred target replica crash-stopped: the credit is staged on a
    surviving replica of the owner shard instead (the non-sequencer
    replica crashes — a crash-stopped sequencer halts its shard's TOB by
    design, which is the Paxos engine's reason to exist)."""
    router, deployment = _router(
        BankAccounts(), n_shards=2, partitioner=RangePartitioner(["m"])
    )
    router.submit(1, BankAccounts.deposit("alpha", 100))
    deployment.run_until_quiescent()
    deployment.crash_replica(1, 1, mode="stop")  # replica 1 of shard 1 gone
    future = router.submit(
        1, BankAccounts.transfer("alpha", "zeta", 30), strong=True
    )
    deployment.run_until_quiescent()
    assert future.value is True and future.stable
    assert future.commit_futures[0].pid == 0  # failed over inside the shard
    # The surviving replica of shard 1 carries the credit.
    live = deployment.shards[1].replicas[0]
    assert live.state.snapshot().get("bank:zeta") == 30


def test_cross_shard_commit_lost_when_owner_shard_crash_stops():
    """The whole target shard crash-stops before the credit: the plan can
    never complete — counted as lost, parent responds but never
    stabilises, and the run still drains."""
    router, deployment = _router(
        BankAccounts(), n_shards=2, partitioner=RangePartitioner(["m"])
    )
    router.submit(0, BankAccounts.deposit("alpha", 100))
    deployment.run_until_quiescent()
    deployment.crash_replica(1, 0, mode="stop")
    deployment.crash_replica(1, 1, mode="stop")
    future = router.submit(
        0, BankAccounts.transfer("alpha", "zeta", 30), strong=True
    )
    deployment.run_until_quiescent()
    assert future.value is True  # the debit committed and decided
    assert not future.stable  # ...but the credit can never land
    assert router.coordinator.lost_count == 1
    assert router.query(BankAccounts.balance("alpha")) == 70


def test_shard_local_crash_stop_refuses_rest_of_queue():
    router, deployment = _router(
        KVStore(), n_shards=2, partitioner=RangePartitioner(["m"])
    )
    session = router.connect(0, think_time=0.0)
    deployment.sim.schedule_at(
        1.0, lambda: deployment.crash_replica(1, 0, mode="stop")
    )
    deployment.sim.schedule_at(2.0, lambda: session.put("zeta", 9))
    deployment.run_until_quiescent()
    assert session.refused and session.refused[0].pending
