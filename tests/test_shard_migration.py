"""Tests for epoch-versioned placement and live key migration."""

import os

import pytest

from repro.core.cluster import BayouCluster
from repro.core.config import BayouConfig
from repro.datatypes.bank import BankAccounts
from repro.datatypes.base import (
    DataType,
    DbView,
    Operation,
    ShardedOp,
    CrossShardPlan,
    operation,
)
from repro.datatypes.counter import Counter
from repro.datatypes.kvstore import KVStore
from repro.errors import (
    MigrationError,
    MigrationStrandedError,
    ReplicaUnavailableError,
)
from repro.scenario import Scenario
from repro.shard import (
    Reassignment,
    ShardMap,
    ShardRouter,
    ShardedCluster,
    RangePartitioner,
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


def _moving_keys(keys, src, salt, n_shards=2):
    """The keys a split of ``src`` (under ``salt``) hands to the new shard."""
    base = ShardMap(n_shards)
    delta = Reassignment("split", src, n_shards, (salt,))
    return [k for k in keys if base.owner(k) == src and delta.moves(k, src)]


# ----------------------------------------------------------------------
# Split: state handoff and epoch bump
# ----------------------------------------------------------------------
def test_split_moves_keys_and_preserves_every_value():
    router, deployment = _router(KVStore())
    keys = [f"k{i}" for i in range(24)]
    for index, key in enumerate(keys):
        router.submit(0, KVStore.put(key, index))
    deployment.run_until_quiescent()
    before = {key: router.query(KVStore.get(key)) for key in keys}
    old_owner = {key: deployment.owner_of(key) for key in keys}

    migration = deployment.split(0, transfer_delay=0.5)
    deployment.run_until_quiescent()

    assert migration.complete
    assert deployment.epoch == 1
    assert deployment.n_shards == 3
    # Some keys moved to the spawned shard; none left their source pool.
    moved = [key for key in keys if deployment.owner_of(key) == 2]
    assert moved, "the split moved no keys at all"
    for key in moved:
        assert old_owner[key] == 0
    # Non-source keys are untouched.
    for key in keys:
        if old_owner[key] == 1:
            assert deployment.owner_of(key) == 1
    # Every value survives the handoff, moved or not.
    assert {key: router.query(KVStore.get(key)) for key in keys} == before
    assert migration.moved_registers == len(
        [key for key in moved if before[key] is not None]
    )
    assert deployment.converged()


def test_split_defers_moving_key_traffic_and_loses_nothing():
    moving = _moving_keys([f"a{i}" for i in range(40)], 0, "split-epoch1")
    key = moving[0]
    scenario = (
        Scenario(BankAccounts(), name="window")
        .shards(2)
        .replicas(2)
        .exec_delay(0.05)
        .message_delay(0.5)
        .resharding(6.0, split=0, transfer_delay=2.0)
    )
    deposits = 0
    at = 1.0
    for index in range(30):
        scenario.invoke(at, 0, BankAccounts.deposit(key, 1), label=f"d{index}")
        deposits += 1
        at += 0.35
    result = scenario.run(well_formed=False)
    migration = result.migrations[0]
    assert migration.complete
    assert result.epoch == 1
    # A slice of the deposits hit the handoff window and was deferred —
    # the MigrationInProgress retry path, not a refusal.
    assert migration.deferred_ops > 0
    assert result.router.deferred_count == migration.deferred_ops
    assert not result.refused
    # No deposit lost or duplicated across the epoch boundary.
    assert result.query(BankAccounts.balance(key)) == deposits
    assert result.converged


def test_split_transfers_the_tentative_suffix_as_twins():
    """A request still tentative at the barrier rides the handoff."""
    moving = _moving_keys([f"a{i}" for i in range(40)], 0, "split-epoch1")
    key = moving[0]
    scenario = (
        Scenario(BankAccounts(), name="twins")
        .shards(2)
        .replicas(2)
        .exec_delay(0.05)
        .message_delay(0.5)
        # Hold replica 1's first request away from the sequencer: it
        # stays tentative long past the barrier's commit.
        .delay_tob_for_dot((1, 1), receiver=0, extra=8.0, shard=0)
        .invoke(1.0, 1, BankAccounts.deposit(key, 7), label="late")
        .resharding(3.0, split=0, transfer_delay=0.5)
    )
    result = scenario.run(well_formed=False)
    migration = result.migrations[0]
    assert migration.complete
    assert migration.transferred_requests == 1
    # Both source replicas knew the request (RB spread it); the drain
    # deduplicated by dot.
    assert migration.duplicate_drops == 1
    # Executed exactly once under owner-routed reads.
    assert result.query(BankAccounts.balance(key)) == 7
    assert result.converged


# ----------------------------------------------------------------------
# Merge and move
# ----------------------------------------------------------------------
def test_merge_retires_source_and_keeps_all_values():
    router, deployment = _router(KVStore())
    keys = [f"k{i}" for i in range(16)]
    for index, key in enumerate(keys):
        router.submit(0, KVStore.put(key, index))
    deployment.run_until_quiescent()
    before = {key: router.query(KVStore.get(key)) for key in keys}

    migration = deployment.merge(0, 1, transfer_delay=0.25)
    deployment.run_until_quiescent()

    assert migration.complete
    assert deployment.retired == {1}
    assert deployment.live_shard_indexes() == [0]
    assert all(deployment.owner_of(key) == 0 for key in keys)
    assert {key: router.query(KVStore.get(key)) for key in keys} == before
    assert deployment.converged()
    # Retired shards refuse further resharding.
    with pytest.raises(MigrationError, match="retired"):
        deployment.merge(0, 1)


def test_move_hands_over_a_key_range():
    router, deployment = _router(
        KVStore(), partitioner=RangePartitioner(["m"])
    )
    for key, value in [("alpha", 1), ("delta", 2), ("zeta", 3)]:
        router.submit(0, KVStore.put(key, value))
    deployment.run_until_quiescent()

    migration = deployment.move(("a", "e"), 1)
    deployment.run_until_quiescent()

    assert migration.complete
    assert deployment.owner_of("alpha") == 1
    assert deployment.owner_of("delta") == 1
    # Half-open range: "e" itself and everything above stays put.
    assert deployment.owner_of("e-key") == 0
    assert router.query(KVStore.get("alpha")) == 1
    assert router.query(KVStore.get("delta")) == 2
    assert router.query(KVStore.get("zeta")) == 3
    new_puts = router.submit(0, KVStore.put("alpha", 9))
    deployment.run_until_quiescent()
    assert new_puts.done
    assert router.query(KVStore.get("alpha")) == 9
    assert deployment.converged()


# ----------------------------------------------------------------------
# Routing across epochs
# ----------------------------------------------------------------------
def test_stale_session_route_is_forwarded_not_refused():
    moving = _moving_keys([f"a{i}" for i in range(40)], 0, "split-epoch1")
    key = moving[0]
    scenario = (
        Scenario(KVStore(), name="forward")
        .shards(2)
        .replicas(2)
        .exec_delay(0.05)
        .message_delay(0.5)
        # The first (strong) op's consensus is slowed on its shard, so
        # the queued second op launches only after the split completed.
        .tob_extra_delay(12.0, shard=1)
        .resharding(2.0, split=0, transfer_delay=0.5)
    )
    live = scenario.build()
    session = live.router.connect(0)
    slow_key = next(
        k for k in (f"a{i}" for i in range(40))
        if live.deployment.owner_of(k) == 1
    )
    first = session.submit(KVStore.put(slow_key, 1), strong=True)
    second = session.submit(KVStore.put(key, 2))  # route cached at epoch 0
    live.run_until_quiescent()
    assert first.stable and second.stable
    assert live.deployment.epoch == 1
    # The cached route named shard 0; launch recomputed it to the spawned
    # shard 2 under epoch 1 — a forward, not a refusal.
    assert live.router.forwarded_count == 1
    assert not session.refused
    assert live.router.query(KVStore.get(key)) == 2


def test_session_cached_route_is_revalidated_during_the_window():
    """Regression: a session op whose route was cached before the split
    must not launch at the source past the snapshot freeze — same epoch,
    but the key is mid-handoff, so the launch defers."""
    router, deployment = _router(BankAccounts())
    key = _moving_keys([f"a{i}" for i in range(40)], 0, "split-epoch1")[0]
    session = router.connect(0)
    future = session.submit(BankAccounts.deposit(key, 5))  # route @ epoch 0
    deployment.split(0, transfer_delay=1.0)  # staged before the pump fires
    deployment.run_until_quiescent()
    assert future.stable
    assert router.deferred_count >= 1
    assert deployment.owner_of(key) == 2
    # The deposit landed exactly once, at the new owner.
    assert router.query(BankAccounts.balance(key)) == 5
    assert deployment.converged()


def test_open_loop_submit_mid_window_is_deferred_and_lands_post_epoch():
    router, deployment = _router(BankAccounts())
    moving = _moving_keys([f"a{i}" for i in range(40)], 0, "split-epoch1")
    key = moving[0]
    router.submit(0, BankAccounts.deposit(key, 5))
    deployment.run_until_quiescent()
    deployment.split(0, transfer_delay=1.0)
    # The barrier has not even committed yet; this submit is mid-window.
    future = router.submit(0, BankAccounts.deposit(key, 3))
    assert router.deferred_count == 1
    deployment.run_until_quiescent()
    assert future.stable
    assert deployment.owner_of(key) == 2
    assert router.query(BankAccounts.balance(key)) == 8


# ----------------------------------------------------------------------
# Cross-shard plans across epochs
# ----------------------------------------------------------------------
def test_plan_commit_leg_defers_behind_a_migration():
    router, deployment = _router(BankAccounts())
    keys = [f"a{i}" for i in range(40)]
    moving = _moving_keys(keys, 0, "split-epoch1")
    target = moving[0]
    source = next(k for k in keys if deployment.owner_of(k) == 1)
    router.submit(0, BankAccounts.deposit(source, 100))
    router.submit(0, BankAccounts.deposit(target, 10))
    deployment.run_until_quiescent()

    future = router.submit(
        0, BankAccounts.transfer(source, target, 30), strong=True
    )
    # Split the target's owner while the prepare (debit) is in flight:
    # the commit leg (credit) will find its key mid-handoff and defer.
    deployment.split(0, transfer_delay=2.0)
    deployment.run_until_quiescent()

    assert future.value is True and future.stable
    assert router.coordinator.deferred_subs >= 1
    assert router.query(BankAccounts.balance(source)) == 70
    assert router.query(BankAccounts.balance(target)) == 40
    assert deployment.converged()


def test_plan_epoch_change_triggers_abort_and_replan():
    router, deployment = _router(
        BankAccounts(), partitioner=RangePartitioner(["m"])
    )
    router.submit(0, BankAccounts.deposit("alpha", 100))
    router.submit(0, BankAccounts.deposit("zeta", 10))
    deployment.run_until_quiescent()
    # Whole source shard down (recoverable): the prepare parks.
    deployment.crash_replica(0, 0, "recover")
    deployment.crash_replica(0, 1, "recover")
    future = router.submit(
        0, BankAccounts.transfer("alpha", "zeta", 30), strong=True
    )
    assert future.plan_epoch == 0
    assert not future.prepare_futures  # nothing staged yet
    # Bump the epoch while the plan is parked.
    deployment.split(1, transfer_delay=0.5)
    deployment.run_until_quiescent()
    assert deployment.epoch == 1
    # Recovery wakes the parked prepare under the new epoch: the plan
    # aborts the stale staging (a no-op — nothing staged) and replans.
    deployment.recover_replica(0, 0)
    deployment.recover_replica(0, 1)
    deployment.run_until_quiescent()
    assert router.coordinator.replanned_count == 1
    assert future.plan_epoch == 1
    assert future.value is True and future.stable
    assert router.query(BankAccounts.balance("alpha")) == 70
    assert router.query(BankAccounts.balance("zeta")) == 40


# ----------------------------------------------------------------------
# Durability: the epoch chain survives a restart
# ----------------------------------------------------------------------
def test_epoch_chain_replays_at_reconstruction(tmp_path):
    root = os.fspath(tmp_path / "deployment")
    keys = [f"k{i}" for i in range(20)]

    deployment = _deployment(
        KVStore(), durability="jsonl", durability_dir=root
    )
    router = ShardRouter(deployment)
    for index, key in enumerate(keys):
        router.submit(0, KVStore.put(key, index))
    deployment.run_until_quiescent()
    deployment.split(0, transfer_delay=0.5)
    deployment.run_until_quiescent()
    owners = {key: deployment.owner_of(key) for key in keys}
    values = {key: router.query(KVStore.get(key)) for key in keys}
    assert deployment.epoch == 1 and deployment.n_shards == 3

    # An operating-system restart: a fresh deployment over the same root.
    rebuilt = _deployment(KVStore(), durability="jsonl", durability_dir=root)
    rebuilt_router = ShardRouter(rebuilt)
    rebuilt.run_until_quiescent()  # replicas replay their durable logs
    assert rebuilt.epoch == 1
    assert rebuilt.n_shards == 3
    assert {key: rebuilt.owner_of(key) for key in keys} == owners
    assert {
        key: rebuilt_router.query(KVStore.get(key)) for key in keys
    } == values


def test_chained_migrations_carry_installed_only_keys():
    """Regression: a key whose only write at its shard arrived via a
    previous migration's install must still be a candidate for the next
    migration — split a key out, then merge its shard away with no
    intervening writes: the value must survive both handoffs."""
    router, deployment = _router(KVStore())
    keys = [f"k{i}" for i in range(12)]
    for index, key in enumerate(keys):
        router.submit(0, KVStore.put(key, f"v-{key}"))
    deployment.run_until_quiescent()

    first = deployment.split(0, transfer_delay=0.2)
    deployment.run_until_quiescent()
    moved = [key for key in keys if deployment.owner_of(key) == 2]
    assert moved and first.complete

    # Merge the spawned shard straight back: its only writes for the
    # moved keys are the install triples.
    second = deployment.merge(1, 2, transfer_delay=0.2)
    deployment.run_until_quiescent()
    assert second.complete
    assert second.moved_registers == first.moved_registers
    for key in keys:
        assert router.query(KVStore.get(key)) == f"v-{key}"
    assert deployment.converged()


def test_deferred_weak_multikey_op_split_across_shards_is_refused_quietly():
    """Regression: a weak multi-key op deferred mid-window whose keys
    the split then separates must be refused at the retry — not crash
    the activation callback (and every retry parked behind it)."""
    router, deployment = _router(KVStore())
    keys = [f"a{i}" for i in range(40)]
    moving = _moving_keys(keys, 0, "split-epoch1")[0]
    staying = next(
        k for k in keys
        if deployment.owner_of(k) == 0
        and k not in _moving_keys(keys, 0, "split-epoch1")
    )
    deployment.split(0, transfer_delay=1.0)
    future = router.submit(
        0, KVStore.put_many((moving, 1), (staying, 2))
    )  # weak, both keys co-owned by shard 0 — deferred mid-window
    assert router.deferred_count == 1
    deployment.run_until_quiescent()  # must not raise
    assert deployment.epoch == 1
    assert router.refused_futures == [future]
    assert future.pending  # refused: never invoked anywhere
    assert deployment.converged()


def test_parked_session_head_counts_one_deferral():
    """Regression: every queue() wakes the pump, which re-sees the same
    parked head — one logical deferral must count once, not once per
    wake."""
    router, deployment = _router(BankAccounts())
    key = _moving_keys([f"a{i}" for i in range(40)], 0, "split-epoch1")[0]
    session = router.connect(0)
    deployment.split(0, transfer_delay=50.0)
    first = session.submit(BankAccounts.deposit(key, 1))
    deployment.run(until=deployment.sim.now + 5.0)  # head parks
    for _ in range(4):  # each re-pumps onto the same parked head
        session.submit(BankAccounts.deposit(key, 1))
        deployment.run(until=deployment.sim.now + 1.0)
    migration = deployment.migrations[0]
    assert router.deferred_count == 1
    assert migration.deferred_ops == 1
    deployment.run_until_quiescent()
    assert first.stable
    assert router.query(BankAccounts.balance(key)) == 5


def test_invalid_transfer_delay_does_not_leak_a_spawned_shard():
    """Regression: Migration validation runs before the destination
    slot is spawned, so a refused split leaves the deployment intact."""
    deployment = _deployment(KVStore())
    with pytest.raises(MigrationError, match="transfer_delay"):
        deployment.split(0, transfer_delay=-1.0)
    assert deployment.n_shards == 2
    assert deployment.migrations == []


def test_multi_prepare_plan_decides_in_plan_order():
    """Regression: a prepare leg accepted late (parked behind a handoff)
    must still hand its value to plan.decide at its plan position."""

    class _PairGuard(DataType):
        @operation
        def pair(a, b) -> Operation:
            return Operation("pair", (a, b))

        @operation(readonly=True)
        def get(key) -> Operation:
            return Operation("get", (key,))

        def execute(self, op: Operation, view: DbView):
            if op.name == "tag":
                view.write(op.args[0], op.args[1])
                return op.args[1]
            if op.name == "get":
                return view.read(op.args[0])
            raise AssertionError(op.name)

        def keys_of(self, op: Operation):
            if op.name == "pair":
                return op.args
            return (op.args[0],)

        def registers_of(self, key):
            return (key,)

        def cross_shard_plan(self, op: Operation):
            a, b = op.args
            return CrossShardPlan(
                prepare=(
                    ShardedOp(a, Operation("tag", (a, "A"))),
                    ShardedOp(b, Operation("tag", (b, "B"))),
                ),
                decide=lambda values: (values == ("A", "B"), values),
            )

    router, deployment = _router(
        _PairGuard(), partitioner=RangePartitioner(["m"])
    )
    # Leg 0's shard is wholly down (recoverable): it parks while leg 1
    # is accepted — and stabilised — immediately.
    deployment.crash_replica(0, 0, "recover")
    deployment.crash_replica(0, 1, "recover")
    future = router.submit(0, _PairGuard.pair("alpha", "zeta"), strong=True)
    deployment.run_until_quiescent()
    assert future.pending  # leg 0 still parked
    deployment.recover_replica(0, 0)
    deployment.recover_replica(0, 1)
    deployment.run_until_quiescent()
    assert future.stable
    # Acceptance order was [leg 1, leg 0]...
    assert [f.value for f in future.prepare_futures] == ["B", "A"]
    # ...but decide saw the values in plan order.
    assert future.committed is True
    assert future.value == ("A", "B")


def test_resharding_verb_validates_tuple_shapes():
    scenario = Scenario(KVStore()).shards(2)
    with pytest.raises(ValueError, match=r"\(dst, src\)"):
        scenario.resharding(5.0, merge=(1,))
    with pytest.raises(ValueError, match=r"\(lo, hi, dst\)"):
        scenario.resharding(5.0, move=("a", "m"))
    with pytest.raises(ValueError, match="exactly one"):
        scenario.resharding(5.0)
    with pytest.raises(ValueError, match="exactly one"):
        scenario.resharding(5.0, split=0, merge=(0, 1))


def test_failed_migration_start_leaves_no_trace():
    """Regression: a split whose source has no live replica must raise
    without leaking a shard slot or a forever-incomplete migration."""
    deployment = _deployment(KVStore())
    deployment.crash_replica(1, 0, "recover")
    deployment.crash_replica(1, 1, "recover")
    with pytest.raises(MigrationError, match="live replica"):
        deployment.split(1)
    assert deployment.n_shards == 2  # no leaked spawned slot
    assert deployment.migrations == []
    assert deployment.active_migrations == {}
    deployment.recover_replica(1, 0)
    deployment.recover_replica(1, 1)
    deployment.run_until_quiescent()
    assert deployment.converged()


# ----------------------------------------------------------------------
# Guard rails
# ----------------------------------------------------------------------
def test_unkeyed_datatype_refuses_migration():
    deployment = _deployment(Counter())
    with pytest.raises(MigrationError, match="registers_of"):
        deployment.split(0)


def test_one_migration_per_shard_at_a_time():
    deployment = _deployment(KVStore(), n_shards=3)
    deployment.split(0)
    with pytest.raises(MigrationError, match="in .?flight"):
        deployment.split(0)
    with pytest.raises(MigrationError, match="in .?flight"):
        deployment.merge(1, 0)


def test_migration_protocol_ops_stay_out_of_histories():
    moving = _moving_keys([f"a{i}" for i in range(40)], 0, "split-epoch1")
    scenario = (
        Scenario(KVStore(), name="clean-history")
        .shards(2)
        .replicas(2)
        .exec_delay(0.05)
        .message_delay(0.3)
        .invoke(1.0, 0, KVStore.put(moving[0], 1), label="w")
        .resharding(3.0, split=0, transfer_delay=0.5)
        .checks(fec="weak")
    )
    result = scenario.run(well_formed=False)
    for history in result.histories:
        assert all(
            not event.op.name.startswith("__") for event in history.events
        )
    assert result.converged


# ----------------------------------------------------------------------
# Satellite: shard id in ReplicaUnavailableError
# ----------------------------------------------------------------------
def test_replica_unavailable_error_names_the_shard():
    router, deployment = _router(
        KVStore(), partitioner=RangePartitioner(["m"])
    )
    # Whole-shard crash-stop: the recovery window never ends for S1.
    deployment.crash_replica(1, 0, "stop")
    deployment.crash_replica(1, 1, "stop")
    with pytest.raises(ReplicaUnavailableError, match=r"replica 0 of shard S1"):
        router.submit(0, KVStore.put("zeta", 1))


# ----------------------------------------------------------------------
# Satellite: n_shards=1 is bit-identical to an unsharded cluster
# ----------------------------------------------------------------------
def test_single_shard_deployment_bit_identical_to_unsharded_cluster():
    def build_scenario():
        return (
            Scenario(KVStore(), name="n1")
            .replicas(3)
            .exec_delay(0.05)
            .message_delay(0.2)
            .workload("kv", ops_per_session=8, think_time=0.3, seed=7)
        )

    plain = build_scenario().run(well_formed=False)
    sharded = build_scenario().shards(1).run(well_formed=False)

    reference = plain.cluster
    single = sharded.deployment.shards[0]
    for left, right in zip(reference.replicas, single.replicas):
        assert left.state.snapshot() == right.state.snapshot()
        assert [r.dot for r in left.committed] == [r.dot for r in right.committed]
        assert [r.dot for r in left.executed] == [r.dot for r in right.executed]
        assert left.execution_count == right.execution_count
        assert left.rollback_count == right.rollback_count
    assert plain.converged and sharded.converged


# ----------------------------------------------------------------------
# Satellite: plans with co-located legs
# ----------------------------------------------------------------------
def test_put_many_plan_with_two_commit_legs_on_one_shard():
    router, deployment = _router(
        KVStore(), partitioner=RangePartitioner(["m"])
    )
    future = router.submit(
        0,
        KVStore.put_many(("alpha", 1), ("beta", 2), ("zeta", 3)),
        strong=True,
    )
    deployment.run_until_quiescent()
    assert future.value == 3 and future.stable
    # Two of the three per-key puts co-located on shard 0.
    assert router.routed_counts == [2, 1]
    for key, value in [("alpha", 1), ("beta", 2), ("zeta", 3)]:
        assert router.query(KVStore.get(key)) == value
    assert deployment.converged()


class _LinkType(DataType):
    """A two-key type whose plan preps and commits on the *same* shard."""

    @operation
    def link(a, b) -> Operation:
        return Operation("link", (a, b))

    @operation(readonly=True)
    def get(key) -> Operation:
        return Operation("get", (key,))

    def execute(self, op: Operation, view: DbView):
        if op.name == "mark":
            view.write(op.args[0], "marked")
            return True
        if op.name == "set":
            view.write(op.args[0], op.args[1])
            return True
        if op.name == "get":
            return view.read(op.args[0])
        raise AssertionError(op.name)

    def keys_of(self, op: Operation):
        if op.name == "link":
            return op.args
        return (op.args[0],)

    def cross_shard_plan(self, op: Operation):
        a, b = op.args
        return CrossShardPlan(
            prepare=(ShardedOp(a, Operation("mark", (a,))),),
            commit=(
                ShardedOp(a, Operation("set", (a, "linked"))),
                ShardedOp(b, Operation("set", (b, "linked"))),
            ),
        )


def test_plan_prepare_and_commit_legs_on_the_same_shard():
    router, deployment = _router(
        _LinkType(), partitioner=RangePartitioner(["m"])
    )
    future = router.submit(0, _LinkType.link("alpha", "zeta"), strong=True)
    deployment.run_until_quiescent()
    assert future.stable and future.committed is True
    # prepare(mark alpha) and commit(set alpha) both ran on shard 0.
    assert router.routed_counts == [2, 1]
    assert router.query(_LinkType.get("alpha")) == "linked"
    assert router.query(_LinkType.get("zeta")) == "linked"
    assert deployment.converged()


# ----------------------------------------------------------------------
# The isolate verb (single-range carve-out onto a spawned shard)
# ----------------------------------------------------------------------
def test_isolate_carves_one_key_onto_a_spawned_shard():
    router, deployment = _router(KVStore())
    keys = [f"k{i}" for i in range(16)]
    for index, key in enumerate(keys):
        router.submit(0, KVStore.put(key, index))
    deployment.run_until_quiescent()
    hot = keys[0]
    src = deployment.owner_of(hot)

    migration = deployment.isolate((hot, hot + "\x00"), transfer_delay=0.5)
    deployment.run_until_quiescent()

    assert migration.complete and migration.spawned_dst
    assert migration.src == src and migration.dst == 2
    assert deployment.epoch == 1
    # Exactly the carved key moved; every other key kept its owner.
    assert deployment.owner_of(hot) == 2
    for key in keys[1:]:
        assert deployment.owner_of(key) != 2
    assert migration.moved_registers == 1
    assert router.query(KVStore.get(hot)) == 0
    assert deployment.converged()


# ----------------------------------------------------------------------
# Stranded migrations (the crash-between-barrier-and-activation bugfix)
# ----------------------------------------------------------------------
def test_destination_crash_stop_strands_the_migration_with_a_named_error():
    """Losing every replica of the spawned destination mid-handoff no
    longer wedges the deployment: the migration fails into ``stranded``,
    the dead slot retires, and the run converges on the old epoch."""
    scenario = (
        Scenario(KVStore(), name="stranded-dst")
        .shards(2)
        .replicas(2)
        .exec_delay(0.05)
        .message_delay(0.5)
        .resharding(10.0, split=0, transfer_delay=10.0)
        .at(12.0, lambda live: [
            live.deployment.crash_replica(2, pid, "stop") for pid in (0, 1)
        ])
    )
    for index in range(8):
        scenario.invoke(1.0 + index, 0, KVStore.put(f"k{index}", index))
    result = scenario.run(well_formed=False)

    migration = result.migrations[0]
    assert migration.stranded and not migration.complete
    assert migration.state == "stranded"
    assert isinstance(migration.error, MigrationStrandedError)
    assert "crash-stopped" in str(migration.error)
    assert migration.error.migration is migration
    # The failure is a first-class check result, not a hang.
    assert result.ok("migrations") is False
    report = result.check("migrations", 0)
    assert report.state == "stranded" and report.error is migration.error
    # The placement never advanced and the dead spawned slot retired.
    assert result.epoch == 0
    assert 2 in result.deployment.retired
    assert result.converged
    assert result.deployment.owner_of("k0") in (0, 1)


def test_source_crash_stop_strands_a_plain_move():
    router, deployment = _router(KVStore())
    key = next(f"k{i}" for i in range(50) if deployment.owner_of(f"k{i}") == 0)
    router.submit(0, KVStore.put(key, 1))
    deployment.run_until_quiescent()

    migration = deployment.move((key, key + "\x00"), 1, transfer_delay=5.0)
    deployment.run(until=deployment.sim.now + 1.0)
    for pid in (0, 1):
        deployment.crash_replica(0, pid, "stop")
    deployment.run_until_quiescent()

    assert migration.stranded
    assert "source shard S0" in str(migration.error)
    # An existing destination is NOT retired by someone else's strand.
    assert 1 not in deployment.retired
    assert deployment.epoch == 0
    assert not deployment.active_migrations


def test_destination_outage_with_recovery_retries_the_install():
    """A crash–recovery outage over the install window delays the
    handoff instead of stranding it: the one-shot recovery hook retries
    and the epoch still activates."""
    scenario = (
        Scenario(KVStore(), name="recovering-dst")
        .shards(2)
        .replicas(2)
        .exec_delay(0.05)
        .message_delay(0.5)
        .resharding(10.0, split=0, transfer_delay=3.0)
        .at(11.0, lambda live: [
            live.deployment.crash_replica(2, pid, "recover") for pid in (0, 1)
        ])
        .at(18.0, lambda live: [
            live.deployment.recover_replica(2, pid) for pid in (0, 1)
        ])
    )
    for index in range(8):
        scenario.invoke(1.0 + index, 0, KVStore.put(f"k{index}", index))
    result = scenario.run(well_formed=False)

    migration = result.migrations[0]
    assert migration.complete and not migration.stranded
    assert result.ok("migrations")
    assert result.epoch == 1
    assert migration.activated_at >= 18.0  # the retry waited for recovery
    assert result.converged
    # Each destination node's waiter left the hook list when it fired.
    for node in result.deployment.shards[2].nodes:
        assert not any(one_shot for _, _, one_shot in node._crash_hooks)


# ----------------------------------------------------------------------
# The guarded partial-key twin hazard (documented; now regression-tested)
# ----------------------------------------------------------------------
def test_partial_key_tentative_request_is_counted_and_converges():
    """A weak two-account transfer caught tentative mid-split, with one
    account moving and one staying, becomes a guarded twin on both
    shards: ``partial_key_requests`` counts it and no money is lost."""
    keys = [f"a{i}" for i in range(20)]
    delta = Reassignment("split", 0, 1, ("split-epoch1",))
    moving = next(k for k in keys if delta.moves(k, 0))
    staying = next(k for k in keys if not delta.moves(k, 0))
    scenario = (
        Scenario(BankAccounts(), name="partial-key-twin")
        .shards(1)
        .replicas(2)
        .exec_delay(0.05)
        .message_delay(0.5)
        # Isolate replica 1 so its weak transfer stays tentative…
        .partition(5.0, [[0], [1]], shard=0)
        # …while the split (pid 0) snapshots and drains the suffix.
        .resharding(8.0, split=0, transfer_delay=1.0)
        .heal(14.0, shard=0)
        .invoke(1.0, 0, BankAccounts.deposit(moving, 10), label="fund")
        .invoke(6.0, 1, BankAccounts.transfer(moving, staying, 3), label="t")
    )
    result = scenario.run(well_formed=False)

    migration = result.migrations[0]
    assert migration.complete
    assert result.epoch == 1
    # The transfer's keys only partially moved: exactly the hazard the
    # counter instruments.
    assert migration.partial_key_requests >= 1
    assert migration.transferred_requests >= 1
    assert result.converged
    # Owner-routed reads see each key's effect exactly once: the twin
    # executed on both shards, but money was neither lost nor minted.
    funded = result.query(BankAccounts.balance(moving))
    received = result.query(BankAccounts.balance(staying))
    assert funded + received == 10
    assert result.future("t").stable
