"""Tests for sharded scenarios: the fluent verbs, scoped faults, results.

The isolation property under test: shards are independent consensus
groups, so shard-local faults (crashes, partitions) must leave every
other shard's history bit-identical to a fault-free run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes.bank import BankAccounts
from repro.datatypes.kvstore import KVStore
from repro.scenario import RunResult, Scenario
from repro.shard import HashPartitioner, RangePartitioner

KEYS = [f"k{i}" for i in range(24)]


def _shard_history_signature(result, shard):
    """One shard's observable history: (dot, op, rval, return time)."""
    return [
        (event.eid, event.op.name, event.op.args, event.rval, event.return_time)
        for event in result.histories[shard].events
    ]


# ----------------------------------------------------------------------
# The fluent surface
# ----------------------------------------------------------------------
def test_sharded_scenario_runs_and_merges_futures():
    result = (
        Scenario(KVStore(), name="fluent")
        .shards(2, partitioner=RangePartitioner(["m"]))
        .replicas(2)
        .exec_delay(0.01)
        .message_delay(0.2)
        .invoke(1.0, 0, KVStore.put("alpha", 1), label="low")
        .invoke(2.0, 1, KVStore.put("zeta", 2), label="high")
        .run(well_formed=False)
    )
    assert isinstance(result, RunResult)
    assert result.n_shards == 2
    assert result.responses == {"low": None, "high": None}
    assert result.converged
    assert result.query(KVStore.get("alpha")) == 1
    assert len(result.histories) == 2


def test_sharded_scenario_client_and_checks_per_shard():
    scenario = (
        Scenario(KVStore(), name="client")
        .shards(2, partitioner=RangePartitioner(["m"]))
        .replicas(2)
        .exec_delay(0.01)
        .message_delay(0.2)
        .checks(fec="weak")
    )
    client = scenario.client(0, think_time=0.1)
    client.put("alpha", 1).put("zeta", 2).get("alpha", label="read-back")
    result = scenario.run(well_formed=False)
    assert result.responses["read-back"] == 1
    assert len(result.check("fec:weak")) == 2  # one report per shard
    assert result.ok("fec:weak")


def test_sharded_workload_with_key_skew_converges():
    result = (
        Scenario(KVStore(), name="workload")
        .shards(3)
        .replicas(2)
        .exec_delay(0.01)
        .message_delay(0.2)
        .workload(
            "kv",
            keys=KEYS,
            key_skew="zipf",
            ops_per_session=8,
            think_time=0.1,
            seed=5,
            sessions=4,
        )
        .run(well_formed=False)
    )
    assert result.converged
    assert sum(result.router.routed_counts) == 32


def test_shard_scoped_fault_verbs_require_sharded_mode():
    with pytest.raises(ValueError, match="sharded"):
        Scenario(KVStore()).replicas(2).partition(
            1.0, [[0], [1]], shard=1
        ).build()
    with pytest.raises(ValueError, match="sharded"):
        Scenario(KVStore()).replicas(2).crash(0, 1.0, shard=1).build()


def test_scripted_invoke_into_crashed_owner_is_refused():
    result = (
        Scenario(KVStore(), name="refused")
        .shards(2, partitioner=RangePartitioner(["m"]))
        .replicas(2)
        .exec_delay(0.01)
        .message_delay(0.2)
        .crash(0, 1.0, shard=1, mode="stop")
        .invoke(2.0, 0, KVStore.put("zeta", 9), label="into-crash")
        .invoke(2.0, 0, KVStore.put("alpha", 1), label="other-shard")
        .run(well_formed=False)
    )
    assert "into-crash" in result.refused
    assert result.responses["other-shard"] is None  # executed normally
    assert result.query(KVStore.get("alpha")) == 1


# ----------------------------------------------------------------------
# Shard-local fault isolation
# ----------------------------------------------------------------------
def _crash_scenario(with_crash: bool) -> RunResult:
    scenario = (
        Scenario(KVStore(), name="isolation")
        .shards(3, partitioner=HashPartitioner(2))
        .replicas(3)
        .exec_delay(0.02)
        .message_delay(0.3)
        .durability("memory")
    )
    if with_crash:
        scenario.crash(1, at=4.0, recover_at=12.0, shard=0)
    for index, key in enumerate(KEYS):
        scenario.invoke(
            1.0 + 0.5 * index, index % 3, KVStore.put(key, index), label=key
        )
    return scenario.run(well_formed=False)


def test_shard_local_crash_recover_leaves_other_shards_untouched():
    """Crash+recover inside shard 0; shards 1 and 2 must be bit-identical
    to the fault-free run (histories, responses, timings)."""
    faulty = _crash_scenario(with_crash=True)
    clean = _crash_scenario(with_crash=False)
    assert faulty.converged and clean.converged
    crashed_shard = 0
    for shard in range(3):
        same = _shard_history_signature(faulty, shard) == (
            _shard_history_signature(clean, shard)
        )
        if shard == crashed_shard:
            continue  # the crashed shard may (and does) differ
        assert same, f"shard {shard} history perturbed by shard-0 crash"
    # The recovered replica reconverged inside its own shard.
    report = faulty.convergence["shards"][crashed_shard]
    assert report["converged"]


def test_shard_scoped_partition_isolates_one_shard():
    """A partition inside shard 1 delays only shard 1's convergence."""

    def run(partitioned: bool):
        scenario = (
            Scenario(KVStore(), name="scoped-partition")
            .shards(2, partitioner=RangePartitioner(["m"]))
            .replicas(2)
            .exec_delay(0.01)
            .message_delay(0.2)
        )
        if partitioned:
            scenario.partition(0.5, [[0], [1]], shard=1).heal(30.0, shard=1)
        scenario.invoke(1.0, 0, KVStore.put("zeta", 7), label="high")
        scenario.invoke(1.0, 0, KVStore.put("alpha", 3), label="low")
        return scenario.run(well_formed=False)

    split = run(True)
    clean = run(False)
    assert split.converged and clean.converged
    # Shard 0 (keys below "m") never saw the partition: identical history.
    assert _shard_history_signature(split, 0) == (
        _shard_history_signature(clean, 0)
    )
    # Shard 1's replica 1 received the buffered update only after heal.
    high_dot = split.future("high").dot
    event = split.histories[1].event(high_dot)
    assert event.rval is None and split.query(KVStore.get("zeta")) == 7


def test_transfer_across_crash_window_completes_after_recovery():
    """The reviewer scenario: a transfer whose credit-side replica is
    crashed when the debit stabilises. The run must not abort; the credit
    fails over to a live replica of the owner shard, and the recovered
    replica catches up — money conserved throughout."""
    result = (
        Scenario(BankAccounts(), name="crash-window")
        .shards(2, partitioner=RangePartitioner(["m"]))
        .replicas(3)
        .exec_delay(0.05)
        .message_delay(0.5)
        .durability("memory")
        .invoke(1.0, 1, BankAccounts.deposit("alice", 100), label="seed")
        .invoke(
            5.0,
            1,
            BankAccounts.transfer("alice", "zoe", 30),
            strong=True,
            label="move",
        )
        .crash(1, 5.2, recover_at=40.0, shard=1)
        .run(well_formed=False)
    )
    assert result.responses["move"] is True
    assert result.future("move").stable
    assert result.query(BankAccounts.balance("alice")) == 70
    assert result.query(BankAccounts.balance("zoe")) == 30
    assert result.converged


def test_shard_scoped_filter_state_is_per_shard():
    """A stateful rule installed unscoped drops per shard, not globally;
    a scoped rule touches only its shard."""

    def drop_first_n(n):
        remaining = [n]

        def rule(_src, _dst, _payload, _time):
            if remaining[0] > 0:
                remaining[0] -= 1
                return 50.0  # big delay stands in for a drop
            return None

        return rule

    hits = []

    def counting_rule(_src, _dst, _payload, _time):
        hits.append(1)
        return None

    scenario = (
        Scenario(KVStore(), name="scoped-filter")
        .shards(2, partitioner=RangePartitioner(["m"]))
        .replicas(2)
        .exec_delay(0.01)
        .message_delay(0.2)
        .filter(counting_rule, shard=0)
        .invoke(1.0, 0, KVStore.put("alpha", 1), label="low")
        .invoke(1.0, 0, KVStore.put("zeta", 2), label="high")
    )
    result = scenario.run(well_formed=False)
    assert result.converged
    assert hits  # shard 0 traffic consulted the scoped rule
    shard0_messages = len(hits)
    # Unscoped install: both shards consult *independent* copies, so a
    # stateful rule's budget applies per shard.
    hits.clear()
    result2 = (
        Scenario(KVStore(), name="scoped-filter-2")
        .shards(2, partitioner=RangePartitioner(["m"]))
        .replicas(2)
        .exec_delay(0.01)
        .message_delay(0.2)
        .filter(counting_rule)
        .invoke(1.0, 0, KVStore.put("alpha", 1), label="low")
        .invoke(1.0, 0, KVStore.put("zeta", 2), label="high")
    )
    result2 = result2.run(well_formed=False)
    assert result2.converged
    assert len(hits) > shard0_messages  # both shards' traffic now counted


def test_filter_shard_scope_requires_sharded_mode():
    with pytest.raises(ValueError, match="sharded"):
        Scenario(KVStore()).replicas(2).filter(
            lambda *_: None, shard=1
        ).build()


# ----------------------------------------------------------------------
# Routing determinism at the scenario level
# ----------------------------------------------------------------------
@settings(max_examples=10)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_sharded_runs_reproduce_bit_identically(seed):
    """Same (seed, partitioner) ⇒ same placement, same histories."""

    def run():
        return (
            Scenario(KVStore(), name="determinism")
            .shards(2, partitioner=HashPartitioner(seed))
            .replicas(2)
            .exec_delay(0.01)
            .message_delay(0.2)
            .seed(seed)
            .workload(
                "kv",
                keys=KEYS,
                ops_per_session=5,
                think_time=0.1,
                seed=seed,
                sessions=3,
            )
            .run(well_formed=False)
        )

    first = run()
    second = run()
    assert first.router.routed_counts == second.router.routed_counts
    for shard in range(2):
        assert _shard_history_signature(first, shard) == (
            _shard_history_signature(second, shard)
        )
