"""Targeted Multi-Paxos behaviours beyond the generic TOB contract."""

import pytest

from repro import Counter, Scenario
from tests.test_tob_contract import Harness


def test_ballots_escalate_past_stale_promises():
    """A deposed rival's late phase-1 must not wedge the real leader.

    Node 2 is isolated, elects itself, and runs phase 1 with a high round;
    when the partition heals, its stale promises reach the acceptors. The
    nack path must drive node 0's ballot above them so ordering resumes.
    """
    from repro.net.partition import PartitionSchedule

    partitions = PartitionSchedule(3)
    partitions.split(0.0, [[0, 1], [2]])
    partitions.heal(60.0)
    rig = Harness("paxos", partitions=partitions)
    rig.endpoints[2].tob_cast("minority-cmd", None)  # forces 2's leadership
    rig.endpoints[0].tob_cast("pre-heal", None)
    rig.run(until=300.0)
    rig.endpoints[1].tob_cast("post-heal", None)
    rig.run(until=700.0)
    rig.shutdown()
    for pid in range(3):
        assert "post-heal" in rig.delivered[pid]
    # Some node escalated beyond round 1: the nack machinery engaged.
    assert max(ep._max_round_seen for ep in rig.endpoints) >= 2


def test_noop_gaps_do_not_reach_the_application():
    """Holes plugged with NOOP are invisible to delivery."""
    rig = Harness("paxos")
    rig.endpoints[0].tob_cast("one", None)
    rig.run(until=60.0)
    rig.nodes[0].crash()  # leadership churn mid-stream
    rig.endpoints[1].tob_cast("two", None)
    rig.endpoints[2].tob_cast("three", None)
    rig.run(until=600.0)
    rig.shutdown()
    for pid in (1, 2):
        delivered = rig.delivered[pid]
        assert sorted(delivered) == ["one", "three", "two"]
        assert all(not str(key).startswith("__paxos") for key in delivered)


def test_resubmitted_key_is_not_double_delivered():
    rig = Harness("paxos")
    rig.endpoints[1].tob_cast("cmd", "payload")
    rig.run(until=30.0)
    # Simulate an impatient client path: resubmit through another node.
    rig.endpoints[2].tob_cast("cmd", "payload")
    rig.run(until=300.0)
    rig.shutdown()
    for pid in range(3):
        assert rig.delivered[pid].count("cmd") == 1


def test_two_successive_leader_crashes():
    rig = Harness("paxos")
    rig.endpoints[0].tob_cast("a", None)
    rig.run(until=50.0)
    rig.nodes[0].crash()
    rig.endpoints[1].tob_cast("b", None)
    rig.run(until=300.0)
    rig.nodes[1].crash()
    rig.endpoints[2].tob_cast("c", None)
    rig.run(until=900.0)
    rig.shutdown()
    # n=3 with two crashes leaves no majority: 'c' must NOT be decided.
    assert "c" not in rig.delivered[2]
    # But everything decided while a majority existed did reach node 2.
    assert "a" in rig.delivered[2] and "b" in rig.delivered[2]


def test_learner_catches_up_after_rejoining():
    """A node cut off during decisions learns them via anti-entropy repair."""
    from repro.net.partition import PartitionSchedule

    partitions = PartitionSchedule(3)
    partitions.split(10.0, [[0, 1], [2]])
    partitions.heal(120.0)
    rig = Harness("paxos", partitions=partitions)
    rig.run(until=15.0)  # let Ω stabilise, then cut node 2 off
    rig.endpoints[0].tob_cast("while-away-1", None)
    rig.endpoints[1].tob_cast("while-away-2", None)
    rig.run(until=110.0)
    assert rig.delivered[2] == []
    rig.run(until=600.0)
    rig.shutdown()
    assert rig.delivered[2] == rig.delivered[0]
    assert len(rig.delivered[2]) == 2


def _slow_network_increment(extra_delay):
    """One strong increment on 3 Paxos replicas, every Paxos message
    ``extra_delay`` slower than the base delay; the op's future at t=400."""
    live = (
        Scenario(Counter())
        .replicas(3)
        .tob("paxos")
        .tob_extra_delay(extra_delay)
        .invoke(1.0, 0, Counter.increment(1), strong=True, label="inc")
        .build()
    )
    live.run(until=400.0)
    return live.futures["inc"]


def test_strong_op_decides_on_a_uniformly_slow_network():
    """The control for the test below: at 5 extra per message the op is
    answered, already stable."""
    future = _slow_network_increment(5.0)
    assert future.done and future.stable
    assert future.response_time == future.stable_time == 24.0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="CHANGES.md FOUND: broadcast/paxos.py never decides when every "
    "Paxos message is slower than about half paxos_retry_interval (each "
    "retry re-prepares before the previous prepare's round trip completes)",
)
def test_strong_op_decides_when_paxos_messages_are_slower_than_half_a_retry():
    future = _slow_network_increment(8.0)
    assert future.done
