"""Unit tests for routing nodes and fault injection."""

import pytest

from repro.net.faults import CrashSchedule, MessageFilter
from repro.net.network import FixedLatency, Network
from repro.net.node import RoutingNode
from repro.runtime.sim import SimRuntime
from repro.sim.kernel import Simulator


def build(n=2):
    sim = Simulator()
    network = Network(sim, n, latency=FixedLatency(1.0))
    nodes = [RoutingNode(SimRuntime(sim, network), pid) for pid in range(n)]
    return sim, network, nodes


def test_component_routing():
    sim, network, nodes = build()
    inbox_a, inbox_b = [], []
    nodes[1].register_component("a", lambda s, p: inbox_a.append(p))
    nodes[1].register_component("b", lambda s, p: inbox_b.append(p))
    nodes[0].register_component("a", lambda s, p: None)
    nodes[0].send_component(1, "a", "for-a")
    nodes[0].send_component(1, "b", "for-b")
    sim.run()
    assert inbox_a == ["for-a"]
    assert inbox_b == ["for-b"]


def test_duplicate_tag_rejected():
    sim, network, nodes = build()
    nodes[0].register_component("x", lambda s, p: None)
    with pytest.raises(ValueError):
        nodes[0].register_component("x", lambda s, p: None)


def test_unknown_tag_raises():
    sim, network, nodes = build()
    nodes[0].send_component(1, "nope", "payload")
    with pytest.raises(KeyError):
        sim.run()


def test_broadcast_component():
    sim, network, nodes = build(n=3)
    hits = []
    for node in nodes:
        node.register_component("t", lambda s, p, pid=node.pid: hits.append(pid))
    nodes[0].broadcast_component("t", "msg")
    sim.run()
    assert sorted(hits) == [1, 2]


def test_crash_schedule_arms_crash_and_recovery():
    sim, network, nodes = build()
    schedule = CrashSchedule()
    schedule.add(0, crash_at=5.0, recover_at=10.0)
    schedule.arm(sim, {0: nodes[0], 1: nodes[1]})
    sim.run(until=6.0)
    assert nodes[0].crashed
    sim.run(until=11.0)
    assert not nodes[0].crashed


def test_crash_schedule_validates_recovery_time():
    schedule = CrashSchedule()
    with pytest.raises(ValueError):
        schedule.add(0, crash_at=5.0, recover_at=5.0)


def test_timer_suppressed_after_crash():
    sim, network, nodes = build()
    fired = []
    nodes[0].set_timer(5.0, lambda: fired.append(True))
    nodes[0].crash()
    sim.run()
    assert fired == []


def test_message_filter_drop_wins_over_delay():
    filters = MessageFilter()
    filters.delay_between(0, 1, 2.0)
    filters.drop_between(0, 1)
    assert filters.verdict(0, 1, "x", 0.0) == MessageFilter.DROP


def test_message_filter_none_when_no_match():
    filters = MessageFilter()
    filters.delay_between(0, 1, 2.0)
    assert filters.verdict(1, 0, "x", 0.0) is None
