"""Unit tests for reliable broadcast."""

from repro.broadcast.reliable import ReliableBroadcast
from repro.net.network import FixedLatency, Network
from repro.net.node import RoutingNode
from repro.net.partition import PartitionSchedule
from repro.runtime.sim import SimRuntime
from repro.sim.kernel import Simulator


def build(n=3, partitions=None):
    sim = Simulator()
    network = Network(sim, n, latency=FixedLatency(1.0), partitions=partitions)
    nodes = [RoutingNode(SimRuntime(sim, network), pid) for pid in range(n)]
    inboxes = {pid: [] for pid in range(n)}
    endpoints = []
    for node in nodes:
        endpoints.append(
            ReliableBroadcast(
                node,
                lambda key, payload, pid=node.pid: inboxes[pid].append(key),
            )
        )
    return sim, nodes, endpoints, inboxes


def test_all_other_processes_deliver_once():
    sim, nodes, endpoints, inboxes = build()
    endpoints[0].rb_cast("m1", {"data": 1})
    sim.run()
    assert inboxes[1] == ["m1"]
    assert inboxes[2] == ["m1"]
    # Sender does not deliver through the callback by default (Bayou
    # simulates immediate local delivery inside invoke).
    assert inboxes[0] == []
    assert "m1" in endpoints[0].delivered_keys


def test_duplicate_casts_are_ignored():
    sim, nodes, endpoints, inboxes = build()
    endpoints[0].rb_cast("m1", None)
    endpoints[0].rb_cast("m1", None)
    sim.run()
    assert inboxes[1] == ["m1"]


def test_relay_makes_delivery_uniform_despite_sender_crash():
    """If any correct process delivers, all correct processes deliver.

    The sender's message reaches only process 1 (process 2's link is cut at
    send time by a partition); the sender then crashes. Process 1's relay
    must still bring process 2 up to date once the partition heals.
    """
    partitions = PartitionSchedule(3)
    partitions.split(0.0, [[0, 1], [2]])
    partitions.heal(10.0)
    sim, nodes, endpoints, inboxes = build(partitions=partitions)
    endpoints[0].rb_cast("m1", None)
    sim.schedule(1.5, nodes[0].crash)  # after the send, before the heal
    sim.run()
    assert inboxes[1] == ["m1"]
    assert inboxes[2] == ["m1"]


def test_concurrent_casts_all_delivered():
    sim, nodes, endpoints, inboxes = build()
    endpoints[0].rb_cast("a", None)
    endpoints[1].rb_cast("b", None)
    endpoints[2].rb_cast("c", None)
    sim.run()
    assert sorted(inboxes[0]) == ["b", "c"]
    assert sorted(inboxes[1]) == ["a", "c"]
    assert sorted(inboxes[2]) == ["a", "b"]
