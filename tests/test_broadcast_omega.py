"""Unit tests for the Ω failure detector."""

import pytest

from repro.broadcast.failure_detector import OmegaFailureDetector
from repro.net.network import FixedLatency, Network
from repro.net.node import RoutingNode
from repro.net.partition import PartitionSchedule
from repro.runtime.sim import SimRuntime
from repro.sim.kernel import Simulator


def build(n=3, partitions=None, heartbeat=2.0, timeout=7.0):
    sim = Simulator()
    network = Network(sim, n, latency=FixedLatency(0.5), partitions=partitions)
    nodes = [RoutingNode(SimRuntime(sim, network), pid) for pid in range(n)]
    detectors = [
        OmegaFailureDetector(
            node, heartbeat_interval=heartbeat, timeout=timeout
        )
        for node in nodes
    ]
    for detector in detectors:
        sim.schedule(0.0, detector.start)
    return sim, nodes, detectors


def stop_all(detectors):
    for detector in detectors:
        detector.stop()


def test_all_trust_lowest_pid_in_stable_run():
    sim, nodes, detectors = build()
    sim.run(until=30.0)
    assert [d.leader() for d in detectors] == [0, 0, 0]
    stop_all(detectors)
    sim.run()


def test_crash_of_leader_elects_next():
    sim, nodes, detectors = build()
    sim.schedule(5.0, nodes[0].crash)
    sim.run(until=40.0)
    assert detectors[1].leader() == 1
    assert detectors[2].leader() == 1
    stop_all(detectors)
    sim.run()


def test_partition_elects_per_component_leaders():
    partitions = PartitionSchedule(3)
    partitions.split(5.0, [[0], [1, 2]])
    sim, nodes, detectors = build(partitions=partitions)
    sim.run(until=40.0)
    assert detectors[0].leader() == 0       # isolated, trusts itself
    assert detectors[1].leader() == 1       # majority side suspects 0
    assert detectors[2].leader() == 1
    stop_all(detectors)
    sim.run(until=60.0)


def test_leader_change_callback_fires():
    sim, nodes, detectors = build()
    changes = []
    detectors[1].on_leader_change = changes.append
    sim.schedule(5.0, nodes[0].crash)
    sim.run(until=40.0)
    assert 1 in changes
    stop_all(detectors)
    sim.run()


def test_timeout_must_exceed_heartbeat():
    sim = Simulator()
    network = Network(sim, 1)
    node = RoutingNode(SimRuntime(sim, network), 0)
    with pytest.raises(ValueError):
        OmegaFailureDetector(node, heartbeat_interval=5.0, timeout=5.0)


def test_suspected_lists_silent_peers():
    sim, nodes, detectors = build()
    sim.schedule(5.0, nodes[2].crash)
    sim.run(until=40.0)
    assert 2 in detectors[0].suspected()
    assert 2 in detectors[1].suspected()
    stop_all(detectors)
    sim.run()
