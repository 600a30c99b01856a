"""Tests for the pairwise anti-entropy dissemination substrate."""

import pytest

from repro.broadcast.anti_entropy import AntiEntropy
from repro.core.cluster import BayouCluster, MODIFIED, ORIGINAL
from repro.core.config import BayouConfig
from repro.datatypes.counter import Counter
from repro.datatypes.rlist import RList
from repro.framework.builder import build_abstract_execution
from repro.framework.guarantees import check_fec, check_seq
from repro.framework.history import STRONG, WEAK
from repro.net.network import FixedLatency, Network
from repro.net.node import RoutingNode
from repro.net.partition import PartitionSchedule
from repro.runtime.sim import SimRuntime
from repro.sim.kernel import Simulator


def build_endpoints(n=3, partitions=None, sync_interval=1.0):
    sim = Simulator()
    network = Network(sim, n, latency=FixedLatency(0.3), partitions=partitions)
    nodes = [RoutingNode(SimRuntime(sim, network), pid) for pid in range(n)]
    inboxes = {pid: [] for pid in range(n)}
    endpoints = [
        AntiEntropy(
            node,
            lambda key, payload, pid=node.pid: inboxes[pid].append(key),
            sync_interval=sync_interval,
        )
        for node in nodes
    ]
    return sim, network, endpoints, inboxes


def test_update_reaches_every_peer_exactly_once():
    sim, network, endpoints, inboxes = build_endpoints()
    endpoints[0].rb_cast((0, 1), "payload")
    sim.run(until=60.0)
    assert inboxes[1] == [(0, 1)]
    assert inboxes[2] == [(0, 1)]
    assert inboxes[0] == []  # own casts are not re-delivered


def test_foreign_dot_rejected():
    sim, network, endpoints, inboxes = build_endpoints()
    with pytest.raises(ValueError):
        endpoints[1].rb_cast((0, 1), "not mine")


def test_per_origin_delivery_is_in_order():
    sim, network, endpoints, inboxes = build_endpoints()
    for number in range(1, 6):
        endpoints[0].rb_cast((0, number), number)
    sim.run(until=100.0)
    assert inboxes[2] == [(0, n) for n in range(1, 6)]


def test_version_vectors_converge_and_protocol_quiesces():
    sim, network, endpoints, inboxes = build_endpoints()
    endpoints[0].rb_cast((0, 1), "a")
    endpoints[1].rb_cast((1, 1), "b")
    endpoints[2].rb_cast((2, 1), "c")
    quiescence = sim.run_until_quiescent()
    vectors = [endpoint.version_vector() for endpoint in endpoints]
    assert vectors[0] == vectors[1] == vectors[2] == {0: 1, 1: 1, 2: 1}
    assert quiescence < 120.0  # converged and then *stopped syncing*


def test_partition_heals_through_later_sessions():
    partitions = PartitionSchedule(3)
    partitions.split(0.0, [[0, 1], [2]])
    partitions.heal(30.0)
    sim, network, endpoints, inboxes = build_endpoints(partitions=partitions)
    endpoints[0].rb_cast((0, 1), "x")
    sim.run(until=200.0)
    assert (0, 1) in inboxes[2]


def test_transitive_spread_without_direct_link():
    """Updates travel through intermediaries — the laptop-to-laptop story."""
    from repro.net.faults import MessageFilter

    filters = MessageFilter()
    filters.drop_between(0, 2)
    filters.drop_between(2, 0)
    sim = Simulator()
    network = Network(sim, 3, latency=FixedLatency(0.3), filters=filters)
    nodes = [RoutingNode(SimRuntime(sim, network), pid) for pid in range(3)]
    inboxes = {pid: [] for pid in range(3)}
    endpoints = [
        AntiEntropy(
            node,
            lambda key, payload, pid=node.pid: inboxes[pid].append(key),
            sync_interval=1.0,
        )
        for node in nodes
    ]
    endpoints[0].rb_cast((0, 1), "via-middle")
    sim.run(until=120.0)
    assert (0, 1) in inboxes[2]  # reached 2 via 1 despite the dead link


def test_bayou_cluster_over_anti_entropy_converges():
    config = BayouConfig(
        n_replicas=3,
        exec_delay=0.02,
        message_delay=0.5,
        dissemination="anti_entropy",
        ae_sync_interval=1.0,
    )
    cluster = BayouCluster(Counter(), config, protocol=ORIGINAL)
    for index in range(6):
        cluster.schedule_invoke(
            1.0 + index * 1.5, index % 3, Counter.increment(1),
            strong=index == 3,
        )
    cluster.run_until_quiescent()
    assert cluster.converged()
    assert cluster.replicas[0].state.snapshot()["counter:value"] == 6


def test_bayou_over_anti_entropy_passes_theorem2_checks():
    config = BayouConfig(
        n_replicas=3,
        exec_delay=0.02,
        message_delay=0.5,
        dissemination="anti_entropy",
        ae_sync_interval=1.0,
    )
    cluster = BayouCluster(RList(), config, protocol=MODIFIED)
    for index in range(6):
        cluster.schedule_invoke(
            1.0 + index * 3.0, index % 3, RList.append(str(index)),
            strong=index % 3 == 1,
        )
    cluster.run_until_quiescent()
    cluster.add_horizon_probes(RList.read)
    cluster.run_until_quiescent()
    history = cluster.build_history(well_formed=False)
    execution = build_abstract_execution(history)
    assert check_fec(execution, WEAK).ok
    assert check_seq(execution, STRONG).ok


def test_anti_entropy_uses_fewer_messages_than_rb_at_scale():
    """The bandwidth trade-off: n² eager relays vs pairwise sessions."""

    def messages(dissemination):
        config = BayouConfig(
            n_replicas=6,
            exec_delay=0.01,
            message_delay=0.2,
            dissemination=dissemination,
            ae_sync_interval=1.0,
        )
        cluster = BayouCluster(Counter(), config, protocol=MODIFIED)
        for index in range(12):
            cluster.schedule_invoke(
                1.0 + index * 0.2, index % 6, Counter.increment(1)
            )
        cluster.run_until_quiescent()
        assert cluster.converged()
        return cluster.network.sent_count

    rb_messages = messages("rb")
    ae_messages = messages("anti_entropy")
    # Both include TOB traffic; the dissemination difference still shows.
    assert ae_messages < rb_messages
