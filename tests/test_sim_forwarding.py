"""The simulated runtime hands every event and send straight to its engine.

``SimRuntime`` binds ``Simulator.schedule`` and ``Network.send`` /
``Network.broadcast`` when it is built, so protocol code reaches the kernel
and the network with no runtime frame in between. Outside code that wraps
those three methods on their classes *before* a deployment is built (the
benchmark's layer tracer does) must therefore still see every event and
every send: they are the hand-over points of the simulated event plane.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Dict, List

import pytest

from repro.core.cluster import BayouCluster
from repro.core.config import BayouConfig
from repro.datatypes.rlist import RList
from repro.net.network import Network
from repro.net.node import RoutingNode
from repro.runtime.sim import SimRuntime
from repro.sim.kernel import Simulator

RUNTIME_FILE = os.path.join("runtime", "sim.py")


def _install_wrappers(monkeypatch) -> Dict[str, Any]:
    """Class-level wrappers that count calls and remember their callers."""
    seen: Dict[str, Any] = {
        "scheduled": 0, "ran": 0, "sends": 0, "broadcasts": 0,
        "sends_in_broadcast": 0, "send_components": 0,
        "broadcast_components": 0, "callers": set(),
    }
    in_broadcast: List[bool] = []
    schedule = Simulator.schedule
    send = Network.send
    broadcast = Network.broadcast
    send_component = RoutingNode.send_component
    broadcast_component = RoutingNode.broadcast_component

    def wrapped_schedule(self, delay, callback, *args, **kwargs):
        seen["scheduled"] += 1
        seen["callers"].add(sys._getframe(1).f_code.co_filename)

        def counted(*call_args):
            seen["ran"] += 1
            return callback(*call_args)

        return schedule(self, delay, counted, *args, **kwargs)

    def wrapped_send(self, sender, receiver, payload):
        seen["sends"] += 1
        if in_broadcast:
            seen["sends_in_broadcast"] += 1
        else:
            seen["callers"].add(sys._getframe(1).f_code.co_filename)
        return send(self, sender, receiver, payload)

    def wrapped_broadcast(self, sender, payload, **kwargs):
        seen["broadcasts"] += 1
        seen["callers"].add(sys._getframe(1).f_code.co_filename)
        in_broadcast.append(True)
        try:
            return broadcast(self, sender, payload, **kwargs)
        finally:
            in_broadcast.pop()

    def wrapped_send_component(self, *args, **kwargs):
        seen["send_components"] += 1
        return send_component(self, *args, **kwargs)

    def wrapped_broadcast_component(self, *args, **kwargs):
        seen["broadcast_components"] += 1
        return broadcast_component(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "schedule", wrapped_schedule)
    monkeypatch.setattr(Network, "send", wrapped_send)
    monkeypatch.setattr(Network, "broadcast", wrapped_broadcast)
    monkeypatch.setattr(RoutingNode, "send_component", wrapped_send_component)
    monkeypatch.setattr(RoutingNode, "broadcast_component", wrapped_broadcast_component)
    return seen


@pytest.mark.parametrize("engine", ["sequencer", "paxos"])
def test_wrappers_on_the_engines_see_every_event_and_send(engine, monkeypatch):
    seen = _install_wrappers(monkeypatch)
    config = BayouConfig(
        n_replicas=3, exec_delay=0.05, message_delay=0.5, latency_jitter=0.3,
        seed=3, tob_engine=engine,
    )
    cluster = BayouCluster(RList(), config)
    for index in range(12):
        cluster.schedule_invoke(
            1.0 + 0.3 * index, index % 3, RList.append(str(index)),
            strong=index % 4 == 1,
        )
    if engine == "paxos":
        assert cluster.run_until_stable(max_time=400.0)
        cluster.shutdown()
    cluster.run_until_quiescent()

    network = cluster.network
    # Every executed event went through ``Simulator.schedule``.
    assert seen["ran"] == cluster.sim.executed_events > 0
    # Every send went through ``Network.send``: the dropped ones too.
    assert seen["sends"] == network.sent_count + network.dropped_count > 0
    # Each component send and broadcast reached the network as one call.
    assert seen["broadcasts"] == seen["broadcast_components"] > 0
    assert seen["sends"] - seen["sends_in_broadcast"] == seen["send_components"] > 0
    # ... with no runtime frame in between.
    assert not [path for path in seen["callers"] if path.endswith(RUNTIME_FILE)]


def test_a_runtime_without_a_network_refuses_to_send():
    runtime = SimRuntime(Simulator())
    with pytest.raises(RuntimeError, match="no network"):
        runtime.send(0, 0, "x")
    with pytest.raises(RuntimeError, match="no network"):
        runtime.broadcast(0, "x")
    with pytest.raises(RuntimeError, match="no network"):
        runtime.broadcast(0, "x", include_self=True)
    # Timers still work without one.
    fired = []
    runtime.schedule(1.0, fired.append, "tick")
    runtime.sim.run_until_quiescent()
    assert fired == ["tick"]
