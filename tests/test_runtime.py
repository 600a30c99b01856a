"""The runtime seam: both backends honour the same process contract.

The regression pinned hardest here: a :class:`ProcessTimer` cancelled
*after* its process crash-stops must never fire — on either backend. The
sim backend cancels the kernel event outright; the asyncio backend can race
``call_later`` dispatch, so the fire-time re-check in ``Process._fire`` is
what saves it. Both paths are exercised.

``schedule(delay, callback, *args)`` carries positional arguments on both
backends, and a process timer rides on it (``_fire(timer)``, no closure):
the timer's three fates — fired, cancelled, suppressed-then-resurrected —
are pinned on the simulator and on asyncio.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.broadcast.failure_detector import OmegaFailureDetector
from repro.broadcast.paxos import PaxosTOB
from repro.datatypes import KVStore
from repro.net.network import Network
from repro.net.node import RoutingNode
from repro.runtime.asyncio_net import AsyncioRuntime
from repro.runtime.base import Runtime, RuntimeTimeView
from repro.runtime.serve import ClusterSpec, ReplicaServer
from repro.runtime.sim import SimRuntime
from repro.sim.clock import DriftingClock
from repro.sim.kernel import Simulator
from repro.sim.process import Process


# ---------------------------------------------------------------------------
# SimRuntime: pure delegation to the kernel and the simulated network
# ---------------------------------------------------------------------------


def test_sim_runtime_clock_and_timers_delegate_to_kernel():
    sim = Simulator()
    runtime = SimRuntime(sim)
    fired = []
    runtime.schedule(2.0, lambda: fired.append(runtime.now()))
    cancelled = runtime.schedule(1.0, lambda: fired.append("never"))
    cancelled.cancel()
    assert cancelled.cancelled
    sim.run_until_quiescent()
    assert fired == [2.0]
    assert runtime.now() == sim.now


def test_sim_runtime_schedule_and_spawn_carry_arguments():
    sim = Simulator()
    runtime = SimRuntime(sim)
    calls = []
    runtime.schedule(2.0, lambda *args: calls.append(args), "a", "b", label="x")
    runtime.spawn(lambda *args: calls.append(args), "soon")
    runtime.schedule(1.0, lambda *args: calls.append(args), "never").cancel()
    sim.run_until_quiescent()
    assert calls == [("soon",), ("a", "b")]


def test_sim_runtime_routes_node_traffic():
    sim = Simulator()
    network = Network(sim, 2)
    runtime = SimRuntime(sim, network)
    assert runtime.n_processes == 2
    got = []
    nodes = [RoutingNode(runtime, pid) for pid in range(2)]
    for node in nodes:
        node.register_component(
            "t", lambda sender, payload, pid=node.pid: got.append((pid, sender, payload))
        )
    nodes[0].send_component(1, "t", "hello")
    nodes[1].broadcast_component("t", "all")
    sim.run_until_quiescent()
    assert sorted(got) == [(0, 1, "all"), (1, 0, "hello")]
    assert network.sent_count == 2


def test_runtime_timeview_feeds_drifting_clock():
    sim = Simulator()
    runtime = SimRuntime(sim)
    clock = DriftingClock(runtime.timeview, offset=5.0, rate=2.0)
    sim.schedule(3.0, lambda: None)
    sim.run_until_quiescent()
    assert clock.now() == pytest.approx(5.0 + 2.0 * 3.0)


# ---------------------------------------------------------------------------
# The cancelled-after-crash-stop regression, sim backend
# ---------------------------------------------------------------------------


def test_timer_cancelled_after_crash_stop_never_fires_sim():
    sim = Simulator()
    process = Process(SimRuntime(sim), 0)
    fired = []
    timer = process.set_timer(1.0, lambda: fired.append("boom"), resurrect=True)
    process.crash("stop")
    timer.cancel()
    sim.run_until_quiescent()
    assert fired == []
    assert timer.cancelled and not timer.fired and not timer.suppressed
    # Even a (contract-violating) recovery cannot resurrect it: cancelled
    # means dead for good.
    process.recover()
    sim.run_until_quiescent()
    assert fired == []


def test_suppressed_timer_resurrects_but_cancelled_one_does_not():
    sim = Simulator()
    process = Process(SimRuntime(sim), 0)
    fired = []
    keep = process.set_timer(1.0, lambda: fired.append("keep"), resurrect=True)
    dead = process.set_timer(1.0, lambda: fired.append("dead"), resurrect=True)
    process.crash("recover")
    sim.run_until_quiescent()
    assert keep.suppressed and not dead.fired
    dead.cancel()
    process.recover()
    sim.run_until_quiescent()
    assert fired == ["keep"]


def test_timer_fates_on_sim_fired_cancelled_resurrected():
    """A resurrected timer is re-armed with its original delay, callback and
    label, counted from the recovery."""
    sim = Simulator()
    process = Process(SimRuntime(sim), 0)
    fired = []

    def tick():
        fired.append(sim.now)

    plain = process.set_timer(1.0, tick)
    dead = process.set_timer(1.5, tick, label="dead")
    dead.cancel()
    sim.run_until_quiescent()
    assert fired == [1.0]
    assert plain.fired and not plain.pending and plain.label
    assert dead.cancelled and not dead.fired

    periodic = process.set_timer(2.0, tick, label="periodic", resurrect=True)
    one_shot = process.set_timer(2.0, tick, label="one-shot")
    process.crash("recover")
    sim.run_until_quiescent()
    assert periodic.suppressed and one_shot.suppressed and fired == [1.0]
    rearmed = []
    set_timer = process.set_timer

    def spy(delay, callback, **options):
        rearmed.append((delay, callback, options))
        return set_timer(delay, callback, **options)

    process.set_timer = spy
    sim.schedule_at(10.0, process.recover)
    sim.run_until_quiescent()
    assert rearmed == [(2.0, tick, {"label": "periodic", "resurrect": True})]
    assert fired == [1.0, 12.0]  # recovered at 10, original delay of 2
    assert process._suppressed_timers == []


# ---------------------------------------------------------------------------
# Asyncio backend (loopback only — no cross-process sockets in tier-1)
# ---------------------------------------------------------------------------


def _loopback_runtime(port: int = 0) -> AsyncioRuntime:
    return AsyncioRuntime(0, {0: ("127.0.0.1", port)})


def test_timer_cancelled_after_crash_stop_never_fires_asyncio():
    async def scenario():
        runtime = _loopback_runtime()
        process = Process(runtime, 0)
        fired = []
        timer = process.set_timer(0.01, lambda: fired.append("boom"))
        process.crash("stop")
        timer.cancel()
        await asyncio.sleep(0.05)
        assert fired == []
        assert timer.cancelled and not timer.fired and not timer.suppressed
        return True

    assert asyncio.run(scenario())


def test_asyncio_cancel_races_dispatch_guard():
    """Cancel once the callback is already queued: the guard must hold."""

    async def scenario():
        runtime = _loopback_runtime()
        process = Process(runtime, 0)
        fired = []
        timer = process.set_timer(0.0, lambda: fired.append("boom"))
        # call_later(0) has already enqueued the callback; TimerHandle.cancel
        # still prevents it, and the wrapper re-checks ``cancelled`` anyway.
        timer.cancel()
        await asyncio.sleep(0.02)
        return fired

    assert asyncio.run(scenario()) == []


def test_asyncio_schedule_carries_arguments_also_before_the_loop_runs():
    """``schedule(delay, fn, a, b)`` calls ``fn(a, b)``; a timer armed before
    ``asyncio.run`` is held until ``start()`` and keeps its arguments, and a
    cancelled one — pre-start or live — never fires."""
    runtime = _loopback_runtime()
    calls = []
    runtime.schedule(0.0, lambda *args: calls.append(args), "pre", 1, label="x")
    runtime.schedule(0.0, lambda *args: calls.append(args), "pre-dead").cancel()

    async def scenario():
        await runtime.start()
        runtime.schedule(0.0, lambda *args: calls.append(args), "live", 2)
        runtime.spawn(lambda *args: calls.append(args))
        runtime.schedule(0.0, lambda *args: calls.append(args), "dead").cancel()
        await asyncio.sleep(0.05)
        await runtime.stop()

    asyncio.run(scenario())
    assert sorted(calls) == [(), ("live", 2), ("pre", 1)]


def test_timer_fates_on_asyncio_fired_cancelled_resurrected():
    async def scenario():
        runtime = _loopback_runtime()
        process = Process(runtime, 0)
        fired = []
        plain = process.set_timer(0.0, lambda: fired.append("plain"))
        dead = process.set_timer(0.0, lambda: fired.append("dead"))
        dead.cancel()
        await asyncio.sleep(0.02)
        assert fired == ["plain"] and plain.fired and not dead.fired

        def tick():
            fired.append("tick")

        periodic = process.set_timer(0.01, tick, label="periodic", resurrect=True)
        process.crash("recover")
        await asyncio.sleep(0.05)
        assert periodic.suppressed and fired == ["plain"]
        assert process._suppressed_timers == [periodic]
        process.recover()
        await asyncio.sleep(0.05)
        assert fired == ["plain", "tick"]
        return True

    assert asyncio.run(scenario())


def test_asyncio_runtime_loopback_delivery_and_clock():
    async def scenario():
        runtime = _loopback_runtime()
        got = []

        class Sink(Process):
            def on_message(self, sender, message):
                got.append((sender, message))

        sink = Sink(runtime, 0)
        runtime.register(sink)
        runtime.send(0, 0, ("tag", "self-message"))
        assert got == []  # never reentrant: delivery happens on the loop
        await asyncio.sleep(0)
        assert got == [(0, ("tag", "self-message"))]
        before = runtime.now()
        await asyncio.sleep(0.01)
        assert runtime.now() > before >= 0.0
        return True

    assert asyncio.run(scenario())


def test_asyncio_runtime_two_processes_exchange_over_tcp():
    """Two runtimes in one loop talk through real localhost sockets."""

    async def scenario():
        first = AsyncioRuntime(0, {0: ("127.0.0.1", 0), 1: ("127.0.0.1", 0)})
        await first.start()
        peers = {0: ("127.0.0.1", first.bound_port), 1: ("127.0.0.1", 0)}
        second = AsyncioRuntime(1, peers)
        await second.start()
        peers[1] = ("127.0.0.1", second.bound_port)
        first.peers[1] = peers[1]

        got = asyncio.Queue()

        class Echo(Process):
            def on_message(self, sender, message):
                got.put_nowait((self.pid, sender, message))
                if message == "ping":
                    self.runtime.send(self.pid, sender, "pong")

        first.register(Echo(first, 0))
        second.register(Echo(second, 1))

        first.send(0, 1, "ping")
        assert await asyncio.wait_for(got.get(), 5) == (1, 0, "ping")
        assert await asyncio.wait_for(got.get(), 5) == (0, 1, "pong")

        await first.stop()
        await second.stop()
        return True

    assert asyncio.run(scenario())


def test_asyncio_runtime_is_a_runtime():
    runtime = _loopback_runtime()
    assert isinstance(runtime, Runtime)
    assert isinstance(runtime.timeview, RuntimeTimeView)
    assert runtime.n_processes == 1


def test_paxos_stack_builds_before_the_loop_exists_and_runs_after():
    """``python -m repro serve`` constructs its replica before
    ``asyncio.run``: building Ω + Paxos must read no clock, and the timer
    Paxos arms at construction must fire once the runtime starts."""
    runtime = _loopback_runtime()
    with pytest.raises(RuntimeError):
        runtime.now()  # the runtime has no clock until a loop runs
    node = RoutingNode(runtime, 0)
    delivered = []
    omega = OmegaFailureDetector(node, heartbeat_interval=0.05, timeout=0.2)
    tob = PaxosTOB(
        node, lambda key, payload: delivered.append(key), omega,
        retry_interval=0.1,
    )

    async def scenario():
        await runtime.start()  # arms the prewarm timer held since construction
        omega.start()
        tob.tob_cast("k", "v")
        for _ in range(200):
            if delivered:
                break
            await asyncio.sleep(0.01)
        tob.stop()
        omega.stop()
        await runtime.stop()
        return delivered

    assert asyncio.run(scenario()) == ["k"]


# ---------------------------------------------------------------------------
# ReplicaServer: per-operation state is released, spec files are validated
# ---------------------------------------------------------------------------


def test_replica_server_releases_per_op_state_once_stable():
    """A server lives long: every served operation's record must go once
    the op is stable and its waiters are answered. (The three waiter dicts
    this replaced kept one ``_responses`` entry per op forever.)"""
    async def scenario():
        server = ReplicaServer(ClusterSpec(n_replicas=1, ports=[0]), 0)
        await server.start()
        try:
            for index in range(20):
                reply = await asyncio.wait_for(
                    server._handle_rpc(
                        "invoke",
                        {
                            "op": KVStore.put(f"k{index}", index),
                            "strong": index % 2 == 0,
                            "wait": "stable",
                        },
                    ),
                    5,
                )
                assert reply["stable"] and reply["dot"] == (0, index + 1)
            assert len(server.ops.futures) == 0

            # Fire-and-forget: held while in flight, released at commit.
            reply = await server._handle_rpc(
                "invoke", {"op": KVStore.put("k", "v"), "wait": "none"}
            )
            assert "value" not in reply
            assert len(server.ops.futures) == 1
            for _ in range(500):
                if reply["dot"] in server._rpc_status()["committed"]:
                    break
                await asyncio.sleep(0.01)
            assert reply["dot"] in server._rpc_status()["committed"]
            assert len(server.ops.futures) == 0
        finally:
            await server.stop()
        return True

    assert asyncio.run(scenario())


def test_cluster_spec_from_json_names_unknown_keys():
    """A spec file is outside input: a misspelt key must be reported by
    name with the valid keys, not as a bare ``TypeError`` from the
    dataclass constructor."""
    good = ClusterSpec(n_replicas=2, ports=[9001, 9002]).to_json()
    assert ClusterSpec.from_json(good).to_json() == good
    with pytest.raises(ValueError) as raised:
        ClusterSpec.from_json({**good, "tob_engin": "paxos", "zzz": 1})
    message = str(raised.value)
    assert "tob_engin" in message and "zzz" in message
    assert "tob_engine" in message and "durability_dir" in message
