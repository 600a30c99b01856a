"""The event plane makes no cyclic garbage.

A timer's backend handle carries the timer among its callback arguments,
so a timer that kept its handle after firing (or after being cancelled)
would form a reference cycle: timer → handle → arguments → timer. Reference
counting never frees such a loop; only the cyclic collector does, and on a
simulated run that is one loop per timer. These tests run seeded clusters
and single timers with the collector off, then collect once with
``DEBUG_SAVEALL`` and look at what the collector found: no timer or event
record may be among it, and the amount must not grow with the run's length.
"""

from __future__ import annotations

import asyncio
import gc
from collections import Counter
from contextlib import contextmanager
from typing import Iterator, List

import pytest

from repro.core.cluster import BayouCluster
from repro.core.config import BayouConfig
from repro.datatypes.counter import Counter as CounterType
from repro.net.faults import CrashSchedule
from repro.runtime.asyncio_net import AsyncioRuntime
from repro.runtime.sim import SimRuntime
from repro.sim.kernel import Simulator
from repro.sim.process import Process

#: The record types of the event plane; none may ever be cyclic garbage.
TIMER_TYPES = {"ProcessTimer", "ScheduledEvent", "AsyncioTimer", "TimerHandle"}


@contextmanager
def _cyclic_garbage() -> Iterator[List[object]]:
    """Run the body with the collector off; yield what one collection at
    its end finds unreachable (the list is filled when the body exits)."""
    found: List[object] = []
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield found
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found.extend(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def _types(garbage: List[object]) -> Counter:
    return Counter(type(item).__name__ for item in garbage)


def _run_cluster(kind: str, ops: int) -> BayouCluster:
    """A seeded 3-replica run of ``ops`` weak and strong increments."""
    engine = dict(tob_engine="paxos") if kind == "paxos" else {}
    crashes = None
    if kind == "crash-recovery":
        # Anti-entropy's sync tick is a resurrecting timer: the crashed
        # replica's tick is suppressed while it is down and re-armed at
        # recovery.
        engine = dict(
            dissemination="anti_entropy", ae_sync_interval=1.0, durability="memory"
        )
        crashes = CrashSchedule()
        crashes.add(2, ops * 0.1, ops * 0.2, mode="recover")
    config = BayouConfig(
        n_replicas=3,
        exec_delay=0.05,
        message_delay=0.5,
        latency_jitter=0.3,
        seed=5,
        **engine,
    )
    cluster = BayouCluster(CounterType(), config, crashes=crashes)
    # Clients cannot reach a crashed replica: that run invokes on 0 and 1.
    origins = 2 if crashes is not None else 3
    for index in range(ops):
        op = CounterType.read() if index % 5 == 4 else CounterType.increment(index)
        cluster.schedule_invoke(
            1.0 + 0.4 * index, index % origins, op, strong=index % 7 == 3
        )
    if kind == "sequencer":
        cluster.run_until_quiescent()
    else:
        assert cluster.run_until_stable(max_time=1.0 + 0.4 * ops + 400.0)
        cluster.shutdown()
        cluster.run_until_quiescent()
    return cluster


@pytest.mark.parametrize("kind", ["sequencer", "paxos", "crash-recovery"])
def test_a_cluster_run_leaves_no_timer_garbage(kind, monkeypatch):
    resurrected: List[object] = []
    if kind == "crash-recovery":
        # Collect the timers ``recover`` re-arms, to check they really fire.
        original_recover = Process.recover
        original_set_timer = Process.set_timer
        recovering: List[bool] = []

        def recover(self):
            recovering.append(True)
            try:
                original_recover(self)
            finally:
                recovering.pop()

        def set_timer(self, *args, **kwargs):
            timer = original_set_timer(self, *args, **kwargs)
            if recovering:
                resurrected.append(timer)
            return timer

        monkeypatch.setattr(Process, "recover", recover)
        monkeypatch.setattr(Process, "set_timer", set_timer)

    amounts = []
    for ops in (200, 400):
        with _cyclic_garbage() as garbage:
            cluster = _run_cluster(kind, ops)
            futures = list(cluster.ops.futures.values())
            assert len(futures) == ops and all(f.stable for f in futures)
            del futures
        types = _types(garbage)
        assert not TIMER_TYPES & set(types), types.most_common(6)
        amounts.append(len(garbage))
        del garbage[:]
        del cluster
    # What is left does not grow with the run: it is not per event.
    assert amounts[1] <= amounts[0], amounts
    if kind == "crash-recovery":
        assert resurrected and all(timer.fired for timer in resurrected)


def test_process_timers_of_every_fate_leave_no_garbage():
    """Fired, cancelled (before and after firing), suppressed and
    resurrected timers on the simulator."""
    with _cyclic_garbage() as garbage:
        sim = Simulator()
        process = Process(SimRuntime(sim), 0)
        fired: List[str] = []
        process.set_timer(1.0, lambda: fired.append("plain"))
        process.set_timer(1.0, lambda: fired.append("dead")).cancel()
        late = process.set_timer(0.5, lambda: fired.append("late"))
        process.set_timer(2.0, lambda: fired.append("tick"), resurrect=True)
        sim.run(until=1.5)
        late.cancel()
        process.crash("recover")
        sim.run_until_quiescent()
        process.recover()
        sim.run_until_quiescent()
        assert fired == ["late", "plain", "tick"]
        del late
    assert not TIMER_TYPES & set(_types(garbage)), _types(garbage)


def test_asyncio_timers_leave_no_garbage():
    """A fired timer, a cancelled one and one armed before the loop ran."""
    with _cyclic_garbage() as garbage:
        runtime = AsyncioRuntime(0, {0: ("127.0.0.1", 0)})
        process = Process(runtime, 0)
        fired: List[str] = []
        process.set_timer(0.0, lambda: fired.append("prestart"))

        async def scenario() -> None:
            await runtime.start()
            process.set_timer(0.0, lambda: fired.append("live"))
            process.set_timer(0.0, lambda: fired.append("dead")).cancel()
            runtime.schedule(0.0, fired.append, "raw")
            await asyncio.sleep(0.05)
            await runtime.stop()

        asyncio.run(scenario())
        assert sorted(fired) == ["live", "prestart", "raw"]
    types = _types(garbage)
    assert not TIMER_TYPES & set(types), types.most_common(6)
