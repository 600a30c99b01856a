"""The replica's steps and the Paxos flush are plain runtime events.

A Bayou step (``bayou.step``, or ``bayou.batch`` for the batched engine) and
the Paxos same-instant flush (``paxos.flush``) are scheduled straight on the
runtime, not through ``Process.set_timer``: none of them needs a timer's
crash bookkeeping. Each callback returns at once when its node is down and
lets go of its handle, so nothing is held across the downtime; recovery
re-arms the step for whatever backlog the rebuilt replica has.
"""

from typing import List

import pytest

from repro.core.cluster import BayouCluster
from repro.core.config import BayouConfig
from repro.datatypes.counter import Counter
from repro.net.faults import CrashSchedule
from repro.sim.kernel import Simulator
from repro.sim.process import Process

ENGINE_LABELS = {"bayou.step", "bayou.batch", "paxos.flush"}


@pytest.mark.parametrize("reorder_engine", ["stepwise", "batched"])
@pytest.mark.parametrize("durability", ["none", "memory"])
def test_a_step_due_while_down_does_no_work_and_holds_no_handle(
    reorder_engine, durability
):
    config = BayouConfig(
        n_replicas=3,
        exec_delay=2.0,
        message_delay=0.5,
        reorder_engine=reorder_engine,
        durability=durability,
    )
    crashes = CrashSchedule()
    crashes.add(2, crash_at=10.0, recover_at=20.0)
    cluster = BayouCluster(Counter(), config, crashes=crashes)
    # Invoked just before the crash: its step comes due at ~11.5, while
    # replica 2 is down.
    cluster.schedule_invoke(9.5, 2, Counter.increment(7))
    replica = cluster.replicas[2]
    cluster.run(until=10.0)
    assert replica.node.crashed
    assert replica._step_timer is not None
    executions = replica.execution_count
    cluster.run(until=15.0)
    assert replica._step_timer is None
    assert replica.execution_count == executions
    assert replica.backlog > 0
    cluster.run_until_quiescent()
    assert cluster.converged()
    assert replica.backlog == 0
    assert replica.state.snapshot()["counter:value"] == 7


def _labels_through(monkeypatch, tob_engine: str, reorder_engine: str):
    """Run a seeded cluster; return the labels handed to ``set_timer`` and
    to the kernel."""
    timers: List[str] = []
    events: List[str] = []
    set_timer = Process.set_timer
    schedule = Simulator.schedule

    def recording_set_timer(self, delay, callback, *, label="", resurrect=False):
        timers.append(label)
        return set_timer(self, delay, callback, label=label, resurrect=resurrect)

    def recording_schedule(self, delay, callback, *args, label=""):
        events.append(label)
        return schedule(self, delay, callback, *args, label=label)

    monkeypatch.setattr(Process, "set_timer", recording_set_timer)
    monkeypatch.setattr(Simulator, "schedule", recording_schedule)
    config = BayouConfig(
        n_replicas=3,
        exec_delay=0.05,
        message_delay=0.5,
        latency_jitter=0.3,
        tob_engine=tob_engine,
        reorder_engine=reorder_engine,
        seed=11,
    )
    cluster = BayouCluster(Counter(), config)
    for index in range(12):
        cluster.schedule_invoke(
            1.0 + 0.3 * index, index % 3, Counter.increment(index),
            strong=index % 4 == 1,
        )
    if tob_engine == "sequencer":
        cluster.run_until_quiescent()
    else:
        assert cluster.run_until_stable(max_time=500.0)
        cluster.shutdown()
        cluster.run_until_quiescent()
    assert cluster.converged()
    return timers, events


@pytest.mark.parametrize(
    "tob_engine, reorder_engine, expected",
    [
        ("sequencer", "stepwise", {"bayou.step"}),
        ("sequencer", "batched", {"bayou.batch"}),
        ("paxos", "stepwise", {"bayou.step", "paxos.flush"}),
    ],
)
def test_engine_events_bypass_process_timers(
    monkeypatch, tob_engine, reorder_engine, expected
):
    timers, events = _labels_through(monkeypatch, tob_engine, reorder_engine)
    assert not ENGINE_LABELS & set(timers)
    assert ENGINE_LABELS & set(events) == expected
