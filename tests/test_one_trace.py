"""One executed trace: ``StateObject.trace`` is the only list of what has
run, ``BayouReplica.cursor`` splits it into the paper's ``executed`` and
``toBeRolledBack``, and every execution and rollback still goes through the
three state-object entry points the benchmark ledger wraps."""

import inspect

import pytest

from repro.core.cluster import BayouCluster, MODIFIED, ORIGINAL
from repro.core.config import BayouConfig
from repro.core.replica import BayouReplica
from repro.core.request import Req
from repro.core.state_object import StateObject
from repro.datatypes.rlist import RList
from tests.test_reorder_engine import _lone_replica


def _partition_heal_run(protocol=ORIGINAL, engine="stepwise"):
    """Replica 2 (lagging clock) is cut off while both sides keep writing;
    the heal lands each side's requests in the middle of what the other
    already executed, so every replica cuts and rolls back."""
    config = BayouConfig(
        n_replicas=3,
        exec_delay=0.05,
        message_delay=0.5,
        clock_offsets={2: -0.3},
        reorder_engine=engine,
        checkpoint_interval=2 if engine == "batched" else None,
    )
    cluster = BayouCluster(RList(), config, protocol=protocol)
    cluster.partitions.split(0.5, [[0, 1], [2]])
    for index in range(6):
        cluster.schedule_invoke(1.0 + 0.8 * index, index % 2, RList.append(f"a{index}"))
        cluster.schedule_invoke(1.3 + 0.8 * index, 2, RList.append(f"x{index}"))
    cluster.schedule_invoke(3.0, 2, RList.duplicate(), strong=True)
    cluster.schedule_invoke(4.0, 0, RList.read())
    cluster.partitions.heal(6.0)
    cluster.schedule_invoke(6.1, 1, RList.append("c"))
    return cluster


# ----------------------------------------------------------------------
# (a) Structure: the replica stores a cursor, not the lists
# ----------------------------------------------------------------------
def test_executed_and_to_be_rolled_back_are_views_of_the_state_trace():
    cluster = _partition_heal_run()
    cluster.sim.run(until=6.1)  # mid-storm: cuts made, rollbacks pending
    assert any(replica.to_be_rolled_back for replica in cluster.replicas)
    cluster.run_until_quiescent()
    assert cluster.converged()
    for name in ("executed", "to_be_rolled_back"):
        assert isinstance(inspect.getattr_static(BayouReplica, name), property)
    for replica in cluster.replicas:
        assert replica.rollback_count > 0
        assert "executed" not in vars(replica)
        assert "to_be_rolled_back" not in vars(replica)
        assert replica.cursor == len(replica.executed) == len(replica.state.trace)
        assert all(
            mine is held for mine, held in zip(replica.executed, replica.state.trace)
        )
        assert replica.state.live_requests == [r.dot for r in replica.executed]
        with pytest.raises(AttributeError):
            replica.executed = []


# ----------------------------------------------------------------------
# (b) Seam: the wrapped state-object entry points see all the work
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", [ORIGINAL, MODIFIED])
@pytest.mark.parametrize("engine", ["stepwise", "batched"])
def test_state_object_seam_counts_every_execution_and_rollback(
    monkeypatch, protocol, engine
):
    """Counting calls through ``StateObject.execute`` / ``rollback`` /
    ``revert_to`` from outside — as ``bench/tracing.py`` wraps them —
    reproduces the replicas' own counters: no execution or rollback takes
    another way into the state object. (Inside ``revert_to`` the unwind's
    rollbacks and the checkpoint restore's replays are its own business;
    its return value is the logical count.)"""
    seen = {"execute": 0, "rollback": 0, "revert_to": 0, "reverted": 0}
    inside_revert = []

    def counting(name):
        inner = getattr(StateObject, name)

        def wrapper(self, *args, **kwargs):
            if inside_revert:
                return inner(self, *args, **kwargs)
            seen[name] += 1
            if name != "revert_to":
                return inner(self, *args, **kwargs)
            inside_revert.append(True)
            try:
                reverted = inner(self, *args, **kwargs)
            finally:
                inside_revert.pop()
            seen["reverted"] += reverted
            return reverted

        monkeypatch.setattr(StateObject, name, wrapper)

    for name in ("execute", "rollback", "revert_to"):
        counting(name)

    cluster = _partition_heal_run(protocol, engine)
    cluster.run_until_quiescent()
    assert cluster.converged()
    executions = sum(replica.execution_count for replica in cluster.replicas)
    rollbacks = sum(replica.rollback_count for replica in cluster.replicas)
    assert seen["execute"] == executions
    assert seen["rollback"] + seen["reverted"] == rollbacks > 0
    if engine == "batched":
        assert seen["reverted"] > 0
        restores = sum(r.state.checkpoint_restores for r in cluster.replicas)
        unwinds = sum(r.state.undo_unwinds for r in cluster.replicas)
        assert 0 < restores + unwinds <= seen["revert_to"]
    else:
        assert seen["revert_to"] == 0


# ----------------------------------------------------------------------
# (c) Algorithm 2's immediate execution while rollbacks are pending
# ----------------------------------------------------------------------
@pytest.mark.parametrize("op", [RList.read(), RList.append("w")], ids=["read", "update"])
def test_modified_weak_invoke_answers_from_the_whole_trace_and_leaves_it(op):
    """A cut has moved the cursor to 0 but no rollback has run yet: the
    state still holds r0 r1 r2. A weak invoke executes on exactly that —
    ``executed · reverse(toBeRolledBack)`` — on top of the trace's tail,
    responds, and undoes itself; trace and cursor are as it found them."""
    responses = []
    sim, replica = _lone_replica(MODIFIED, "stepwise", 100.0, None)
    replica.responder = lambda req, response, perceived, stable: responses.append(
        (response, perceived, stable)
    )
    remote = [
        Req(2.0 + index, (1, index + 1), False, RList.append(f"r{index}"))
        for index in range(3)
    ]
    for req in remote:
        replica.on_rb_deliver(req.dot, req)
    sim.run(until=1.0)
    assert replica.executed == remote and replica.cursor == 3
    early = Req(1.0, (1, 9), False, RList.append("e"))
    replica.on_rb_deliver(early.dot, early)
    assert replica.cursor == 0 and replica.executed == []
    assert replica.to_be_rolled_back == remote[::-1]
    assert replica.state.trace == remote

    counts = (replica.execution_count, replica.rollback_count)
    replica.invoke(op)
    expected = "r0r1r2" if op.name == "read" else "r0r1r2w"
    assert responses == [(expected, tuple(req.dot for req in remote), False)]
    assert replica.state.trace == remote and replica.cursor == 0
    assert replica.to_be_rolled_back == remote[::-1]
    assert (replica.execution_count, replica.rollback_count) == (
        counts[0] + 1,
        counts[1] + 1,
    )
    sim.run(until=sim.now + 100.0)
    assert replica.backlog == 0
    assert [r.dot for r in replica.executed] == [r.dot for r in replica.current_order()]
    assert replica.state.snapshot()["list:items"][:4] == ("e", "r0", "r1", "r2")


# ----------------------------------------------------------------------
# (d) The cursor moves before the responder runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["stepwise", "batched"])
def test_responder_finds_the_answered_request_already_executed(engine):
    """Whatever a responder reads or re-enters sees the request being
    answered on the executed side of the cursor and off the backlog — a
    cursor advanced after the response would charge the batched engine one
    ``exec_delay`` too many for a request invoked from a done-callback."""
    seen = []
    sim, replica = _lone_replica(ORIGINAL, engine, 0.0, None)
    replica.responder = lambda req, response, perceived, stable: seen.append(
        (req.dot, replica.executed[-1].dot, replica.cursor, replica.backlog)
    )
    for item in "abc":
        replica.invoke(RList.append(item))
    sim.run(until=10.0)
    assert seen == [((0, 1), (0, 1), 1, 2), ((0, 2), (0, 2), 2, 1), ((0, 3), (0, 3), 3, 0)]
