"""Behavioural tests for the modified Bayou replica (Algorithm 2)."""

from repro.core.cluster import BayouCluster, MODIFIED
from repro.core.config import BayouConfig
from repro.datatypes.counter import Counter
from repro.datatypes.rlist import RList


def make_cluster(n=2, datatype=None, **config_kwargs):
    config = BayouConfig(n_replicas=n, exec_delay=0.1, message_delay=1.0, **config_kwargs)
    return BayouCluster(datatype or RList(), config, protocol=MODIFIED)


def test_weak_ops_respond_immediately():
    """Bounded wait-freedom (Appendix A.1.2): zero-latency weak responses."""
    cluster = make_cluster()
    cluster.invoke(0, RList.append("a"))
    history = cluster.build_history(well_formed=False)
    event = history.events[0]
    assert event.rval == "a"
    assert event.return_time == event.invoke_time


def test_weak_response_reflects_only_current_state():
    """No concurrent operation can slip in front of the first execution."""
    cluster = make_cluster(n=2, exec_delay_overrides={0: 3.0})
    cluster.schedule_invoke(1.0, 1, RList.append("z"))
    # R0 receives z's RB at 2.0 but cannot execute it before 5.0; a weak
    # append at 3.0 must NOT see z (it executes immediately on the current
    # state), unlike the original protocol where it would wait behind z.
    cluster.schedule_invoke(3.0, 0, RList.append("q"))
    cluster.run(until=3.5)
    history = cluster.build_history(well_formed=False)
    q_event = next(e for e in history.events if e.op.args == ("q",))
    assert q_event.rval == "q"


def test_weak_readonly_ops_are_not_broadcast():
    cluster = make_cluster()
    before = cluster.network.sent_count
    cluster.invoke(0, RList.read())
    cluster.run_until_quiescent()
    assert cluster.network.sent_count == before
    # And they never appear in the tentative/committed lists.
    assert all(not replica.committed for replica in cluster.replicas)


def test_weak_update_is_rolled_back_then_reexecuted_in_order():
    cluster = make_cluster()
    cluster.invoke(0, RList.append("a"))
    # Immediately after invoke, the request was executed and rolled back;
    # it sits in tentative awaiting engine re-execution.
    replica = cluster.replicas[0]
    assert [r.op.args[0] for r in replica.tentative] == ["a"]
    assert replica.state.snapshot() == {}
    cluster.run_until_quiescent()
    assert replica.state.snapshot() != {}
    assert cluster.converged()


def test_strong_ops_go_through_tob_only():
    cluster = make_cluster()
    cluster.invoke(0, RList.append("s"), strong=True)
    replica = cluster.replicas[0]
    # Never on the tentative list (the first circular-causality fix).
    assert replica.tentative == []
    cluster.run_until_quiescent()
    history = cluster.build_history(well_formed=False)
    assert history.events[0].rval == "s"
    assert history.events[0].stable


def test_strong_response_reflects_committed_prefix_only():
    cluster = make_cluster(n=2)
    cluster.schedule_invoke(1.0, 0, RList.append("a"))
    cluster.schedule_invoke(2.0, 1, RList.append("b"), strong=True)
    cluster.run_until_quiescent()
    history = cluster.build_history(well_formed=False)
    strong_event = next(e for e in history.events if e.level == "strong")
    # The committed prefix at b's commit contained a (committed first).
    assert strong_event.rval == "ab"
    assert cluster.converged()


def test_every_weak_update_is_rolled_back_once_and_reexecuted():
    """Lines 4-7: one immediate execution plus its rollback per weak
    update, then one in-order re-execution — even for requests that land
    at the tail of an idle replica's order (footnote 8 is not implemented)."""
    cluster = make_cluster(n=1, datatype=Counter())
    for index in range(10):
        cluster.invoke(0, Counter.increment(1))
        cluster.run(until=cluster.sim.now + 1.0)
    cluster.run_until_quiescent()
    replica = cluster.replicas[0]
    assert (replica.rollback_count, replica.execution_count) == (10, 20)
    assert replica.state.snapshot() == {"counter:value": 10}


def test_losing_read_your_writes():
    """The paper's noted cost (A.1.2): a second weak op may not see the
    first one issued on the same replica."""
    cluster = make_cluster(n=2, exec_delay_overrides={0: 5.0})
    cluster.schedule_invoke(1.0, 0, RList.append("w"))
    cluster.schedule_invoke(1.5, 0, RList.read())
    cluster.run(until=2.0)
    history = cluster.build_history(well_formed=False)
    read_event = next(e for e in history.events if e.op.name == "read")
    # The write is still tentative and not re-executed: the read misses it.
    assert read_event.rval == ""


def test_convergence_with_mixed_levels():
    cluster = make_cluster(n=3, datatype=Counter())
    for index in range(8):
        cluster.schedule_invoke(
            1.0 + index * 0.7, index % 3, Counter.increment(1), strong=index % 4 == 0
        )
    cluster.run_until_quiescent()
    assert cluster.converged()
    assert cluster.replicas[0].state.snapshot()["counter:value"] == 8
