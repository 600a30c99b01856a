"""Behavioural tests for the original Bayou replica (Algorithm 1)."""

from repro.core.cluster import BayouCluster, ORIGINAL
from repro.core.config import BayouConfig
from repro.datatypes.counter import Counter
from repro.datatypes.rlist import RList


def make_cluster(n=2, datatype=None, **config_kwargs):
    config = BayouConfig(n_replicas=n, exec_delay=0.1, message_delay=1.0, **config_kwargs)
    return BayouCluster(datatype or RList(), config, protocol=ORIGINAL)


def test_weak_op_returns_tentative_response_before_commit():
    cluster = make_cluster()
    cluster.invoke(0, RList.append("a"))
    # Run only far enough for local execution, not for TOB.
    cluster.run(until=0.2)
    history = cluster.build_history(well_formed=False)
    event = history.events[0]
    assert event.rval == "a"
    assert not event.stable


def test_tentative_list_sorted_by_timestamp_then_dot():
    cluster = make_cluster(n=3, clock_offsets={1: -5.0, 2: 5.0})
    cluster.schedule_invoke(10.0, 0, RList.append("m"))
    cluster.schedule_invoke(10.1, 1, RList.append("e"))  # ts ≈ 5.1: earliest
    cluster.schedule_invoke(10.2, 2, RList.append("l"))  # ts ≈ 15.2: latest
    cluster.run(until=11.5)
    replica = cluster.replicas[0]
    tentative_order = [r.op.args[0] for r in replica.tentative]
    assert tentative_order == ["e", "m", "l"]


def test_rollback_and_reexecution_on_commit_order_mismatch():
    """The Figure 1 machinery: committed order overrides tentative order."""
    cluster = make_cluster(n=2, clock_offsets={1: -100.0})
    # R1's op has a much older timestamp, so R0 tentatively orders it first;
    # but R0's op reaches the sequencer (R0) first... both are reordered
    # relative to the tentative view at some replica.
    cluster.schedule_invoke(5.0, 0, RList.append("x"))
    cluster.schedule_invoke(5.5, 1, RList.append("y"))
    cluster.run_until_quiescent()
    assert cluster.converged()
    replica = cluster.replicas[0]
    assert replica.rollback_count >= 1
    final = [r.op.args[0] for r in replica.committed]
    assert sorted(final) == ["x", "y"]


def test_strong_op_waits_for_commit():
    cluster = make_cluster()
    cluster.invoke(0, RList.append("a"), strong=True)
    cluster.run(until=0.5)  # local execution done, TOB not yet
    history = cluster.build_history(well_formed=False)
    assert history.events[0].pending
    cluster.run_until_quiescent()
    history = cluster.build_history(well_formed=False)
    assert history.events[0].rval == "a"
    assert history.events[0].stable


def test_duplicate_tob_delivery_is_idempotent():
    cluster = make_cluster()
    req = cluster.invoke(0, RList.append("a"))
    cluster.run_until_quiescent()
    replica = cluster.replicas[0]
    before = list(replica.committed)
    replica.on_tob_deliver(req.dot, req)  # replayed delivery
    assert replica.committed == before


def test_convergence_across_many_ops():
    cluster = make_cluster(n=3)
    for index in range(9):
        cluster.schedule_invoke(1.0 + index * 0.3, index % 3, RList.append(str(index)))
    cluster.run_until_quiescent()
    assert cluster.converged()
    orders = [[r.dot for r in replica.committed] for replica in cluster.replicas]
    assert orders[0] == orders[1] == orders[2]
    assert len(orders[0]) == 9


def test_current_trace_matches_executed_when_idle():
    cluster = make_cluster()
    cluster.invoke(0, RList.append("a"))
    cluster.run_until_quiescent()
    replica = cluster.replicas[0]
    assert replica.current_trace_dots() == tuple(r.dot for r in replica.executed)
    assert replica.backlog == 0


def test_rb_then_tob_and_tob_then_rb_paths_agree():
    """A request may arrive via TOB before its RB copy; both paths converge."""
    cluster = make_cluster(n=2, datatype=Counter())
    cluster.schedule_invoke(1.0, 0, Counter.increment(1))
    cluster.schedule_invoke(1.1, 1, Counter.increment(2))
    cluster.run_until_quiescent()
    assert cluster.converged()
    snapshot = cluster.replicas[0].state.snapshot()
    assert snapshot["counter:value"] == 3


def test_weak_response_is_returned_exactly_once():
    cluster = make_cluster(n=2, clock_offsets={1: -100.0})
    responses = []
    original_responder = cluster.replicas[0].responder

    def counting_responder(req, response, perceived, stable):
        responses.append((req.dot, response))
        original_responder(req, response, perceived, stable)

    cluster.replicas[0].responder = counting_responder
    cluster.schedule_invoke(5.0, 0, RList.append("x"))
    cluster.schedule_invoke(5.5, 1, RList.append("y"))
    cluster.run_until_quiescent()
    dots = [dot for dot, _ in responses]
    assert len(dots) == len(set(dots))


def test_backlog_grows_on_slow_replica():
    cluster = make_cluster(
        n=2, datatype=Counter(), exec_delay_overrides={1: 5.0}
    )
    for index in range(5):
        cluster.schedule_invoke(1.0 + index * 0.5, 0, Counter.increment(1))
    cluster.run(until=4.0)
    assert cluster.replicas[1].backlog >= 2
