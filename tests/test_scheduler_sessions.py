"""Tests for the dependency-check/merge scheduler and session guarantees."""

from repro.analysis.experiments.sessions import session_guarantees_scenario
from repro.core.cluster import BayouCluster, MODIFIED, ORIGINAL
from repro.core.config import BayouConfig
from repro.datatypes.base import PlainDb
from repro.datatypes.scheduler import MeetingScheduler
from repro.framework.builder import build_abstract_execution
from repro.framework.guarantees import check_fec, check_seq
from repro.framework.history import STRONG, WEAK
from repro.framework.session_guarantees import check_monotonic_writes


# ----------------------------------------------------------------------
# MeetingScheduler data type (dependency check + merge procedure)
# ----------------------------------------------------------------------
def test_reserve_prefers_first_free_alternative():
    scheduler = MeetingScheduler()
    db = PlainDb()
    assert scheduler.execute(
        MeetingScheduler.reserve("alice", ("10am", "11am")), db
    ) == "10am"
    # Bob's dependency check fails on 10am; the merge procedure falls
    # through to 11am.
    assert scheduler.execute(
        MeetingScheduler.reserve("bob", ("10am", "11am")), db
    ) == "11am"
    # Carol finds every alternative taken: the give-up case.
    assert scheduler.execute(
        MeetingScheduler.reserve("carol", ("10am", "11am")), db
    ) is None


def test_cancel_only_by_holder():
    scheduler = MeetingScheduler()
    db = PlainDb()
    scheduler.execute(MeetingScheduler.reserve("alice", ("10am",)), db)
    assert scheduler.execute(MeetingScheduler.cancel("bob", "10am"), db) is False
    assert scheduler.execute(MeetingScheduler.cancel("alice", "10am"), db) is True
    assert scheduler.execute(MeetingScheduler.who("10am"), db) is None


def test_schedule_readonly_snapshot():
    scheduler = MeetingScheduler()
    db = PlainDb()
    scheduler.execute(MeetingScheduler.reserve("alice", ("10am",)), db)
    snapshot = scheduler.execute(
        MeetingScheduler.schedule("10am", "11am"), db
    )
    assert snapshot == (("10am", "alice"), ("11am", None))


def test_tentative_reservation_migrates_on_reordering():
    """The Bayou experience: a tentative grant moves to an alternative slot
    when the final order puts a competing reservation first."""
    config = BayouConfig(
        n_replicas=2,
        exec_delay=0.1,
        message_delay=1.0,
        clock_offsets={1: -50.0},  # R1's request wins the tentative order
    )
    cluster = BayouCluster(MeetingScheduler(), config, protocol=ORIGINAL)
    # Both want 10am, with 11am as fallback. R0's request reaches the
    # sequencer (R0) first, so the *final* order grants 10am to R0 — but
    # R1's much older timestamp wins the *tentative* order.
    alice = cluster.invoke(0, MeetingScheduler.reserve("alice", ("10am", "11am")))
    bob = cluster.invoke(1, MeetingScheduler.reserve("bob", ("10am", "11am")))
    cluster.run_until_quiescent()
    assert cluster.converged()
    db = PlainDb(cluster.replicas[0].state.snapshot())
    scheduler = MeetingScheduler()
    assert scheduler.execute(MeetingScheduler.who("10am"), db) == "alice"
    assert scheduler.execute(MeetingScheduler.who("11am"), db) == "bob"


def test_scheduler_runs_satisfy_theorem2():
    config = BayouConfig(n_replicas=3, exec_delay=0.05, message_delay=1.0)
    cluster = BayouCluster(MeetingScheduler(), config, protocol=MODIFIED)
    slots = ("9am", "10am", "11am")
    for index, user in enumerate(["alice", "bob", "carol", "dave"]):
        cluster.schedule_invoke(
            1.0 + index * 2.0,
            index % 3,
            MeetingScheduler.reserve(user, slots),
            strong=index % 2 == 1,
        )
    cluster.run_until_quiescent()
    cluster.add_horizon_probes(lambda: MeetingScheduler.schedule(*slots))
    cluster.run_until_quiescent()
    history = cluster.build_history()
    execution = build_abstract_execution(history)
    assert check_fec(execution, WEAK).ok
    assert check_seq(execution, STRONG).ok
    # In the converged state exactly three slots are held, all by distinct
    # users. (Weak *tentative* responses may collide — two users can both be
    # told "10am" speculatively — but the final state cannot.)
    db = PlainDb(cluster.replicas[0].state.snapshot())
    holders = [
        MeetingScheduler().execute(MeetingScheduler.who(slot), db)
        for slot in slots
    ]
    assert all(holder is not None for holder in holders)
    assert len(set(holders)) == 3


# ----------------------------------------------------------------------
# Session guarantees (Appendix A.1.2's trade-off)
# ----------------------------------------------------------------------
def test_original_protocol_keeps_read_your_writes():
    result = session_guarantees_scenario(protocol=ORIGINAL).run()
    read = result.event("ryw-read")
    assert result.session_guarantees["RYW"].ok
    assert read.rval == "w"
    assert read.return_time - read.invoke_time > 1.0  # the price: the backlog


def test_modified_protocol_trades_ryw_for_latency():
    result = session_guarantees_scenario(protocol=MODIFIED).run()
    read = result.event("ryw-read")
    assert not result.session_guarantees["RYW"].ok
    assert read.rval == ""    # the write is still tentative
    assert read.return_time - read.invoke_time == 0.0  # bounded wait-freedom


def test_other_session_guarantees_hold_for_both():
    for protocol in (ORIGINAL, MODIFIED):
        result = session_guarantees_scenario(protocol=protocol).run()
        assert result.session_guarantees["MW"].ok, protocol
        assert result.session_guarantees["WFR"].ok, protocol


def test_monotonic_writes_checker_detects_violation():
    from repro.datatypes.rlist import RList
    from repro.framework.abstract_execution import AbstractExecution
    from repro.framework.history import History, HistoryEvent
    from repro.framework.relations import Relation

    events = [
        HistoryEvent(
            eid="w1", session=0, op=RList.append("1"), level=WEAK,
            invoke_time=1.0, return_time=1.5, rval="1", timestamp=1.0,
        ),
        HistoryEvent(
            eid="w2", session=0, op=RList.append("2"), level=WEAK,
            invoke_time=2.0, return_time=2.5, rval="12", timestamp=2.0,
        ),
    ]
    history = History(events, RList())
    flipped = AbstractExecution(
        history=history,
        vis=Relation([], universe=history.eids),
        ar=Relation.from_total_order(["w2", "w1"]),
        par={},
    )
    assert not check_monotonic_writes(flipped).ok
    ordered = AbstractExecution(
        history=history,
        vis=Relation([], universe=history.eids),
        ar=Relation.from_total_order(["w1", "w2"]),
        par={},
    )
    assert check_monotonic_writes(ordered).ok
