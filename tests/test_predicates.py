"""Unit tests for the correctness predicates on hand-built executions."""

from repro.datatypes.rlist import RList
from repro.framework.abstract_execution import AbstractExecution
from repro.framework.history import History, HistoryEvent, PENDING, STRONG, WEAK
from repro.framework.predicates import (
    check_cpar,
    check_ev,
    check_frval,
    check_ncc,
    check_rval,
    check_sessarb,
    check_sinord,
)
from repro.framework.relations import Relation


def make_event(eid, session, invoke, ret, op, rval, level=WEAK, **kwargs):
    return HistoryEvent(
        eid=eid,
        session=session,
        op=op,
        level=level,
        invoke_time=invoke,
        return_time=ret,
        rval=rval,
        timestamp=invoke,
        **kwargs,
    )


def simple_history(horizon=None):
    """a=append('a') then b=read() -> 'a', on two sessions."""
    events = [
        make_event("a", 0, 1.0, 1.5, RList.append("a"), "a"),
        make_event("b", 1, 3.0, 3.5, RList.read(), "a", readonly=True),
    ]
    return History(events, RList(), horizon=horizon)


def execution(history, vis_pairs, ar_order, par=None):
    return AbstractExecution(
        history=history,
        vis=Relation(vis_pairs, universe=history.eids),
        ar=Relation.from_total_order(ar_order),
        par=par or {},
    )


# ----------------------------------------------------------------------
# RVal
# ----------------------------------------------------------------------
def test_rval_accepts_correct_values():
    ex = execution(simple_history(), [("a", "b")], ["a", "b"])
    assert check_rval(ex, WEAK).ok


def test_rval_rejects_wrong_value():
    history = History(
        [
            make_event("a", 0, 1.0, 1.5, RList.append("a"), "a"),
            make_event("b", 1, 3.0, 3.5, RList.read(), "WRONG", readonly=True),
        ],
        RList(),
    )
    ex = execution(history, [("a", "b")], ["a", "b"])
    result = check_rval(ex, WEAK)
    assert not result.ok
    assert any("WRONG" in violation for violation in result.violations)


def test_rval_rejects_missing_visibility():
    # b returned 'a' but saw nothing: unexplainable.
    ex = execution(simple_history(), [], ["a", "b"])
    assert not check_rval(ex, WEAK).ok


def test_rval_counts_pending_as_violation():
    history = History(
        [
            make_event("a", 0, 1.0, 1.5, RList.append("a"), "a"),
            make_event(
                "s", 1, 3.0, None, RList.append("s"), PENDING, level=STRONG
            ),
        ],
        RList(),
    )
    ex = execution(history, [("a", "s")], ["a", "s"])
    assert not check_rval(ex, STRONG).ok
    assert check_rval(ex, WEAK).ok


def test_rval_context_order_matters():
    history = History(
        [
            make_event("a", 0, 1.0, 1.5, RList.append("a"), "a"),
            make_event("b", 1, 2.0, 2.5, RList.append("b"), "b"),
            make_event("r", 2, 4.0, 4.5, RList.read(), "ba", readonly=True),
        ],
        RList(),
        well_formed=True,
    )
    # With ar = b, a the read value 'ba' is correct...
    good = execution(history, [("a", "r"), ("b", "r")], ["b", "a", "r"])
    assert check_rval(good, WEAK).ok
    # ...with ar = a, b it is not.
    bad = execution(history, [("a", "r"), ("b", "r")], ["a", "b", "r"])
    assert not check_rval(bad, WEAK).ok


# ----------------------------------------------------------------------
# FRVal
# ----------------------------------------------------------------------
def test_frval_uses_perceived_order():
    history = History(
        [
            make_event("a", 0, 1.0, 1.5, RList.append("a"), "a"),
            make_event("b", 1, 2.0, 2.5, RList.append("b"), "b"),
            make_event(
                "r", 2, 4.0, 4.5, RList.read(), "ab",
                readonly=True, perceived_trace=("a", "b"),
            ),
        ],
        RList(),
    )
    # Final order says b, a — RVal fails but FRVal (via par) succeeds.
    par = {"r": Relation.from_total_order(["a", "b", "r"])}
    ex = execution(
        history, [("a", "r"), ("b", "r")], ["b", "a", "r"], par=par
    )
    assert not check_rval(ex, WEAK).ok
    assert check_frval(ex, WEAK).ok


# ----------------------------------------------------------------------
# EV
# ----------------------------------------------------------------------
def test_ev_vacuous_without_horizon():
    ex = execution(simple_history(), [("a", "b")], ["a", "b"])
    result = check_ev(ex)
    assert result.ok and "vacuous" in result.note


def test_ev_detects_invisible_event():
    history = simple_history(horizon=2.0)  # b (invoked at 3.0) is a probe
    ex = execution(history, [], ["a", "b"])
    assert not check_ev(ex).ok


def test_ev_passes_when_probe_sees_all():
    history = simple_history(horizon=2.0)
    ex = execution(history, [("a", "b")], ["a", "b"])
    assert check_ev(ex).ok


# ----------------------------------------------------------------------
# NCC
# ----------------------------------------------------------------------
def test_ncc_detects_vis_cycle():
    ex = execution(simple_history(), [("a", "b"), ("b", "a")], ["a", "b"])
    result = check_ncc(ex)
    assert not result.ok
    assert "circular" in result.violations[0]


def test_ncc_detects_cycle_through_session_order():
    history = History(
        [
            make_event("a", 0, 1.0, 1.5, RList.append("a"), "a"),
            make_event("b", 0, 2.0, 2.5, RList.append("b"), "ab"),
        ],
        RList(),
    )
    # so: a -> b; vis: b -> a: a cycle through hb.
    ex = execution(history, [("b", "a")], ["a", "b"])
    assert not check_ncc(ex).ok


def test_ncc_ok_on_acyclic():
    ex = execution(simple_history(), [("a", "b")], ["a", "b"])
    assert check_ncc(ex).ok


# ----------------------------------------------------------------------
# CPar
# ----------------------------------------------------------------------
def test_cpar_counts_fluctuations_and_flags_post_horizon():
    history = History(
        [
            make_event("a", 0, 1.0, 1.5, RList.append("a"), "a"),
            make_event("b", 1, 2.0, 2.5, RList.append("b"), "b"),
            make_event(
                "r", 2, 9.0, 9.5, RList.read(), "ab", readonly=True
            ),
        ],
        RList(),
        horizon=5.0,
    )
    par = {"r": Relation.from_total_order(["a", "b", "r"])}
    ex = execution(
        history, [("a", "r"), ("b", "r"), ("b", "a")], ["b", "a", "r"], par=par
    )
    result = check_cpar(ex, WEAK)
    assert not result.ok  # r returned after the horizon yet perceives a<b
    # Same execution with the read before the horizon: only counted.
    history2 = History(
        [
            make_event("a", 0, 1.0, 1.5, RList.append("a"), "a"),
            make_event("b", 1, 2.0, 2.5, RList.append("b"), "b"),
            make_event("r", 2, 3.0, 3.5, RList.read(), "ab", readonly=True),
        ],
        RList(),
        horizon=5.0,
    )
    ex2 = execution(
        history2, [("a", "r"), ("b", "r"), ("b", "a")], ["b", "a", "r"], par=par
    )
    result2 = check_cpar(ex2, WEAK)
    assert result2.ok
    assert "2" in result2.note or "fluctuations" in result2.note


# ----------------------------------------------------------------------
# SinOrd / SessArb
# ----------------------------------------------------------------------
def strong_pair_history(pending=False):
    events = [
        make_event("a", 0, 1.0, 1.5, RList.append("a"), "a"),
        make_event(
            "s",
            1,
            3.0,
            None if pending else 3.5,
            RList.append("s"),
            PENDING if pending else "as",
            level=STRONG,
        ),
    ]
    return History(events, RList())


def test_sinord_requires_vis_equal_ar_into_strong():
    history = strong_pair_history()
    good = execution(history, [("a", "s")], ["a", "s"])
    assert check_sinord(good, STRONG).ok
    missing = execution(history, [], ["a", "s"])
    assert not check_sinord(missing, STRONG).ok


def test_sinord_excuses_pending_sources():
    history = History(
        [
            make_event(
                "p", 0, 1.0, None, RList.append("p"), PENDING, level=STRONG
            ),
            make_event("s", 1, 3.0, None, RList.append("s"), PENDING, level=STRONG),
        ],
        RList(),
    )
    # p --ar--> s but p is pending: excusable via E'.
    ex = execution(history, [], ["p", "s"])
    assert check_sinord(ex, STRONG).ok


def test_sinord_rejects_vis_outside_ar():
    history = History(
        [
            make_event("p", 0, 1.0, 1.5, RList.append("p"), "p", level=STRONG),
            make_event("q", 1, 3.0, 3.5, RList.append("q"), "q", level=STRONG),
        ],
        RList(),
    )
    # vis into strong q is against the arbitration direction.
    ex = execution(history, [("q", "p")], ["p", "q"])
    assert not check_sinord(ex, STRONG).ok


def test_sessarb_requires_session_order_in_ar():
    history = History(
        [
            make_event("a", 0, 1.0, 1.5, RList.append("a"), "a"),
            make_event(
                "s", 0, 3.0, 3.5, RList.append("s"), "as", level=STRONG
            ),
        ],
        RList(),
    )
    assert check_sessarb(execution(history, [], ["a", "s"]), STRONG).ok
    assert not check_sessarb(execution(history, [], ["s", "a"]), STRONG).ok
