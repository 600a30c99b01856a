"""Unit tests for the Theorem-2-style (vis, ar, par) builders."""

from repro.datatypes.rlist import RList
from repro.framework.builder import build_abstract_execution, build_ar, build_par, build_vis
from repro.framework.history import History, HistoryEvent, PENDING, STRONG, WEAK


def make_event(eid, session, invoke, op, rval, **kwargs):
    defaults = dict(
        level=WEAK,
        return_time=invoke + 0.5,
        timestamp=invoke,
        tob_cast=True,
        perceived_trace=(),
    )
    defaults.update(kwargs)
    return HistoryEvent(
        eid=eid, session=session, op=op, invoke_time=invoke, rval=rval, **defaults
    )


def mixed_history():
    """Delivered, undelivered-but-cast, and never-cast events together."""
    return History(
        [
            make_event("d1", 0, 1.0, RList.append("a"), "a", tob_no=0),
            make_event("d2", 1, 2.0, RList.append("b"), "ab", tob_no=1,
                       perceived_trace=("d1",)),
            make_event("u1", 0, 3.0, RList.append("c"), "abc", tob_no=None,
                       perceived_trace=("d1", "d2")),
            make_event("ro", 2, 4.0, RList.read(), "ab", tob_no=None,
                       tob_cast=False, readonly=True,
                       perceived_trace=("d1", "d2")),
        ],
        RList(),
    )


def test_ar_orders_delivered_by_tob_number():
    history = History(
        [
            make_event("x", 0, 1.0, RList.append("x"), "x", tob_no=1),
            make_event("y", 1, 2.0, RList.append("y"), "y", tob_no=0),
        ],
        RList(),
    )
    ar = build_ar(history)
    assert ar.holds("y", "x")
    assert not ar.holds("x", "y")


def test_ar_puts_delivered_before_undelivered():
    ar = build_ar(mixed_history())
    assert ar.holds("d1", "u1")
    assert ar.holds("d2", "u1")
    assert not ar.holds("u1", "d1")


def test_ar_orders_undelivered_by_request_order():
    history = History(
        [
            make_event("u1", 0, 5.0, RList.append("a"), "a", tob_no=None),
            make_event("u2", 1, 3.0, RList.append("b"), "b", tob_no=None),
        ],
        RList(),
    )
    ar = build_ar(history)
    assert ar.holds("u2", "u1")  # earlier timestamp first


def test_ar_orders_never_cast_by_request_order():
    ar = build_ar(mixed_history())
    # 'ro' (ts 4.0, never cast) relative to all by req order.
    assert ar.holds("d1", "ro")
    assert ar.holds("u1", "ro")  # u1 has ts 3.0 < 4.0


def test_vis_follows_perceived_traces():
    vis = build_vis(mixed_history())
    assert vis.holds("d1", "d2")
    assert vis.holds("d1", "u1") and vis.holds("d2", "u1")
    assert not vis.holds("u1", "d1")


def test_vis_readonly_request_order_rule():
    history = History(
        [
            make_event("ro", 0, 1.0, RList.read(), "", tob_no=None,
                       tob_cast=False, readonly=True, perceived_trace=()),
            make_event("w", 1, 2.0, RList.append("w"), "w", tob_no=0),
        ],
        RList(),
    )
    vis = build_vis(history)
    # The never-broadcast read is visible to the later write by req order.
    assert vis.holds("ro", "w")
    assert not vis.holds("w", "ro")


def test_non_broadcast_updates_not_visible_by_request_order():
    """Only read-only events get the request-order fallback."""
    history = History(
        [
            make_event("w1", 0, 1.0, RList.append("a"), "a", tob_no=None,
                       tob_cast=False),
            make_event("w2", 1, 2.0, RList.append("b"), "b", tob_no=None,
                       tob_cast=False, perceived_trace=()),
        ],
        RList(),
    )
    vis = build_vis(history)
    assert not vis.holds("w1", "w2")


def test_par_orders_trace_events_by_position():
    history = mixed_history()
    ar = build_ar(history)
    par = build_par(history, ar)
    par_u1 = par["u1"]
    assert par_u1.holds("d1", "d2")
    assert par_u1.holds("d2", "u1")  # the observer comes after its trace


def test_par_places_off_trace_tob_events_after():
    history = History(
        [
            make_event("seen", 0, 1.0, RList.append("a"), "a", tob_no=0),
            make_event("unseen", 1, 2.0, RList.append("b"), "b", tob_no=1),
            make_event("obs", 2, 3.0, RList.append("c"), "ac", tob_no=2,
                       perceived_trace=("seen",)),
        ],
        RList(),
    )
    ar = build_ar(history)
    par_obs = build_par(history, ar)["obs"]
    assert par_obs.holds("seen", "obs")
    assert par_obs.holds("obs", "unseen")  # off-list TOB events come after


def test_par_reflects_reordering_against_ar():
    """Figure-1 style: the trace contradicts the final TOB order."""
    history = History(
        [
            make_event("x", 0, 1.0, RList.append("x"), "yx", tob_no=0,
                       perceived_trace=("y",)),
            make_event("y", 1, 0.5, RList.append("y"), "y", tob_no=1,
                       perceived_trace=()),
        ],
        RList(),
        well_formed=False,
    )
    ar = build_ar(history)
    par = build_par(history, ar)
    assert ar.holds("x", "y")          # final order: x first
    assert par["x"].holds("y", "x")    # but x perceived y first


def test_pending_events_have_no_par_entry():
    history = History(
        [
            make_event("p", 0, 1.0, RList.append("p"), PENDING,
                       level=STRONG, return_time=None, tob_no=None,
                       perceived_trace=None),
        ],
        RList(),
    )
    execution = build_abstract_execution(history)
    assert "p" not in execution.par
    # perceived_order falls back to ar.
    assert execution.perceived_order("p") == execution.ar


def test_full_build_is_consistent_on_clean_history():
    execution = build_abstract_execution(mixed_history())
    assert execution.vis.is_acyclic()
    assert execution.ar.holds("d1", "d2")
    # The read's context replays to its return value.
    assert execution.expected_return("ro", fluctuating=True) == "ab"
