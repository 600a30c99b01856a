"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.kernel import SimulationError, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, lambda: order.append("c"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_run_in_scheduling_order():
    sim = Simulator()
    order = []
    for name in "abcde":
        sim.schedule(1.0, lambda n=name: order.append(n))
    sim.run()
    assert order == list("abcde")


def test_zero_delay_runs_after_current_callback():
    sim = Simulator()
    order = []

    def outer():
        sim.schedule(0.0, lambda: order.append("inner"))
        order.append("outer")

    sim.schedule(1.0, outer)
    sim.run()
    assert order == ["outer", "inner"]


def test_now_advances_with_events():
    sim = Simulator()
    times = []
    sim.schedule(1.5, lambda: times.append(sim.now))
    sim.schedule(4.0, lambda: times.append(sim.now))
    sim.run()
    assert times == [1.5, 4.0]
    assert sim.now == 4.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    hits = []
    sim.schedule_at(5.0, lambda: hits.append(sim.now))
    sim.run()
    assert hits == [5.0]


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_schedule_carries_positional_arguments():
    """``schedule(delay, fn, a, b)`` calls ``fn(a, b)`` — no closure needed;
    ``label`` stays keyword-only and is kept on the event record."""
    sim = Simulator()
    calls = []
    event = sim.schedule(2.0, lambda *args: calls.append(args), "a", 2, label="late")
    sim.schedule_at(1.0, lambda *args: calls.append(args), "first")
    sim.schedule(3.0, lambda *args: calls.append(args))
    assert (event.time, event.args, event.label) == (2.0, ("a", 2), "late")
    sim.run()
    assert calls == [("first",), ("a", 2), ()]


def test_step_carries_positional_arguments_and_skips_cancelled():
    sim = Simulator()
    calls = []
    sim.schedule(1.0, calls.append, "dead").cancel()
    sim.schedule(2.0, calls.append, "kept")
    assert sim.step() is True
    assert calls == ["kept"]
    assert (sim.now, sim.executed_events) == (2.0, 1)
    assert sim.step() is False


def test_cancelled_event_is_skipped():
    sim = Simulator()
    hits = []
    event = sim.schedule(1.0, lambda: hits.append("cancelled"))
    sim.schedule(2.0, lambda: hits.append("kept"))
    event.cancel()
    sim.run()
    assert hits == ["kept"]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    hits = []
    sim.schedule(1.0, lambda: hits.append(1))
    sim.schedule(10.0, lambda: hits.append(10))
    sim.run(until=5.0)
    assert hits == [1]
    assert sim.now == 5.0
    sim.run()
    assert hits == [1, 10]


def test_run_until_includes_boundary_events():
    sim = Simulator()
    hits = []
    sim.schedule(5.0, lambda: hits.append("boundary"))
    sim.run(until=5.0)
    assert hits == ["boundary"]


def test_run_until_quiescent_returns_final_time():
    sim = Simulator()
    sim.schedule(2.0, lambda: sim.schedule(3.0, lambda: None))
    assert sim.run_until_quiescent() == 5.0


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False


def test_executed_and_pending_counters():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    sim.step()
    assert sim.executed_events == 1
    assert sim.pending_events == 1


def test_max_events_guards_livelock():
    sim = Simulator(max_events=100)

    def rearm():
        sim.schedule(1.0, rearm)

    sim.schedule(1.0, rearm)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run()


def test_advance_to_refuses_skipping_events():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.advance_to(2.0)


def test_advance_to_moves_time():
    sim = Simulator()
    sim.advance_to(7.0)
    assert sim.now == 7.0
    with pytest.raises(SimulationError):
        sim.advance_to(6.0)


def test_deterministic_event_interleaving():
    """Two identical simulations execute identical schedules."""

    def build():
        sim = Simulator()
        log = []

        def chain(depth):
            log.append((sim.now, depth))
            if depth < 5:
                sim.schedule(0.5 * depth + 0.1, lambda: chain(depth + 1))

        sim.schedule(1.0, lambda: chain(0))
        sim.schedule(1.0, lambda: chain(100))
        sim.run()
        return log

    assert build() == build()


def test_advance_to_ignores_cancelled_events():
    """A queue holding only cancelled events has nothing to skip over (this
    used to take ``min()`` of an empty sequence)."""
    sim = Simulator()
    sim.schedule(1.0, lambda: None).cancel()
    sim.advance_to(5.0)
    assert sim.now == 5.0
    sim.schedule(1.0, lambda: None).cancel()
    sim.schedule(3.0, lambda: None)
    sim.advance_to(7.0)  # the live event is at t=8, the cancelled one at t=6
    with pytest.raises(SimulationError):
        sim.advance_to(9.0)
