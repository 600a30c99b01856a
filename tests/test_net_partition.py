"""Unit tests for partition schedules."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.partition import PartitionSchedule


def test_initially_fully_connected():
    schedule = PartitionSchedule(3)
    for a in range(3):
        for b in range(3):
            assert schedule.connected(a, b, 0.0)


def test_split_disconnects_across_components():
    schedule = PartitionSchedule(4)
    schedule.split(10.0, [[0, 1], [2, 3]])
    assert schedule.connected(0, 1, 11.0)
    assert schedule.connected(2, 3, 11.0)
    assert not schedule.connected(0, 2, 11.0)
    # Before the split everything still talks.
    assert schedule.connected(0, 2, 9.0)


def test_unmentioned_processes_become_singletons():
    schedule = PartitionSchedule(3)
    schedule.split(5.0, [[0, 1]])
    assert not schedule.connected(2, 0, 6.0)
    assert not schedule.connected(2, 1, 6.0)
    assert schedule.connected(2, 2, 6.0)


def test_heal_restores_connectivity():
    schedule = PartitionSchedule(3)
    schedule.split(5.0, [[0], [1], [2]])
    schedule.heal(20.0)
    assert not schedule.connected(0, 1, 10.0)
    assert schedule.connected(0, 1, 20.0)


def test_overlapping_components_rejected():
    schedule = PartitionSchedule(3)
    with pytest.raises(ValueError):
        schedule.split(1.0, [[0, 1], [1, 2]])


def test_unknown_process_rejected():
    schedule = PartitionSchedule(2)
    with pytest.raises(ValueError):
        schedule.split(1.0, [[0, 5]])


def test_split_replaces_later_changes():
    schedule = PartitionSchedule(2)
    schedule.split(10.0, [[0], [1]])
    schedule.heal(20.0)
    schedule.split(5.0, [[0], [1]])  # wipes the t>=5 tail
    assert not schedule.connected(0, 1, 25.0)


def test_component_of():
    schedule = PartitionSchedule(4)
    schedule.split(3.0, [[0, 2], [1, 3]])
    assert schedule.component_of(0, 4.0) == frozenset({0, 2})
    assert schedule.component_of(3, 4.0) == frozenset({1, 3})


def test_next_change_after():
    schedule = PartitionSchedule(2)
    schedule.split(10.0, [[0], [1]])
    schedule.heal(30.0)
    assert schedule.next_change_after(0.0) == 10.0
    assert schedule.next_change_after(10.0) == 30.0
    assert schedule.next_change_after(30.0) == float("inf")


N = 4
_TIMES = st.integers(min_value=0, max_value=12).map(float)
#: A change: heal, or split into a random grouping of a random subset.
_CHANGES = st.lists(
    st.tuples(
        _TIMES,
        st.none() | st.lists(st.integers(0, 2), min_size=N, max_size=N),
    ),
    max_size=8,
)


def _brute_force_connected(schedule, a, b, time):
    """Scan every change in order; the last one at or before ``time`` rules."""
    current = None
    for change_time, partitioning in schedule._changes:
        if change_time <= time:
            current = partitioning
    return any(a in component and b in component for component in current)


@given(_CHANGES, st.lists(_TIMES, min_size=1, max_size=6))
def test_connected_agrees_with_a_scan_of_the_changes(changes, probes):
    """Random split/heal sequences in arbitrary time order — a split at an
    earlier time replaces every later change — against a linear scan; the
    empty sequence is the single-epoch schedule the lookup short-cuts."""
    schedule = PartitionSchedule(N)
    for at, groups in changes:
        if groups is None:
            schedule.heal(at)
        else:
            # Group 2 is "unmentioned": those processes become singletons.
            schedule.split(
                at, [[p for p in range(N) if groups[p] == g] for g in (0, 1)]
            )
    times = [change_time for change_time, _ in schedule._changes]
    assert times == sorted(times) and len(set(times)) == len(times)
    for time in probes + [time - 0.5 for time in probes]:
        assert schedule.partitioning_at(time) == [
            partitioning for at, partitioning in schedule._changes if at <= time
        ][-1]
        for a in range(N):
            for b in range(N):
                assert schedule.connected(a, b, time) == _brute_force_connected(
                    schedule, a, b, time
                )
