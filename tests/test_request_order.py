"""``Req`` ordering is the paper's ``(timestamp, dot)`` lexicographic order.

``Req.__lt__`` / ``__le__`` compare the two fields directly instead of
building ``order_key`` tuples; they must agree with comparing those tuples
on every pair, including equal timestamps and equal dots.
"""

from __future__ import annotations

from bisect import insort

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.request import Req
from repro.datatypes.counter import Counter

#: Few distinct values, so equal timestamps and equal dots are common.
timestamps = st.one_of(
    st.sampled_from([0.0, 1.0, 1.5, -2.0]),
    st.floats(allow_nan=False, allow_infinity=True),
    st.integers(-3, 3),
)
dots = st.tuples(st.integers(0, 2), st.integers(0, 3))
requests = st.builds(
    Req, timestamp=timestamps, dot=dots, strong=st.booleans(),
    op=st.just(Counter.increment(1)),
)


@settings(max_examples=400, deadline=None)
@given(requests, requests)
def test_comparisons_agree_with_order_key(a, b):
    assert (a < b) == (a.order_key < b.order_key)
    assert (a <= b) == (a.order_key <= b.order_key)
    assert (a > b) == (a.order_key > b.order_key)
    assert (a >= b) == (a.order_key >= b.order_key)


@given(st.lists(requests, max_size=20))
def test_insort_keeps_the_order_key_order(items):
    ordered = []
    for item in items:
        insort(ordered, item)
    keys = [req.order_key for req in ordered]
    assert keys == sorted(keys)


def test_equal_timestamps_fall_back_to_the_dot():
    op = Counter.increment(1)
    first = Req(1.0, (0, 2), False, op)
    second = Req(1.0, (1, 1), True, op)
    assert first < second and first <= second
    assert not second < first and not second <= first
    same = Req(1.0, (0, 2), True, op)
    assert not first < same and first <= same and same <= first
