"""Unit tests for seeded RNG streams."""

from repro.sim.rng import SeededRngRegistry


def test_same_seed_same_stream():
    a = SeededRngRegistry(42).stream("net")
    b = SeededRngRegistry(42).stream("net")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_are_independent():
    registry = SeededRngRegistry(42)
    first = [registry.stream("one").random() for _ in range(5)]
    second = [registry.stream("two").random() for _ in range(5)]
    assert first != second


def test_stream_is_cached():
    registry = SeededRngRegistry(7)
    assert registry.stream("x") is registry.stream("x")


def test_creation_order_does_not_matter():
    r1 = SeededRngRegistry(9)
    r1.stream("a")
    value_b1 = r1.stream("b").random()
    r2 = SeededRngRegistry(9)
    value_b2 = r2.stream("b").random()
    assert value_b1 == value_b2


def test_fork_is_deterministic_and_distinct():
    base = SeededRngRegistry(1)
    fork_a = base.fork("child")
    fork_b = SeededRngRegistry(1).fork("child")
    assert fork_a.stream("s").random() == fork_b.stream("s").random()
    assert base.stream("s").random() != SeededRngRegistry(1).fork(
        "other"
    ).stream("s").random()
