"""Property-based tests (hypothesis) on the core invariants.

Covers the load-bearing invariants of the reproduction:

- StateObject: rollback is the exact inverse of execute, for arbitrary
  operation sequences over every data type (Algorithm 3's contract);
- replicas: convergence of committed orders and states for random workloads
  and random schedules (the eventual-consistency core of Theorems 2/3);
- read-only closure (Section 3.4): deleting read-only operations from a
  context never changes any return value;
- relation algebra laws the predicate checkers rely on.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import BayouCluster, MODIFIED, ORIGINAL
from repro.core.config import BayouConfig
from repro.core.request import Req
from repro.core.state_object import StateObject
from repro.datatypes.bank import BankAccounts
from repro.datatypes.counter import Counter
from repro.datatypes.kvstore import KVStore
from repro.datatypes.orset import SetType
from repro.datatypes.rlist import RList
from repro.framework.relations import Relation

SLOW = settings(max_examples=25)


# ----------------------------------------------------------------------
# Operation strategies per data type
# ----------------------------------------------------------------------
def counter_ops():
    return st.one_of(
        st.integers(1, 5).map(Counter.increment),
        st.integers(1, 5).map(Counter.decrement),
        st.integers(1, 3).map(Counter.add_if_even),
        st.just(Counter.read()),
    )


def list_ops():
    return st.one_of(
        st.sampled_from("abcd").map(RList.append),
        st.just(RList.duplicate()),
        st.just(RList.read()),
        st.just(RList.remove_last()),
        st.just(RList.size()),
    )


def kv_ops():
    keys = st.sampled_from(["k1", "k2", "k3"])
    return st.one_of(
        st.tuples(keys, st.integers(0, 9)).map(lambda t: KVStore.put(*t)),
        st.tuples(keys, st.integers(0, 9)).map(
            lambda t: KVStore.put_if_absent(*t)
        ),
        keys.map(KVStore.get),
        keys.map(KVStore.remove),
    )


def set_ops():
    elements = st.integers(0, 5)
    return st.one_of(
        elements.map(SetType.add),
        elements.map(SetType.remove),
        elements.map(SetType.contains),
        st.just(SetType.elements()),
    )


def bank_ops():
    accounts = st.sampled_from(["a", "b"])
    return st.one_of(
        st.tuples(accounts, st.integers(1, 20)).map(
            lambda t: BankAccounts.deposit(*t)
        ),
        st.tuples(accounts, st.integers(1, 25)).map(
            lambda t: BankAccounts.withdraw(*t)
        ),
        st.tuples(accounts, accounts, st.integers(1, 15)).map(
            lambda t: BankAccounts.transfer(*t)
        ),
        accounts.map(BankAccounts.balance),
    )


TYPED_OPS = [
    (Counter, counter_ops),
    (RList, list_ops),
    (KVStore, kv_ops),
    (SetType, set_ops),
    (BankAccounts, bank_ops),
]


def typed_sequences():
    """(datatype instance, list of operations) pairs."""

    def build(index_and_ops):
        index, ops = index_and_ops
        datatype_cls, _ = TYPED_OPS[index]
        return datatype_cls(), ops

    return st.integers(0, len(TYPED_OPS) - 1).flatmap(
        lambda index: st.tuples(
            st.just(index), st.lists(TYPED_OPS[index][1](), min_size=1, max_size=12)
        ).map(build)
    )


# ----------------------------------------------------------------------
# StateObject: rollback inverts execute
# ----------------------------------------------------------------------
@SLOW
@given(data=typed_sequences(), cut=st.integers(0, 11))
def test_rollback_suffix_restores_prefix_state(data, cut):
    datatype, ops = data
    cut = min(cut, len(ops))
    state = StateObject(datatype)
    requests = [
        Req(timestamp=float(i), dot=(0, i + 1), strong=False, op=op)
        for i, op in enumerate(ops)
    ]
    for request in requests:
        state.execute(request)
    for request in reversed(requests[cut:]):
        state.rollback(request)
    reference = StateObject(datatype)
    for request in requests[:cut]:
        reference.execute(request)
    assert state.snapshot() == reference.snapshot()


@SLOW
@given(data=typed_sequences())
def test_responses_consistent_with_sequential_spec(data):
    """StateObject responses equal the sequential spec on the same prefix."""
    datatype, ops = data
    state = StateObject(datatype)
    for index, op in enumerate(ops):
        request = Req(
            timestamp=float(index), dot=(0, index + 1), strong=False, op=op
        )
        response = state.execute(request)
        assert response == datatype.spec_return(op, ops[:index])


# ----------------------------------------------------------------------
# Read-only closure (Section 3.4)
# ----------------------------------------------------------------------
@SLOW
@given(data=typed_sequences())
def test_readonly_ops_never_influence_later_returns(data):
    datatype, ops = data
    target = ops[-1]
    context = ops[:-1]
    without_ro = [op for op in context if not datatype.is_readonly(op)]
    assert datatype.spec_return(target, context) == datatype.spec_return(
        target, without_ro
    )


# ----------------------------------------------------------------------
# Replica convergence under random schedules
# ----------------------------------------------------------------------
@settings(max_examples=10)
@given(
    seed=st.integers(0, 10_000),
    protocol=st.sampled_from([ORIGINAL, MODIFIED]),
    n_ops=st.integers(3, 12),
)
def test_random_schedules_always_converge(seed, protocol, n_ops):
    rng = random.Random(seed)
    config = BayouConfig(
        n_replicas=3,
        exec_delay=rng.choice([0.01, 0.2, 1.0]),
        message_delay=rng.choice([0.5, 1.0, 2.0]),
        latency_jitter=rng.choice([0.0, 0.5]),
        clock_offsets={1: rng.uniform(-3, 3), 2: rng.uniform(-3, 3)},
        seed=seed,
    )
    cluster = BayouCluster(Counter(), config, protocol=protocol)
    for index in range(n_ops):
        cluster.schedule_invoke(
            rng.uniform(0.5, 20.0),
            rng.randrange(3),
            Counter.increment(rng.randint(1, 5)),
            strong=rng.random() < 0.25,
        )
    cluster.run_until_quiescent()
    assert cluster.converged()
    expected_total = sum(
        event.op.args[0]
        for event in cluster.build_history(well_formed=False).events
    )
    assert cluster.replicas[0].state.snapshot()["counter:value"] == expected_total


@settings(max_examples=10)
@given(seed=st.integers(0, 10_000))
def test_partition_heal_always_converges(seed):
    from repro.net.partition import PartitionSchedule

    rng = random.Random(seed)
    partitions = PartitionSchedule(3)
    partitions.split(rng.uniform(0.5, 3.0), [[0, 1], [2]])
    partitions.heal(rng.uniform(30.0, 60.0))
    config = BayouConfig(n_replicas=3, exec_delay=0.05, message_delay=1.0)
    cluster = BayouCluster(
        Counter(), config, protocol=MODIFIED, partitions=partitions
    )
    for index in range(6):
        cluster.schedule_invoke(
            rng.uniform(0.5, 20.0), rng.randrange(3), Counter.increment(1)
        )
    cluster.run_until_quiescent()
    assert cluster.converged()


# ----------------------------------------------------------------------
# Relation algebra laws
# ----------------------------------------------------------------------
def relations(max_size=5):
    elements = st.integers(0, 4)
    return st.lists(
        st.tuples(elements, elements), max_size=max_size * 2
    ).map(lambda pairs: Relation(pairs, universe=range(5)))


@SLOW
@given(rel=relations())
def test_inverse_involution_law(rel):
    assert rel.inverse().inverse() == rel


@SLOW
@given(rel=relations())
def test_transitive_closure_is_fixed_point(rel):
    closure = rel.transitive_closure()
    assert closure.transitive_closure() == closure
    assert rel.is_subset_of(closure)


@SLOW
@given(rel=relations(), other=relations())
def test_composition_respects_definition(rel, other):
    composed = rel.compose(other)
    for a, c in composed:
        assert any(
            rel.holds(a, b) and other.holds(b, c) for b in rel.universe
        )


@SLOW
@given(order=st.permutations(list(range(5))))
def test_total_order_roundtrip(order):
    rel = Relation.from_total_order(order)
    assert rel.is_total_order()
    assert rel.topological_sort() == list(order)
