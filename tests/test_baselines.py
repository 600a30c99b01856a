"""Tests for the baseline protocols (EC store, SMR, GSP)."""

import random

import pytest

from repro.analysis.metrics import count_reordering_witnesses
from repro.datatypes.counter import Counter
from repro.datatypes.register import Register
from repro.errors import UnsupportedOperationError
from repro.scenario import Scenario


def _live(protocol, datatype, n_replicas):
    return Scenario(datatype).replicas(n_replicas).protocol(protocol).build()


# ----------------------------------------------------------------------
# EC store
# ----------------------------------------------------------------------
def test_ec_store_lww_convergence():
    live = (
        Scenario(Register())
        .replicas(3)
        .protocol("ec")
        .invoke(1.0, 0, Register.write("first"))
        .invoke(2.0, 1, Register.write("second"))
        .build()
    )
    live.run_until_quiescent()
    assert live.converged()
    # Last writer (by timestamp) wins on every replica.
    live.submit(2, Register.read(), label="read")
    result = live.finish(well_formed=False, settle=False)
    assert result.event("read").rval == "second"


def test_ec_store_concurrent_writes_agree():
    """Same-time writes from different replicas: dots break the tie."""
    result = (
        Scenario(Register())
        .replicas(2)
        .protocol("ec")
        .invoke(1.0, 0, Register.write("zero"))
        .invoke(1.0, 1, Register.write("one"))
        .run()
    )
    assert result.converged


def test_ec_store_rejects_read_write_operations():
    live = _live("ec", Counter(), 2)
    with pytest.raises(UnsupportedOperationError):
        live.submit(0, Counter.increment(1))
    assert not live.cluster.ops.futures  # a refused op leaves no record


def test_ec_store_rejects_strong_ops():
    live = _live("ec", Register(), 2)
    with pytest.raises(UnsupportedOperationError):
        live.submit(0, Register.write("x"), strong=True)


def test_ec_store_satisfies_bec_and_shows_no_reordering():
    scenario = Scenario(Register()).replicas(3).protocol("ec")
    for index in range(5):
        scenario.invoke(1.0 + index, index % 3, Register.write(index))
        scenario.invoke(1.4 + index, (index + 1) % 3, Register.read())
    result = scenario.probes(Register.read).checks(bec="weak").run()
    assert result.check("bec:weak").ok
    assert count_reordering_witnesses(result.history) == 0


def test_ec_store_available_under_partition():
    result = (
        Scenario(Register())
        .replicas(3)
        .protocol("ec")
        .partition(0.5, [[0], [1, 2]])
        .invoke(0.0, 0, Register.write("isolated"), label="write")
        .run(until=10.0, well_formed=False)
    )
    assert not result.event("write").pending


def test_ec_store_never_tob_casts():
    """No EC request reaches TOB, neither by retransmission nor by the
    re-announcement after a crash–recovery, so none ever commits."""
    writes = Scenario(Register()).replicas(3).protocol("ec")
    for index in range(4):
        writes.invoke(1.0 + index, index % 3, Register.write(index))
    retransmitting = writes.config(retransmit_interval=5.0).run()
    recovered = (
        Scenario(Register())
        .replicas(3)
        .protocol("ec")
        .durability("memory")
        .crash(0, 3.5, recover_at=8.0)
    )
    for index in range(4):
        recovered.invoke(1.0 + index, index % 3, Register.write(index))
    for result in (retransmitting, recovered.run()):
        assert all(not r.tob.delivered_sequence for r in result.cluster.replicas)
        assert all(f.stable for f in result.cluster.ops.futures.values())


# ----------------------------------------------------------------------
# SMR
# ----------------------------------------------------------------------
def test_smr_executes_in_identical_order():
    # SMR responses take a TOB round; keep per-session invocations spaced
    # out so the history stays well-formed.
    scenario = Scenario(Counter()).replicas(3).protocol("smr")
    for index in range(6):
        scenario.invoke(
            1.0 + index * 3.0, index % 3, Counter.increment(1), strong=True
        )
    result = scenario.checks(seq="strong").run()
    assert result.converged
    assert result.check("seq:strong").ok


def test_smr_order_sensitive_ops_are_safe():
    result = (
        Scenario(Counter())
        .replicas(3)
        .protocol("smr")
        .invoke(1.0, 0, Counter.increment(1), strong=True)
        .invoke(1.1, 1, Counter.add_if_even(10), strong=True)
        .checks(seq="strong")
        .run()
    )
    assert result.check("seq:strong").ok


def test_smr_blocks_in_minority_partition():
    result = (
        Scenario(Counter())
        .replicas(3)
        .protocol("smr")
        .partition(0.5, [[0, 1], [2]])
        .invoke(0.0, 2, Counter.increment(1), strong=True, label="minority")
        .run(until=300.0, well_formed=False)
    )
    assert result.event("minority").pending


def test_smr_rejects_weak_ops():
    live = _live("smr", Counter(), 2)
    with pytest.raises(UnsupportedOperationError):
        live.submit(0, Counter.increment(1))
    assert not live.cluster.ops.futures  # a refused op leaves no record


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("engine", ["sequencer", "paxos"])
def test_smr_is_an_oracle_for_strong_bayou(engine, seed):
    """On a fault-free strong-only schedule, Algorithm 1 answers every
    operation as state machine replication does, in the same TOB order.
    (Response times differ: Algorithm 1 also executes strong operations
    tentatively.)"""
    rng = random.Random(seed)
    schedule = [
        (
            round(rng.uniform(1.0, 40.0), 2),
            rng.randrange(3),
            rng.choice([Counter.increment, Counter.add_if_even])(rng.randint(1, 4)),
        )
        for _ in range(30)
    ]

    def run(protocol):
        scenario = Scenario(Counter()).replicas(3).protocol(protocol)
        for index, (at, pid, op) in enumerate(schedule):
            scenario.invoke(at, pid, op, strong=True, label=f"op{index}")
        return scenario.tob(engine).seed(seed).run(well_formed=False)

    bayou, smr = run("original"), run("smr")
    order = smr.cluster.replicas[0].tob.delivered_sequence
    assert len(order) == 30
    assert bayou.responses == smr.responses
    assert bayou.cluster.replicas[0].tob.delivered_sequence == order


# ----------------------------------------------------------------------
# GSP
# ----------------------------------------------------------------------
def test_gsp_immediate_local_responses():
    live = _live("gsp", Counter(), 2)
    live.submit(0, Counter.increment(5), label="increment")
    event = live.finish(well_formed=False, settle=False).event("increment")
    assert event.rval == 5
    assert event.return_time == event.invoke_time


def _gsp_increments(spacing):
    scenario = Scenario(Counter()).replicas(3).protocol("gsp")
    for index in range(6):
        scenario.invoke(1.0 + index * spacing, index % 3, Counter.increment(1))
    return scenario


def test_gsp_clients_converge_through_cloud():
    assert _gsp_increments(0.5).run().converged


def test_gsp_no_temporary_reordering():
    result = _gsp_increments(0.3).run(well_formed=False)
    assert count_reordering_witnesses(result.history) == 0


def test_gsp_strong_ops_unsupported():
    live = _live("gsp", Counter(), 2)
    with pytest.raises(ValueError):
        live.submit(0, Counter.increment(1), strong=True)


def test_gsp_no_mutual_visibility_during_cloud_outage():
    """While the cloud is unreachable, clients do not observe each other
    (the reason Theorem 1 does not apply to GSP). The cloud is the
    sequencer, on replica 0; clients 1 and 2 share a partition without it."""
    result = (
        Scenario(Counter())
        .replicas(3)
        .protocol("gsp")
        .partition(0.5, [[0], [1, 2]])
        .invoke(1.0, 2, Counter.increment(1))
        .invoke(50.0, 1, Counter.read(), label="read")
        .run(until=100.0, well_formed=False)
    )
    # Client 1 still sees 0: client 2's increment, though reachable,
    # travels only through the cloud.
    assert result.event("read").rval == 0
    # Local ops still respond: availability for local speculation.
    assert not result.event("read").pending
