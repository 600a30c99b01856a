"""The checkpointed incremental reorder engine: equivalence and mechanics.

The central contract of this PR: enabling checkpoints and/or the batched
scheduler must be *observably free*. For random schedules — random
operations, invocation times, replica assignments, clock drifts and
protocols — a checkpointed replica and a checkpoint-free replica of the
same engine produce identical histories (every event field, perceived
traces included), identical final snapshots, and identical
``rollback_count``/``execution_count`` metrics.

Also covered: the batched engine's deadline mechanics, tail inserts and
head commits (which must queue no rollbacks), the anti-entropy batch
delivery path, and the replica's cut-at-position reorder rule against the
paper's literal ``adjustExecution`` (Algorithm 1 lines 35–40).
"""

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.cluster import BayouCluster, MODIFIED, ORIGINAL
from repro.core.config import BayouConfig
from repro.core.modified_replica import ModifiedBayouReplica
from repro.core.replica import BayouReplica
from repro.core.request import Req
from repro.core.state_object import StateObject
from repro.datatypes.counter import Counter
from repro.datatypes.kvstore import KVStore
from repro.datatypes.rlist import RList
from repro.net.network import Network
from repro.net.node import RoutingNode
from repro.runtime.sim import SimRuntime
from repro.sim.clock import DriftingClock
from repro.sim.kernel import Simulator

SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Random schedules
# ----------------------------------------------------------------------
def _random_ops(rng, count):
    ops = []
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            ops.append(RList.append(rng.choice("abcd")))
        elif kind == 1:
            ops.append(RList.duplicate())
        elif kind == 2:
            ops.append(RList.remove_last())
        else:
            ops.append(RList.read())
    return ops


def _run_random_schedule(
    seed,
    *,
    protocol,
    reorder_engine,
    checkpoint_interval,
    n_replicas=3,
):
    """One deterministic random schedule under the given engine config."""
    rng = random.Random(seed)
    config = BayouConfig(
        n_replicas=n_replicas,
        exec_delay=rng.choice([0.01, 0.1, 0.5]),
        message_delay=1.0,
        clock_offsets={1: rng.choice([-20.0, 0.0, 15.0])},
        clock_rates={2: rng.choice([0.5, 1.0, 2.0])},
        reorder_engine=reorder_engine,
        checkpoint_interval=checkpoint_interval,
    )
    cluster = BayouCluster(RList(), config, protocol=protocol)
    for index, op in enumerate(_random_ops(rng, 16)):
        cluster.schedule_invoke(
            rng.uniform(0.5, 20.0),
            rng.randrange(n_replicas),
            op,
            strong=rng.random() < 0.25,
        )
    cluster.run_until_quiescent()
    history = cluster.build_history(well_formed=False)
    return (
        tuple(sorted(history.events, key=lambda e: e.eid)),
        [replica.state.snapshot() for replica in cluster.replicas],
        [replica.rollback_count for replica in cluster.replicas],
        [replica.execution_count for replica in cluster.replicas],
        cluster.converged(),
    )


@SLOW
@given(
    seed=st.integers(0, 10_000),
    protocol=st.sampled_from([ORIGINAL, MODIFIED]),
    engine=st.sampled_from(["stepwise", "batched"]),
    interval=st.sampled_from([1, 2, 5, 64]),
)
def test_checkpointing_is_observably_free(seed, protocol, engine, interval):
    """Random schedules: checkpointed ≡ checkpoint-free, field for field."""
    plain = _run_random_schedule(
        seed, protocol=protocol, reorder_engine=engine, checkpoint_interval=None
    )
    checkpointed = _run_random_schedule(
        seed, protocol=protocol, reorder_engine=engine, checkpoint_interval=interval
    )
    assert plain == checkpointed
    assert plain[4], "random schedule did not converge"


@SLOW
@given(seed=st.integers(0, 10_000), protocol=st.sampled_from([ORIGINAL, MODIFIED]))
def test_engines_agree_on_convergent_state(seed, protocol):
    """Across engines, timings may differ but the replicated state, the
    committed order and convergence must not."""
    stepwise = _run_random_schedule(
        seed, protocol=protocol, reorder_engine="stepwise", checkpoint_interval=None
    )
    batched = _run_random_schedule(
        seed, protocol=protocol, reorder_engine="batched", checkpoint_interval=16
    )
    assert stepwise[1] == batched[1]  # snapshots
    assert stepwise[4] and batched[4]  # both converged
    # Tentative (weak) responses may legitimately differ: the batched
    # engine executes a backlog at its deadline, so a weak operation can
    # observe a different — equally FEC-valid — tentative prefix. The
    # convergent state above is the cross-engine contract.


# ----------------------------------------------------------------------
# Batched engine mechanics
# ----------------------------------------------------------------------
def _cluster(**config_kwargs):
    defaults = dict(n_replicas=2, exec_delay=0.1, message_delay=1.0)
    defaults.update(config_kwargs)
    return BayouCluster(Counter(), BayouConfig(**defaults))


def test_batched_engine_single_event_per_backlog():
    """A backlog of k requests drains in one simulation event, after the
    same k × exec_delay the stepwise engine would take."""
    cluster = _cluster(reorder_engine="batched")
    for index in range(5):
        cluster.schedule_invoke(1.0, 0, Counter.increment(1))
    cluster.run(until=1.0)
    replica = cluster.replicas[0]
    assert replica.backlog == 5
    # Nothing executes until the deadline...
    cluster.run(until=1.0 + 5 * 0.1 - 0.01)
    assert replica.execution_count == 0
    # ...then everything does, at once.
    cluster.run(until=1.0 + 5 * 0.1 + 0.001)
    assert replica.execution_count == 5
    assert replica.backlog == 0


def test_batched_engine_extends_deadline_for_new_work():
    cluster = _cluster(reorder_engine="batched")
    cluster.schedule_invoke(1.0, 0, Counter.increment(1))
    cluster.schedule_invoke(1.05, 0, Counter.increment(1))
    cluster.run(until=1.11)  # first deadline (1.1) passed, but extended
    replica = cluster.replicas[0]
    assert replica.execution_count == 0
    cluster.run(until=1.26)  # 1.05 + 2 × 0.1, plus slack
    assert replica.execution_count == 2


def test_batched_quiescence_time_matches_stepwise():
    def quiesce(engine):
        cluster = _cluster(reorder_engine=engine)
        for index in range(7):
            cluster.schedule_invoke(1.0 + 0.01 * index, 0, Counter.increment(1))
        return cluster.run_until_quiescent()

    assert quiesce("batched") == pytest.approx(quiesce("stepwise"))


def test_checkpointed_rollback_storm_equivalence():
    """The Figure-1 reorder with a long suffix: counts and state identical
    with and without checkpoints, and the restore path actually runs."""

    def run(interval):
        cluster = _cluster(
            reorder_engine="batched",
            checkpoint_interval=interval,
            clock_offsets={1: -100.0},
            exec_delay=0.01,
        )
        for index in range(30):
            cluster.schedule_invoke(1.0 + 0.1 * index, 0, Counter.increment(1))
        cluster.schedule_invoke(4.0, 1, Counter.increment(1))
        cluster.run_until_quiescent()
        replica = cluster.replicas[0]
        return (
            replica.rollback_count,
            replica.state.snapshot(),
            replica.state.checkpoint_restores,
            cluster.converged(),
        )

    plain = run(None)
    checkpointed = run(8)
    assert plain[0] == checkpointed[0] > 0
    assert plain[1] == checkpointed[1]
    assert plain[2] == 0 and checkpointed[2] >= 1
    assert plain[3] and checkpointed[3]


# ----------------------------------------------------------------------
# In-order arrivals queue no rollbacks; out-of-order ones do
# ----------------------------------------------------------------------
def test_tob_head_commit_keeps_schedule_intact():
    """Committing the tentative head must not queue any rollbacks."""
    cluster = _cluster()
    cluster.schedule_invoke(1.0, 0, Counter.increment(1))
    cluster.schedule_invoke(1.2, 0, Counter.increment(2))
    cluster.run_until_quiescent()
    for replica in cluster.replicas:
        assert replica.rollback_count == 0
    assert cluster.converged()


def test_out_of_order_rb_delivery_still_reorders():
    """The non-tail insertion path (drifting clock) still rolls back."""
    cluster = _cluster(clock_offsets={1: -50.0}, exec_delay=0.01)
    cluster.schedule_invoke(1.0, 0, Counter.increment(1))
    cluster.schedule_invoke(1.5, 1, Counter.increment(2))
    cluster.run_until_quiescent()
    assert cluster.converged()
    assert cluster.replicas[0].rollback_count >= 1


# ----------------------------------------------------------------------
# Responders that re-enter invoke()
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["stepwise", "batched"])
@pytest.mark.parametrize("lag", [0.0, 50.0], ids=["tail", "mid-order"])
@pytest.mark.parametrize("client", ["callback", "session"])
def test_invoke_from_inside_a_response_keeps_schedule_and_counters(
    engine, lag, client
):
    """Replica 0 answers ``a`` while three remote requests are queued (its
    clock may lag, so that its own requests sort before them) and the
    client then invokes ``z`` — from a done-callback, synchronously inside
    the responder and so inside the step or drain that executed ``a``, or
    from a ``think_time=0`` session, whose next invocation is always its own
    simulation event. Either way ``z`` joins the order beyond ``executed``:
    nothing runs twice, and the telemetry counters, which a drain flushes
    once, add up to the replicas' own counts."""
    cluster = BayouCluster(
        RList(),
        BayouConfig(
            n_replicas=2,
            exec_delay=0.1,
            message_delay=1.0,
            clock_offsets={0: -lag},
            reorder_engine=engine,
            enable_telemetry=True,
        ),
    )
    for index in range(3):
        cluster.schedule_invoke(1.0 + index * 0.01, 1, RList.append(f"r{index}"))

    def start():
        if client == "session":
            session = cluster.connect(0, think_time=0.0)
            session.submit(RList.append("a"))
            session.submit(RList.append("z"))
        else:
            cluster.submit(0, RList.append("a")).add_done_callback(
                lambda _: cluster.submit(0, RList.append("z"))
            )

    cluster.sim.schedule_at(1.95, start)
    cluster.run_until_quiescent()
    assert cluster.converged()
    items = cluster.replicas[0].state.snapshot()["list:items"]
    assert sorted(items) == ["a", "r0", "r1", "r2", "z"]
    assert items.index("a") < items.index("z")
    registry = cluster.telemetry.registry
    assert registry.counter_total("repro_executions") == sum(
        replica.execution_count for replica in cluster.replicas
    )
    assert registry.counter_total("repro_rollbacks") == sum(
        replica.rollback_count for replica in cluster.replicas
    )


# ----------------------------------------------------------------------
# Anti-entropy batch delivery
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["stepwise", "batched"])
def test_anti_entropy_batch_delivery_matches_rb(engine):
    """Anti-entropy (batched suffix delivery) converges to the same state
    reliable broadcast produces, under both reorder engines."""

    def run(dissemination):
        cluster = BayouCluster(
            KVStore(),
            BayouConfig(
                n_replicas=3,
                exec_delay=0.01,
                message_delay=0.5,
                dissemination=dissemination,
                ae_sync_interval=1.0,
                reorder_engine=engine,
                checkpoint_interval=4,
            ),
        )
        for index in range(9):
            cluster.schedule_invoke(
                1.0 + index * 0.4, index % 3, KVStore.put(f"k{index % 4}", index)
            )
        cluster.run_until_quiescent()
        assert cluster.converged()
        return cluster.replicas[0].state.snapshot()

    assert run("rb") == run("anti_entropy")


def test_anti_entropy_batch_suffix_single_reorder():
    """A healed partition ships the missing suffix in one sync and the
    receiving replica inserts it with one schedule recompute."""
    cluster = BayouCluster(
        Counter(),
        BayouConfig(
            n_replicas=2,
            exec_delay=0.01,
            message_delay=0.5,
            dissemination="anti_entropy",
            ae_sync_interval=1.0,
            reorder_engine="batched",
        ),
        partitions=None,
    )
    cluster.partitions.split(0.0, [[0], [1]])
    for index in range(6):
        cluster.schedule_invoke(1.0 + index * 0.2, 0, Counter.increment(1))
    cluster.partitions.heal(10.0)
    cluster.run_until_quiescent()
    assert cluster.converged()
    assert cluster.replicas[1].state.snapshot() == {"counter:value": 6}


# ----------------------------------------------------------------------
# The paper's literal lines 35-40 as the oracle for the cut-at-position rule
# ----------------------------------------------------------------------
class PaperSchedule:
    """Algorithm 1's ``executed`` / ``toBeExecuted`` / ``toBeRolledBack``,
    as lists of dots, maintained by the pseudocode's literal lines. The
    replica no longer searches for the common prefix (it is told where the
    order changed) and no longer stores ``toBeExecuted``; this reference
    does both, the slow way."""

    def __init__(self):
        self.executed = []
        self.to_be_executed = []
        self.to_be_rolled_back = []

    def adjust_execution(self, new_order):
        """Lines 35-40."""
        in_order = []
        for done, ordered in zip(self.executed, new_order):
            if done != ordered:
                break
            in_order.append(done)
        out_of_order = self.executed[len(in_order):]
        self.executed = in_order
        self.to_be_executed = [dot for dot in new_order if dot not in in_order]
        self.to_be_rolled_back = self.to_be_rolled_back + out_of_order[::-1]

    def step(self):
        """Lines 41-55, minus the state object and the responses."""
        if self.to_be_rolled_back:
            self.to_be_rolled_back.pop(0)
        else:
            self.executed.append(self.to_be_executed.pop(0))


class _CastLog:
    """Stands in for both broadcast endpoints: records what was cast."""

    def __init__(self):
        self.rb_casts = []
        self.tob_casts = []

    def rb_cast(self, key, payload):
        self.rb_casts.append(payload)

    def tob_cast(self, key, payload):
        self.tob_casts.append(payload)


def _lone_replica(protocol, engine, clock_offset, responses):
    sim = Simulator()
    node = RoutingNode(SimRuntime(sim, Network(sim, 1)), 0)
    replica_class = ModifiedBayouReplica if protocol == MODIFIED else BayouReplica
    replica = replica_class(
        node,
        DriftingClock(sim, offset=clock_offset),
        RList(),
        BayouConfig(
            n_replicas=1,
            exec_delay=0.1,
            reorder_engine=engine,
            checkpoint_interval=2 if engine == "batched" else None,
        ),
        responder=lambda req, response, perceived, stable: responses.append(
            (req.dot, stable)
        ),
    )
    replica.rb = replica.tob = _CastLog()
    return sim, replica


def _work_done(replica):
    return replica.execution_count + replica.rollback_count


_ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("invoke"), st.booleans()),
        st.tuples(st.just("rb"), st.integers(0, 11)),
        st.tuples(st.just("rb_batch"), st.lists(st.integers(0, 11), max_size=6)),
        st.tuples(st.just("tob_remote"), st.integers(0, 11)),
        st.tuples(st.just("tob_local"), st.integers(0, 50)),
        st.tuples(st.just("run"), st.integers(1, 6)),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@example(
    # A batch whose requests land at two different depths of the executed
    # prefix (the cut belongs at the lower one), then commits of a non-head
    # and of an unknown request into what has been re-executed since.
    actions=[
        ("rb", 0), ("rb", 1), ("rb", 2), ("run", 6),
        ("rb_batch", [3, 4]), ("run", 6),
        ("tob_remote", 2), ("run", 6), ("tob_remote", 5),
    ],
    remote_stamps=[20, 25, 30, 10, 22, 0, 0, 0, 0, 0, 0, 0],
    remote_strong=[False] * 12,
    clock_offset=0.0,
    protocol=ORIGINAL,
    engine="stepwise",
)
@example(
    # An insert at the last executed slot, then a commit of the second
    # tentative request (not the head) into an executed prefix.
    actions=[
        ("rb", 0), ("rb", 1), ("run", 6), ("rb", 2), ("run", 6),
        ("tob_remote", 2), ("run", 6),
    ],
    remote_stamps=[10, 20, 15, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    remote_strong=[False] * 12,
    clock_offset=0.0,
    protocol=MODIFIED,
    engine="batched",
)
@given(
    actions=_ACTIONS,
    remote_stamps=st.lists(st.integers(0, 30), min_size=12, max_size=12),
    remote_strong=st.lists(st.booleans(), min_size=12, max_size=12),
    clock_offset=st.sampled_from([-2.0, 0.0, 1.5]),
    protocol=st.sampled_from([ORIGINAL, MODIFIED]),
    engine=st.sampled_from(["stepwise", "batched"]),
)
def test_cut_at_position_matches_the_papers_adjust_execution(
    actions, remote_stamps, remote_strong, clock_offset, protocol, engine
):
    """One replica, stub endpoints, random interleavings of invocations,
    RB deliveries (single and batched) and TOB deliveries — of known,
    unknown, head and non-head requests, under skewed timestamps. After
    every call the replica's three lists equal what the paper's literal
    ``adjustExecution`` makes of the new order; between calls its steps
    follow lines 41-55."""
    responses = []
    sim, replica = _lone_replica(protocol, engine, clock_offset, responses)
    casts = replica.tob
    # Remote requests: timestamps a tenth of the draw, so they fall before,
    # among and after the local clock's readings (runs last a few seconds).
    remote = [
        Req(stamp / 10.0, (1 + index % 2, index), strong, RList.append("r"))
        for index, (stamp, strong) in enumerate(zip(remote_stamps, remote_strong))
    ]

    def rb_deliverable(req):
        """Algorithm 2 never RB-casts a strong request."""
        return protocol == ORIGINAL or not req.strong

    paper = PaperSchedule()
    awaited = []

    def check():
        order = replica.current_order()
        cursor = len(replica.executed)
        assert [r.dot for r in replica.executed] == paper.executed
        assert [r.dot for r in replica.to_be_rolled_back] == paper.to_be_rolled_back
        assert [r.dot for r in order[cursor:]] == paper.to_be_executed
        assert replica.backlog == len(paper.to_be_executed) + len(paper.to_be_rolled_back)
        assert replica.current_trace_dots() == tuple(
            paper.executed + paper.to_be_rolled_back[::-1]
        )
        assert replica.state.live_requests == list(replica.current_trace_dots())

    def delivered(call, *args):
        call(*args)
        paper.adjust_execution([r.dot for r in replica.current_order()])
        check()

    def run(until):
        before = _work_done(replica)
        sim.run(until=until)
        for _ in range(_work_done(replica) - before):
            paper.step()
        check()

    for kind, arg in actions:
        if kind == "invoke":
            op = RList.append("l") if arg else RList.read()
            strong = arg and len(awaited) % 2 == 1
            delivered(lambda: awaited.append(replica.invoke(op, strong=strong)))
        elif kind == "rb":
            if rb_deliverable(remote[arg]):
                delivered(replica.on_rb_deliver, remote[arg].dot, remote[arg])
        elif kind == "rb_batch":
            # A sync session ships a log suffix: no request twice.
            batch = [
                (remote[index].dot, remote[index])
                for index in dict.fromkeys(arg)
                if rb_deliverable(remote[index])
            ]
            delivered(replica.on_rb_deliver_batch, batch)
        elif kind == "tob_remote":
            delivered(replica.on_tob_deliver, remote[arg].dot, remote[arg])
        elif kind == "tob_local":
            if casts.tob_casts:
                req = casts.tob_casts[arg % len(casts.tob_casts)]
                delivered(replica.on_tob_deliver, req.dot, req)
        else:
            run(sim.now + arg * 0.1)

    # Commit everything anyone knows about, drain, and compare with a
    # sequential replay of the final order.
    for req in list(replica.tentative) + casts.tob_casts:
        delivered(replica.on_tob_deliver, req.dot, req)
    run(sim.now + 1000.0)
    assert replica.backlog == 0 and not replica.tentative
    assert paper.executed == [r.dot for r in replica.committed]
    replay = StateObject(RList())
    for req in replica.committed:
        replay.execute(req)
    assert replica.state.snapshot() == replay.snapshot()
    answered = [dot for dot, _ in responses]
    assert sorted(answered) == sorted(req.dot for req in awaited)
