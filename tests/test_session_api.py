"""The futures-based client pipeline: OpFuture, Session, typed proxies."""

import pytest

from repro import (
    BayouCluster,
    BayouConfig,
    Counter,
    DivergedOrderError,
    MODIFIED,
    ORIGINAL,
    PENDING,
    PendingResponseError,
    RList,
    SessionProtocolError,
)
from repro.core.session import (
    FUTURE_PENDING,
    FUTURE_RESPONDED,
    FUTURE_STABLE,
    OpFuture,
    Session,
)
from repro.net.partition import PartitionSchedule


def make_cluster(protocol=ORIGINAL, datatype=None, **kwargs):
    config = BayouConfig(n_replicas=3, exec_delay=0.05, message_delay=1.0, **kwargs)
    return BayouCluster(datatype or Counter(), config, protocol=protocol)


# ----------------------------------------------------------------------
# OpFuture state transitions
# ----------------------------------------------------------------------
class TestOpFutureTransitions:
    def test_starts_pending(self):
        future = OpFuture(Counter.increment(1))
        assert future.pending and not future.done and not future.stable
        assert future.state == FUTURE_PENDING
        assert future.rval is PENDING
        assert future.latency is None

    def test_value_raises_while_pending(self):
        future = OpFuture(Counter.increment(1))
        with pytest.raises(PendingResponseError):
            future.value

    def test_weak_op_responds_then_stabilises_on_commit(self):
        cluster = make_cluster()
        states = []
        future = cluster.submit(0, Counter.increment(1))
        future.add_done_callback(lambda f: states.append(f.state))
        future.add_stable_callback(lambda f: states.append(f.state))
        cluster.run_until_quiescent()
        # Original protocol: responded at first execution (tentative),
        # stable once TOB committed the request.
        assert states == [FUTURE_RESPONDED, FUTURE_STABLE]
        assert future.stable
        assert future.value == 1
        assert future.response_time <= future.stable_time

    def test_modified_weak_op_responds_synchronously_inside_invoke(self):
        cluster = make_cluster(protocol=MODIFIED)
        cluster.sim.run(until=1.0)
        future = cluster.submit(0, Counter.increment(5))
        # Algorithm 2 answers weak operations inside invoke(): the future
        # is already responded when submit() returns, with zero latency.
        assert future.done
        assert future.value == 5
        assert future.latency == 0.0
        assert not future.stable  # the commit is still in flight
        cluster.run_until_quiescent()
        assert future.stable

    def test_modified_weak_readonly_stabilises_at_response(self):
        cluster = make_cluster(protocol=MODIFIED)
        seen = []
        future = cluster.submit(0, Counter.read())
        future.add_stable_callback(lambda f: seen.append(f.state))
        # Invisible reads are never TOB-cast: they hold no position in the
        # final order, so their synchronous response is immediately final —
        # the lifecycle completes without waiting for a commit that will
        # never come.
        assert future.stable
        assert seen == [FUTURE_STABLE]

    def test_stable_weak_future_may_still_disagree_with_final_order(self):
        from repro import BankAccounts
        from repro.analysis.metrics import stable_vs_tentative_mismatches
        from repro.net.faults import MessageFilter, MessageRule

        # The bank_transfers schedule: two racing weak withdrawals both
        # tentatively succeed, but only one survives the final order.
        filters = MessageFilter()
        filters.add(MessageRule(tag="seqtob", extra=15.0))
        config = BayouConfig(
            n_replicas=2, exec_delay=0.2, message_delay=1.0,
            clock_offsets={1: -0.5},
        )
        cluster = BayouCluster(BankAccounts(), config, filters=filters)
        cluster.sim.schedule_at(
            1.0, lambda: cluster.submit(0, BankAccounts.deposit("joint", 100))
        )
        futures = []
        cluster.sim.schedule_at(
            10.0,
            lambda: futures.append(
                cluster.submit(0, BankAccounts.withdraw("joint", 80))
            ),
        )
        cluster.sim.schedule_at(
            10.2,
            lambda: futures.append(
                cluster.submit(1, BankAccounts.withdraw("joint", 80))
            ),
        )
        cluster.run_until_quiescent()
        # Both futures are stable (their requests committed) and both keep
        # their tentative "success" answer — stability fixes the request's
        # position, not the truth of a weak response (documented contract).
        assert all(f.stable and f.value == 20 for f in futures)
        history = cluster.build_history(well_formed=False)
        assert stable_vs_tentative_mismatches(history) == 1

    def test_strong_op_responds_and_stabilises_atomically(self):
        cluster = make_cluster(protocol=MODIFIED)
        states = []
        future = cluster.submit(1, Counter.increment(1), strong=True)
        future.add_done_callback(lambda f: states.append(("done", f.state)))
        future.add_stable_callback(lambda f: states.append(("stable", f.state)))
        assert future.pending  # strong ops wait for consensus
        cluster.run_until_quiescent()
        # The strong response is computed in the committed order, so both
        # transitions fire back to back at response time.
        assert states == [("done", FUTURE_RESPONDED), ("stable", FUTURE_STABLE)]
        assert future.stable
        assert future.response_time == future.stable_time
        assert future.latency > 0.0

    def test_strong_op_blocked_by_partition_stays_pending(self):
        partitions = PartitionSchedule(3)
        partitions.split(0.5, [[0, 1], [2]])
        config = BayouConfig(n_replicas=3, exec_delay=0.05, message_delay=1.0)
        cluster = BayouCluster(Counter(), config, partitions=partitions)
        future = cluster.submit(2, Counter.increment(1), strong=True)
        cluster.run(until=100.0)
        assert future.pending
        assert future.rval is PENDING

    def test_callback_registered_after_completion_fires_immediately(self):
        cluster = make_cluster()
        future = cluster.submit(0, Counter.increment(1))
        cluster.run_until_quiescent()
        seen = []
        future.add_done_callback(seen.append)
        future.add_stable_callback(seen.append)
        assert seen == [future, future]

    def test_future_carries_request_identity(self):
        cluster = make_cluster()
        future = cluster.submit(1, Counter.increment(3))
        assert future.dot == (1, 1)
        assert future.request is not None
        assert future.request.op == Counter.increment(3)
        assert future.pid == 1


# ----------------------------------------------------------------------
# Session well-formedness and the closed loop
# ----------------------------------------------------------------------
class TestSession:
    def test_connect_returns_session(self):
        cluster = make_cluster()
        session = cluster.connect(1, think_time=0.5)
        assert isinstance(session, Session)
        assert session.pid == 1
        assert session.idle

    def test_call_enforces_one_outstanding_op(self):
        cluster = make_cluster()
        cluster.sim.run(until=1.0)
        session = cluster.connect(0)
        session.call(Counter.increment(1))
        # The weak op has not responded yet (original protocol executes it
        # asynchronously), so a second immediate call is ill-formed.
        with pytest.raises(SessionProtocolError):
            session.call(Counter.increment(1))

    def test_call_allowed_again_after_response(self):
        cluster = make_cluster(protocol=MODIFIED)
        cluster.sim.run(until=1.0)
        session = cluster.connect(0)
        first = session.call(Counter.increment(1))
        assert first.done  # modified protocol: synchronous weak response
        second = session.call(Counter.increment(1))
        assert second.done
        # Algorithm 2's bounded wait-free weak ops cost read-your-writes:
        # the first increment was rolled back pending re-execution, so the
        # immediate second execution also starts from 0.
        assert (first.value, second.value) == (1, 1)
        cluster.run_until_quiescent()
        assert cluster.replicas[0].state.snapshot()["counter:value"] == 2

    def test_submit_queues_and_preserves_well_formedness(self):
        cluster = make_cluster()
        session = cluster.connect(0, think_time=0.5)
        futures = [session.submit(Counter.increment(1)) for _ in range(5)]
        cluster.run_until_quiescent()
        assert [future.value for future in futures] == [1, 2, 3, 4, 5]
        history = cluster.build_history()  # must be well-formed
        assert len(history) == 5

    def test_session_futures_recorded_in_order(self):
        cluster = make_cluster()
        session = cluster.connect(2)
        a = session.submit(Counter.increment(1))
        b = session.submit(Counter.read())
        assert session.futures == [a, b]
        cluster.run_until_quiescent()
        assert session.completed == 2
        assert len(session.latencies) == 2


# ----------------------------------------------------------------------
# Typed operation proxies
# ----------------------------------------------------------------------
class TestTypedProxies:
    def test_weak_proxy_builds_and_submits(self):
        cluster = make_cluster(protocol=MODIFIED)
        session = cluster.connect(0)
        future = session.increment(7)
        assert future.op == Counter.increment(7)
        assert not future.strong
        cluster.run_until_quiescent()
        assert future.value == 7

    def test_strong_proxy_and_keyword(self):
        cluster = make_cluster(protocol=MODIFIED)
        session = cluster.connect(0)
        via_view = session.strong.read()
        via_kwarg = session.read(strong=True)
        assert via_view.strong and via_kwarg.strong
        cluster.run_until_quiescent()
        assert via_view.done and via_kwarg.done

    def test_unknown_operation_raises_attribute_error(self):
        cluster = make_cluster()
        session = cluster.connect(0)
        with pytest.raises(AttributeError) as excinfo:
            session.launch_missiles()
        assert "Counter" in str(excinfo.value)

    def test_proxy_respects_datatype(self):
        cluster = make_cluster(datatype=RList())
        session = cluster.connect(0)
        future = session.append("a")
        cluster.run_until_quiescent()
        assert future.value == "a"


# ----------------------------------------------------------------------
# Typed operation registry on the data types themselves
# ----------------------------------------------------------------------
class TestOperationRegistry:
    def test_operations_derive_from_descriptors(self):
        assert Counter().operations() == {
            "read", "increment", "decrement", "add_if_even"
        }

    def test_readonly_flag_derives_from_descriptors(self):
        counter = Counter()
        assert counter.is_readonly(Counter.read())
        assert not counter.is_readonly(Counter.increment(1))
        assert Counter.READONLY == frozenset({"read"})

    def test_specs_record_arity(self):
        spec = Counter.op_spec("increment")
        assert (spec.min_arity, spec.max_arity) == (0, 1)
        assert not spec.readonly
        read = RList.op_spec("read")
        assert read.readonly and read.max_arity == 0

    def test_op_spec_unknown_name(self):
        from repro import UnknownOperationError

        with pytest.raises(UnknownOperationError):
            Counter.op_spec("nope")

    def test_reserved_names_cover_proxy_surfaces(self):
        # Self-check: RESERVED_OPERATION_NAMES must stay a superset of the
        # public attributes of both typed-proxy hosts, so a new Session /
        # ScenarioClient attribute cannot silently shadow an operation.
        from repro.datatypes.base import RESERVED_OPERATION_NAMES
        from repro.scenario import ScenarioClient

        for host in (Session, ScenarioClient):
            public = {
                name
                for name in vars(host)
                if not name.startswith("_")
            }
            missing = public - RESERVED_OPERATION_NAMES
            assert not missing, f"{host.__name__} attrs not reserved: {missing}"

    def test_reserved_operation_names_rejected_at_declaration(self):
        from repro.datatypes.base import DataType, Operation, operation

        # Python <3.12 wraps __set_name__ errors in a RuntimeError.
        with pytest.raises((ValueError, RuntimeError)) as excinfo:

            class Clashing(DataType):
                @operation
                def submit() -> Operation:  # shadows Session.submit
                    return Operation("submit")

        assert "reserved" in str(excinfo.value) or "reserved" in str(
            excinfo.value.__cause__
        )

    def test_constructor_shims_unchanged(self):
        op = RList.append("x")
        assert op.name == "append" and op.args == ("x",)
        # Instance access works like the old staticmethods too.
        assert RList().append("x") == op


# ----------------------------------------------------------------------
# DivergedOrderError (satellite: readable TOB divergence diagnostics)
# ----------------------------------------------------------------------
class TestDivergedOrderError:
    def test_consistent_runs_do_not_raise(self):
        cluster = make_cluster()
        cluster.submit(0, Counter.increment(1))
        cluster.run_until_quiescent()
        cluster.build_history()  # no error

    def test_diverged_sequences_raise_with_diff(self):
        cluster = make_cluster()
        cluster.submit(0, Counter.increment(1))
        cluster.submit(1, Counter.increment(1))
        cluster.run_until_quiescent()
        # Corrupt one replica's delivered sequence to simulate a TOB bug
        # (the public accessor returns a copy; reach into the engine).
        cluster.replicas[2].tob._delivered[0] = (9, 9)
        with pytest.raises(DivergedOrderError) as excinfo:
            cluster.build_history()
        message = str(excinfo.value)
        assert "first divergence at index 0" in message
        assert ">>(9, 9)<<" in message
        assert excinfo.value.index == 0
        assert len(excinfo.value.sequences) == 2

    def test_is_catchable_as_assertion_error_for_compat(self):
        assert issubclass(DivergedOrderError, AssertionError)
