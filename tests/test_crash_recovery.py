"""Crash–recovery: lifecycle, timer resurrection, catch-up, convergence.

Includes the regression tests for the pre-existing bugs this PR fixes:

- the anti-entropy sync timer stuck armed forever when it fired during a
  crash (the guarded callback swallowed it and ``_timer_armed`` was never
  reset), so a recovered replica never synced again;
- the Ω heartbeat loop dying permanently when ``_tick`` ran on a crashed
  node (early return without rescheduling), so a recovered node stayed
  suspected forever and its own leader view went stale;
- ``Network`` counting messages silently dropped into a crashed receiver
  as deliveries (and tracing ``net.deliver`` for them), skewing the
  dissemination message-count benchmarks;
- Ω's ``_last_heard`` initialised to 0.0, so a detector started at
  simulated time > timeout instantly suspected every peer and elected
  itself leader until the first heartbeat round.
"""

import pytest

from repro.broadcast.anti_entropy import AntiEntropy
from repro.broadcast.failure_detector import OmegaFailureDetector
from repro.core.cluster import BayouCluster, MODIFIED, ORIGINAL
from repro.core.config import BayouConfig
from repro.core.state_object import RollbackError, StateObject
from repro.datatypes.counter import Counter
from repro.datatypes.rlist import RList
from repro.errors import ReplicaUnavailableError
from repro.net.faults import CrashSchedule
from repro.net.network import FixedLatency, Network
from repro.net.node import RoutingNode
from repro.net.partition import PartitionSchedule
from repro.runtime.sim import SimRuntime
from repro.scenario import Scenario
from repro.sim.kernel import Simulator


def build_nodes(n=2, latency=1.0, partitions=None):
    sim = Simulator()
    network = Network(
        sim, n, latency=FixedLatency(latency), partitions=partitions
    )
    nodes = [RoutingNode(SimRuntime(sim, network), pid) for pid in range(n)]
    return sim, network, nodes


# ----------------------------------------------------------------------
# Process lifecycle: modes, hooks, timer bookkeeping
# ----------------------------------------------------------------------
class TestProcessLifecycle:
    def test_crash_modes_and_counters(self):
        sim, network, nodes = build_nodes()
        nodes[0].crash("recover")
        assert nodes[0].crashed and nodes[0].crash_mode == "recover"
        nodes[0].recover()
        assert not nodes[0].crashed and nodes[0].crash_mode is None
        assert nodes[0].crash_count == 1 and nodes[0].recovery_count == 1

    def test_unknown_crash_mode_rejected(self):
        sim, network, nodes = build_nodes()
        with pytest.raises(ValueError):
            nodes[0].crash("pause")

    def test_crash_hooks_fire_in_order(self):
        sim, network, nodes = build_nodes()
        events = []
        nodes[0].register_crash_hooks(
            on_crash=lambda mode: events.append(("crash-a", mode)),
            on_recover=lambda: events.append("recover-a"),
        )
        nodes[0].register_crash_hooks(on_recover=lambda: events.append("recover-b"))
        nodes[0].crash("recover")
        nodes[0].recover()
        assert events == [("crash-a", "recover"), "recover-a", "recover-b"]

    def test_timer_suppressed_vs_cancelled(self):
        sim, network, nodes = build_nodes()
        fired = []
        suppressed = nodes[0].set_timer(5.0, lambda: fired.append("s"))
        cancelled = nodes[0].set_timer(5.0, lambda: fired.append("c"))
        cancelled.cancel()
        nodes[0].crash("recover")
        sim.run()
        assert fired == []
        assert suppressed.suppressed and not suppressed.cancelled
        assert cancelled.cancelled and not cancelled.suppressed

    def test_suppressed_timer_resurrects_on_recovery(self):
        sim, network, nodes = build_nodes()
        fired = []
        nodes[0].set_timer(5.0, lambda: fired.append(sim.now), resurrect=True)
        nodes[0].crash("recover")
        sim.run()  # the timer comes due at t=5 while down: suppressed
        assert fired == []
        nodes[0].recover()
        sim.run()
        # Re-armed with its original delay from the recovery instant.
        assert fired == [10.0]

    def test_non_resurrect_timer_stays_dead(self):
        sim, network, nodes = build_nodes()
        fired = []
        nodes[0].set_timer(5.0, lambda: fired.append(True))
        nodes[0].crash("recover")
        sim.run()
        nodes[0].recover()
        sim.run()
        assert fired == []

    def test_crash_stop_never_resurrects(self):
        sim, network, nodes = build_nodes()
        fired = []
        nodes[0].set_timer(5.0, lambda: fired.append(True), resurrect=True)
        nodes[0].crash()  # default mode: stop
        sim.run()
        assert fired == []


# ----------------------------------------------------------------------
# CrashSchedule modes
# ----------------------------------------------------------------------
class TestCrashSchedule:
    def test_mode_inferred_from_recovery(self):
        schedule = CrashSchedule()
        schedule.add(0, crash_at=5.0, recover_at=10.0)
        schedule.add(1, crash_at=5.0)
        assert schedule.plans[0].effective_mode == "recover"
        assert schedule.plans[1].effective_mode == "stop"

    def test_stop_mode_with_recovery_rejected(self):
        schedule = CrashSchedule()
        with pytest.raises(ValueError):
            schedule.add(0, crash_at=5.0, recover_at=10.0, mode="stop")

    def test_unknown_mode_rejected_at_declaration(self):
        schedule = CrashSchedule()
        with pytest.raises(ValueError):
            schedule.add(0, crash_at=5.0, mode="restart")

    def test_armed_crash_carries_mode(self):
        sim, network, nodes = build_nodes()
        schedule = CrashSchedule()
        schedule.add(0, crash_at=5.0, recover_at=10.0)
        schedule.arm(sim, {0: nodes[0], 1: nodes[1]})
        sim.run(until=6.0)
        assert nodes[0].crashed and nodes[0].crash_mode == "recover"
        sim.run(until=11.0)
        assert not nodes[0].crashed


# ----------------------------------------------------------------------
# Satellite regressions
# ----------------------------------------------------------------------
class TestAntiEntropyStuckTimerRegression:
    """Pre-fix: a sync tick firing during a crash left ``_timer_armed``
    stuck True; the recovered endpoint never synced again."""

    def _endpoints(self, sim, network, nodes, interval=1.0):
        inboxes = {node.pid: [] for node in nodes}
        endpoints = [
            AntiEntropy(
                node,
                lambda key, payload, pid=node.pid: inboxes[pid].append(key),
                sync_interval=interval,
            )
            for node in nodes
        ]
        return endpoints, inboxes

    def test_recovered_endpoint_syncs_again(self):
        sim, network, nodes = build_nodes(n=2, latency=0.3)
        endpoints, inboxes = self._endpoints(sim, network, nodes)
        endpoints[0].rb_cast((0, 1), "before")  # arms the sync timer
        nodes[0].crash("recover")
        sim.run(until=5.0)  # the armed tick comes due while down
        assert inboxes[1] == []  # nothing spread: node 0 was dead
        nodes[0].recover()
        endpoints[0].rb_cast((0, 2), "after")
        sim.run(until=30.0)
        # Pre-fix the timer never re-armed and nothing ever synced.
        assert inboxes[1] == [(0, 1), (0, 2)]

    def test_timer_armed_flag_consistent_after_recovery(self):
        sim, network, nodes = build_nodes(n=2, latency=0.3)
        endpoints, _ = self._endpoints(sim, network, nodes)
        endpoints[0].rb_cast((0, 1), "x")
        nodes[0].crash("recover")
        sim.run(until=5.0)
        nodes[0].recover()
        sim.run()
        # Quiesced: the flag must not claim an armed timer that is gone.
        assert endpoints[0]._timer_armed is False
        assert endpoints[1].version_vector() == {0: 1}


class TestOmegaRecoveryRegression:
    def _detectors(self, sim, nodes, heartbeat=2.0, timeout=7.0):
        detectors = [
            OmegaFailureDetector(node, heartbeat_interval=heartbeat, timeout=timeout)
            for node in nodes
        ]
        for detector in detectors:
            sim.schedule(0.0, detector.start)
        return detectors

    def test_heartbeats_resume_after_recovery(self):
        """Pre-fix: ``_tick`` on a crashed node returned without
        rescheduling, so the recovered node was suspected forever."""
        sim, network, nodes = build_nodes(n=3, latency=0.5)
        detectors = self._detectors(sim, nodes)
        sim.schedule(5.0, lambda: nodes[0].crash("recover"))
        sim.run(until=20.0)
        assert detectors[1].leader() == 1  # node 0 suspected while down
        sim.schedule(0.0, nodes[0].recover)
        sim.run(until=40.0)
        assert [d.leader() for d in detectors] == [0, 0, 0]
        assert 0 not in detectors[1].suspected()
        for detector in detectors:
            detector.stop()
        sim.run()

    def test_own_leader_view_refreshes_after_recovery(self):
        """The recovered node's own view must not stay stale either."""
        sim, network, nodes = build_nodes(n=2, latency=0.5)
        detectors = self._detectors(sim, nodes)
        sim.schedule(5.0, lambda: nodes[1].crash("recover"))
        sim.run(until=20.0)
        sim.schedule(0.0, nodes[1].recover)
        sim.run(until=40.0)
        assert detectors[1].leader() == 0
        for detector in detectors:
            detector.stop()
        sim.run()

    def test_late_start_does_not_suspect_everyone(self):
        """Pre-fix: ``_last_heard`` init to 0.0 meant a detector started at
        t > timeout instantly suspected all peers and elected itself."""
        sim, network, nodes = build_nodes(n=3, latency=0.5)
        sim.advance_to(50.0)  # well past the 7.0 timeout
        detectors = self._detectors(sim, nodes)
        started = sim.now
        sim.run(until=started + 1.0)
        assert detectors[2].suspected() == []
        assert detectors[2].leader() == 0
        for detector in detectors:
            detector.stop()
        sim.run()


class TestNetworkSuppressedCount:
    def test_crashed_receiver_not_counted_as_delivered(self):
        sim, network, nodes = build_nodes(n=2)
        nodes[1].register_component("t", lambda s, p: None)
        nodes[1].crash("recover")
        network.send(0, 1, ("t", "lost"))
        sim.run()
        assert network.delivered_count == 0
        assert network.suppressed_count == 1

    def test_live_receiver_still_counts(self):
        sim, network, nodes = build_nodes(n=2)
        nodes[1].register_component("t", lambda s, p: None)
        network.send(0, 1, ("t", "ok"))
        sim.run()
        assert network.delivered_count == 1
        assert network.suppressed_count == 0


# ----------------------------------------------------------------------
# StateObject recovery restore
# ----------------------------------------------------------------------
class TestStateObjectRestore:
    def test_restore_then_replay_matches_direct_execution(self):
        from repro.core.request import Req

        datatype = Counter()
        reference = StateObject(datatype)
        reqs = [
            Req(timestamp=float(i), dot=(0, i), strong=False, op=Counter.increment(i))
            for i in range(1, 6)
        ]
        for req in reqs:
            reference.execute(req)

        recovered = StateObject(datatype, checkpoint_interval=2)
        halfway = StateObject(datatype)
        for req in reqs[:3]:
            halfway.execute(req)
        recovered.restore(reqs[:3], halfway.snapshot())
        for req in reqs[3:]:
            recovered.execute(req)
        assert recovered.snapshot() == reference.snapshot()
        assert recovered.live_requests == reference.live_requests

    def test_rollback_below_restored_prefix_fails_loudly(self):
        from repro.core.request import Req

        datatype = Counter()
        req = Req(timestamp=1.0, dot=(0, 1), strong=False, op=Counter.increment(1))
        state = StateObject(datatype)
        state.restore([req], {"counter:value": 1})
        with pytest.raises(RollbackError):
            state.rollback(req)


# ----------------------------------------------------------------------
# Cluster-level crash–recovery
# ----------------------------------------------------------------------
def _crash_recovery_cluster(dissemination, engine, durability="memory", **extra):
    config = BayouConfig(
        n_replicas=3,
        exec_delay=0.05,
        message_delay=0.5,
        dissemination=dissemination,
        ae_sync_interval=1.0,
        reorder_engine=engine,
        checkpoint_interval=3,
        durability=durability,
        **extra,
    )
    crashes = CrashSchedule()
    crashes.add(2, crash_at=10.0, recover_at=25.0)
    return BayouCluster(Counter(), config, crashes=crashes)


class TestClusterRecovery:
    @pytest.mark.parametrize("dissemination", ["rb", "anti_entropy"])
    @pytest.mark.parametrize("engine", ["stepwise", "batched"])
    def test_recovered_replica_catches_up(self, dissemination, engine):
        cluster = _crash_recovery_cluster(dissemination, engine)
        for t, pid, amount in [(1, 0, 1), (2, 1, 2), (3, 2, 4)]:
            cluster.schedule_invoke(float(t), pid, Counter.increment(amount))
        # Invoked while replica 2 is down: it must learn these at recovery.
        cluster.schedule_invoke(12.0, 0, Counter.increment(8))
        cluster.schedule_invoke(14.0, 1, Counter.increment(16))
        # And fresh work on the recovered replica afterwards.
        cluster.schedule_invoke(30.0, 2, Counter.increment(32))
        cluster.run_until_quiescent()
        assert cluster.converged()
        snapshots = [replica.state.snapshot() for replica in cluster.replicas]
        assert snapshots[0] == snapshots[1] == snapshots[2]
        assert snapshots[0]["counter:value"] == 63
        assert cluster.network.suppressed_count > 0

    def test_event_numbering_continues_after_recovery(self):
        cluster = _crash_recovery_cluster("rb", "stepwise")
        cluster.schedule_invoke(1.0, 2, Counter.increment(1))
        cluster.schedule_invoke(2.0, 2, Counter.increment(1))
        cluster.schedule_invoke(30.0, 2, Counter.increment(1))
        cluster.run_until_quiescent()
        dots = sorted(
            future.dot for future in cluster.ops.futures.values() if future.pid == 2
        )
        assert dots == [(2, 1), (2, 2), (2, 3)]  # no dot reuse
        assert cluster.replicas[2].curr_event_no == 3

    def test_invoking_on_crashed_replica_is_refused(self):
        cluster = _crash_recovery_cluster("rb", "stepwise")
        cluster.run(until=11.0)
        assert cluster.nodes[2].crashed
        with pytest.raises(ReplicaUnavailableError):
            cluster.invoke(2, Counter.increment(1))
        cluster.run_until_quiescent()

    def test_crash_stop_replica_excluded_from_convergence(self):
        config = BayouConfig(n_replicas=3, exec_delay=0.05, message_delay=0.5)
        crashes = CrashSchedule()
        crashes.add(2, crash_at=2.0)  # permanent
        cluster = BayouCluster(Counter(), config, crashes=crashes)
        cluster.schedule_invoke(5.0, 0, Counter.increment(3))
        cluster.run_until_quiescent()
        assert cluster.converged()  # the two survivors agree
        assert cluster.replicas[2].state.snapshot() == {}

    def test_recovery_without_durability_keeps_memory_state(self):
        """The legacy semantics: durability='none' models a pause."""
        cluster = _crash_recovery_cluster("rb", "stepwise", durability="none")
        cluster.schedule_invoke(1.0, 2, Counter.increment(5))
        cluster.schedule_invoke(12.0, 0, Counter.increment(2))
        cluster.schedule_invoke(30.0, 2, Counter.increment(1))
        cluster.run_until_quiescent()
        assert cluster.converged()
        assert cluster.replicas[2].state.snapshot()["counter:value"] == 8

    def test_store_less_recovery_unsticks_suppressed_step_timer(self):
        """A step that comes due during the downtime does nothing and lets go
        of ``_step_timer``, so a durability='none' recovery re-arms the
        step and the replica executes its backlog (a handle still held
        after recovery would stall it for good)."""
        config = BayouConfig(n_replicas=3, exec_delay=2.0, message_delay=0.5)
        crashes = CrashSchedule()
        crashes.add(2, crash_at=10.0, recover_at=20.0)
        cluster = BayouCluster(Counter(), config, crashes=crashes)
        # Invoked just before the crash: its bayou.step event comes due at
        # ~11.5, while the replica is down.
        cluster.schedule_invoke(9.5, 2, Counter.increment(7))
        cluster.run_until_quiescent()
        assert cluster.converged()
        assert cluster.replicas[2].backlog == 0
        assert cluster.replicas[2].state.snapshot()["counter:value"] == 7

    def test_strong_ops_and_modified_protocol_recover(self):
        config = BayouConfig(
            n_replicas=3,
            exec_delay=0.05,
            message_delay=0.5,
            durability="memory",
        )
        crashes = CrashSchedule()
        crashes.add(1, crash_at=10.0, recover_at=25.0)
        cluster = BayouCluster(RList(), config, protocol=MODIFIED, crashes=crashes)
        cluster.schedule_invoke(1.0, 1, RList.append("a"))
        cluster.schedule_invoke(2.0, 0, RList.append("b"), strong=True)
        cluster.schedule_invoke(12.0, 0, RList.append("c"))
        cluster.schedule_invoke(30.0, 1, RList.append("d"))
        cluster.run_until_quiescent()
        assert cluster.converged()
        values = {
            replica.state.snapshot().get("list:items")
            for replica in cluster.replicas
        }
        assert len(values) == 1

    def test_recovery_replay_uses_persisted_checkpoint(self):
        cluster = _crash_recovery_cluster("rb", "batched")
        for i in range(8):
            cluster.schedule_invoke(0.5 + 0.5 * i, 2, Counter.increment(1))
        cluster.schedule_invoke(30.0, 2, Counter.increment(1))
        cluster.run_until_quiescent()
        assert cluster.converged()
        store = cluster.stores[2]
        persisted = store.get("replica.checkpoint")
        assert persisted is not None and persisted["position"] >= 3
        assert cluster.replicas[2].state.snapshot()["counter:value"] == 9


# ----------------------------------------------------------------------
# Scenario builder verbs + partitioned recovery (the E11 shape)
# ----------------------------------------------------------------------
class TestScenarioRecovery:
    def test_crash_and_durability_verbs(self):
        result = (
            Scenario(Counter())
            .replicas(3)
            .durability("memory")
            .exec_delay(0.05)
            .message_delay(0.5)
            .partition(5.0, [[0, 1], [2]])
            .heal(15.0)
            .crash(2, 8.0, recover_at=20.0)
            .invoke(1.0, 2, Counter.increment(1), label="pre")
            .invoke(6.0, 0, Counter.increment(2), label="partitioned")
            .invoke(25.0, 2, Counter.increment(4), label="post")
            .run(well_formed=False)
        )
        assert result.converged
        assert result.query(Counter.read()) == 7
        assert result.responses["post"] == 7

    def test_scripted_invoke_into_crash_window_is_refused_not_fatal(self):
        """An op scripted while its replica is down must not abort the run;
        it is recorded as refused and everything else completes."""
        result = (
            Scenario(Counter())
            .replicas(3)
            .durability("memory")
            .exec_delay(0.05)
            .crash(2, 5.0, recover_at=15.0)
            .invoke(8.0, 2, Counter.increment(1), label="unreachable")
            .invoke(9.0, 0, Counter.increment(2), label="fine")
            .run(well_formed=False)
        )
        assert result.converged
        assert "unreachable" in result.refused
        assert "unreachable" not in result.futures
        assert result.responses["fine"] == 2
        assert result.query(Counter.read()) == 2

    def test_crash_stop_verb(self):
        result = (
            Scenario(Counter())
            .replicas(3)
            .exec_delay(0.05)
            .crash(2, 2.0)
            .invoke(5.0, 0, Counter.increment(1), label="after")
            .run(well_formed=False)
        )
        assert result.converged
        assert result.convergence["crashed"] == [False, False, True]


# ----------------------------------------------------------------------
# Closed-loop sessions across crash windows
# ----------------------------------------------------------------------
class TestSessionAcrossCrash:
    def test_session_pauses_through_recovery_window(self):
        """A closed-loop client of a crash–recovery replica stalls while
        the server is down and completes its script after recovery."""
        cluster = _crash_recovery_cluster("rb", "stepwise")  # 2 down [10, 25]
        session = cluster.connect(2, think_time=6.0)
        futures = [session.submit(Counter.increment(i)) for i in (1, 2, 4)]
        cluster.run_until_quiescent()
        # Ops landing in the downtime window waited for the recovery.
        assert all(future.done for future in futures)
        assert session.refused == []
        assert cluster.converged()
        assert cluster.replicas[2].state.snapshot()["counter:value"] == 7

    def test_session_refused_by_crash_stopped_replica(self):
        """Against a permanently crashed replica the remaining script is
        refused — the run completes instead of dying in the event loop."""
        config = BayouConfig(n_replicas=3, exec_delay=0.05, message_delay=0.5)
        crashes = CrashSchedule()
        crashes.add(2, crash_at=3.0)  # permanent
        cluster = BayouCluster(Counter(), config, crashes=crashes)
        session = cluster.connect(2, think_time=4.0)
        first = session.submit(Counter.increment(1))
        second = session.submit(Counter.increment(2))
        cluster.run_until_quiescent()
        assert first.done and first.value == 1
        assert not second.done
        assert session.refused == [second]
        assert cluster.converged()  # survivors, with the pre-crash op


# ----------------------------------------------------------------------
# E11 — the recovery experiment itself
# ----------------------------------------------------------------------
class TestRecoveryExperiment:
    @pytest.mark.parametrize("dissemination", ["rb", "anti_entropy"])
    @pytest.mark.parametrize("engine", ["stepwise", "batched"])
    @pytest.mark.parametrize("protocol", [ORIGINAL, MODIFIED])
    def test_matrix_leg_bit_identical(self, dissemination, engine, protocol):
        from repro.analysis.experiments.recovery import run_recovery_case

        run = run_recovery_case(dissemination, engine, protocol)
        assert run.converged
        assert run.recovered_matches_survivors
        assert run.suppressed_messages > 0  # the crash genuinely lost traffic

    def test_omega_leg_reelects_recovered_leader(self):
        from repro.analysis.experiments.recovery import run_recovery_omega

        run = run_recovery_omega()
        assert run.converged
        assert run.recovered_matches_survivors
        assert run.leaders == [0, 0, 0]

    def test_cross_engine_identity(self):
        from repro.analysis.experiments.recovery import (
            cross_engine_identical,
            run_recovery_case,
        )

        rows = [
            run_recovery_case("rb", engine, ORIGINAL)
            for engine in ("stepwise", "batched")
        ]
        assert cross_engine_identical(rows)
        assert rows[0].final_value == rows[1].final_value
