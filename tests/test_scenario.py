"""The Scenario builder: compile, run, RunResult round-trips, validation."""

import pytest

from repro import (
    BayouConfig,
    Counter,
    KVStore,
    PENDING,
    RList,
    Scenario,
)
from repro.analysis.experiments.figure1 import figure1_scenario, run_figure1
from repro.errors import MultiShardError
from repro.framework.history import STRONG, WEAK


# ----------------------------------------------------------------------
# Scenario -> RunResult round trip, equivalent to experiment E1
# ----------------------------------------------------------------------
class TestFigure1RoundTrip:
    def test_scenario_reproduces_figure1_observables(self):
        result = figure1_scenario().run()
        assert result.responses == {
            "append_a": "a",
            "append_x": "aax",
            "duplicate": "axax",
        }
        assert result.query(RList.read()) == "axax"
        assert result.converged
        assert not result.ok("bec:weak")   # temporary reordering happened
        assert result.ok("seq:strong")

    def test_scenario_matches_experiment_wrapper(self):
        via_scenario = figure1_scenario().run()
        via_experiment = run_figure1()
        assert via_scenario.responses == via_experiment.responses
        assert via_experiment.final_value == via_scenario.query(RList.read())
        assert (
            via_scenario.check("bec:weak").ok == via_experiment.bec_weak.ok
        )
        assert len(via_scenario.history) == len(via_experiment.history)

    def test_futures_in_result_are_stable(self):
        result = figure1_scenario().run()
        strong = result.future("duplicate")
        assert strong.stable and strong.strong
        assert strong.value == "axax"
        event = result.event("duplicate")
        assert event.rval == "axax" and event.level == STRONG

    def test_sub_history_restricts_to_labels(self):
        result = figure1_scenario().run()
        core = result.sub_history(["append_x", "duplicate"])
        assert len(core) == 2
        assert {event.op.name for event in core} == {"append", "duplicate"}


# ----------------------------------------------------------------------
# Builder surface
# ----------------------------------------------------------------------
class TestScenarioBuilder:
    def test_requires_datatype(self):
        with pytest.raises(ValueError):
            Scenario().replicas(2).build()

    def test_duplicate_labels_rejected(self):
        scenario = Scenario(Counter()).invoke(1.0, 0, Counter.read(), label="x")
        with pytest.raises(ValueError):
            scenario.invoke(2.0, 0, Counter.read(), label="x")

    def test_auto_labels_are_distinct(self):
        result = (
            Scenario(Counter())
            .replicas(2)
            .exec_delay(0.05)
            .invoke(1.0, 0, Counter.increment(1))
            .invoke(2.0, 1, Counter.increment(1))
            .run()
        )
        assert len(result.futures) == 2
        assert all(label.startswith("increment#") for label in result.futures)

    def test_message_delay_preserves_existing_jitter(self):
        scenario = (
            Scenario(Counter())
            .config(latency_jitter=0.3)
            .message_delay(1.0)  # must not reset jitter to 0
            .replicas(2)
        )
        live = scenario.build()
        assert live.cluster.config.latency_jitter == 0.3

    def test_clock_drift_can_be_reset(self):
        live = (
            Scenario(Counter())
            .replicas(2)
            .clock_drift(1, offset=-0.5, rate=0.4)
            .clock_drift(1, offset=0.0, rate=1.0)  # cancel it
            .build()
        )
        assert live.cluster.config.clock_offsets[1] == 0.0
        assert live.cluster.config.clock_rates[1] == 1.0

    def test_auto_label_sidesteps_user_collision(self):
        result = (
            Scenario(Counter())
            .replicas(2)
            .exec_delay(0.05)
            .invoke(1.0, 0, Counter.read(), label="read#1")
            .invoke(2.0, 0, Counter.read())  # auto label must not clash
            .run(well_formed=False)
        )
        assert set(result.futures) == {"read#1", "read#2"}

    def test_partition_blocks_strong_op_until_heal(self):
        live = (
            Scenario(Counter())
            .replicas(3)
            .protocol("modified")
            .exec_delay(0.05)
            .message_delay(1.0)
            .partition(0.5, [[0, 1], [2]])
            .heal(50.0)
            .invoke(1.0, 2, Counter.increment(1), strong=True, label="blocked")
            .build()
        )
        live.run(until=40.0)
        assert live.futures["blocked"].pending
        assert live.history(well_formed=False).event(
            live.futures["blocked"].dot
        ).rval is PENDING
        live.run_until_quiescent()
        assert live.futures["blocked"].stable

    def test_workload_runs_one_session_per_replica(self):
        live = (
            Scenario(Counter())
            .replicas(3)
            .protocol("modified")
            .exec_delay(0.02)
            .message_delay(0.5)
            .seed(7)
            .workload("counter", ops_per_session=4, think_time=0.2, seed=7)
            .build()
        )
        live.run_until_quiescent()
        workload = live.workloads[0]
        assert len(workload.sessions) == 3
        assert all(session.idle for session in workload.sessions)
        assert sum(session.completed for session in workload.sessions) == 12

    def test_client_script_with_typed_sugar(self):
        scenario = (
            Scenario(RList())
            .replicas(2)
            .exec_delay(0.05)
            .message_delay(1.0)
        )
        scenario.client(0, think_time=0.1).append("a").append("b").read(
            strong=True, label="final"
        )
        result = scenario.run()
        assert result.responses["final"] == "ab"
        assert result.converged

    def test_checks_reported_by_name(self):
        result = (
            Scenario(Counter())
            .replicas(2)
            .protocol("modified")
            .exec_delay(0.05)
            .invoke(1.0, 0, Counter.increment(1))
            .probes(Counter.read)
            .checks(fec="weak", seq="strong", ncc=True)
            .run()
        )
        assert result.ok("fec:weak")
        assert result.ok("seq:strong")
        assert result.ok("ncc")
        with pytest.raises(KeyError):
            result.check("bec:weak")  # not requested

    def test_latency_helpers_split_by_level(self):
        result = (
            Scenario(Counter())
            .replicas(2)
            .protocol("modified")
            .exec_delay(0.05)
            .message_delay(1.0)
            .invoke(1.0, 0, Counter.increment(1))
            .invoke(2.0, 1, Counter.increment(1), strong=True)
            .run(well_formed=False)
        )
        assert result.weak_latencies == [0.0]
        assert len(result.strong_latencies) == 1
        assert result.strong_latencies[0] > 0.0
        assert result.latencies(WEAK, session=1) == []

    def test_hooks_receive_live_run(self):
        seen = []

        def hook(run):
            seen.append(run.now)
            run.submit(0, Counter.increment(1), label="from-hook")

        result = (
            Scenario(Counter())
            .replicas(2)
            .exec_delay(0.05)
            .at(3.0, hook)
            .run()
        )
        assert seen == [3.0]
        assert result.responses["from-hook"] == 1

    def test_run_until_is_a_snapshot_and_never_advances_past_cap(self):
        result = (
            Scenario(Counter())
            .replicas(3)
            .protocol("modified")
            .exec_delay(0.05)
            .message_delay(1.0)
            .partition(0.5, [[0, 1], [2]])
            .heal(50.0)
            .invoke(1.0, 2, Counter.increment(1), strong=True, label="blocked")
            .probes(Counter.read)  # must NOT fire for a snapshot run
            .run(until=10.0, well_formed=False)
        )
        assert result.cluster.sim.now <= 10.0
        assert result.future("blocked").pending  # still mid-partition
        # No probe events leaked past the cap into the history.
        assert len(result.history) == 1

    def test_paxos_run_with_probes_terminates(self):
        result = (
            Scenario(Counter())
            .replicas(3)
            .exec_delay(0.05)
            .message_delay(1.0)
            .tob("paxos")
            .invoke(1.0, 0, Counter.increment(1), label="inc")
            .probes(Counter.read)
            .run(well_formed=False, max_time=2000.0)
        )
        assert result.converged
        assert result.responses["inc"] == 1

    def test_build_does_not_mutate_caller_config_dicts(self):
        offsets = {0: 1.0}
        (
            Scenario(Counter())
            .replicas(2)
            .exec_delay(0.05)
            .config(clock_offsets=offsets)
            .clock_drift(1, offset=-0.5)
            .build()
        )
        assert offsets == {0: 1.0}

    def test_workload_strong_probability_applies_to_profile_objects(self):
        from repro.analysis.workload import counter_profile
        from repro.framework.history import STRONG as STRONG_LEVEL

        live = (
            Scenario(Counter())
            .replicas(2)
            .protocol("modified")
            .exec_delay(0.02)
            .message_delay(0.5)
            .workload(
                counter_profile(strong_probability=0.0),
                ops_per_session=4,
                strong_probability=1.0,  # must override the profile's 0.0
            )
            .build()
        )
        live.run_until_quiescent()
        history = live.history(well_formed=False)
        assert len(history.with_level(STRONG_LEVEL)) == 8

    def test_event_on_never_invoked_label_raises_named_error(self):
        from repro import PendingResponseError

        scenario = Scenario(Counter()).replicas(2).exec_delay(0.05)
        # The first op launches immediately; the queued second one never
        # gets its turn before the snapshot cap.
        scenario.client(0, think_time=5.0).read(label="first").read(label="late")
        result = scenario.run(until=0.01, well_formed=False)
        with pytest.raises(PendingResponseError, match="never invoked"):
            result.event("late")
        with pytest.raises(PendingResponseError, match="never invoked"):
            result.sub_history(["late"])

    def test_live_submit_rejects_duplicate_label(self):
        live = (
            Scenario(Counter())
            .replicas(2)
            .exec_delay(0.05)
            .invoke(1.0, 0, Counter.increment(1), label="x")
            .build()
        )
        live.run_until_quiescent()
        with pytest.raises(ValueError, match="duplicate scenario label"):
            live.submit(0, Counter.increment(1), label="x")

    def test_paxos_engine_run_pipeline(self):
        result = (
            Scenario(Counter())
            .replicas(3)
            .exec_delay(0.05)
            .message_delay(1.0)
            .tob("paxos")
            .invoke(1.0, 0, Counter.increment(1))
            .invoke(2.0, 1, Counter.increment(2), strong=True, label="strong")
            .run(well_formed=False, max_time=2000.0)
        )
        assert result.converged
        assert not result.future("strong").pending


# ----------------------------------------------------------------------
# BayouConfig.validate hardening (satellite)
# ----------------------------------------------------------------------
class TestConfigValidation:
    def test_negative_exec_delay_override_rejected(self):
        with pytest.raises(ValueError, match="exec_delay_overrides"):
            BayouConfig(exec_delay_overrides={1: -0.5}).validate()

    def test_non_positive_ae_sync_interval_rejected(self):
        with pytest.raises(ValueError, match="ae_sync_interval"):
            BayouConfig(ae_sync_interval=0.0).validate()

    def test_non_positive_heartbeat_interval_rejected(self):
        with pytest.raises(ValueError, match="heartbeat_interval"):
            BayouConfig(heartbeat_interval=-1.0).validate()

    def test_non_positive_failure_timeout_rejected(self):
        with pytest.raises(ValueError, match="failure_timeout"):
            BayouConfig(failure_timeout=0).validate()

    def test_non_positive_paxos_retry_interval_rejected(self):
        with pytest.raises(ValueError, match="paxos_retry_interval"):
            BayouConfig(paxos_retry_interval=-3).validate()

    def test_non_positive_retransmit_interval_rejected(self):
        with pytest.raises(ValueError, match="retransmit_interval"):
            BayouConfig(retransmit_interval=0.0).validate()

    def test_unset_retransmit_interval_allowed(self):
        BayouConfig(retransmit_interval=None).validate()
        BayouConfig(retransmit_interval=2.5).validate()

    def test_valid_overrides_accepted(self):
        BayouConfig(exec_delay_overrides={0: 0.0, 2: 5.0}).validate()

    def test_unknown_reorder_engine_rejected(self):
        with pytest.raises(ValueError, match="reorder_engine"):
            BayouConfig(reorder_engine="eager").validate()

    def test_non_positive_checkpoint_interval_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_interval"):
            BayouConfig(checkpoint_interval=0).validate()

    def test_reorder_knobs_accepted(self):
        BayouConfig(reorder_engine="batched", checkpoint_interval=64).validate()


class TestScenarioReorderKnob:
    def test_reorder_threads_through_to_config_and_replicas(self):
        from repro.datatypes.counter import Counter

        result = (
            Scenario(Counter())
            .replicas(2)
            .reorder("batched", checkpoint_interval=16)
            .invoke(1.0, 0, Counter.increment(3), label="inc")
            .run()
        )
        config = result.cluster.config
        assert config.reorder_engine == "batched"
        assert config.checkpoint_interval == 16
        assert result.responses["inc"] == 3
        assert result.converged
        for replica in result.cluster.replicas:
            assert replica.state.checkpoint_interval == 16


# ----------------------------------------------------------------------
# One facade for any shard count
# ----------------------------------------------------------------------
def _three_line_program(shards):
    scenario = Scenario(KVStore()).replicas(3).checks(fec="weak", seq="strong")
    if shards is not None:
        scenario.shards(shards)
    return (
        scenario
        .invoke(1.0, 0, KVStore.put("a", 1), label="put")
        .invoke(3.0, 1, KVStore.put_if_absent("a", 2), strong=True, label="pia")
        .invoke(6.0, 2, KVStore.get("a"), label="get")
    )


class TestOneFacade:
    @pytest.mark.parametrize("shards", [None, 1])
    def test_one_shard_is_the_unsharded_run(self, shards):
        reference = _three_line_program(None).run()
        result = _three_line_program(shards).run()
        assert type(result) is type(reference)
        committed = [req.dot for req in result.cluster.replicas[0].committed]
        assert committed == [
            req.dot for req in reference.cluster.replicas[0].committed
        ]
        assert result.shard_snapshot(0) == reference.shard_snapshot(0)
        assert result.responses == reference.responses
        assert result.query(KVStore.get("a")) == 1
        assert result.converged
        for name in ("fec:weak", "seq:strong"):
            assert result.ok(name) and reference.ok(name)
            assert result.check(name, shard=0).ok
        assert len(result.history) == len(reference.history) == 3
        # The sharded extras are filled in exactly when .shards(n) was called.
        assert (result.deployment is None) == (shards is None)
        assert (result.router is None) == (shards is None)
        assert result.n_shards == shards and result.migrations == []

    def test_single_cluster_accessors_refuse_a_multi_shard_run(self):
        live = _three_line_program(2).build()
        with pytest.raises(MultiShardError, match="2 shards"):
            live.cluster
        result = live.finish()
        assert len(result.histories) == len(result.clusters) == 2
        for accessor in ("history", "execution", "cluster"):
            with pytest.raises(MultiShardError, match="2 shards"):
                getattr(result, accessor)


# ----------------------------------------------------------------------
# settle() on Paxos runs: thinking sessions are not "done"
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [None, 2])
@pytest.mark.parametrize("think_time", [2.0, 60.0])
def test_settle_drives_closed_loop_sessions_to_the_end(shards, think_time):
    """Stability looks at invoked requests only; a session between two
    operations used to let settle() return with most of its queue unsent
    (72 of 180 futures stable at think 2.0, 3 of 180 at think 60)."""
    scenario = Scenario(KVStore()).replicas(3).tob("paxos")
    if shards is not None:
        scenario.shards(shards)
    for pid in range(3):
        client = scenario.client(pid, think_time=think_time)
        for index in range(60):
            client.weak(KVStore.put(f"k{pid}-{index % 7}", index))
    live = scenario.build()
    live.settle()
    futures = [future for session in live.sessions for future in session.futures]
    assert len(futures) == 180
    assert all(future.stable for future in futures)
    assert all(session.idle for session in live.sessions)
    assert live.converged()
