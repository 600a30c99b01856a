"""Experiment E10 — the rollback–replay reorder engine at scale.

The paper's slow-replica and partition scenarios (Section 2.3) are exactly
the executions where a Bayou replica accumulates a long *tentative* log and
must repeatedly roll it back when the total order disagrees with the local
speculation. This module builds the two canonical stress schedules and runs
them under a configurable reorder engine so the benchmark suite
(``benchmarks/test_bench_reorder.py``) can compare:

- ``stepwise`` (the seed semantics): one simulation event per rollback or
  (re-)execution, per-request undo-log unwinding;
- ``batched``: the whole backlog drained in one event after
  ``backlog × exec_delay`` simulated time, with ``checkpoint_interval``
  letting :meth:`StateObject.revert_to` restore the divergence point from a
  full-state checkpoint instead of unwinding the undo log request-by-
  request.

Both engines are required to produce **bit-identical observables** on these
schedules — the same history events (responses, return times, stability
flags, TOB positions), final snapshots, committed orders and rollback/
execution counts. :meth:`ReorderRun.observables` distils a run into a
comparable fingerprint.

Schedules:

- :func:`build_divergent_suffix` — replica 0 builds an ``n``-request
  tentative log while its outbound messages are held (a silent uplink: the
  sequencer cannot commit its requests). Replica 1 — whose clock reads
  ``~-10⁶`` — then invokes ``waves`` increments, one per replay window:
  each commits ahead of replica 0's entire log, so the whole suffix rolls
  back and replays, ``waves × n`` rollbacks in total. The benchmark times
  *only* the wave window (:meth:`DivergentSuffixRig.run_waves`); setup and
  the final commit flood are excluded.
- :func:`run_drifting_clock` — a replica with a half-speed clock keeps
  injecting requests that sort into the *middle* of the other replica's
  tentative order, causing many partial rollbacks near the tail (the
  steady-state regime the checkpoint interval is tuned for).

Scenario invariants worth knowing before editing:

- the network is FIFO **per link**, so fault injection must delay a link
  uniformly (here: everything replica 0 sends) — delaying one component's
  messages would stall every later message on the same link behind them;
- every awaited response lands in an uncontested window (replica 0's
  requests respond during setup; wave requests execute on a log of waves
  only), which is what makes return times identical across engines. A
  response computed mid-backlog would return at its own step under
  ``stepwise`` but at the batch deadline under ``batched``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import BayouConfig
from repro.core.cluster import BayouCluster, ORIGINAL
from repro.datatypes.counter import Counter
from repro.net.faults import MessageFilter

#: Clock offset making wave requests older than any setup request.
_ANCIENT = -1.0e6


@dataclass
class ReorderRun:
    """Everything a reorder-engine comparison needs from one run."""

    schedule: str
    engine: str
    checkpoint_interval: Optional[int]
    log_length: int
    #: Sorted per-event observable tuples — the bit-identity fingerprint.
    history_fingerprint: Tuple[Tuple[Any, ...], ...]
    final_snapshot: Dict[Any, Any]
    committed_order: Tuple[Any, ...]
    rollbacks: List[int]
    executions: List[int]
    quiescence_time: float
    checkpoint_restores: List[int]
    undo_unwinds: List[int]

    def observables(self) -> Tuple[Any, ...]:
        """The fields that must be identical across engines."""
        return (
            self.history_fingerprint,
            tuple(sorted(self.final_snapshot.items())),
            self.committed_order,
            tuple(self.rollbacks),
            tuple(self.executions),
            round(self.quiescence_time, 9),
        )


def _fingerprint(cluster: BayouCluster) -> Tuple[Tuple[Any, ...], ...]:
    history = cluster.build_history(well_formed=False)
    return tuple(
        sorted(
            (
                event.eid,
                event.session,
                event.level,
                event.invoke_time,
                event.return_time,
                event.rval,
                event.timestamp,
                event.stable,
                event.tob_no,
            )
            for event in history.events
        )
    )


def _finish(cluster: BayouCluster, *, schedule: str, log_length: int) -> ReorderRun:
    quiescence = cluster.run_until_quiescent()
    assert cluster.converged(), f"{schedule} run did not converge"
    return ReorderRun(
        schedule=schedule,
        engine=cluster.config.reorder_engine,
        checkpoint_interval=cluster.config.checkpoint_interval,
        log_length=log_length,
        history_fingerprint=_fingerprint(cluster),
        final_snapshot=cluster.replicas[0].state.snapshot(),
        committed_order=tuple(r.dot for r in cluster.replicas[0].committed),
        rollbacks=[r.rollback_count for r in cluster.replicas],
        executions=[r.execution_count for r in cluster.replicas],
        quiescence_time=quiescence,
        checkpoint_restores=[r.state.checkpoint_restores for r in cluster.replicas],
        undo_unwinds=[r.state.undo_unwinds for r in cluster.replicas],
    )


def _hold_sender_rule(sender: int, extra: float):
    """Delay *everything* ``sender`` sends by ``extra`` (a silent uplink).

    The network is FIFO per link, so the hold must be uniform per sender:
    delaying only one component's messages would stall every later message
    on the same link behind them.
    """

    def rule(src: int, _dst: int, _payload: Any, _time: float) -> Optional[float]:
        return extra if src == sender else None

    return rule


@dataclass
class DivergentSuffixRig:
    """A compiled divergent-suffix run, split so benchmarks can time the
    rollback–replay window in isolation."""

    cluster: BayouCluster
    log_length: int
    waves: int
    #: Simulated time right before the first wave request is invoked.
    t_setup_end: float
    #: Simulated time after the last wave's replay, before the held
    #: messages arrive and the commit flood begins.
    t_waves_end: float

    def settle_setup(self) -> "DivergentSuffixRig":
        """Run the untimed setup: build the tentative log on replica 0."""
        self.cluster.run(until=self.t_setup_end)
        replica = self.cluster.replicas[0]
        assert len(replica.tentative) == self.log_length
        assert replica.backlog == 0, "setup did not drain"
        return self

    def run_waves(self) -> None:
        """The measured region: ``waves`` full-suffix rollback–replays."""
        self.cluster.run(until=self.t_waves_end)

    def finish(self) -> ReorderRun:
        """Untimed: release held messages, flood commits, check and distil."""
        return _finish(
            self.cluster,
            schedule="divergent_suffix",
            log_length=self.log_length,
        )


def build_divergent_suffix(
    log_length: int,
    *,
    reorder_engine: str = "stepwise",
    checkpoint_interval: Optional[int] = None,
    exec_delay: float = 0.001,
    waves: int = 1,
    record_perceived_traces: bool = True,
    telemetry: Optional[Any] = None,
) -> DivergentSuffixRig:
    """Compile the divergent-suffix schedule; nothing has run yet.

    Three replicas; the sequencer is replica 2. Replica 0 invokes
    ``log_length`` weak increments whose outbound messages (dissemination
    *and* proposals) are held until after the last wave, so they execute
    tentatively everywhere... nowhere but locally, in fact: replicas 1 and
    2 first hear of them at the very end. Replica 1 — its clock reading
    ``~-10⁶`` — invokes one increment per wave; each commits immediately
    through the sequencer and reaches replica 0 with a timestamp older
    than its whole log: divergence at the committed prefix, full rollback,
    full replay. After the final wave the held messages arrive and the
    commit flood confirms replica 0's tentative order head-by-head.

    ``rollbacks == [waves * log_length, 0, 0]`` by construction.
    """
    invoke_spacing = 0.01
    t_setup_end = 1.0 + log_length * invoke_spacing + 2.0
    #: One full rollback+replay of the log, with slack for message hops.
    wave_spacing = 2.0 * (log_length + waves) * exec_delay + 8.0
    t_waves_end = t_setup_end + waves * wave_spacing + 4.0
    hold = t_waves_end + 2.0
    config = BayouConfig(
        n_replicas=3,
        exec_delay=exec_delay,
        message_delay=1.0,
        sequencer_pid=2,
        clock_offsets={1: _ANCIENT},
        reorder_engine=reorder_engine,
        checkpoint_interval=checkpoint_interval,
        record_perceived_traces=record_perceived_traces,
    )
    filters = MessageFilter()
    filters.add(_hold_sender_rule(0, hold))
    cluster = BayouCluster(
        Counter(), config, protocol=ORIGINAL, filters=filters,
        telemetry=telemetry,
    )
    for index in range(log_length):
        cluster.schedule_invoke(
            1.0 + index * invoke_spacing, 0, Counter.increment(1)
        )
    for wave in range(waves):
        cluster.schedule_invoke(
            t_setup_end + 2.0 + wave * wave_spacing, 1, Counter.increment(1)
        )
    return DivergentSuffixRig(
        cluster=cluster,
        log_length=log_length,
        waves=waves,
        t_setup_end=t_setup_end,
        t_waves_end=t_waves_end,
    )


def run_divergent_suffix(
    log_length: int,
    *,
    reorder_engine: str = "stepwise",
    checkpoint_interval: Optional[int] = None,
    exec_delay: float = 0.001,
    waves: int = 1,
    record_perceived_traces: bool = True,
) -> ReorderRun:
    """Build, run and distil the divergent-suffix schedule in one call."""
    rig = build_divergent_suffix(
        log_length,
        reorder_engine=reorder_engine,
        checkpoint_interval=checkpoint_interval,
        exec_delay=exec_delay,
        waves=waves,
        record_perceived_traces=record_perceived_traces,
    ).settle_setup()
    rig.run_waves()
    return rig.finish()


def run_drifting_clock(
    log_length: int,
    *,
    reorder_engine: str = "stepwise",
    checkpoint_interval: Optional[int] = None,
    exec_delay: float = 0.001,
    drift_period: int = 20,
    record_perceived_traces: bool = True,
) -> ReorderRun:
    """A drifting-clock schedule causing many partial rollbacks.

    Replica 0 invokes a steady stream of increments. Every
    ``drift_period`` invocations, replica 1 — whose clock runs at half
    speed — injects one increment whose stale timestamp sorts it into the
    *middle* of replica 0's tentative order, rolling back the recent
    suffix. Divergence points cluster near the tail, which is the
    steady-state regime the checkpoint interval should be tuned for.

    Responses here *do* land mid-backlog, so return times are only
    guaranteed identical across checkpoint settings of the same engine,
    not across engines (see the module docstring).
    """
    invoke_spacing = 0.01
    config = BayouConfig(
        n_replicas=2,
        exec_delay=exec_delay,
        message_delay=1.0,
        sequencer_pid=0,
        clock_rates={1: 0.5},
        reorder_engine=reorder_engine,
        checkpoint_interval=checkpoint_interval,
        record_perceived_traces=record_perceived_traces,
    )
    cluster = BayouCluster(Counter(), config, protocol=ORIGINAL)
    for index in range(log_length):
        cluster.schedule_invoke(
            1.0 + index * invoke_spacing, 0, Counter.increment(1)
        )
        if index and index % drift_period == 0:
            cluster.schedule_invoke(
                1.0 + index * invoke_spacing + invoke_spacing / 2,
                1,
                Counter.increment(1),
            )
    return _finish(cluster, schedule="drifting_clock", log_length=log_length)


def main() -> None:
    import time as _time

    for engine, interval in (("stepwise", None), ("batched", 256)):
        started = _time.perf_counter()
        rig = build_divergent_suffix(
            5_000,
            waves=3,
            reorder_engine=engine,
            checkpoint_interval=interval,
            record_perceived_traces=False,
        ).settle_setup()
        wave_started = _time.perf_counter()
        rig.run_waves()
        wave_elapsed = _time.perf_counter() - wave_started
        result = rig.finish()
        total = _time.perf_counter() - started
        print(
            f"{engine:8s} ckpt={interval!s:5s} waves={wave_elapsed:.3f}s "
            f"total={total:.3f}s rollbacks={result.rollbacks[0]} "
            f"restores={result.checkpoint_restores[0]}"
        )
    drift = run_drifting_clock(500, reorder_engine="batched", checkpoint_interval=64)
    print(
        f"drifting  rollbacks={drift.rollbacks} restores={drift.checkpoint_restores}"
    )
