"""Configuration for Bayou clusters."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class BayouConfig:
    """Tunable parameters of a simulated Bayou deployment.

    Attributes
    ----------
    n_replicas:
        Number of replicas.
    exec_delay:
        Simulated cost of one internal step (executing or rolling back one
        request). Per-replica overrides model the paper's "slow replica" Rs
        from Section 2.3.
    message_delay:
        Default one-way network latency (see also ``latency_jitter``).
    latency_jitter:
        If positive, latency is uniform in ``[message_delay,
        message_delay + latency_jitter]``.
    tob_engine:
        ``"sequencer"`` (default) or ``"paxos"``.
    dissemination:
        Weak-update dissemination: ``"rb"`` (the paper's Reliable
        Broadcast, default) or ``"anti_entropy"`` (the original Bayou's
        pairwise sessions, syncing every ``ae_sync_interval``).
    sequencer_pid:
        The fixed sequencer for the sequencer engine.
    paxos_retry_interval:
        Retry/drive period of the Multi-Paxos engine. Its batching,
        pipelining and catch-up limits are not deployment settings: they
        are :class:`~repro.broadcast.paxos.PaxosTOB` keyword parameters
        (every deployment runs the defaults; experiments that sweep them
        construct the engine directly).
    clock_offsets / clock_rates:
        Per-replica local-clock parameters (Section 2.3's slowed clock).
    reorder_engine:
        How rollback/replay work is scheduled. ``"stepwise"`` (default, the
        paper's literal reading) processes one rollback or execution per
        internal step, each costing ``exec_delay``. ``"batched"`` drains the
        whole backlog in a single simulation event scheduled after
        ``backlog * exec_delay`` — same total simulated processing time,
        O(1) scheduler events, and rollbacks performed via
        :meth:`StateObject.revert_to` (checkpoint-aware when
        ``checkpoint_interval`` is set). See ``docs/PERFORMANCE.md``.
    checkpoint_interval:
        When set, each replica's :class:`StateObject` keeps a full-state
        checkpoint every that-many executions, letting the batched engine
        restore long divergent suffixes from the nearest checkpoint at or
        before the divergence point instead of unwinding request-by-request.
        ``None`` (default) keeps the seed's pure undo-log behaviour.
    durability:
        Stable storage backing each replica (crash–recovery support):
        ``"none"`` (default — the seed's purely volatile replicas; a
        recovered replica resumes with whatever in-memory state survived,
        which models a transient pause, not a real crash), ``"memory"``
        (perfect in-process stable storage; write-ahead logs, commit order,
        version vectors, acceptor state and committed-prefix checkpoints
        all survive a crash) or ``"jsonl"`` (the same surface written
        through to one append-only ``journal.jsonl`` per replica under
        ``durability_dir``, flushed to the operating system on every
        write, also readable by a later OS process).
    durability_dir:
        Directory for the ``"jsonl"`` backend (one subdirectory per
        replica, holding that replica's journal). When unset, a temporary
        directory is created per cluster.
    record_perceived_traces:
        Capture ``exec(e)`` (the perceived state trace) for every response,
        as the formal framework requires. Costs O(trace) time and memory
        per response — O(n²) over a run — so scale benchmarks turn it off;
        perceived-order checks then fall back to the final arbitration
        order.
    enable_trace:
        No effect since PR 13 (the trace log it switched is gone); kept
        only because ``bench/workloads.py`` passes it; remove with the
        next benchmark PR.
    enable_telemetry:
        Attach the unified telemetry plane (:class:`repro.obs.Telemetry`):
        causal per-op span traces plus the online metrics registry.
        Off by default — instrumentation sites then cost one false branch.
        Tracing never feeds back into protocol decisions, so a seeded run
        is bit-identical with telemetry on or off.
    trace_capacity:
        When set, bounds the telemetry span ring to this many entries
        (oldest dropped, drops counted) — the streaming-first discipline
        long runs need.
    seed:
        Master seed for all random streams.
    """

    n_replicas: int = 3
    exec_delay: float = 0.01
    exec_delay_overrides: Dict[int, float] = field(default_factory=dict)
    message_delay: float = 1.0
    latency_jitter: float = 0.0
    tob_engine: str = "sequencer"
    sequencer_pid: int = 0
    dissemination: str = "rb"
    ae_sync_interval: float = 2.0
    heartbeat_interval: float = 5.0
    failure_timeout: float = 20.0
    paxos_retry_interval: float = 15.0
    retransmit_interval: Optional[float] = None
    clock_offsets: Dict[int, float] = field(default_factory=dict)
    clock_rates: Dict[int, float] = field(default_factory=dict)
    reorder_engine: str = "stepwise"
    checkpoint_interval: Optional[int] = None
    durability: str = "none"
    durability_dir: Optional[str] = None
    record_perceived_traces: bool = True
    enable_trace: bool = True
    enable_telemetry: bool = False
    trace_capacity: Optional[int] = None
    seed: int = 0

    def exec_delay_for(self, pid: int) -> float:
        """The per-step processing delay for replica ``pid``."""
        return self.exec_delay_overrides.get(pid, self.exec_delay)

    def validate(self) -> None:
        """Raise ValueError on inconsistent settings."""
        if self.n_replicas <= 0:
            raise ValueError("n_replicas must be positive")
        if self.tob_engine not in ("sequencer", "paxos"):
            raise ValueError(f"unknown tob_engine {self.tob_engine!r}")
        if self.dissemination not in ("rb", "anti_entropy"):
            raise ValueError(f"unknown dissemination {self.dissemination!r}")
        if not (0 <= self.sequencer_pid < self.n_replicas):
            raise ValueError("sequencer_pid out of range")
        if self.exec_delay < 0 or self.message_delay < 0 or self.latency_jitter < 0:
            raise ValueError("delays must be non-negative")
        for pid, delay in self.exec_delay_overrides.items():
            if delay < 0:
                raise ValueError(
                    f"exec_delay_overrides[{pid!r}] must be non-negative, "
                    f"got {delay!r}"
                )
        for name in (
            "ae_sync_interval",
            "heartbeat_interval",
            "failure_timeout",
            "paxos_retry_interval",
        ):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.retransmit_interval is not None and self.retransmit_interval <= 0:
            raise ValueError(
                "retransmit_interval must be positive when set, "
                f"got {self.retransmit_interval!r}"
            )
        if self.reorder_engine not in ("stepwise", "batched"):
            raise ValueError(f"unknown reorder_engine {self.reorder_engine!r}")
        if self.durability not in ("none", "memory", "jsonl"):
            raise ValueError(f"unknown durability backend {self.durability!r}")
        if self.durability_dir is not None and self.durability != "jsonl":
            raise ValueError(
                "durability_dir only applies to the 'jsonl' backend, "
                f"got durability={self.durability!r}"
            )
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise ValueError(
                "checkpoint_interval must be a positive integer when set, "
                f"got {self.checkpoint_interval!r}"
            )
        if not isinstance(self.enable_trace, bool):
            raise ValueError(
                f"enable_trace must be a bool, got {self.enable_trace!r}"
            )
        if self.trace_capacity is not None and self.trace_capacity < 1:
            raise ValueError(
                "trace_capacity must be a positive integer when set, "
                f"got {self.trace_capacity!r}"
            )
