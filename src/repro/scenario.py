"""The fluent experiment facade: Scenario → LiveRun → RunResult.

Every experiment in this repository has the same shape: configure a
cluster (replicas, TOB engine, dissemination, clocks), inject faults
(partitions, targeted message delays), drive a workload (scripted
invocations, closed-loop sessions, or random profiles), run the simulation,
then freeze a history and check it against the paper's correctness
criteria. :class:`Scenario` captures that shape as a builder::

    result = (
        Scenario(RList())
        .replicas(2)
        .protocol("original")
        .exec_delay(1.5)
        .clock_drift(1, offset=-0.5)
        .tob_extra_delay(10.0)
        .invoke(1.0, 0, RList.append("a"), label="append_a")
        .invoke(10.0, 0, RList.append("x"), label="append_x")
        .invoke(10.2, 1, RList.duplicate(), strong=True, label="duplicate")
        .probes(RList.read)
        .checks(fec="weak", bec="weak", seq="strong")
        .run()
    )
    result.responses["append_x"]        # 'aax' — the paper's Figure 1
    result.check("bec:weak").ok         # False: temporary reordering

``run()`` compiles the builder to a :class:`~repro.core.cluster.BayouCluster`
(+ :class:`~repro.net.partition.PartitionSchedule`,
:class:`~repro.net.faults.MessageFilter`, client
:class:`~repro.core.session.Session` objects), runs to quiescence (or
stability, for the Paxos engine), issues horizon probes, and returns a
:class:`RunResult` bundling the history, the abstract execution, the
requested guarantee reports, convergence diagnostics and every labelled
:class:`~repro.core.session.OpFuture`.

For schedules that need mid-run observation (partition snapshots,
Theorem 3's asynchronous window), :meth:`Scenario.build` returns the
:class:`LiveRun` handle so the caller controls time, then calls
:meth:`LiveRun.finish` to get the same :class:`RunResult`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.metrics import commit_latency_samples, weak_staleness_samples
from repro.analysis.workload import (
    KEYED_PROFILES,
    PROFILES,
    RandomWorkload,
    ShiftingHotspotSampler,
    WorkloadProfile,
    make_sampler,
)
from repro.core.cluster import ORIGINAL, BayouCluster
from repro.core.config import BayouConfig
from repro.core.request import Dot
from repro.core.session import OpFuture, Session, resolve_operation
from repro.datatypes.base import DataType, Operation, PlainDb
from repro.errors import (
    MultiShardError,
    PendingResponseError,
    ReplicaUnavailableError,
)
from repro.framework.builder import build_abstract_execution
from repro.framework.guarantees import check_bec, check_fec, check_seq
from repro.framework.history import History, STRONG, WEAK
from repro.framework.predicates import check_ncc
from repro.framework.session_guarantees import check_all_session_guarantees
from repro.net.faults import (
    CrashSchedule,
    FilterRule,
    MessageFilter,
    delay_tob_for_dot_rule,
    quarantine_dot_rule,
    tob_delay_rule,
)
from repro.net.partition import PartitionSchedule
from repro.shard.control import PlacementController
from repro.shard.deployment import ShardedCluster
from repro.shard.migration import Migration, MigrationCheck
from repro.shard.router import ShardedSession, ShardRouter


@dataclass
class _ScriptedOp:
    """One scheduled open-loop invocation."""

    at: float
    pid: int
    op: Operation
    strong: bool
    label: str


@dataclass
class _WorkloadSpec:
    profile: WorkloadProfile
    ops_per_session: int
    think_time: float
    seed: int
    sessions: Optional[int] = None


class ScenarioClient:
    """A closed-loop client script inside a :class:`Scenario`.

    Queues operations for one session; chainable, with typed sugar::

        alice = scenario.client(0, think_time=1.0)
        alice.append("w").read(label="ryw-read")    # typed, via the registry
        alice.weak(RList.append("w"))               # explicit op objects
        alice.strong(RList.read(), label="confirm")
    """

    def __init__(self, scenario: "Scenario", pid: int, think_time: float) -> None:
        self.scenario = scenario
        self.pid = pid
        self.think_time = think_time
        self.ops: List[Tuple[Operation, bool, Optional[str]]] = []

    def op(
        self, op: Operation, *, strong: bool = False, label: Optional[str] = None
    ) -> "ScenarioClient":
        """Queue ``op``; it runs after all earlier ops of this client."""
        self.ops.append((op, strong, label))
        if label is not None:
            self.scenario._claim_label(label)
        return self

    def weak(self, op: Operation, *, label: Optional[str] = None) -> "ScenarioClient":
        """Queue a weak (highly available, tentative) operation."""
        return self.op(op, strong=False, label=label)

    def strong(self, op: Operation, *, label: Optional[str] = None) -> "ScenarioClient":
        """Queue a strong (consensus-backed, final) operation."""
        return self.op(op, strong=True, label=label)

    def __getattr__(self, name: str):
        datatype = self.scenario._datatype
        if datatype is None or name.startswith("_"):
            raise AttributeError(name)
        constructor = resolve_operation(datatype, name)

        def bound(
            *args: Any, strong: bool = False, label: Optional[str] = None, **kwargs: Any
        ) -> "ScenarioClient":
            return self.op(constructor(*args, **kwargs), strong=strong, label=label)

        bound.__name__ = name
        return bound


class Scenario:
    """A fluent builder for one simulated Bayou experiment."""

    def __init__(self, datatype: Optional[DataType] = None, *, name: str = "") -> None:
        self.name = name
        self._datatype = datatype
        self._protocol = ORIGINAL
        self._config_kwargs: Dict[str, Any] = {}
        self._n_shards: Optional[int] = None
        self._partitioner: Optional[Any] = None
        self._clock_offsets: Dict[int, float] = {}
        self._clock_rates: Dict[int, float] = {}
        self._exec_overrides: Dict[int, float] = {}
        #: (kind, at, groups, shard) — shard is None outside sharded mode
        #: (and means "every shard" inside it).
        self._partition_events: List[Tuple[str, float, Any, Optional[int]]] = []
        #: (pid, at, recover_at, mode, shard).
        self._crash_plans: List[
            Tuple[int, float, Optional[float], Optional[str], Optional[int]]
        ] = []
        #: (rule, shard) — shard is None outside sharded mode (and means
        #: "every shard" inside it).
        self._filter_rules: List[Tuple[FilterRule, Optional[int]]] = []
        #: (at, description, step) — ``step(deployment)`` starts the migration.
        self._reshardings: List[
            Tuple[float, str, Callable[[ShardedCluster], Migration]]
        ] = []
        #: PlacementController kwargs when autoscale() armed one.
        self._autoscale: Optional[Dict[str, Any]] = None
        self._scripted: List[_ScriptedOp] = []
        self._clients: List[ScenarioClient] = []
        self._workloads: List[_WorkloadSpec] = []
        self._hooks: List[Tuple[float, Callable[["LiveRun"], None]]] = []
        self._probe_op: Optional[Callable[[], Operation]] = None
        self._probe_spacing: Optional[float] = None
        self._checks: List[Tuple[str, Optional[str]]] = []
        self._labels: set = set()

    # ------------------------------------------------------------------
    # Substrate
    # ------------------------------------------------------------------
    def datatype(self, datatype: DataType) -> "Scenario":
        """Set the replicated data type the cluster serves."""
        self._datatype = datatype
        return self

    def replicas(self, n: int) -> "Scenario":
        """Set the number of replicas."""
        self._config_kwargs["n_replicas"] = n
        return self

    def protocol(self, protocol: str) -> "Scenario":
        """Choose ``"original"`` (Algorithm 1) or ``"modified"`` (Algorithm 2)."""
        self._protocol = protocol
        return self

    def shards(self, n: int, *, partitioner: Optional[Any] = None) -> "Scenario":
        """Deploy ``n`` independent Bayou shards over a partitioned keyspace.

        Each shard is a full cluster (``.replicas(k)`` replicas *per
        shard*) on one shared simulator; operations route to the shard
        owning their keys (``partitioner`` defaults to the stable
        :class:`~repro.shard.partitioner.HashPartitioner`). The
        :class:`RunResult` then carries one history per shard.
        ``.partition()``/``.heal()``/``.crash()`` accept a ``shard=``
        scope in this mode.
        """
        if n < 1:
            raise ValueError(f"shards(n) needs n >= 1, got {n}")
        self._n_shards = n
        self._partitioner = partitioner
        return self

    def tob(self, engine: str, *, sequencer: Optional[int] = None) -> "Scenario":
        """Choose the TOB engine (``"sequencer"`` or ``"paxos"``)."""
        self._config_kwargs["tob_engine"] = engine
        if sequencer is not None:
            self._config_kwargs["sequencer_pid"] = sequencer
        return self

    def dissemination(
        self, kind: str, *, sync_interval: Optional[float] = None
    ) -> "Scenario":
        """Choose weak-update dissemination (``"rb"`` or ``"anti_entropy"``)."""
        self._config_kwargs["dissemination"] = kind
        if sync_interval is not None:
            self._config_kwargs["ae_sync_interval"] = sync_interval
        return self

    def exec_delay(
        self, delay: float, *, overrides: Optional[Dict[int, float]] = None
    ) -> "Scenario":
        """Set the per-step processing cost (and per-replica overrides)."""
        self._config_kwargs["exec_delay"] = delay
        if overrides:
            self._exec_overrides.update(overrides)
        return self

    def reorder(
        self,
        engine: str = "batched",
        *,
        checkpoint_interval: Optional[int] = None,
    ) -> "Scenario":
        """Choose the rollback/replay engine (``"stepwise"`` or ``"batched"``).

        ``checkpoint_interval`` enables periodic full-state checkpoints so
        the batched engine restores long divergent suffixes from the nearest
        checkpoint instead of unwinding the undo log request-by-request.
        See ``docs/PERFORMANCE.md`` for tuning guidance.
        """
        self._config_kwargs["reorder_engine"] = engine
        if checkpoint_interval is not None:
            self._config_kwargs["checkpoint_interval"] = checkpoint_interval
        return self

    def message_delay(
        self, delay: float, *, jitter: Optional[float] = None
    ) -> "Scenario":
        """Set the one-way network latency (uniform jitter optional).

        ``jitter`` is only written when passed, so it composes with jitter
        configured elsewhere in the chain instead of resetting it.
        """
        self._config_kwargs["message_delay"] = delay
        if jitter is not None:
            self._config_kwargs["latency_jitter"] = jitter
        return self

    def clock_drift(
        self, pid: int, *, offset: float = 0.0, rate: float = 1.0
    ) -> "Scenario":
        """Give replica ``pid`` a drifting local clock (Section 2.3).

        Always records both values, so a later call can reset an earlier
        drift back to the defaults (offset 0.0, rate 1.0).
        """
        self._clock_offsets[pid] = offset
        self._clock_rates[pid] = rate
        return self

    def seed(self, seed: int) -> "Scenario":
        """Master seed for every random stream."""
        self._config_kwargs["seed"] = seed
        return self

    def telemetry(
        self, enabled: bool = True, *, capacity: Optional[int] = None
    ) -> "Scenario":
        """Attach the unified telemetry plane (:class:`repro.obs.Telemetry`).

        Every op gets a causal span trace (submit → tob-propose → deliver
        → execute-tentative → commit → stable) and the protocol engines
        feed the online metrics registry; the result exposes both as
        :attr:`RunResult.telemetry`. ``capacity`` bounds the span ring
        (oldest dropped, drops counted). Instrumentation is append-only:
        the run's outcome is bit-identical with telemetry on or off.
        """
        self._config_kwargs["enable_telemetry"] = enabled
        if capacity is not None:
            self._config_kwargs["trace_capacity"] = capacity
        return self

    def config(self, **overrides: Any) -> "Scenario":
        """Escape hatch: raw :class:`BayouConfig` field overrides."""
        self._config_kwargs.update(overrides)
        return self

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def partition(
        self,
        at: float,
        groups: Sequence[Sequence[int]],
        *,
        shard: Optional[int] = None,
    ) -> "Scenario":
        """Split the network into ``groups`` at time ``at``.

        In a sharded scenario ``shard`` scopes the split to one shard's
        internal network (shards are independent consensus groups, each
        with its own links); None partitions every shard identically.
        """
        self._partition_events.append(("split", at, groups, shard))
        return self

    def heal(self, at: float, *, shard: Optional[int] = None) -> "Scenario":
        """Restore full connectivity at time ``at`` (optionally one shard)."""
        self._partition_events.append(("heal", at, None, shard))
        return self

    def crash(
        self,
        pid: int,
        at: float,
        *,
        recover_at: Optional[float] = None,
        mode: Optional[str] = None,
        shard: Optional[int] = None,
    ) -> "Scenario":
        """Crash replica ``pid`` at time ``at``.

        With ``recover_at`` the replica comes back (crash–recovery: every
        component reloads what it persisted to the configured
        :meth:`durability` backend and catches up with the survivors);
        without it the crash is permanent (the paper's crash-stop model).
        ``mode`` overrides the inferred :meth:`Process.crash` mode. In a
        sharded scenario ``shard`` names the shard whose replica ``pid``
        crashes (None: replica ``pid`` of *every* shard).
        """
        self._crash_plans.append((pid, at, recover_at, mode, shard))
        return self

    def durability(
        self, backend: str = "memory", *, directory: Optional[str] = None
    ) -> "Scenario":
        """Give every replica stable storage (``"memory"`` or ``"jsonl"``).

        Required for meaningful crash–recovery runs: without it a recovered
        replica resumes with whatever in-memory state happened to survive —
        a transient pause, not a crash. ``directory`` names the JSON-lines
        root for the ``"jsonl"`` backend.
        """
        self._config_kwargs["durability"] = backend
        if directory is not None:
            self._config_kwargs["durability_dir"] = directory
        return self

    def resharding(
        self,
        at: float,
        *,
        split: Optional[int] = None,
        merge: Optional[Tuple[int, int]] = None,
        move: Optional[Tuple[Any, Any, int]] = None,
        pid: int = 0,
        transfer_delay: float = 0.0,
    ) -> "Scenario":
        """Schedule a live resharding step at time ``at`` (sharded only).

        Exactly one of the three shapes:

        - ``split=src`` — spawn a fresh shard mid-run and hand it half of
          ``src``'s keys;
        - ``merge=(dst, src)`` — fold ``src``'s keys into ``dst`` and
          retire ``src``;
        - ``move=(lo, hi, dst)`` — hand the half-open key range
          ``[lo, hi)`` to ``dst``.

        Each step runs the full live-migration protocol (epoch barrier
        through the source TOB, committed-prefix snapshot + tentative
        suffix handoff, epoch activation) while the scenario's workloads
        keep running; ``transfer_delay`` models the data movement time.
        The resulting :class:`~repro.shard.migration.Migration` records
        land on the run (``live.migrations`` /
        :attr:`RunResult.migrations`).
        """
        chosen = [f"{name}={value!r}" for name, value in (
            ("split", split), ("merge", merge), ("move", move)
        ) if value is not None]
        if len(chosen) != 1:
            raise ValueError(
                "resharding() needs exactly one of split=/merge=/move=, "
                f"got {chosen or 'none'}"
            )
        options = dict(pid=pid, transfer_delay=transfer_delay)
        if split is not None:
            step = lambda d: d.split(split, **options)
        elif merge is not None:
            if len(merge) != 2:
                raise ValueError(
                    f"merge expects a (dst, src) pair, got {merge!r}"
                )
            step = lambda d: d.merge(*merge, **options)
        else:
            if len(move) != 3:
                raise ValueError(
                    f"move expects an (lo, hi, dst) triple, got {move!r}"
                )
            step = lambda d: d.move(move[:2], move[2], **options)
        self._reshardings.append((at, chosen[0], step))
        return self

    def autoscale(
        self,
        policy: Any = "power-of-two",
        *,
        threshold: float = 1.5,
        cooldown: float = 6.0,
        interval: float = 2.0,
        **controller_kwargs: Any,
    ) -> "Scenario":
        """Attach an autonomous placement controller (sharded only).

        The :class:`~repro.shard.control.controller.PlacementController`
        runs as a sim-scheduled control loop over the deployment: each
        ``interval`` it reads the metrics plane (per-shard routed-op
        counters plus a hot-key sketch the router exports), and when the
        peak-to-mean load ratio crosses ``threshold`` it asks ``policy``
        (a :class:`~repro.shard.control.strategy.PlacementPolicy` or a
        registry name — ``"power-of-two"`` / ``"hot-key-isolation"``)
        for a move/isolate, executed through the live-migration
        protocol. ``cooldown`` rate-limits consecutive actions; further
        knobs (``hysteresis``, ``lookback``, ``decay``,
        ``transfer_delay``, ...) pass through to the controller. The
        controller lands on the result
        (:attr:`RunResult.controller`).
        """
        self._autoscale = dict(
            policy=policy,
            threshold=threshold,
            cooldown=cooldown,
            interval=interval,
            **controller_kwargs,
        )
        return self

    def filter(
        self, rule: FilterRule, *, shard: Optional[int] = None
    ) -> "Scenario":
        """Install a raw message-filter rule (drop/delay by inspection).

        In a sharded scenario ``shard`` scopes the rule to one shard's
        network; None installs it on every shard. Rules may be stateful
        (e.g. "drop the first 3"): each shard compiles its *own*
        :class:`MessageFilter`, so per-rule state is per shard.
        """
        self._filter_rules.append((rule, shard))
        return self

    def tob_extra_delay(
        self, extra: float, *, tag: str = "seqtob", shard: Optional[int] = None
    ) -> "Scenario":
        """Add ``extra`` latency to every TOB-engine message (slow consensus)."""
        return self.filter(tob_delay_rule(extra, tag=tag), shard=shard)

    def delay_tob_for_dot(
        self,
        dot: Dot,
        *,
        receiver: int,
        extra: float,
        tag: str = "seqtob",
        shard: Optional[int] = None,
    ) -> "Scenario":
        """Delay only TOB-engine messages about ``dot`` into ``receiver``.

        Used to steer the final order: e.g. hold a request's proposal back
        from the sequencer so later requests commit first. In sharded
        scenarios pass ``shard``: dots are per-cluster ``(pid, n)`` pairs,
        so the same dot exists independently in every shard.
        """
        return self.filter(
            delay_tob_for_dot_rule(dot, receiver=receiver, extra=extra, tag=tag),
            shard=shard,
        )

    def quarantine_dot(
        self,
        dot: Dot,
        *,
        receiver: int,
        extra: float,
        shard: Optional[int] = None,
    ) -> "Scenario":
        """Delay every message carrying ``dot`` into ``receiver``.

        Models the Theorem-1 adversary: a replica must not learn about an
        event (by any route — RB, relay, or TOB delivery) until late.
        """
        return self.filter(
            quarantine_dot_rule(dot, receiver=receiver, extra=extra), shard=shard
        )

    # ------------------------------------------------------------------
    # Workload
    # ------------------------------------------------------------------
    def _claim_label(self, label: str) -> None:
        if label in self._labels:
            raise ValueError(f"duplicate scenario label {label!r}")
        self._labels.add(label)

    def invoke(
        self,
        at: float,
        pid: int,
        op: Operation,
        *,
        strong: bool = False,
        label: Optional[str] = None,
    ) -> "Scenario":
        """Schedule an open-loop invocation at absolute time ``at``."""
        if label is None:
            index = len(self._scripted)
            label = f"{op.name}#{index}"
            while label in self._labels:  # sidestep user-chosen "name#n" labels
                index += 1
                label = f"{op.name}#{index}"
        self._claim_label(label)
        self._scripted.append(_ScriptedOp(at, pid, op, strong, label))
        return self

    def client(self, pid: int, *, think_time: float = 0.0) -> ScenarioClient:
        """A closed-loop client script bound to replica ``pid``."""
        client = ScenarioClient(self, pid, think_time)
        self._clients.append(client)
        return client

    def workload(
        self,
        profile: Union[str, WorkloadProfile],
        *,
        ops_per_session: int = 10,
        think_time: float = 0.5,
        seed: int = 0,
        strong_probability: Optional[float] = None,
        keys: Optional[Sequence[Any]] = None,
        key_skew: str = "uniform",
        zipf_s: float = 1.1,
        hotspot_shift: Optional[Sequence[float]] = None,
        sessions: Optional[int] = None,
    ) -> "Scenario":
        """Drive a random closed-loop workload (one session per replica).

        ``keys``/``key_skew`` build a keyed profile (``"kv"``/``"bank"``
        only): operations draw their keys from ``keys`` under the named
        skew (``"uniform"`` or ``"zipf"`` with exponent ``zipf_s``) — the
        shared generator behind E12's sharded sweeps. ``hotspot_shift``
        lists simulated times at which the Zipf hot key *rotates* to the
        next key (a :class:`ShiftingHotspotSampler`; implies a Zipf skew
        and switches the workload to lazy per-response sampling — the
        moving-hotspot adversary E14's controller chases). ``sessions``
        overrides the client count (default: one per replica index).
        """
        if isinstance(profile, str):
            kwargs: Dict[str, Any] = {}
            if strong_probability is not None:
                kwargs["strong_probability"] = strong_probability
            if hotspot_shift is not None and keys is None:
                raise ValueError("hotspot_shift needs keys=[...] to rotate over")
            if keys is not None:
                if profile not in KEYED_PROFILES:
                    raise ValueError(
                        f"profile {profile!r} is not keyed; keys/key_skew "
                        f"apply to {sorted(KEYED_PROFILES)}"
                    )
                if hotspot_shift is not None:
                    kwargs["sampler"] = ShiftingHotspotSampler(
                        keys, hotspot_shift, s=zipf_s
                    )
                else:
                    kwargs["sampler"] = make_sampler(keys, key_skew, zipf_s=zipf_s)
            profile = PROFILES[profile](**kwargs)
        else:
            if keys is not None or hotspot_shift is not None:
                raise ValueError(
                    "keys/key_skew/hotspot_shift only apply to named "
                    "profiles; build the KeySampler into your "
                    "WorkloadProfile instead"
                )
            if strong_probability is not None:
                profile = dataclasses.replace(
                    profile, strong_probability=strong_probability
                )
        self._workloads.append(
            _WorkloadSpec(profile, ops_per_session, think_time, seed, sessions)
        )
        return self

    def at(self, time: float, hook: Callable[["LiveRun"], None]) -> "Scenario":
        """Run ``hook(live_run)`` at simulated time ``time`` (custom steps)."""
        self._hooks.append((time, hook))
        return self

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------
    def probes(
        self,
        make_op: Callable[[], Operation],
        *,
        spacing: Optional[float] = None,
    ) -> "Scenario":
        """Issue post-stabilisation read probes (witnesses for EV/CPar)."""
        self._probe_op = make_op
        self._probe_spacing = spacing
        return self

    def checks(
        self,
        *,
        fec: Optional[str] = None,
        bec: Optional[str] = None,
        seq: Optional[str] = None,
        ncc: bool = False,
        session_guarantees: bool = False,
    ) -> "Scenario":
        """Select the guarantee reports :class:`RunResult` should carry.

        ``fec``/``bec``/``seq`` name the consistency level to check (e.g.
        ``fec="weak"``); ``ncc`` and ``session_guarantees`` are flags.
        """
        if fec is not None:
            self._checks.append(("fec", fec))
        if bec is not None:
            self._checks.append(("bec", bec))
        if seq is not None:
            self._checks.append(("seq", seq))
        if ncc:
            self._checks.append(("ncc", None))
        if session_guarantees:
            self._checks.append(("sessions", None))
        return self

    # ------------------------------------------------------------------
    # Compilation and running
    # ------------------------------------------------------------------
    def _compile_config(self) -> BayouConfig:
        kwargs = dict(self._config_kwargs)
        # Merge into copies: never mutate dicts the caller handed to
        # .config(), so one Scenario cannot bleed drift into another.
        for key, extra in (
            ("clock_offsets", self._clock_offsets),
            ("clock_rates", self._clock_rates),
            ("exec_delay_overrides", self._exec_overrides),
        ):
            if extra:
                merged = dict(kwargs.get(key, {}))
                merged.update(extra)
                kwargs[key] = merged
        return BayouConfig(**kwargs)

    def _shard_targets(self, shard: Optional[int], verb: str) -> Sequence[Any]:
        """The deployment targets one fault declaration applies to.

        Unsharded builds have the single target ``None`` (a shard scope is
        an error there); sharded builds fan an unscoped declaration out to
        every shard.
        """
        if self._n_shards is None:
            if shard is not None:
                raise ValueError(
                    f"{verb}(..., shard=...) needs a sharded scenario "
                    "(call .shards(n) first)"
                )
            return (None,)
        return range(self._n_shards) if shard is None else (shard,)

    def build(self) -> "LiveRun":
        """Compile to a live cluster (or sharded deployment), scheduled."""
        if self._datatype is None:
            raise ValueError("Scenario needs a datatype (pass one or .datatype())")
        sharded = self._n_shards is not None
        if not sharded:
            for verb, used in (
                ("resharding", self._reshardings),
                ("autoscale", self._autoscale is not None),
            ):
                if used:
                    raise ValueError(
                        f"{verb}(...) needs a sharded scenario (call "
                        ".shards(n) first)"
                    )
        config = self._compile_config()

        # Faults compile per target: None for the one unsharded cluster,
        # the shard index otherwise.
        partitions: Dict[Optional[int], PartitionSchedule] = {}
        for kind, at, groups, shard in self._partition_events:
            for target in self._shard_targets(shard, "partition"):
                schedule = partitions.setdefault(
                    target, PartitionSchedule(config.n_replicas)
                )
                if kind == "split":
                    schedule.split(at, groups)
                else:
                    schedule.heal(at)
        crashes: Dict[Optional[int], CrashSchedule] = {}
        for pid, at, recover_at, mode, shard in self._crash_plans:
            for target in self._shard_targets(shard, "crash"):
                crashes.setdefault(target, CrashSchedule()).add(
                    pid, at, recover_at, mode=mode
                )
        # Every target gets its own MessageFilter instance.
        filters: Dict[Optional[int], MessageFilter] = {}
        for rule, shard in self._filter_rules:
            for target in self._shard_targets(shard, "filter"):
                filters.setdefault(target, MessageFilter()).add(rule)

        if sharded:
            return LiveRun(
                self,
                ShardedCluster(
                    self._datatype,
                    config,
                    n_shards=self._n_shards,
                    partitioner=self._partitioner,
                    protocol=self._protocol,
                    partitions=partitions or None,
                    filters=filters or None,
                    crashes=crashes or None,
                ),
            )
        return LiveRun(
            self,
            BayouCluster(
                self._datatype,
                config,
                protocol=self._protocol,
                partitions=partitions.get(None),
                filters=filters.get(None),
                crashes=crashes.get(None),
            ),
        )

    def run(
        self,
        *,
        until: Optional[float] = None,
        well_formed: bool = True,
        max_time: float = 100_000.0,
    ) -> "RunResult":
        """Build, run to completion, probe, check — the one-call pipeline.

        With the Paxos engine the run goes through ``run_until_stable`` and
        an orderly shutdown; otherwise it runs to quiescence. ``until``
        caps the simulated time instead and yields a *snapshot*: probes and
        the engine shutdown are skipped so the clock never advances past
        the cap (for richer mid-run control prefer :meth:`build` +
        :class:`LiveRun`).
        """
        live = self.build()
        if until is not None:
            live.run(until=until)
        else:
            live.settle(max_time=max_time)
        return live.finish(
            well_formed=well_formed, max_time=max_time, settle=until is None
        )


#: The per-level guarantee checkers ``Scenario.checks()`` can request.
_LEVEL_CHECKS = {"fec": check_fec, "bec": check_bec, "seq": check_seq}


def _only(items: Sequence[Any], what: str) -> Any:
    """The single element behind a single-cluster accessor."""
    if len(items) != 1:
        raise MultiShardError(
            f"{what} names the one cluster of a run, but this run has "
            f"{len(items)} shards; read the per-shard list instead"
        )
    return items[0]


class LiveRun:
    """A compiled, running scenario: the mid-flight control handle.

    One class serves any shard count. ``deployment`` and ``router`` are
    the :class:`~repro.shard.deployment.ShardedCluster` and its
    :class:`~repro.shard.router.ShardRouter` in a ``.shards(n)`` build and
    ``None`` otherwise; ``cluster`` is the run's one
    :class:`~repro.core.cluster.BayouCluster`. The driving verbs go to
    whichever of the two was deployed — they expose ``run`` / ``settle`` /
    ``shutdown`` / ``converged`` identically — and submissions to the
    router or the cluster, which share ``connect`` / ``submit``.
    """

    def __init__(
        self, scenario: Scenario, target: Union[BayouCluster, ShardedCluster]
    ) -> None:
        self.scenario = scenario
        sharded = isinstance(target, ShardedCluster)
        self.deployment: Optional[ShardedCluster] = target if sharded else None
        self.router: Optional[ShardRouter] = (
            ShardRouter(target) if sharded else None
        )
        #: What is driven (the cluster or the deployment) and what takes
        #: submissions (the cluster or the router).
        self._target = target
        self._client = self.router if sharded else target
        #: label -> OpFuture for every labelled scripted/client operation
        #: (across all shards, cross-shard parents included).
        self.futures: Dict[str, OpFuture] = {}
        #: label -> simulated time of scripted invocations refused because
        #: their target replica was crashed (a crashed replica ceases all
        #: communication; the rest of the run proceeds normally).
        self.refused: Dict[str, float] = {}
        #: Sessions of the scripted clients, in declaration order (a pid
        #: may appear more than once).
        self.sessions: List[Union[Session, ShardedSession]] = []
        self.workloads: List[RandomWorkload] = []
        #: The autonomous placement controller (``autoscale()`` only).
        self.controller: Optional[PlacementController] = None
        self._schedule_everything()

    @property
    def clusters(self) -> List[BayouCluster]:
        """Every cluster of the run (one per shard slot, spawned included)."""
        if self.deployment is not None:
            return self.deployment.shards
        return [self._target]

    @property
    def cluster(self) -> BayouCluster:
        """The run's one cluster; a named error on a multi-shard run."""
        return _only(self.clusters, "cluster")

    # -- wiring --------------------------------------------------------
    def _schedule_everything(self) -> None:
        scenario = self.scenario
        sim = self._target.sim
        if scenario._autoscale is not None:
            self.controller = PlacementController(
                self.router, **scenario._autoscale
            )
            self.controller.start()
        for at, what, step in scenario._reshardings:
            sim.schedule_at(
                at,
                lambda step=step: step(self.deployment),
                label=f"scenario resharding {what}",
            )
        for scripted in scenario._scripted:
            sim.schedule_at(
                scripted.at,
                lambda s=scripted: self._fire_scripted(s),
                label=f"scenario invoke R{scripted.pid} {scripted.op}",
            )
        for client in scenario._clients:
            session = self._client.connect(
                client.pid, think_time=client.think_time
            )
            self.sessions.append(session)
            for op, strong, op_label in client.ops:
                future = session.submit(op, strong=strong)
                if op_label is not None:
                    self.futures[op_label] = future
        for spec in scenario._workloads:
            workload = RandomWorkload(
                self._client,
                spec.profile,
                ops_per_session=spec.ops_per_session,
                think_time=spec.think_time,
                seed=spec.seed,
                sessions=spec.sessions,
            )
            workload.start()
            self.workloads.append(workload)
        for time, hook in scenario._hooks:
            sim.schedule_at(time, lambda h=hook: h(self), label="scenario hook")

    # -- driving -------------------------------------------------------
    @property
    def now(self) -> float:
        return self._target.sim.now

    def submit(
        self,
        pid: int,
        op: Operation,
        *,
        strong: bool = False,
        label: Optional[str] = None,
    ) -> OpFuture:
        """Invoke right now (open loop); labelled futures land in the result.

        Rejects labels already recorded *or* declared on the scenario, so a
        collision with a scripted/client label that has not fired yet is
        caught at the call site, not later inside the event loop.
        """
        if label is not None and (
            label in self.futures or label in self.scenario._labels
        ):
            raise ValueError(f"duplicate scenario label {label!r}")
        future = self._client.submit(pid, op, strong=strong)
        if label is not None:
            self.futures[label] = future
        return future

    def _fire_scripted(self, scripted: _ScriptedOp) -> None:
        """Run one declared invocation (its label was claimed at declaration).

        An invocation scripted into a crash window is *refused*, not fatal:
        the client could not reach the crashed replica, which is a run
        observation (recorded in :attr:`refused`), not a harness error.
        """
        try:
            self.futures[scripted.label] = self._client.submit(
                scripted.pid, scripted.op, strong=scripted.strong
            )
        except ReplicaUnavailableError:
            self.refused[scripted.label] = self.now

    def run(self, until: Optional[float] = None) -> None:
        self._target.run(until=until)

    def run_until_quiescent(self) -> float:
        return self._target.run_until_quiescent()

    def run_until_stable(self, **kwargs: Any) -> bool:
        return self._target.run_until_stable(**kwargs)

    def settle(self, *, max_time: float = 100_000.0) -> None:
        """Run until the workload is done, whatever the TOB engine.

        The sequencer engine quiesces naturally; the Paxos engine keeps
        heartbeat/retry timers alive forever, so it is driven to a stable
        state bounded by ``max_time`` instead. Stability only looks at
        requests already invoked, so the drive repeats while any
        closed-loop session still has its next invocation scheduled (it is
        merely thinking); sessions that are idle, refused or paused on a
        crashed replica hold nothing back.
        """
        if self._target.config.tob_engine != "paxos":
            self._target.run_until_quiescent()
            return
        sessions = self.sessions + [
            session
            for workload in self.workloads
            for session in workload.sessions
        ]
        while True:
            self._target.run_until_stable(max_time=max_time)
            if self.now >= max_time or not any(
                session.launch_pending for session in sessions
            ):
                return

    def shutdown(self) -> None:
        self._target.shutdown()

    def converged(self) -> bool:
        return self._target.converged()

    def history(self, *, well_formed: bool = True) -> History:
        """Freeze the current staged records into a checkable history."""
        return _only(self.clusters, "history()").build_history(
            well_formed=well_formed
        )

    @property
    def migrations(self) -> List[Migration]:
        """Every resharding step this run has executed (or is executing)."""
        return self.deployment.migrations if self.deployment is not None else []

    # -- finishing -----------------------------------------------------
    def add_probes(self, *, max_time: float = 100_000.0) -> None:
        """Issue the configured horizon probes (on every serving shard)
        and run them to completion."""
        if self.scenario._probe_op is None:
            return
        if self.deployment is not None:
            probed = [
                self.deployment.shards[index]
                for index in self.deployment.live_shard_indexes()
            ]
        else:
            probed = self.clusters
        for cluster in probed:
            cluster.add_horizon_probes(
                self.scenario._probe_op, spacing=self.scenario._probe_spacing
            )
        self.settle(max_time=max_time)

    def finish(
        self,
        *,
        well_formed: bool = True,
        max_time: float = 100_000.0,
        settle: bool = True,
    ) -> "RunResult":
        """Probe, freeze each cluster's history, run the configured checks.

        With ``settle`` (the default) this is terminal: probes are issued
        and, for Paxos runs, the engine's perpetual timers are shut down so
        the simulation can drain. ``settle=False`` freezes a snapshot at
        the current simulated time instead, advancing nothing.
        """
        if settle:
            self.add_probes(max_time=max_time)
            if self._target.config.tob_engine == "paxos":
                self.shutdown()
                self._target.run_until_quiescent()
        clusters = list(self.clusters)
        histories = [
            cluster.build_history(well_formed=well_formed)
            for cluster in clusters
        ]
        executions = [build_abstract_execution(h) for h in histories]
        sharded = self.deployment is not None

        def per_shard(reports: List[Any]) -> Any:
            # A sharded run reports per shard; an unsharded one, the report.
            return reports if sharded else reports[0]

        checks: Dict[str, Any] = {}
        session_guarantees: Any = None
        for kind, level in self.scenario._checks:
            if kind in _LEVEL_CHECKS:
                checks[f"{kind}:{level}"] = per_shard(
                    [_LEVEL_CHECKS[kind](x, level) for x in executions]
                )
            elif kind == "ncc":
                checks["ncc"] = per_shard([check_ncc(x) for x in executions])
            elif kind == "sessions":
                session_guarantees = per_shard(
                    [check_all_session_guarantees(x) for x in executions]
                )
        if self.migrations:
            checks["migrations"] = [
                MigrationCheck(
                    name=migration.describe(),
                    ok=migration.complete,
                    state=migration.state,
                    error=migration.error,
                )
                for migration in self.migrations
            ]
        return RunResult(
            name=self.scenario.name,
            protocol=self._target.protocol,
            clusters=clusters,
            histories=histories,
            executions=executions,
            futures=dict(self.futures),
            checks=checks,
            session_guarantees=session_guarantees,
            convergence=self._target.convergence_report(),
            refused=dict(self.refused),
            deployment=self.deployment,
            router=self.router,
            migrations=list(self.migrations),
            controller=self.controller,
        )


@dataclass
class RunResult:
    """Everything one scenario run produced, structured for assertions.

    One class serves any shard count: ``clusters`` / ``histories`` /
    ``executions`` hold one entry per shard (one entry when unsharded),
    and ``cluster`` / ``history`` / ``execution`` are the single-cluster
    accessors, raising :class:`~repro.errors.MultiShardError` on a
    multi-shard result. The sharded extras (``deployment``, ``router``,
    ``migrations``, ``controller``) are ``None``/empty when unsharded.
    """

    name: str
    protocol: str
    clusters: List[BayouCluster] = field(repr=False)
    #: One frozen history per cluster, indexed by shard id.
    histories: List[History] = field(repr=False)
    executions: List[Any] = field(repr=False)
    #: label -> future, across all shards (cross-shard parents included).
    futures: Dict[str, OpFuture] = field(repr=False)
    #: check name -> the report (unsharded) or per-shard reports (sharded).
    checks: Dict[str, Any] = field(repr=False)
    session_guarantees: Any = field(repr=False)
    convergence: Dict[str, Any] = field(repr=False)
    #: label -> time of scripted invocations refused at a crashed replica.
    refused: Dict[str, float] = field(repr=False, default_factory=dict)
    deployment: Optional[ShardedCluster] = field(repr=False, default=None)
    router: Optional[ShardRouter] = field(repr=False, default=None)
    #: Resharding steps the run executed, in start order.
    migrations: List[Migration] = field(repr=False, default_factory=list)
    #: The autonomous placement controller, when ``autoscale()`` armed
    #: one (its ``actions`` log is the experiment read surface).
    controller: Optional[PlacementController] = field(repr=False, default=None)

    # -- single-cluster accessors --------------------------------------
    @property
    def cluster(self) -> BayouCluster:
        return _only(self.clusters, "cluster")

    @property
    def history(self) -> History:
        return _only(self.histories, "history")

    @property
    def execution(self) -> Any:
        return _only(self.executions, "execution")

    # -- responses -----------------------------------------------------
    @property
    def responses(self) -> Dict[str, Any]:
        """label -> response value (∇ for operations still pending)."""
        return {label: future.rval for label, future in self.futures.items()}

    def future(self, label: str) -> OpFuture:
        return self.futures[label]

    def _invoked_dot(self, label: str):
        future = self.futures[label]
        if future.dot is None:
            raise PendingResponseError(
                f"operation {label!r} was never invoked — the run was "
                "snapshotted before its session reached it"
            )
        return future.dot

    def event(self, label: str):
        """The :class:`HistoryEvent` of a labelled operation."""
        return self.history.event(self._invoked_dot(label))

    def sub_history(self, labels: Sequence[str]) -> History:
        """A history restricted to the labelled events (for the search)."""
        eids = {self._invoked_dot(label) for label in labels}
        return History(
            [event for event in self.history.events if event.eid in eids],
            self.history.datatype,
        )

    # -- verdicts ------------------------------------------------------
    @property
    def n_shards(self) -> Optional[int]:
        """Shard slots of the deployment (None when unsharded)."""
        return self.deployment.n_shards if self.deployment is not None else None

    @property
    def epoch(self) -> Optional[int]:
        """The placement epoch the deployment finished on (None when
        unsharded)."""
        return self.deployment.epoch if self.deployment is not None else None

    @property
    def converged(self) -> bool:
        return bool(self.convergence["converged"])

    def _reports(self, name: str) -> List[Any]:
        reports = self.checks[name]
        return reports if isinstance(reports, list) else [reports]

    def check(self, name: str, shard: Optional[int] = None) -> Any:
        """A requested guarantee report, e.g. ``check("fec:weak")`` —
        per shard on a sharded result, or one shard's with ``shard``."""
        return self.checks[name] if shard is None else self._reports(name)[shard]

    def ok(self, name: str) -> bool:
        """True when the named check holds (on *every* shard)."""
        return all(bool(report.ok) for report in self._reports(name))

    # -- state and metrics ---------------------------------------------
    def query(self, op: Operation) -> Any:
        """Execute a read-only ``op`` against replica 0's converged state
        (of the shard owning the op's keys)."""
        if self.router is not None:
            return self.router.query(op)
        snapshot = PlainDb(self.shard_snapshot(0))
        return self.history.datatype.execute(op, snapshot)

    def shard_snapshot(self, shard: int) -> Dict[Any, Any]:
        """Replica 0's register snapshot of one shard."""
        return self.clusters[shard].replicas[0].state.snapshot()

    def latencies(
        self, level: Optional[str] = None, *, session: Optional[int] = None
    ) -> List[float]:
        """Response latencies from the histories (optionally filtered)."""
        samples = []
        for history in self.histories:
            for event in history.events:
                if event.return_time is None:
                    continue
                if level is not None and event.level != level:
                    continue
                if session is not None and event.session != session:
                    continue
                samples.append(event.return_time - event.invoke_time)
        return samples

    @property
    def weak_latencies(self) -> List[float]:
        return self.latencies(WEAK)

    @property
    def strong_latencies(self) -> List[float]:
        return self.latencies(STRONG)

    # -- telemetry -----------------------------------------------------
    @property
    def telemetry(self):
        """The run's telemetry plane (``None`` unless ``.telemetry()``);
        the shards of a deployment share one."""
        return self.clusters[0].telemetry

    def op_timestamps(self) -> Dict[str, Dict[str, Optional[float]]]:
        """label -> submit/invoke/response/stable times of labelled ops."""
        return {
            label: future.timestamps()
            for label, future in self.futures.items()
        }

    def commit_latencies(self) -> List[float]:
        """Stable-minus-invoke times of every labelled op that stabilised."""
        return commit_latency_samples(self.futures.values())

    def weak_staleness(self) -> List[float]:
        """Stable-minus-response times of labelled weak ops (how long each
        tentative response floated before its position became final)."""
        return weak_staleness_samples(self.futures.values())
