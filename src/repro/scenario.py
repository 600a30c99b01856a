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

Each fault and workload verb appends one frozen record (:class:`Split`,
:class:`Crash`, :class:`Invoke`, ...) to one ordered list, so equal chains
give equal lists. ``run()`` builds a fault-free cluster (or deployment),
installs every record on it in one pass, runs to quiescence (or stability,
for the Paxos engine), issues horizon probes, and returns a
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
import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.metrics import commit_latency_samples, weak_staleness_samples
from repro.analysis.workload import (
    KEYED_PROFILES,
    PROFILES,
    RandomWorkload,
    ShiftingHotspotSampler,
    WorkloadProfile,
    make_sampler,
)
from repro.broadcast import paxos, sequencer
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
from repro.net.faults import CrashPlan, FilterRule, MessageRule
from repro.shard.control import PlacementController
from repro.shard.deployment import ShardedCluster
from repro.shard.migration import Migration, MigrationCheck
from repro.shard.router import ShardedSession, ShardRouter


#: The component tag each TOB engine's messages travel under.
_TOB_TAGS = {"sequencer": sequencer._TAG, "paxos": paxos._TAG}


# ----------------------------------------------------------------------
# The schedule: one ordered list of frozen records, installed by
# ``Scenario.build`` in ``rank`` order (faults first), each rank in
# declaration order.
# ----------------------------------------------------------------------
class _Fault:
    """A record scoped to one shard's cluster (None: every built cluster)."""

    rank: ClassVar[int] = 0
    shard: Optional[int]

    def install(self, live: "LiveRun") -> None:
        built = live.clusters[: live.scenario._n_shards or 1]
        for cluster in built if self.shard is None else [built[self.shard]]:
            self.install_on(cluster)  # type: ignore[attr-defined]


@dataclass(frozen=True)
class Split(_Fault):
    """Partition the network into ``groups`` at ``at``."""

    at: float
    groups: Tuple[Tuple[int, ...], ...]
    shard: Optional[int] = None

    def install_on(self, cluster: BayouCluster) -> None:
        cluster.partitions.split(self.at, self.groups)


@dataclass(frozen=True)
class Heal(_Fault):
    """Restore full connectivity at ``at``."""

    at: float
    shard: Optional[int] = None

    def install_on(self, cluster: BayouCluster) -> None:
        cluster.partitions.heal(self.at)


@dataclass(frozen=True)
class Crash(CrashPlan, _Fault):
    """Crash replica ``pid`` (a :class:`CrashPlan`: checked when made)."""

    shard: Optional[int] = None

    def install_on(self, cluster: BayouCluster) -> None:
        self.arm(cluster.sim, cluster.nodes[self.pid])


@dataclass(frozen=True)
class Filter(_Fault):
    """A message-filter rule; with ``tob``, a :class:`MessageRule` given the
    configured TOB engine's message tag when installed."""

    rule: FilterRule
    shard: Optional[int] = None
    tob: bool = False

    def install_on(self, cluster: BayouCluster) -> None:
        rule = self.rule
        if self.tob:
            rule = dataclasses.replace(rule, tag=_TOB_TAGS[cluster.config.tob_engine])
        cluster.filters.add(rule)


@dataclass(frozen=True)
class Autoscale:
    """Arm a placement controller with these keywords."""

    rank: ClassVar[int] = 1
    options: Dict[str, Any]

    def install(self, live: "LiveRun") -> None:
        live.controller = PlacementController(live.router, **self.options)
        live.controller.start()


@dataclass(frozen=True)
class Reshard:
    """Start a live ``kind`` migration at ``at``: ``target`` is the split's
    source, the merge's ``(dst, src)`` or the move's ``(lo, hi, dst)``."""

    rank: ClassVar[int] = 2
    at: float
    kind: str
    target: Any
    pid: int = 0
    transfer_delay: float = 0.0

    def install(self, live: "LiveRun") -> None:
        label = f"scenario resharding {self.kind}={self.target!r}"
        live.sim.schedule_at(self.at, lambda: self.start(live.deployment), label=label)

    def start(self, deployment: ShardedCluster) -> Migration:
        options = dict(pid=self.pid, transfer_delay=self.transfer_delay)
        if self.kind == "split":
            return deployment.split(self.target, **options)
        if self.kind == "merge":
            return deployment.merge(*self.target, **options)
        return deployment.move(self.target[:2], self.target[2], **options)


@dataclass(frozen=True, init=False)
class Invoke:
    """One open-loop invocation at absolute time ``at``. Scripted into a
    crash window it is *refused*, not fatal: the client could not reach the
    crashed replica, a run observation (:attr:`LiveRun.refused`)."""

    rank: ClassVar[int] = 3
    at: float
    pid: int
    op: Operation
    strong: bool
    label: str

    def __init__(self, at: float, pid: int, op: Operation, strong: bool, label: str):
        # A schedule may hold thousands: the generated frozen __init__ (an
        # object.__setattr__ per field) takes 2.5 times as long.
        fields = self.__dict__
        fields["at"], fields["pid"], fields["op"] = at, pid, op
        fields["strong"], fields["label"] = strong, label

    def install(self, live: "LiveRun") -> None:
        live.sim.schedule_at(
            self.at, lambda: self.fire(live), label="scenario invoke"
        )

    def fire(self, live: "LiveRun") -> None:
        try:
            live.futures[self.label] = live._client.submit(
                self.pid, self.op, strong=self.strong
            )
        except ReplicaUnavailableError:
            live.refused[self.label] = live.now


@dataclass(frozen=True)
class ClientScript:
    """A closed-loop session on replica ``pid``; its :class:`ScenarioClient`
    fills ``ops`` with ``(op, strong, label)``."""

    rank: ClassVar[int] = 4
    pid: int
    think_time: float
    ops: List[Tuple[Operation, bool, Optional[str]]]

    def install(self, live: "LiveRun") -> None:
        session = live._client.connect(self.pid, think_time=self.think_time)
        live.sessions.append(session)
        for op, strong, label in self.ops:
            future = session.submit(op, strong=strong)
            if label is not None:
                live.futures[label] = future


@dataclass(frozen=True)
class Workload:
    """A random closed-loop workload; the fields are its
    :class:`RandomWorkload` arguments."""

    rank: ClassVar[int] = 5
    profile: WorkloadProfile
    ops_per_session: int
    think_time: float
    seed: int
    sessions: Optional[int] = None

    def install(self, live: "LiveRun") -> None:
        workload = RandomWorkload(live._client, **vars(self))
        workload.start()
        live.workloads.append(workload)


@dataclass(frozen=True)
class Hook:
    """Run ``fn(live_run)`` at simulated time ``at``."""

    rank: ClassVar[int] = 6
    at: float
    fn: Callable[["LiveRun"], None]

    def install(self, live: "LiveRun") -> None:
        live.sim.schedule_at(self.at, lambda: self.fn(live), label="scenario hook")


class ScenarioClient:
    """A closed-loop client script inside a :class:`Scenario`.

    Queues operations for one session; chainable, with typed sugar::

        alice = scenario.client(0, think_time=1.0)
        alice.append("w").read(label="ryw-read")    # typed, via the registry
        alice.weak(RList.append("w"))               # explicit op objects
        alice.strong(RList.read(), label="confirm")
    """

    def __init__(self, scenario: "Scenario", script: ClientScript) -> None:
        self.scenario = scenario
        self.ops = script.ops

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
        #: The schedule: records in declaration order.
        self._records: List[Any] = []
        self._n_invokes = 0
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
        """Choose the replica protocol: ``"original"`` (Algorithm 1),
        ``"modified"`` (Algorithm 2), or one of the systems the paper
        compares Bayou with, ``"smr"`` (state machine replication, strong
        operations only), ``"ec"`` (an eventually consistent store, weak
        blind writes and reads only) or ``"gsp"`` (the Global Sequence
        Protocol, weak operations ordered by the TOB engine as its cloud).
        See :data:`repro.core.cluster.PROTOCOLS`."""
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
        self._records.append(Split(at, tuple(map(tuple, groups)), shard))
        return self

    def heal(self, at: float, *, shard: Optional[int] = None) -> "Scenario":
        """Restore full connectivity at time ``at`` (optionally one shard)."""
        self._records.append(Heal(at, shard))
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
        crashes (None: replica ``pid`` of *every* shard). A bad plan raises
        here, not at ``build()``.
        """
        self._records.append(Crash(pid, at, recover_at, mode, shard))
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
        given = [(kind, value) for kind, value in (
            ("split", split), ("merge", merge), ("move", move)
        ) if value is not None]
        if len(given) != 1:
            chosen = [f"{kind}={value!r}" for kind, value in given]
            raise ValueError(
                "resharding() needs exactly one of split=/merge=/move=, "
                f"got {chosen or 'none'}"
            )
        if merge is not None and len(merge) != 2:
            raise ValueError(f"merge expects a (dst, src) pair, got {merge!r}")
        if move is not None and len(move) != 3:
            raise ValueError(f"move expects an (lo, hi, dst) triple, got {move!r}")
        self._records.append(Reshard(at, *given[0], pid, transfer_delay))
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
        (:attr:`RunResult.controller`). A later call replaces an earlier
        one.
        """
        self._records = [r for r in self._records if not isinstance(r, Autoscale)]
        options = dict(policy=policy, threshold=threshold, cooldown=cooldown)
        options.update(interval=interval, **controller_kwargs)
        self._records.append(Autoscale(options))
        return self

    def filter(
        self, rule: FilterRule, *, shard: Optional[int] = None
    ) -> "Scenario":
        """Install a message-filter rule: a :class:`~repro.net.faults.MessageRule`
        or any ``(sender, receiver, payload, time) -> None | "drop" | delay``.

        In a sharded scenario ``shard`` scopes the rule to one shard's
        network; None installs it on every shard. Every shard then calls the
        *same* object, so a stateful rule (e.g. "drop the first 3") spends
        one budget across the whole deployment.
        """
        self._records.append(Filter(rule, shard))
        return self

    def tob_extra_delay(
        self, extra: float, *, shard: Optional[int] = None
    ) -> "Scenario":
        """Add ``extra`` latency to every message of the configured TOB
        engine (slow consensus)."""
        self._records.append(Filter(MessageRule(extra=extra), shard, tob=True))
        return self

    def delay_tob_for_dot(
        self,
        dot: Dot,
        *,
        receiver: int,
        extra: float,
        shard: Optional[int] = None,
    ) -> "Scenario":
        """Delay only TOB-engine messages about ``dot`` into ``receiver``.

        Used to steer the final order: e.g. hold a request's proposal back
        from the sequencer so later requests commit first. In sharded
        scenarios pass ``shard``: dots are per-cluster ``(pid, n)`` pairs,
        so the same dot exists independently in every shard.
        """
        rule = MessageRule(receiver=receiver, dot=dot, extra=extra)
        self._records.append(Filter(rule, shard, tob=True))
        return self

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
            MessageRule(receiver=receiver, dot=dot, extra=extra), shard=shard
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
            index = self._n_invokes
            label = f"{op.name}#{index}"
            while label in self._labels:  # sidestep user-chosen "name#n" labels
                index += 1
                label = f"{op.name}#{index}"
        self._claim_label(label)
        self._n_invokes += 1
        self._records.append(Invoke(at, pid, op, strong, label))
        return self

    def client(self, pid: int, *, think_time: float = 0.0) -> ScenarioClient:
        """A closed-loop client script bound to replica ``pid``."""
        script = ClientScript(pid, think_time, [])
        self._records.append(script)
        return ScenarioClient(self, script)

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
        self._records.append(
            Workload(profile, ops_per_session, think_time, seed, sessions)
        )
        return self

    def at(self, time: float, hook: Callable[["LiveRun"], None]) -> "Scenario":
        """Run ``hook(live_run)`` at simulated time ``time`` (custom steps)."""
        self._records.append(Hook(time, hook))
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
        for kind, level in (("fec", fec), ("bec", bec), ("seq", seq)):
            if level is not None:
                self._checks.append((kind, level))
        for kind, wanted in (("ncc", ncc), ("sessions", session_guarantees)):
            if wanted:
                self._checks.append((kind, None))
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

    def build(self) -> "LiveRun":
        """Compile to a live cluster (or sharded deployment), scheduled.

        The cluster is built fault-free; then one pass installs every
        record on it, by ``rank`` and, within a rank, in declaration order.
        """
        if self._datatype is None:
            raise ValueError("Scenario needs a datatype (pass one or .datatype())")
        n_shards = self._n_shards
        ordered = sorted(self._records, key=attrgetter("rank"))
        # Only the first ranks (faults, Autoscale, Reshard) name shards.
        for record in itertools.takewhile(lambda r: r.rank <= Reshard.rank, ordered):
            shard = getattr(record, "shard", 0)  # Reshard, Autoscale: any shard
            if shard is not None and not 0 <= shard < (n_shards or 0):
                where = f" with a shard {shard}" if shard else ""
                raise ValueError(
                    f"{record!r} needs a sharded scenario{where} (call .shards(n))"
                )
        config = self._compile_config()
        if n_shards is None:
            target: Union[BayouCluster, ShardedCluster] = BayouCluster(
                self._datatype, config, protocol=self._protocol
            )
        else:
            target = ShardedCluster(
                self._datatype,
                config,
                n_shards=n_shards,
                partitioner=self._partitioner,
                protocol=self._protocol,
            )
        live = LiveRun(self, target)
        for record in ordered:
            record.install(live)
        return live

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
        :class:`LiveRun`). The run's stores are closed on return.
        """
        live = self.build()
        try:
            if until is not None:
                live.run(until=until)
            else:
                live.settle(max_time=max_time)
            return live.finish(
                well_formed=well_formed, max_time=max_time, settle=until is None
            )
        finally:
            live.close()


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
        self.router: Optional[ShardRouter] = ShardRouter(target) if sharded else None
        #: What is driven (the cluster or the deployment) and what takes
        #: submissions (the cluster or the router).
        self._target = target
        self._client = self.router if sharded else target
        self.sim = target.sim
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

    # -- driving -------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

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
            session for workload in self.workloads for session in workload.sessions
        ]
        while True:
            self._target.run_until_stable(max_time=max_time)
            if self.now >= max_time or not any(
                session.launch_pending for session in sessions
            ):
                return

    def shutdown(self) -> None:
        self._target.shutdown()

    def close(self) -> None:
        """Close the run's stores; what was built stays readable."""
        self._target.close()

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
        probed = self.clusters
        if self.deployment is not None:
            probed = [probed[index] for index in self.deployment.live_shard_indexes()]
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
        histories = [c.build_history(well_formed=well_formed) for c in clusters]
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
                MigrationCheck(m.describe(), m.complete, m.state, m.error)
                for m in self.migrations
            ]
        return RunResult(
            name=self.scenario.name,
            protocol=self._target.protocol,
            clusters=clusters,
            histories=histories,
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

    One class serves any shard count: ``clusters`` / ``histories`` hold
    one entry per shard (one entry when unsharded), and ``cluster`` /
    ``history`` are the single-cluster accessors, raising
    :class:`~repro.errors.MultiShardError` on a multi-shard result. The
    sharded extras (``deployment``, ``router``, ``migrations``,
    ``controller``) are ``None``/empty when unsharded.
    """

    name: str
    protocol: str
    clusters: List[BayouCluster] = field(repr=False)
    #: One frozen history per cluster, indexed by shard id.
    histories: List[History] = field(repr=False)
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
        return [
            event.return_time - event.invoke_time
            for history in self.histories
            for event in history.events
            if event.return_time is not None
            and (level is None or event.level == level)
            and (session is None or event.session == session)
        ]

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
