"""Shard routing: one keyspace-wide client surface over many shards.

The :class:`ShardRouter` hides the shard boundary from clients. It
resolves every typed operation's keys (``DataType.keys_of``) against the
deployment's *current-epoch* :class:`~repro.shard.partitioner.ShardMap`
and

- submits shard-local operations (one owner shard, or unkeyed → home
  shard) directly to the owner's :class:`~repro.core.cluster.BayouCluster`
  — same pipeline, same :class:`~repro.core.session.OpFuture`;
- stages multi-shard *strong* operations through the
  :class:`~repro.shard.coordinator.CrossShardCoordinator`;
- refuses multi-shard *weak* operations and plan-less multi-key types
  with :class:`~repro.errors.CrossShardError` at the call site.

Routing is **route-at-epoch**: every resolved route carries the epoch it
was computed under. A route that went stale while an operation sat in a
session queue (a live resharding bumped the epoch) is *forwarded* —
recomputed against the new epoch at launch, never refused
(:attr:`ShardRouter.forwarded_count` counts shard-changing forwards).
Keys mid-handoff raise :class:`~repro.errors.MigrationInProgress`, which
the router and sessions catch internally: the submission is deferred and
retried at epoch activation (:attr:`ShardRouter.deferred_count`) — the
client only ever sees extra latency.

:class:`ShardedSession` is the closed-loop facade: the same well-formed,
one-outstanding-operation discipline as :class:`~repro.core.session.Session`,
but each queued operation runs on whichever shard owns its keys. It
duck-types the cluster surface :class:`~repro.analysis.workload.RandomWorkload`
expects, so random keyed workloads drive sharded deployments unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, TYPE_CHECKING

from repro.core.session import ClosedLoopSession, OpFuture
from repro.datatypes.base import Operation
from repro.errors import CrossShardError, MigrationInProgress
from repro.shard.coordinator import CrossShardCoordinator, CrossShardFuture
from repro.shard.deployment import ShardedCluster

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.shard.control.stats import ShardStats


class ShardRouter:
    """Routes operations of one keyspace onto their owner shards."""

    def __init__(self, deployment: ShardedCluster) -> None:
        self.deployment = deployment
        self.datatype = deployment.datatype
        #: The deployment's shared telemetry plane (None when unarmed).
        #: Route spans land on the owner shard's scoped trace — the same
        #: "S1:d0.3" trace the shard's own protocol spans use.
        self.telemetry = deployment.telemetry
        if self.telemetry is not None:
            self._m_routed: Dict[int, Any] = {}
            self._m_forwarded = self.telemetry.counter("repro_routes_forwarded")
            self._m_deferred = self.telemetry.counter("repro_routes_deferred")
        self.coordinator = CrossShardCoordinator(self)
        #: Operations routed per shard (for skew/placement reports);
        #: grows when a split spawns a shard.
        self.routed_counts: List[int] = [0] * deployment.n_shards
        #: Stale-epoch routes whose recomputation changed the owner shard
        #: (the operation was *forwarded* to the new owner, not refused).
        self.forwarded_count = 0
        #: Submissions deferred by an in-flight migration and retried at
        #: epoch activation.
        self.deferred_count = 0
        #: Open-loop futures whose deferred retry found the operation had
        #: *become* an invalid cross-shard request under the new epoch (a
        #: weak multi-key op whose keys the resharding separated). They
        #: stay pending forever — the keyspace-level analogue of a
        #: session's refused list.
        self.refused_futures: List[OpFuture] = []
        #: Optional metrics sink (the placement controller's eyes); when
        #: attached, every routed/deferred op and weak-op staleness
        #: sample is exported. None by default — plain deployments pay
        #: nothing for the control plane they don't run.
        self.stats: Optional["ShardStats"] = None

    def attach_stats(self, stats: "ShardStats") -> None:
        """Export routing metrics into ``stats`` from now on."""
        stats.ensure_shards(self.deployment.n_shards)
        self.stats = stats

    # -- cluster-surface compatibility (RandomWorkload, sessions) -------
    @property
    def sim(self):
        return self.deployment.sim

    @property
    def config(self):
        return self.deployment.config

    # -- placement surface ----------------------------------------------
    @property
    def shard_map(self):
        """The current-epoch placement snapshot (live; never cached)."""
        return self.deployment.shard_map

    @property
    def epoch(self) -> int:
        return self.deployment.epoch

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _count_routed(self, shard: int, op: Optional[Operation] = None) -> None:
        while len(self.routed_counts) < self.deployment.n_shards:
            self.routed_counts.append(0)
        self.routed_counts[shard] += 1
        if self.stats is not None:
            # The stats sink owns these instruments (it shares the
            # telemetry registry when both planes are armed) — counting
            # here too would double every routed op.
            keys = self.datatype.keys_of(op) if op is not None else ()
            self.stats.record_op(shard, keys)
        elif self.telemetry:
            counter = self._m_routed.get(shard)
            if counter is None:
                counter = self._m_routed[shard] = self.telemetry.counter(
                    "repro_ops_routed", shard=f"S{shard}"
                )
            counter.inc()

    def _count_deferred(self, migration) -> None:
        self.deferred_count += 1
        migration.deferred_ops += 1
        if self.stats is not None:
            self.stats.record_deferred()
        elif self.telemetry:
            self._m_deferred.inc()

    def _submit_routed(
        self,
        shard: int,
        pid: int,
        op: Operation,
        *,
        strong: bool,
        future: Optional[OpFuture] = None,
    ) -> OpFuture:
        """Count, submit to the owner shard, and record the route span.

        The span is recorded *after* the shard accepted the submission —
        only then does the op have a dot, hence a trace to attach to.
        """
        self._count_routed(shard, op)
        cluster = self.deployment.shards[shard]
        result = cluster.submit(pid, op, strong=strong, future=future)
        if self.telemetry and result.dot is not None:
            cluster.ops.telemetry.op_span(
                self.sim.now,
                pid,
                "route",
                result.dot,
                "route",
                "root",
                shard=shard,
                epoch=self.epoch,
            )
        return result

    def _check_migration(self, key: Hashable, owner: int) -> None:
        """Raise :class:`MigrationInProgress` if ``key`` is mid-handoff."""
        migration = self.deployment.active_migrations.get(owner)
        if migration is not None and migration.moves_key(key, owner):
            raise MigrationInProgress(
                f"key {key!r} is mid-handoff "
                f"({migration.describe()}); the submission is deferred "
                "until the new epoch activates",
                migration=migration,
                key=key,
            )

    def resolve_owner(self, key: Hashable) -> int:
        """``key``'s owner shard under the current epoch.

        Raises :class:`MigrationInProgress` while the key is mid-handoff
        — the single chokepoint the coordinator's staged sub-operations
        share with whole-operation routing.
        """
        owner = self.shard_map.owner(key)
        if self.deployment.active_migrations:
            self._check_migration(key, owner)
        return owner

    def plan_route(self, op: Operation, *, strong: bool):
        """Resolve ``op`` to ``(shard, plan)``: exactly one is not None.

        Raises :class:`CrossShardError` for invalid multi-shard requests,
        so misrouted operations fail at the call site — before anything
        was staged anywhere — and :class:`MigrationInProgress` while any
        of the operation's keys is mid-handoff (callers defer and retry).

        Single-pass on the hot path: each key is extracted and
        owner-hashed exactly once, and the migration check reuses the
        owner just computed.
        """
        keys = self.datatype.keys_of(op)
        if not keys:
            # Unkeyed types live wholly on the home shard and have no
            # per-key registers, so they can never be mid-migration.
            return self.shard_map.HOME_SHARD, None
        shard_map = self.shard_map
        checking = bool(self.deployment.active_migrations)
        owners: List[int] = []
        for key in keys:
            owner = shard_map.owner(key)
            if checking:
                self._check_migration(key, owner)
            if owner not in owners:
                owners.append(owner)
        if len(owners) == 1:
            return owners[0], None
        if not strong:
            raise CrossShardError(
                f"{op!r} touches shards {sorted(owners)} but was issued "
                "weak; cross-shard operations must be strong (each staged "
                "sub-operation needs a final TOB position on its shard)"
            )
        plan = self.datatype.cross_shard_plan(op)
        if plan is None:
            raise CrossShardError(
                f"{self.datatype.type_name} declares no cross-shard plan "
                f"for {op!r} (keys span shards {sorted(owners)})"
            )
        return None, plan

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        pid: int,
        op: Operation,
        *,
        strong: bool = False,
        future: Optional[OpFuture] = None,
    ) -> OpFuture:
        """Invoke ``op`` right now on whichever shard(s) own its keys.

        ``pid`` is the replica index *inside* the owner shard (every shard
        runs the same replica count, so the index is portable — a client
        "near" replica 1 talks to replica 1 of every shard). If the keys
        are mid-handoff the submission is deferred internally and the
        returned future resolves once the retry lands post-activation.
        """
        try:
            shard, plan = self.plan_route(op, strong=strong)
        except MigrationInProgress as exc:
            return self._defer(pid, op, strong, future, exc)
        if plan is not None:
            if future is not None and not isinstance(future, CrossShardFuture):
                return self._stage_adapted(op, plan, pid=pid, future=future)
            return self.coordinator.stage(op, plan, pid=pid, future=future)
        return self._submit_routed(shard, pid, op, strong=strong, future=future)

    def _defer(
        self,
        pid: int,
        op: Operation,
        strong: bool,
        future: Optional[OpFuture],
        exc: MigrationInProgress,
    ) -> OpFuture:
        """The MigrationInProgress retry path: park, retry at activation."""
        self._count_deferred(exc.migration)
        if future is None:
            future = OpFuture(op, strong=strong, pid=pid)

        def retry() -> None:
            # The retry runs inside the migration's activation callback;
            # an exception here would abort the simulation step and every
            # other parked retry behind it. An op that *became* an
            # invalid cross-shard request under the new epoch is refused
            # quietly instead (sessions handle the same case in
            # ShardedSession._launchable).
            try:
                self.submit(pid, op, strong=strong, future=future)
            except CrossShardError:
                self.refused_futures.append(future)

        exc.migration.when_complete(retry)
        return future

    def _stage_adapted(
        self, op: Operation, plan, *, pid: int, future: OpFuture
    ) -> OpFuture:
        """Stage a plan behind a plain :class:`OpFuture`.

        Happens when an epoch bump turned a queued (or deferred)
        operation cross-shard after its future was created: the
        coordinator stages its own :class:`CrossShardFuture` and the
        client's original future mirrors its outcome.
        """
        if future.invoke_time is None:
            future._mark_invoked(None, self.sim.now)
        inner = self.coordinator.stage(op, plan, pid=pid)
        inner.add_done_callback(
            lambda f: future._respond_value(f.rval, self.sim.now)
        )
        inner.add_stable_callback(
            lambda _f: future._mark_stable(self.sim.now)
        )
        return future

    def connect(
        self, pid: int = 0, *, think_time: float = 0.0
    ) -> "ShardedSession":
        """Open a closed-loop keyspace-wide session (replica index ``pid``)."""
        return ShardedSession(self, pid, think_time=think_time)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def query(self, op: Operation) -> Any:
        """Execute a read-only ``op`` against the owner shard's replica 0
        converged state (post-run assertions)."""
        from repro.datatypes.base import PlainDb

        shard, plan = self.plan_route(op, strong=True)
        if plan is not None:
            raise CrossShardError(f"cannot query a multi-shard op {op!r}")
        cluster = self.deployment.shards[shard]
        snapshot = PlainDb(cluster.replicas[0].state.snapshot())
        return self.datatype.execute(op, snapshot)


class ShardedSession(ClosedLoopSession):
    """A sequential client over the whole keyspace.

    The closed loop of :class:`~repro.core.session.ClosedLoopSession`;
    each operation is routed to its owner shard at launch. Cross-shard
    strong operations yield a :class:`CrossShardFuture` that responds at
    the plan decision and stabilises with its last staged sub-operation.

    Routes are cached on futures *with the epoch they were computed
    under*: a queued operation whose epoch went stale by launch time is
    re-routed (forwarded) against the live epoch, and one whose keys are
    mid-handoff pauses the session until the migration activates — the
    same pause discipline a crash-recovery window uses. Futures are also
    refused when an epoch bump made a queued weak multi-key operation
    cross-shard (weak operations may never span shards).
    """

    pump_label = "sharded client next"

    def __init__(
        self,
        router: ShardRouter,
        pid: int,
        *,
        think_time: float = 0.0,
    ) -> None:
        super().__init__(router.sim, router.datatype, pid, think_time)
        self.router = router

    def submit(self, op: Operation, strong: bool = False) -> OpFuture:
        """Queue an operation; it runs when all earlier ones returned.

        Routing is resolved *now* — invalid cross-shard requests raise at
        the call site — and the resolved route rides on the future,
        stamped with the current epoch. Launch revalidates the stamp: a
        resharding between submit and launch re-routes instead of
        trusting the stale shard (key hashing still happens once per
        operation in the common, epoch-stable case). Keys mid-handoff at
        submit time leave the route unresolved; launch retries them.
        """
        try:
            shard, plan = self.router.plan_route(op, strong=strong)
        except MigrationInProgress:
            future: OpFuture = OpFuture(op, strong=strong, pid=self.pid)
            future._route = None
        else:
            if plan is not None:
                future = CrossShardFuture(op, pid=self.pid)
            else:
                future = OpFuture(op, strong=strong, pid=self.pid)
            future._route = (shard, plan, self.router.epoch)
        return self._enqueue(future)

    def _launchable(self, future: OpFuture) -> bool:
        """Ensure the head future's route matches the live epoch.

        Returns True when the future is launchable now. On a stale epoch
        the route is recomputed (a shard-changing recomputation counts as
        a forward); mid-handoff keys pause the session until activation;
        an operation that *became* an invalid cross-shard request is
        refused and the pump moves on.
        """
        route = getattr(future, "_route", None)
        if (
            route is not None
            and route[2] == self.router.epoch
            and not self.router.deployment.active_migrations
        ):
            # Fast path: the epoch is current and no handoff is in
            # flight, so the cached route cannot have gone stale. With a
            # migration staging, the route must be re-validated even at
            # the same epoch — the op's keys may be mid-handoff, and
            # launching them at the source past the snapshot freeze
            # would lose the update.
            return True
        try:
            shard, plan = self.router.plan_route(future.op, strong=future.strong)
        except MigrationInProgress as exc:
            # Count (and register the wake-up) once per migration: every
            # later submission to this session re-pumps and re-lands here
            # for the same parked head, which is the same logical
            # deferral, not a new one.
            if getattr(future, "_parked_on", None) is not exc.migration:
                future._parked_on = exc.migration
                self.router._count_deferred(exc.migration)
                exc.migration.when_complete(self._maybe_schedule_pump)
            return False
        except CrossShardError:
            assert self._queue[0] is future
            self.refused.append(self._queue.popleft())
            self._maybe_schedule_pump()
            return False
        if route is not None and route[0] != shard:
            self.router.forwarded_count += 1
            if self.router.telemetry:
                self.router._m_forwarded.inc()
        future._route = (shard, plan, self.router.epoch)
        return True

    def _target_node(self, future: OpFuture):
        """The replica a *single-shard* head op targets (or None).

        Cross-shard futures need no pre-check: the coordinator fails over
        to live replicas and defers across whole-shard recoveries itself.
        """
        shard, plan, _epoch = future._route
        if plan is not None:
            return None
        return self.router.deployment.shards[shard].nodes[self.pid]

    def _launch(self, future: OpFuture) -> None:
        self._outstanding = future
        shard, plan, _epoch = future._route
        if plan is not None:
            if isinstance(future, CrossShardFuture):
                self.router.coordinator.stage(
                    future.op, plan, pid=self.pid, future=future
                )
            else:
                # The op became cross-shard after its (plain) future was
                # created: stage behind an adapter.
                self.router._stage_adapted(
                    future.op, plan, pid=self.pid, future=future
                )
        else:
            self.router._submit_routed(
                shard, self.pid, future.op, strong=future.strong, future=future
            )
        # Registered after the submission: the modified protocol responds
        # to weak operations synchronously, in which case this callback
        # fires immediately (``_outstanding`` is already set above).
        future.add_done_callback(self._on_done)

    def _on_done(self, future: OpFuture) -> None:
        if (
            future is self._outstanding
            and self.router.stats is not None
            and not future.strong
        ):
            # Weak-op staleness: how long the tentative response floated
            # before its final position committed. Sampled at stability
            # so the controller sees the freshness price of its moves.
            future.add_stable_callback(self._record_staleness)
        super()._on_done(future)

    def _record_staleness(self, future: OpFuture) -> None:
        if self.router.stats is None:
            return
        if future.stable_time is None or future.response_time is None:
            return
        self.router.stats.record_staleness(
            future.stable_time - future.response_time
        )
