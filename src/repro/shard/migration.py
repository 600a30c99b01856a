"""Live resharding: epoch-versioned placement and key migration.

A static :class:`~repro.shard.partitioner.ShardMap` fixes placement for a
deployment's lifetime; this module makes placement *elastic*. A
:class:`Migration` executes one :class:`~repro.shard.partitioner.Reassignment`
(split / merge / move) as a live protocol while weak traffic keeps
flowing:

1. **Stage** — the migration registers itself on the deployment (from
   this instant, submissions touching the *moving* keys are deferred via
   :class:`~repro.errors.MigrationInProgress` and retried at activation
   — the router's retry path) and invokes a strong **epoch barrier**
   through the source shard's TOB. The barrier's committed position
   fixes, once and globally, which updates belong to the frozen snapshot.
2. **Freeze & collect** — when the first source replica delivers the
   barrier, the committed prefix *below* it is replayed onto a fresh
   database and the moving keys' registers
   (:meth:`~repro.datatypes.base.DataType.registers_of`) are extracted:
   the *committed-prefix snapshot*. Everything after the prefix — the
   *tentative-log suffix* — is drained from **every** source replica's
   log (and, for crashed replicas with stable storage, their durable
   write-ahead logs), deduplicated by dot: a request seen at several
   replicas transfers exactly once (:attr:`Migration.duplicate_drops`
   counts the idempotent drops).
3. **Transfer & install** — after ``transfer_delay`` (modelling the data
   movement), the snapshot is invoked on the destination as one strong
   ``__migration_install__`` operation, giving the installed registers a
   definite position in the destination's total order (and, because the
   install rides the normal pipeline, undo-tracking, checkpoints,
   durability and recovery replay all cover it for free).
4. **Drain & activate** — once the install commits, the drained suffix
   requests are re-invoked on the destination in tentative order (same
   strength, fresh dots), and the new epoch activates:
   :meth:`VersionedShardMap.advance` appends the immutable snapshot, the
   epoch record is persisted to the deployment's placement store, and
   every deferred submission retries — now routing to the destination.

The source keeps executing its own log past the barrier; post-barrier
effects on *moved* registers at the source are unreachable garbage (all
reads route to the new owner), which is what makes duplicate execution of
transferred requests harmless. One documented hazard remains: a
*tentative multi-key request whose keys only partially move* (e.g. an
intra-shard weak transfer caught mid-split) executes fully on both
shards; owner-routed reads still see each key's effect exactly once, but
a *guarded* such request may decide differently in the two contexts.
:attr:`Migration.partial_key_requests` counts them; E13's workloads keep
guarded multi-key operations strong (plan-staged per key), which avoids
the hazard entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, TYPE_CHECKING

from repro.core.durability import register_codec
from repro.core.request import Dot, Req
from repro.core.state_object import execute_with_protocol_ops
from repro.datatypes.base import (
    EPOCH_BARRIER_OP,
    MIGRATION_INSTALL_OP,
    MIGRATION_PROTOCOL_OPS,
    DataType,
    Operation,
    PlainDb,
)
from repro.errors import MigrationError, MigrationStrandedError
from repro.shard.partitioner import Reassignment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cluster import BayouCluster
    from repro.shard.deployment import ShardedCluster

#: Migration lifecycle states.
STAGING = "staging"          # barrier invoked, awaiting its TOB commit
TRANSFERRING = "transferring"  # snapshot frozen, install in flight
COMPLETE = "complete"        # new epoch active, deferred ops released
STRANDED = "stranded"        # an endpoint crash-stopped; will never complete

# The epoch chain is data (kind + scalars); registering a codec lets any
# DurableStore backend persist and reload it without the core layer ever
# importing the shard layer.
register_codec(
    "~reassign",
    Reassignment,
    lambda r: {"kind": r.kind, "src": r.src, "dst": r.dst, "params": r.params},
    lambda d: Reassignment(d["kind"], d["src"], d["dst"], tuple(d["params"])),
)


def replay_with_protocol_ops(datatype: DataType, ops) -> PlainDb:
    """Replay ``ops`` on a fresh db, interpreting migration protocol ops.

    A source shard that was itself a migration *destination* earlier has
    ``__migration_install__`` requests in its committed prefix; plain
    ``DataType.replay`` would reject them.
    """
    db = PlainDb()
    for op in ops:
        execute_with_protocol_ops(datatype, op, db)
    return db


class Migration:
    """One live resharding step of a :class:`ShardedCluster`.

    Constructed (and started) by :meth:`ShardedCluster.split` /
    ``merge`` / ``move``; observable by everyone else. The interesting
    read surface:

    - :attr:`state`, :attr:`started_at` / :attr:`barrier_committed_at` /
      :attr:`activated_at` — the protocol timeline;
    - :attr:`moved_registers`, :attr:`transferred_requests`,
      :attr:`duplicate_drops`, :attr:`partial_key_requests`,
      :attr:`deferred_ops` — what the handoff carried and what it cost;
    - :meth:`when_complete` — the retry hook routers use to release
      operations deferred by :class:`~repro.errors.MigrationInProgress`.
    """

    def __init__(
        self,
        deployment: "ShardedCluster",
        reassignment: Reassignment,
        *,
        pid: int = 0,
        transfer_delay: float = 0.0,
    ) -> None:
        # Everything that can fail is validated here, *before* the
        # deployment spawns a destination slot for a split — a refused
        # migration must leave the deployment untouched. The destination
        # may not exist yet, so only the source shard is inspected.
        if transfer_delay < 0:
            raise MigrationError(f"transfer_delay must be >= 0, got {transfer_delay}")
        self.deployment = deployment
        self.reassignment = reassignment
        self.src = reassignment.src
        self.dst = reassignment.dst
        self.datatype = deployment.datatype
        if type(self.datatype).registers_of is DataType.registers_of:
            raise MigrationError(
                f"{self.datatype.type_name} declares no per-key register "
                "groups (registers_of); only keyed data types support live "
                "key migration"
            )
        if all(node.crashed for node in deployment.shards[self.src].nodes):
            raise MigrationError(
                f"every replica of the source shard S{self.src} is crashed; "
                "a migration needs a live replica on both endpoints"
            )
        self.pid = pid
        self.transfer_delay = transfer_delay
        self.state = STAGING
        #: Protocol timeline (simulated times; None until reached).
        self.started_at: Optional[float] = None
        self.barrier_committed_at: Optional[float] = None
        self.activated_at: Optional[float] = None
        #: Registers carried in the committed-prefix snapshot.
        self.moved_registers = 0
        #: Tentative-suffix requests re-invoked on the destination.
        self.transferred_requests = 0
        #: Suffix requests seen at >1 replica and dropped idempotently.
        self.duplicate_drops = 0
        #: Tentative multi-key requests whose keys only partially moved
        #: (the documented guarded-operation hazard; see module docs).
        self.partial_key_requests = 0
        #: Submissions deferred by MigrationInProgress (set by routers).
        self.deferred_ops = 0
        #: Set when the deployment spawned the destination slot for this
        #: migration (split / isolate) — a strand then retires the slot.
        self.spawned_dst = False
        #: The named failure once stranded (None otherwise).
        self.error: Optional[MigrationStrandedError] = None
        self.stranded_at: Optional[float] = None
        self._barrier_dot: Optional[Dot] = None
        self._install_dot: Optional[Dot] = None
        self._install_pid: Optional[int] = None
        # One named trace per migration ("mig-e<target epoch>") carries
        # the protocol phases as spans; stranded migrations end with a
        # "strand" span instead of "activate".
        telemetry = deployment.telemetry
        self._trace: Optional[str] = (
            telemetry.named_trace(
                f"mig-e{deployment.shard_maps.epoch + 1}"
            )
            if telemetry
            else None
        )
        #: (key, register, value) triples of the frozen snapshot.
        self._moving_payload: List[Any] = []
        self._twins: List[Req] = []
        self._completion_callbacks: List[Callable[[], None]] = []
        #: (replica, previous commit_listener) pairs to restore.
        self._hooked: List[Any] = []

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    @property
    def complete(self) -> bool:
        return self.state == COMPLETE

    @property
    def stranded(self) -> bool:
        return self.state == STRANDED

    def moves_key(self, key: Hashable, owner: Optional[int] = None) -> bool:
        """Whether ``key`` is in the moving set of this migration.

        Evaluated against the *pre-activation* (current) epoch — during
        the handoff window that is exactly the epoch routers still see.
        Callers that already resolved the key's owner pass it in to skip
        the second hash.
        """
        if owner is None:
            owner = self.deployment.shard_maps.current.owner(key)
        return self.reassignment.moves(key, owner)

    def when_complete(self, callback: Callable[[], None]) -> None:
        """Run ``callback()`` at epoch activation (or immediately)."""
        if self.complete:
            callback()
        else:
            self._completion_callbacks.append(callback)

    def describe(self) -> str:
        return f"{self.reassignment.describe()} [{self.state}]"

    def _span(self, name: str, parent: Optional[str], **attrs: Any) -> None:
        telemetry = self.deployment.telemetry
        if not telemetry or self._trace is None:
            return
        telemetry.tracer.record(
            self.deployment.sim.now, self.pid, name,
            self._trace, name, parent, **attrs,
        )

    def _count(self, outcome: str) -> None:
        telemetry = self.deployment.telemetry
        if telemetry:
            telemetry.counter(
                "repro_migrations", outcome=outcome
            ).inc()

    # ------------------------------------------------------------------
    # 1. Stage: the epoch barrier through the source TOB
    # ------------------------------------------------------------------
    def start(self) -> None:
        source = self.deployment.shards[self.src]
        replica = self._live_replica(source, self.pid, role="source")
        self.started_at = self.deployment.sim.now
        barrier = Operation(
            EPOCH_BARRIER_OP,
            (self.deployment.shard_maps.epoch + 1, self.src, self.dst),
        )
        # Invoked directly on the replica (not through the cluster's
        # client surface): the barrier is protocol traffic, so it holds
        # no history event and no client future — only a TOB position.
        self._span(
            "stage", None,
            reassignment=self.reassignment.describe(),
            src=self.src, dst=self.dst,
        )
        self._count("started")
        self._barrier_dot = replica.invoke(barrier, strong=True).dot
        self._hook_commit_listeners(source, self._barrier_dot, self._on_barrier)
        # Pipeline the barrier with the install: prewarm the destination's
        # TOB (a leader-based engine runs its phase 1 now) so the install
        # op decides in a single 2A/2B round the moment the transfer lands,
        # instead of paying an election inside the migration window.
        destination = self.deployment.shards[self.dst]
        for dst_replica in destination.replicas:
            if not dst_replica.node.crashed:
                dst_replica.tob.prewarm()
        self._watch_endpoints()

    # ------------------------------------------------------------------
    # Strand detection: crash-stopped endpoints
    # ------------------------------------------------------------------
    def _watch_endpoints(self) -> None:
        """Detect, at crash time, an endpoint that can never answer again.

        A migration is driven entirely by its endpoints' replicas (the
        barrier commit at the source, the install commit at the
        destination). If *every* replica of either endpoint crash-stops
        mid-protocol, no event will ever advance the migration — without
        detection it wedges silently: ``converged()`` pinned False,
        deferred submissions parked forever, the per-shard migration slot
        never released. Crash-*recovery* outages are not strands — the
        commit listeners survive and fire once replication resumes.
        """
        for role, index in (("source", self.src), ("destination", self.dst)):
            cluster = self.deployment.shards[index]
            for node in cluster.nodes:
                node.register_crash_hooks(
                    on_crash=lambda mode, role=role, cluster=cluster: (
                        self._endpoint_crashed(role, cluster)
                    )
                )

    def _endpoint_crashed(self, role: str, cluster: "BayouCluster") -> None:
        if self.state in (COMPLETE, STRANDED):
            return
        if all(
            node.crashed and node.crash_mode == "stop"
            for node in cluster.nodes
        ):
            self.fail(
                f"{self.reassignment.describe()} stranded while "
                f"{self.state}: every replica of the {role} shard "
                f"{cluster.name} crash-stopped"
            )

    def fail(self, reason: str) -> None:
        """Mark the migration permanently stranded and release its grip.

        The epoch never activates: the source keeps its keys and routing
        is unchanged. Submissions deferred on :meth:`when_complete` are
        released (scheduled, not inline — ``fail`` runs inside crash
        hooks) and retry against the unchanged epoch.
        """
        if self.state in (COMPLETE, STRANDED):
            return
        self.state = STRANDED
        self.stranded_at = self.deployment.sim.now
        self.error = MigrationStrandedError(reason, migration=self)
        self._span("strand", "stage", reason=reason)
        self._count("stranded")
        self._unhook_commit_listeners()
        self.deployment._strand_migration(self)
        callbacks, self._completion_callbacks = self._completion_callbacks, []
        if callbacks:
            self.deployment.sim.schedule(
                0.0,
                lambda: [callback() for callback in callbacks],
                label=f"stranded migration release {self.reassignment.describe()}",
            )

    def _live_replica(self, cluster: "BayouCluster", pid: int, *, role: str):
        candidates = [pid] + [
            index
            for index in range(cluster.config.n_replicas)
            if index != pid
        ]
        for candidate in candidates:
            if not cluster.nodes[candidate].crashed:
                return cluster.replicas[candidate]
        raise MigrationError(
            f"every replica of the {role} shard {cluster.name or '?'} is "
            "crashed; a migration needs a live replica on both endpoints"
        )

    def _hook_commit_listeners(self, cluster, dot: Dot, handler) -> None:
        """Fire ``handler(replica)`` at the *first* TOB commit of ``dot``."""
        fired = [False]
        for replica in cluster.replicas:
            previous = replica.commit_listener

            def chained(req, _previous=previous, _replica=replica):
                if _previous is not None:
                    _previous(req)
                if req.dot == dot and not fired[0]:
                    fired[0] = True
                    self._unhook_commit_listeners()
                    handler(_replica)

            replica.commit_listener = chained
            self._hooked.append((replica, previous))

    def _unhook_commit_listeners(self) -> None:
        for replica, previous in self._hooked:
            replica.commit_listener = previous
        self._hooked = []

    # ------------------------------------------------------------------
    # 2. Freeze & collect at the barrier commit
    # ------------------------------------------------------------------
    def _on_barrier(self, replica) -> None:
        self.state = TRANSFERRING
        self.barrier_committed_at = self.deployment.sim.now
        source = self.deployment.shards[self.src]
        barrier_index = next(
            index
            for index, req in enumerate(replica.committed)
            if req.dot == self._barrier_dot
        )
        prefix = replica.committed[:barrier_index]
        committed_dots = {req.dot for req in prefix}

        # The frozen committed-prefix snapshot, restricted to moving keys.
        db = replay_with_protocol_ops(self.datatype, (req.op for req in prefix))
        moving_keys = set()
        for req in prefix:
            if req.op.name == MIGRATION_INSTALL_OP:
                # This shard was itself a migration destination earlier:
                # keys whose only writes arrived via that install are
                # candidates too (the triples carry their keys for
                # exactly this scan).
                for key, _register, _value in req.op.args[0]:
                    if self.moves_key(key):
                        moving_keys.add(key)
                continue
            if req.op.name in MIGRATION_PROTOCOL_OPS:
                continue
            for key in self.datatype.keys_of(req.op):
                if self.moves_key(key):
                    moving_keys.add(key)
        for key in moving_keys:
            for register in self.datatype.registers_of(key):
                if register in db.data:
                    self._moving_payload.append((key, register, db.data[register]))
        self._moving_payload.sort(key=lambda t: (repr(t[0]), repr(t[1])))
        self.moved_registers = len(self._moving_payload)

        # The tentative-log suffix, drained idempotently across replicas.
        twins: Dict[Dot, Req] = {}
        for peer in source.replicas:
            if peer.node.crashed:
                # A crashed replica's volatile log is unreadable, but its
                # durable write-ahead log survives the crash by design.
                if peer.store is None:
                    continue
                known = peer.store.log("replica.wal").records()
            else:
                known = list(peer.committed) + list(peer.tentative)
            for req in known:
                if req.dot in committed_dots or req.dot == self._barrier_dot:
                    continue
                if req.op.name in MIGRATION_PROTOCOL_OPS:
                    continue
                keys = self.datatype.keys_of(req.op)
                moving = [key for key in keys if self.moves_key(key)]
                if not moving:
                    continue
                if req.dot in twins:
                    self.duplicate_drops += 1
                    continue
                if len(moving) != len(keys):
                    self.partial_key_requests += 1
                twins[req.dot] = req
        self._twins = sorted(twins.values())  # (timestamp, dot) order
        self._span(
            "barrier", "stage",
            moved_registers=self.moved_registers,
            suffix=len(self._twins),
            duplicate_drops=self.duplicate_drops,
        )

        self.deployment.sim.schedule(
            self.transfer_delay,
            self._install,
            label=f"migration install {self.reassignment.describe()}",
        )

    # ------------------------------------------------------------------
    # 3. Transfer & install through the destination TOB
    # ------------------------------------------------------------------
    def _install(self) -> None:
        if self.state != TRANSFERRING:
            return  # stranded while the transfer delay elapsed
        destination = self.deployment.shards[self.dst]
        try:
            replica = self._live_replica(destination, self.pid, role="destination")
        except MigrationError:
            # Every destination replica is down at transfer time. All
            # crash-stopped strands the migration (the crash-time watcher
            # normally beat this path); a recovering outage re-runs the
            # install at the first recovery instead of raising out of a
            # simulator callback.
            if all(node.crash_mode == "stop" for node in destination.nodes):
                self.fail(
                    f"{self.reassignment.describe()} stranded while "
                    f"{self.state}: every replica of the destination shard "
                    f"{destination.name} crash-stopped"
                )
                return
            retried = [False]

            def retry() -> None:
                if not retried[0] and self.state == TRANSFERRING:
                    retried[0] = True
                    self._install()

            for node in destination.nodes:
                if node.crashed and node.crash_mode == "recover":
                    node.on_next_recovery(retry)
            return
        self._install_pid = replica.pid
        install = Operation(
            MIGRATION_INSTALL_OP, (tuple(self._moving_payload),)
        )
        self._span("install", "barrier", pid=replica.pid)
        self._install_dot = replica.invoke(install, strong=True).dot
        self._hook_commit_listeners(
            destination, self._install_dot, self._on_install_committed
        )

    # ------------------------------------------------------------------
    # 4. Drain the suffix, activate the epoch
    # ------------------------------------------------------------------
    def _on_install_committed(self, _replica) -> None:
        if self.state != TRANSFERRING:
            return
        destination = self.deployment.shards[self.dst]
        # Re-invoke the drained suffix on the install's replica: the same
        # monotone clock stamped the install, so the twins sort after it
        # in every tentative order, and their TOB casts trail its already
        # committed position — the snapshot is never clobbered.
        replica = destination.replicas[self._install_pid]
        if replica.node.crashed:
            replica = self._live_replica(
                destination, self._install_pid, role="destination"
            )
        for req in self._twins:
            replica.invoke(req.op, strong=req.strong)
            self.transferred_requests += 1
        self.activated_at = self.deployment.sim.now
        self.deployment._activate_epoch(self)
        self.state = COMPLETE
        self._span(
            "activate", "install",
            transferred=self.transferred_requests,
            deferred=self.deferred_ops,
        )
        self._count("completed")
        callbacks, self._completion_callbacks = self._completion_callbacks, []
        for callback in callbacks:
            callback()


@dataclass
class MigrationCheck:
    """Per-migration protocol-completion verdict (``checks["migrations"]``).

    ``ok`` is True only for a migration whose epoch activated. A stranded
    migration (an endpoint lost every replica to crash-stop mid-handoff)
    carries its named :class:`~repro.errors.MigrationStrandedError` in
    ``error`` — the run *finishes* and the failure is a first-class check
    result, where it previously wedged the deployment silently.
    """

    name: str
    ok: bool
    state: str
    error: Optional[MigrationStrandedError] = None
