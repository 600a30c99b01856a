"""Sharded deployments: N independent Bayou clusters, one simulator.

A :class:`ShardedCluster` runs ``n_shards`` full
:class:`~repro.core.cluster.BayouCluster` stacks — each with its own
network, partition schedule, crash schedule, dissemination substrate and
TOB engine — on one shared :class:`~repro.sim.kernel.Simulator`, so all
shards advance on a single deterministic clock and one
``run_until_quiescent`` drains the whole deployment.

Shards are *independent consensus groups*: shard-local faults (a
partition inside shard 2, a crashed replica of shard 0) never touch the
other shards' histories, which the routing-determinism tests assert.
Cross-shard coupling exists only at the client layer — the
:class:`~repro.shard.router.ShardRouter` and its cross-shard coordinator.

Deployments are **elastic**: placement is an epoch-versioned chain
(:class:`~repro.shard.partitioner.VersionedShardMap`), and
:meth:`split` / :meth:`merge` / :meth:`move` run a live
:class:`~repro.shard.migration.Migration` mid-run — spawning a fresh
cluster stack on the shared simulator for a split, retiring one after a
merge — while weak traffic keeps flowing against whichever epoch each
router has observed. When a ``jsonl`` durability root is configured, the
epoch chain is persisted to a deployment-level placement store, so a
:class:`ShardedCluster` rebuilt over the same directory replays the
chain at construction: spawned shards come back (over their own durable
state), merges re-retire, and routing resolves exactly as before the
restart.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.core.cluster import ORIGINAL, BayouCluster
from repro.core.config import BayouConfig
from repro.core.durability import DurableStore, open_store
from repro.datatypes.base import DataType
from repro.errors import MigrationError
from repro.obs import Telemetry
from repro.shard.migration import Migration
from repro.shard.partitioner import (
    Partitioner,
    Reassignment,
    ShardMap,
    VersionedShardMap,
)
from repro.sim.kernel import Simulator

#: Name of the placement store's epoch-chain log.
EPOCH_LOG = "placement.epochs"


class ShardedCluster:
    """``n_shards`` (and, after splits, more) Bayou clusters on one sim."""

    def __init__(
        self,
        datatype: DataType,
        config: Optional[BayouConfig] = None,
        *,
        n_shards: int,
        partitioner: Optional[Partitioner] = None,
        protocol: str = ORIGINAL,
    ) -> None:
        self.datatype = datatype
        self.config = config or BayouConfig()
        self.protocol = protocol
        #: One telemetry plane for the whole deployment: every shard's
        #: cluster records into it through a scope named after the shard
        #: ("S1:" trace-id prefixes, ``shard`` labels), so dot collisions
        #: across shards (each has a replica 0 minting ``(0, 1)``) never
        #: merge two ops' traces.
        self.telemetry = (
            Telemetry(trace_capacity=self.config.trace_capacity)
            if self.config.enable_telemetry
            else None
        )
        #: The epoch-versioned placement chain (epoch 0 = the base map).
        self.shard_maps = VersionedShardMap(ShardMap(n_shards, partitioner))
        self.sim = Simulator()
        self.shards: List[BayouCluster] = []
        #: src shard index -> its in-flight :class:`Migration` (at most
        #: one per source; routers consult this to defer moving keys).
        self.active_migrations: Dict[int, Migration] = {}
        #: Every migration ever run, in start order (for reports).
        self.migrations: List[Migration] = []
        #: Migrations permanently wedged by an endpoint losing every
        #: replica to crash-stop (they also stay in ``migrations``).
        self.stranded: List[Migration] = []
        #: Shards retired by a merge: excluded from traffic, probes and
        #: convergence (their logs still drain so in-flight futures
        #: settle, but they own no keys under the active epoch).
        self.retired: Set[int] = set()
        for _ in range(n_shards):
            self._spawn_shard()
        self._placement_store = self._open_placement_store()
        self._replay_epoch_chain()

    @property
    def shard_map(self) -> ShardMap:
        """The *current-epoch* placement snapshot."""
        return self.shard_maps.current

    @property
    def epoch(self) -> int:
        """The active placement epoch."""
        return self.shard_maps.epoch

    @property
    def n_shards(self) -> int:
        """Shard slots, spawned ones included (retired slots count)."""
        return len(self.shards)

    def _shard_config(self, index: int) -> BayouConfig:
        """This shard's :class:`BayouConfig` — a copy of the deployment's.

        Two fields are specialised per shard: a ``jsonl`` durability root
        (shards must not share one write-ahead directory — node 0 of shard
        0 and node 0 of shard 1 would silently merge their logs) and
        nothing else — identical seeds give identical latency streams in
        every shard, which keeps cross-shard comparisons apples-to-apples.
        """
        config = replace(self.config)
        if config.durability == "jsonl" and config.durability_dir is not None:
            config = replace(
                config,
                durability_dir=os.path.join(
                    config.durability_dir, f"shard{index}"
                ),
            )
        return config

    # ------------------------------------------------------------------
    # Shard access and fault scoping
    # ------------------------------------------------------------------
    def shard(self, index: int) -> BayouCluster:
        """The underlying cluster of one shard."""
        return self.shards[index]

    def live_shard_indexes(self) -> List[int]:
        """Shard indexes serving the active epoch (retired excluded)."""
        return [
            index for index in range(len(self.shards))
            if index not in self.retired
        ]

    def owner_of(self, key: Any) -> int:
        """``key``'s owner under the *current* epoch."""
        return self.shard_map.owner(key)

    def crash_replica(self, shard: int, pid: int, mode: str = "recover") -> None:
        """Crash replica ``pid`` *of one shard* right now."""
        self.shards[shard].crash_replica(pid, mode)

    def recover_replica(self, shard: int, pid: int) -> None:
        """Recover a crashed replica of one shard."""
        self.shards[shard].recover_replica(pid)

    # ------------------------------------------------------------------
    # Live resharding (the elastic surface)
    # ------------------------------------------------------------------
    def split(
        self,
        shard: int,
        *,
        pid: int = 0,
        transfer_delay: float = 0.0,
        salt: Optional[str] = None,
    ) -> Migration:
        """Split ``shard``: spawn a fresh shard and hand it half the keys.

        Spawns a full cluster stack on the shared simulator, then runs
        the live-migration protocol: epoch barrier through ``shard``'s
        TOB, frozen committed-prefix snapshot plus tentative-suffix
        handoff to the new shard, and epoch activation. The moving half
        is chosen by a stable salted hash (deterministic under the
        seed); ``salt`` pins it explicitly when a scenario needs a
        reproducible moving set across differently-shaped runs.
        """
        self._check_resharding_endpoints(shard, None)
        if salt is None:
            salt = f"split-epoch{self.shard_maps.epoch + 1}"
        return self._migrate_to_new_shard(
            "split", shard, (salt,), pid=pid, transfer_delay=transfer_delay
        )

    def isolate(
        self,
        key_range: Tuple[Hashable, Hashable],
        *,
        src: Optional[int] = None,
        pid: int = 0,
        transfer_delay: float = 0.0,
    ) -> Migration:
        """Spawn a fresh shard and hand it exactly ``[lo, hi)``.

        A split's surgical sibling: where :meth:`split` halves a shard by
        hash, ``isolate`` carves out a *chosen* range — typically a
        single hot key (see
        :func:`~repro.shard.control.strategy.single_key_range`) — onto a
        freshly spawned cluster stack, leaving everything else where it
        was. This is the :class:`HotKeyIsolation` policy's primitive, but
        it stands alone as a deployment verb.
        """
        lo, hi = key_range
        if src is None:
            src = self.shard_map.owner(lo)
        self._check_resharding_endpoints(src, None)
        return self._migrate_to_new_shard(
            "move", src, (lo, hi), pid=pid, transfer_delay=transfer_delay
        )

    def merge(
        self, dst: int, src: int, *, pid: int = 0, transfer_delay: float = 0.0
    ) -> Migration:
        """Merge shard ``src`` into ``dst``; ``src`` retires at activation."""
        self._check_resharding_endpoints(src, dst)
        return self._start_migration(
            Migration(
                self,
                Reassignment("merge", src, dst, ()),
                pid=pid,
                transfer_delay=transfer_delay,
            )
        )

    def move(
        self,
        key_range: Tuple[Hashable, Hashable],
        dst: int,
        *,
        src: Optional[int] = None,
        pid: int = 0,
        transfer_delay: float = 0.0,
    ) -> Migration:
        """Hand ``src``'s keys inside half-open ``[lo, hi)`` to ``dst``.

        ``src`` defaults to the current owner of ``lo``; only keys the
        source actually owns move (the range is a filter, not a claim
        over other shards' keys).
        """
        lo, hi = key_range
        if src is None:
            src = self.shard_map.owner(lo)
        self._check_resharding_endpoints(src, dst)
        return self._start_migration(
            Migration(
                self,
                Reassignment("move", src, dst, (lo, hi)),
                pid=pid,
                transfer_delay=transfer_delay,
            )
        )

    def static_reassign(self, reassignment: Reassignment) -> None:
        """Apply a placement delta *without* a data handoff.

        For deployments that have executed no traffic yet — baselines of
        the shape "what if the deployment had been born post-split?"
        (E13's fresh-N+1 comparator) and placement tests. Spawns shard
        slots up to the destination index when needed. Using this on a
        deployment with existing state silently strands the moved keys'
        registers on the old owner — live handoffs are what
        :meth:`split` / :meth:`merge` / :meth:`move` are for.
        """
        while reassignment.dst >= len(self.shards):
            self._spawn_shard()
        self._apply_epoch(reassignment, persist=True)

    def _check_resharding_endpoints(self, src: int, dst: Optional[int]) -> None:
        endpoints = [("source", src)] + ([("destination", dst)] if dst is not None else [])
        for role, index in endpoints:
            if not 0 <= index < len(self.shards):
                raise MigrationError(
                    f"{role} shard {index} does not exist "
                    f"(deployment has {len(self.shards)} shard slots)"
                )
            if index in self.retired:
                raise MigrationError(f"{role} shard {index} is retired")
            involved = any(
                migration.src == index or migration.dst == index
                for migration in self.active_migrations.values()
            )
            if involved:
                raise MigrationError(
                    f"{role} shard {index} already has a migration in "
                    "flight; one handoff per shard at a time"
                )
        if dst is not None and src == dst:
            raise MigrationError(f"source and destination are both shard {src}")

    def _migrate_to_new_shard(
        self, kind: str, src: int, payload: tuple, *, pid: int, transfer_delay: float
    ) -> Migration:
        """Run a ``kind`` handoff from ``src`` onto a freshly spawned shard.

        The Migration constructor performs every fail-fast validation; it
        runs *before* the destination slot is spawned, so a refused
        handoff leaks nothing (the destination index is simply the next
        slot, which nothing else can claim in between — migrations start
        synchronously).
        """
        migration = Migration(
            self,
            Reassignment(kind, src, len(self.shards), payload),
            pid=pid,
            transfer_delay=transfer_delay,
        )
        migration.spawned_dst = True
        self._spawn_shard()
        return self._start_migration(migration)

    def _spawn_shard(self) -> int:
        """Spawn a fresh cluster stack (at construction or mid-run); returns
        its shard index."""
        index = len(self.shards)
        self.shards.append(
            BayouCluster(
                self.datatype,
                self._shard_config(index),
                protocol=self.protocol,
                sim=self.sim,
                name=f"S{index}",
                telemetry=self.telemetry,
            )
        )
        return index

    def _start_migration(self, migration: Migration) -> Migration:
        self.active_migrations[migration.src] = migration
        self.migrations.append(migration)
        try:
            migration.start()
        except Exception:
            # A migration that never staged must leave no trace: an
            # incomplete entry in ``migrations`` would pin converged()
            # to False forever.
            self.active_migrations.pop(migration.src, None)
            self.migrations.remove(migration)
            raise
        return migration

    def _activate_epoch(self, migration: Migration) -> None:
        """Called by the migration once the handoff installed at ``dst``."""
        self._apply_epoch(migration.reassignment, persist=True)
        self.active_migrations.pop(migration.src, None)

    def _strand_migration(self, migration: Migration) -> None:
        """Called by a migration that just detected a dead endpoint.

        The epoch never activates: routing is unchanged and the source
        keeps its keys. The per-source migration slot is released (a
        later migration may retry the handoff with live endpoints), and
        a destination slot that was *spawned for* this migration retires
        — it owns nothing under any epoch, and an all-crashed shard would
        otherwise pin the deployment's convergence to False forever.
        """
        self.active_migrations.pop(migration.src, None)
        self.stranded.append(migration)
        if migration.spawned_dst:
            self.retired.add(migration.dst)

    def _apply_epoch(self, reassignment: Reassignment, *, persist: bool) -> None:
        self.shard_maps.advance(reassignment, n_shards=len(self.shards))
        if reassignment.kind == "merge":
            self.retired.add(reassignment.src)
        if persist and self._placement_store is not None:
            self._placement_store.log(EPOCH_LOG).append(reassignment)

    # ------------------------------------------------------------------
    # Epoch-chain durability
    # ------------------------------------------------------------------
    def _open_placement_store(self) -> Optional[DurableStore]:
        """The deployment-level store holding the epoch chain.

        Only the ``jsonl`` backend with an explicit root survives process
        restarts, so only that configuration gets a placement store; the
        per-replica stores already live under the same root.
        """
        if self.config.durability == "jsonl" and self.config.durability_dir:
            return open_store(
                "jsonl",
                directory=os.path.join(self.config.durability_dir, "placement"),
            )
        return None

    def _replay_epoch_chain(self) -> None:
        """Rebuild routing from a persisted chain (restart recovery).

        Structural replay only: spawned shards are re-created over their
        own durability directories (their replicas reload the migrated
        state — install requests included — from their write-ahead
        logs); no data moves again.
        """
        if self._placement_store is None:
            return
        for record in self._placement_store.log(EPOCH_LOG).records():
            reassignment: Reassignment = record
            while reassignment.dst >= len(self.shards):
                self._spawn_shard()
            self._apply_epoch(reassignment, persist=False)

    # ------------------------------------------------------------------
    # Running (mirrors BayouCluster, quantified over every shard)
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def run_until_quiescent(self) -> float:
        return self.sim.run_until_quiescent()

    #: One drive-until-stable loop: its two tests, :meth:`converged` and
    #: :meth:`_only_periodic_work_left`, quantify over every shard here.
    run_until_stable = BayouCluster.run_until_stable

    def _only_periodic_work_left(self) -> bool:
        return all(shard._only_periodic_work_left() for shard in self.shards)

    def shutdown(self) -> None:
        for shard in self.shards:
            shard.shutdown()

    def close(self) -> None:
        """Close every shard's replica stores and the placement store."""
        for shard in self.shards:
            shard.close()
        if self._placement_store is not None:
            self._placement_store.close()

    # ------------------------------------------------------------------
    # Convergence
    # ------------------------------------------------------------------
    def converged(self) -> bool:
        """Every *serving* shard's live replicas agree.

        Retired shards are excluded the way crashed replicas are inside a
        shard: they no longer serve the keyspace, so the deployment's
        convergence quantifies over the shards the active epoch routes to.
        """
        # Stranded migrations are terminal, not pending: they will never
        # complete, and treating them as in-flight would wedge converged()
        # forever (the silent-hang bug this state exists to fix).
        if any(
            not migration.complete and not migration.stranded
            for migration in self.migrations
        ):
            return False
        return all(
            self.shards[index].converged()
            for index in self.live_shard_indexes()
        )

    def convergence_report(self) -> Dict[str, Any]:
        """Aggregate + per-shard convergence diagnostics."""
        per_shard = [shard.convergence_report() for shard in self.shards]
        return {
            "converged": self.converged(),
            "n_shards": self.n_shards,
            "epoch": self.epoch,
            "retired": sorted(self.retired),
            "migrations": [
                migration.describe() for migration in self.migrations
            ],
            "stranded": [
                migration.describe() for migration in self.stranded
            ],
            "placement": self.shard_maps.describe(),
            "shards": per_shard,
        }
