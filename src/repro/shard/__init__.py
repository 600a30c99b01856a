"""Sharded deployments: keyspace partitioning over many Bayou clusters.

The shard layer runs N independent Bayou consensus groups (one
:class:`~repro.core.cluster.BayouCluster` each) on one shared simulator
and gives clients a single keyspace-wide surface:

- :class:`ShardMap` / :class:`HashPartitioner` / :class:`RangePartitioner`
  — deterministic key → shard placement;
- :class:`ShardedCluster` — the deployment (shard-scoped partitions,
  crashes and convergence);
- :class:`ShardRouter` / :class:`ShardedSession` — shard-routed
  submission and closed-loop sessions;
- :class:`CrossShardCoordinator` / :class:`CrossShardFuture` — strong
  multi-key operations staged as prepare/commit pairs through each owner
  shard's TOB;
- :class:`Reassignment` / :class:`EpochShardMap` / :class:`VersionedShardMap`
  — epoch-versioned placement (immutable per-epoch snapshots chained
  from the base map);
- :class:`Migration` — the live resharding protocol behind
  ``ShardedCluster.split/merge/move/isolate`` (epoch barrier through the
  source TOB, committed-prefix snapshot + tentative-suffix handoff,
  activation);
- :class:`PlacementController` / :class:`ShardStats` /
  :class:`PlacementPolicy` — autonomous load-aware placement control:
  the router exports per-shard load and hot keys into a metrics plane,
  and a sim-scheduled control loop drives move/isolate migrations when
  the load ratio crosses a threshold (:mod:`repro.shard.control`).

Fluent entry points: ``Scenario(...).shards(n, partitioner=...)``,
``Scenario(...).resharding(at, split=...)`` and
``Scenario(...).autoscale(policy=...)``.
"""

from repro.shard.control import (
    HotKeyIsolation,
    PlacementController,
    PlacementPolicy,
    PowerOfTwoChoices,
    ShardStats,
    SpaceSavingSketch,
)
from repro.shard.coordinator import CrossShardCoordinator, CrossShardFuture
from repro.shard.deployment import ShardedCluster
from repro.shard.migration import Migration
from repro.shard.partitioner import (
    EpochShardMap,
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    Reassignment,
    ShardMap,
    VersionedShardMap,
)
from repro.shard.router import ShardedSession, ShardRouter

__all__ = [
    "CrossShardCoordinator",
    "CrossShardFuture",
    "EpochShardMap",
    "HashPartitioner",
    "HotKeyIsolation",
    "Migration",
    "Partitioner",
    "PlacementController",
    "PlacementPolicy",
    "PowerOfTwoChoices",
    "RangePartitioner",
    "Reassignment",
    "ShardMap",
    "ShardRouter",
    "ShardStats",
    "ShardedCluster",
    "ShardedSession",
    "SpaceSavingSketch",
    "VersionedShardMap",
]
