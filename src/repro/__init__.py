"""repro — a full reproduction of "On mixing eventual and strong consistency:
Bayou revisited" (Kokociński, Kobus, Wojciechowski; PODC 2019).

Public API tour
---------------
Scenarios — declare an experiment, run it, assert on the result::

    from repro import Scenario, RList

    result = (
        Scenario(RList())
        .replicas(3)
        .protocol("modified")
        .invoke(1.0, 0, RList.append("a"), label="a")
        .invoke(2.0, 1, RList.duplicate(), strong=True, label="dup")
        .probes(RList.read)
        .checks(fec="weak", seq="strong")
        .run()
    )
    result.responses["dup"]          # the strong op's (final) answer
    result.check("fec:weak").ok      # Theorem 2, checked on this run
    result.converged                 # all replicas agree

Sessions — typed, futures-based clients over a live cluster::

    from repro import BayouCluster, BayouConfig, Counter

    cluster = BayouCluster(Counter(), BayouConfig(n_replicas=3))
    session = cluster.connect(0)
    future = session.increment(10)          # weak: OpFuture, queued
    confirm = session.strong.read()         # strong: final once responded
    cluster.run_until_quiescent()
    future.value, future.latency, future.stable

Each :class:`~repro.core.session.OpFuture` moves pending → responded →
stable; callbacks (``add_done_callback`` / ``add_stable_callback``) hook
both transitions. Data types declare their operations via descriptors, so
``session.increment`` and ``Counter.increment`` come from one registry.

Observability — arm a run and read back its causal traces and metrics::

    result = Scenario(Counter()).replicas(3).telemetry(True).run()
    result.telemetry.trees()          # span tree per op (trace id = dot)
    result.telemetry.registry.counter_total("repro_ops_submitted")
    result.telemetry.write_jsonl("telemetry.jsonl")   # python -m repro obs

Formal framework::

    from repro import build_abstract_execution, check_bec, check_fec, check_seq

    history = cluster.build_history()
    execution = build_abstract_execution(history)
    check_fec(execution, "weak")     # Theorem 2, checked on a real run
    check_bec(execution, "weak")     # fails when reordering occurred

Impossibility (Theorem 1)::

    from repro.framework.impossibility import prove_impossibility
    assert not prove_impossibility().satisfiable
"""

from repro.core.cluster import BayouCluster, MODIFIED, ORIGINAL
from repro.core.config import BayouConfig
from repro.core.durability import DurableStore, InMemoryStore, JsonLinesStore
from repro.core.modified_replica import ModifiedBayouReplica
from repro.core.replica import BayouReplica
from repro.core.request import Dot, Req
from repro.core.session import OpFuture, Session
from repro.core.state_object import StateObject
from repro.datatypes import (
    BankAccounts,
    Counter,
    DataType,
    KVStore,
    MeetingScheduler,
    Operation,
    Register,
    RList,
    SetType,
)
from repro.errors import (
    CrossShardError,
    DivergedOrderError,
    MigrationError,
    MigrationInProgress,
    PendingResponseError,
    ReplicaUnavailableError,
    ReproError,
    SessionProtocolError,
    UnknownOperationError,
)
from repro.net.faults import CrashSchedule
from repro.obs import Telemetry
from repro.framework.builder import build_abstract_execution
from repro.framework.guarantees import check_bec, check_fec, check_seq
from repro.framework.history import History, HistoryEvent, PENDING, STRONG, WEAK
from repro.scenario import LiveRun, RunResult, Scenario
from repro.shard import (
    HashPartitioner,
    Migration,
    RangePartitioner,
    Reassignment,
    ShardMap,
    ShardRouter,
    ShardedCluster,
    VersionedShardMap,
)

__version__ = "2.0.0"

__all__ = [
    "BankAccounts",
    "BayouCluster",
    "BayouConfig",
    "BayouReplica",
    "Counter",
    "CrashSchedule",
    "CrossShardError",
    "DataType",
    "DivergedOrderError",
    "Dot",
    "DurableStore",
    "HashPartitioner",
    "History",
    "HistoryEvent",
    "InMemoryStore",
    "JsonLinesStore",
    "KVStore",
    "LiveRun",
    "MODIFIED",
    "MeetingScheduler",
    "Migration",
    "MigrationError",
    "MigrationInProgress",
    "ModifiedBayouReplica",
    "ORIGINAL",
    "OpFuture",
    "Operation",
    "PENDING",
    "PendingResponseError",
    "RangePartitioner",
    "Reassignment",
    "Register",
    "ReplicaUnavailableError",
    "Req",
    "ReproError",
    "RList",
    "RunResult",
    "STRONG",
    "Scenario",
    "Session",
    "SessionProtocolError",
    "SetType",
    "ShardMap",
    "ShardRouter",
    "ShardedCluster",
    "StateObject",
    "Telemetry",
    "UnknownOperationError",
    "VersionedShardMap",
    "WEAK",
    "__version__",
    "build_abstract_execution",
    "check_bec",
    "check_fec",
    "check_seq",
]
