"""The four simulated workloads: generators, the drive loop, the checks.

Conventions (all simulated workloads): one-way message delay uniform in
[1.0, 1.3] drawn from the run seed — **one simulated time unit is read as
one millisecond**, so simulated latencies share the ``ms`` unit with the
TCP workload's wall-clock ones (they are never compared across workloads).
``exec_delay=0.05``, perceived traces, the trace log and telemetry off,
otherwise default :class:`~repro.core.config.BayouConfig`. The jitter is
what makes *timing* (not just keys and values) a function of the seed: with
a fixed delay every seed produces the same latencies to the last digit.
0.3 is where per-op counts are steadiest across seeds (rollbacks per op:
±2.4 %, against ±7 % at 0.1 and ±24 % at 0.02, which is near lock-step).

The program under test receives only the generated operations; the seed
never reaches it other than through them and the latency stream.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import random
import shutil
import statistics
import tempfile
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.datatypes import BankAccounts, KVStore
from repro.scenario import Scenario

import machine
from tracing import LayerTracer

COMMON = dict(
    message_delay=1.0,
    latency_jitter=0.3,
    exec_delay=0.05,
    record_perceived_traces=False,
    enable_trace=False,
)
PAXOS = dict(
    tob_engine="paxos",
    heartbeat_interval=10.0,
    failure_timeout=35.0,
    paxos_retry_interval=20.0,
)

#: Sizes. ``full`` is what the ledger records: each instance is ~2 s of
#: wall time today, so a 15 s run holds six or seven and reports their
#: median, and stays well above timer resolution once the replica's
#: quadratic path is fixed. ``quick`` is 1/20 of that for smoke runs.
#: ``contract`` is small enough (< 50 events) for the formal FEC/SEQ
#: checkers, whose cost grows with the cube of the history length.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "heal_storm": {
        "full": dict(sessions=9, ops=300, split=20.0, heal=140.0, probe_from=10.0, probe_every=5.0, probe_until=240.0),
        "quick": dict(sessions=9, ops=15, split=2.0, heal=8.0, probe_from=1.0, probe_every=2.5, probe_until=12.0),
        "contract": dict(sessions=3, ops=8, split=1.0, heal=6.0, probe_from=1.0, probe_every=2.5, probe_until=8.0),
    },
    "paxos_steady": {
        "full": dict(sessions=6, ops=400),
        "quick": dict(sessions=6, ops=20),
        "contract": dict(sessions=6, ops=7),
    },
    "shard_mixed": {
        "full": dict(shards=8, sessions=16, ops=300),
        "quick": dict(shards=8, sessions=16, ops=15),
        "contract": dict(shards=2, sessions=6, ops=7),
    },
    "paxos_failover": {
        "full": dict(ops=2000),
        "quick": dict(ops=100),
        "contract": dict(ops=40),
    },
}

#: Simulated time the drive loop advances between completion checks.
DRIVE_CHUNK = 25.0


@dataclass
class Plan:
    """One generated instance: the scenario plus what the harness expects."""

    scenario: Scenario
    #: A fresh instance of the data type, for the sequential replay check.
    datatype: Any
    #: Operations the generator schedules (cross-shard parents count once).
    attempted: int
    #: Simulated time after which unfinished operations count as failed.
    deadline: float
    #: Heal / recovery instant, for ``reconverge`` and ``net.held``.
    repair_at: Optional[float] = None
    #: Leader-crash instant, for ``outage``.
    crash_at: Optional[float] = None
    #: Whether operations are also fired on a schedule (several clients per
    #: replica, so the history's per-replica "sessions" are not sessions).
    open_loop: bool = False


# Generators. The seed picks keys, values and amounts — what the program
# computes — while *which* operation is strong and (for the bank) which
# kind comes when follow a fixed pattern. A strong operation occupies its
# session for a consensus round, so drawing levels at random would make the
# amount of work itself a random variable of the seed (±4 % at these
# sizes), and every metric would inherit that spread.
def _kv_op(rng: random.Random, keys: int) -> Any:
    """The ``kv`` profile's mix: 3 put, 2 put_if_absent, 3 get, 1 remove."""
    key = f"k{_zipf_index(rng, keys)}"
    pick = rng.randrange(9)
    if pick < 3:
        return KVStore.put(key, rng.randrange(100))
    if pick < 5:
        return KVStore.put_if_absent(key, rng.randrange(100))
    if pick < 8:
        return KVStore.get(key)
    return KVStore.remove(key)


def _zipf_index(rng: random.Random, count: int, s: float = 1.1) -> int:
    """A Zipf(s)-ranked index in ``range(count)`` by inverse transform."""
    cumulative = _zipf_cumulative(count, s)
    return min(bisect_left(cumulative, rng.random() * cumulative[-1]), count - 1)


@lru_cache(maxsize=None)
def _zipf_cumulative(count: int, s: float) -> Tuple[float, ...]:
    total = 0.0
    cumulative = []
    for rank in range(1, count + 1):
        total += 1.0 / rank**s
        cumulative.append(total)
    return tuple(cumulative)


#: The ``bank`` profile's 3:2:1:2 mix as a fixed cycle.
_BANK_CYCLE = ("deposit", "withdraw", "balance", "deposit", "transfer", "withdraw", "deposit", "balance")


def _bank_op(rng: random.Random, kind: str, accounts: int) -> Any:
    account = f"a{rng.randrange(accounts)}"
    if kind == "deposit":
        return BankAccounts.deposit(account, rng.randint(1, 50))
    if kind == "withdraw":
        return BankAccounts.withdraw(account, rng.randint(1, 60))
    if kind == "balance":
        return BankAccounts.balance(account)
    return BankAccounts.transfer(account, f"a{rng.randrange(accounts)}", rng.randint(1, 30))


def _every(period: int, index: int, session: int, sessions: int) -> bool:
    """True on every ``period``-th operation, staggered across sessions."""
    return (index + session * period // sessions) % period == 0


def heal_storm(seed: int, size: Dict[str, Any], workdir: str) -> Plan:
    """Weak sessions on both sides of a partition, strong probes on a schedule."""
    rng = random.Random(seed)
    scenario = (
        Scenario(KVStore(), name="heal_storm")
        .replicas(3)
        .config(**COMMON)
        .seed(seed)
        .partition(size["split"], [[0, 1], [2]])
        .heal(size["heal"])
    )
    for session in range(size["sessions"]):
        client = scenario.client(session % 3, think_time=0.5)
        for _ in range(size["ops"]):
            client.weak(_kv_op(rng, 256))
    probes = 0
    at = size["probe_from"]
    while at < size["probe_until"]:
        for pid in range(3):
            # Probe keys are disjoint from the sessions' keys, so a probe
            # succeeds exactly when its key is fresh: the result depends on
            # the committed order among probes only.
            op = KVStore.put_if_absent(f"p{rng.randrange(64)}", rng.randrange(100))
            scenario.invoke(at, pid, op, strong=True)
            probes += 1
        at += size["probe_every"]
    return Plan(
        scenario,
        KVStore(),
        attempted=size["sessions"] * size["ops"] + probes,
        deadline=20.0 * size["probe_until"] + 500.0,
        repair_at=size["heal"],
        open_loop=True,
    )


def paxos_steady(seed: int, size: Dict[str, Any], workdir: str) -> Plan:
    """Light, spread, fault-free load on Ω + batched Paxos + RB."""
    rng = random.Random(seed)
    scenario = (
        Scenario(KVStore(), name="paxos_steady").replicas(3).config(**COMMON, **PAXOS).seed(seed)
    )
    sessions = size["sessions"]
    for session in range(sessions):
        client = scenario.client(session % 3, think_time=2.0)
        for index in range(size["ops"]):
            client.op(_kv_op(rng, 256), strong=_every(10, index, session, sessions))
    return Plan(
        scenario,
        KVStore(),
        attempted=sessions * size["ops"],
        deadline=40.0 * size["ops"] + 500.0,
    )


def shard_mixed(seed: int, size: Dict[str, Any], workdir: str) -> Plan:
    """Bank traffic over 8 Paxos shards; transfers mostly cross shards."""
    rng = random.Random(seed)
    scenario = (
        Scenario(BankAccounts(), name="shard_mixed")
        .shards(size["shards"])
        .replicas(3)
        .config(**COMMON, **PAXOS)
        .seed(seed)
    )
    sessions = size["sessions"]
    for session in range(sessions):
        client = scenario.client(session % 3, think_time=2.0)
        for index in range(size["ops"]):
            kind = _BANK_CYCLE[(index + session) % len(_BANK_CYCLE)]
            # Transfers are always strong: they may span shards.
            strong = kind == "transfer" or _every(10, index, session, sessions)
            client.op(_bank_op(rng, kind, 256), strong=strong)
    return Plan(
        scenario,
        BankAccounts(),
        attempted=sessions * size["ops"],
        deadline=60.0 * size["ops"] + 500.0,
    )


def paxos_failover(seed: int, size: Dict[str, Any], workdir: str) -> Plan:
    """Open-loop schedule through a leader crash and a durable recovery."""
    rng = random.Random(seed)
    n_ops = size["ops"]
    spacing = 0.5
    crash_at = 1.0 + 0.3 * n_ops * spacing
    recover_at = 1.0 + 0.6 * n_ops * spacing
    scenario = (
        Scenario(KVStore(), name="paxos_failover")
        .replicas(3)
        .config(**COMMON, **PAXOS)
        .seed(seed)
        .durability("jsonl", directory=os.path.join(workdir, "wal"))
        .crash(0, crash_at, recover_at=recover_at)
    )
    for index in range(n_ops):
        key = f"k{rng.randrange(64)}"
        if rng.random() < 0.6:
            op = KVStore.put(key, rng.randrange(100))
        else:
            op = KVStore.get(key)
        scenario.invoke(1.0 + index * spacing, 1 + index % 2, op, strong=index % 5 == 0)
    return Plan(
        scenario,
        KVStore(),
        attempted=n_ops,
        deadline=10.0 * n_ops * spacing + 1000.0,
        repair_at=recover_at,
        crash_at=crash_at,
        open_loop=True,
    )


GENERATORS: Dict[str, Callable[[int, Dict[str, Any], str], Plan]] = {
    "heal_storm": heal_storm,
    "paxos_steady": paxos_steady,
    "shard_mixed": shard_mixed,
    "paxos_failover": paxos_failover,
}


# ----------------------------------------------------------------------
# Small statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Looking at a live run from outside
# ----------------------------------------------------------------------
def clusters_of(live: Any) -> List[Any]:
    """Every :class:`BayouCluster` of a (sharded or plain) live run."""
    deployment = getattr(live, "deployment", None)
    return list(deployment.shards) if deployment is not None else [live.cluster]


def futures_of(live: Any) -> List[Any]:
    """Every client-visible future: scripted ops plus session ops."""
    futures = list(live.futures.values())
    for session in live.sessions:
        futures.extend(session.futures)
    return futures


def live_replicas(cluster: Any) -> List[Any]:
    return [replica for replica in cluster.replicas if not replica.node.crashed]


class RepairWatch:
    """Measures what happens from the repair instant on.

    At the heal / recovery instant T it records how many messages the
    network still owes (sent, not yet delivered or lost to a crashed
    receiver) and every dot any live replica knows; it then listens to
    every live replica's commits (chaining the public ``commit_listener``
    hook) until each has committed all of those dots.
    """

    def __init__(self, at: float) -> None:
        self.at = at
        self.undelivered = 0
        self.reconverged_at: Optional[float] = None

    def start(self, live: Any) -> None:
        cluster = live.cluster
        network = cluster.network
        self.undelivered = (
            network.sent_count - network.delivered_count - network.suppressed_count
        )
        replicas = live_replicas(cluster)
        known = set()
        for replica in replicas:
            known.update(req.dot for req in replica.committed)
            known.update(req.dot for req in replica.tentative)
        self._outstanding = 0
        for replica in replicas:
            missing = known - {req.dot for req in replica.committed}
            if missing:
                self._outstanding += 1
                self._listen(replica, missing, cluster.sim)
        if not self._outstanding:
            self.reconverged_at = cluster.sim.now

    def _listen(self, replica: Any, missing: set, sim: Any) -> None:
        downstream = replica.commit_listener

        def on_commit(req: Any) -> None:
            if downstream is not None:
                downstream(req)
            missing.discard(req.dot)
            if not missing and replica.commit_listener is on_commit:
                replica.commit_listener = downstream
                self._outstanding -= 1
                if not self._outstanding:
                    self.reconverged_at = sim.now

        replica.commit_listener = on_commit


def drive(live: Any, plan: Plan) -> bool:
    """Run until every expected future is stable and replicas converged.

    ``LiveRun.settle()`` is not used: on Paxos runs its "only periodic work
    left" test fires while closed-loop sessions are merely thinking.
    """
    while live.now < plan.deadline:
        live.run(until=live.now + DRIVE_CHUNK)
        futures = futures_of(live)
        if (
            len(futures) >= plan.attempted
            and all(future.stable for future in futures)
            and live.converged()
        ):
            return True
    return False


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def verify(live: Any, plan: Plan) -> List[str]:
    """The run's correctness checks; returns the failures (empty = pass)."""
    failures: List[str] = []
    for index, cluster in enumerate(clusters_of(live)):
        tag = f"cluster {index}"
        replicas = live_replicas(cluster)
        orders = [[req.dot for req in replica.committed] for replica in replicas]
        snapshots = [replica.state.snapshot() for replica in replicas]
        if any(order != orders[0] for order in orders[1:]):
            failures.append(f"{tag}: live replicas disagree on the committed order")
        if any(snapshot != snapshots[0] for snapshot in snapshots[1:]):
            failures.append(f"{tag}: live replicas disagree on the state")
        if any(replica.backlog or replica.tentative for replica in replicas):
            failures.append(f"{tag}: backlog or tentative requests left")
        if len(set(orders[0])) != len(orders[0]):
            failures.append(f"{tag}: a dot was committed twice")
        # build_history also cross-checks every replica's TOB delivery
        # sequence (raises DivergedOrderError on a total-order violation).
        submitted = {event.eid for event in cluster.build_history(well_formed=False).events}
        if submitted != set(orders[0]):
            failures.append(
                f"{tag}: {len(submitted)} dots submitted, {len(set(orders[0]))} committed"
            )
        replayed = plan.datatype.replay(req.op for req in replicas[0].committed).data
        if replayed != snapshots[0]:
            failures.append(f"{tag}: state differs from a sequential replay")
    router = getattr(live, "router", None)
    if router is not None:
        coordinator = router.coordinator
        decided = coordinator.committed_count + coordinator.aborted_count
        if coordinator.staged_count != decided or coordinator.lost_count:
            failures.append(
                f"cross-shard plans: staged {coordinator.staged_count}, decided "
                f"{decided}, lost {coordinator.lost_count}"
            )
    return failures


def digest_of(live: Any) -> str:
    """sha256 over every cluster's committed dot sequence and snapshot."""
    hasher = hashlib.sha256()
    for cluster in clusters_of(live):
        replica = live_replicas(cluster)[0]
        hasher.update(repr([req.dot for req in replica.committed]).encode())
        hasher.update(repr(sorted(replica.state.snapshot().items())).encode())
    return hasher.hexdigest()


def contract_check(name: str, seed: int, work_root: str) -> Dict[str, Any]:
    """The paper's contract on a contract-size instance of the generator.

    Weak operations must satisfy FEC and strong ones sequential
    consistency, with two predicates *reported* rather than gated:

    - NCC (no circular causality): the workloads run the *original*
      protocol, for which circular causality is the anomaly the paper
      itself exhibits (Figure 2); only the modified protocol is free of it.
    - SessArb on open-loop generators: the history identifies a session
      with a replica id, but an open-loop schedule is many independent
      clients per replica, between which no session order exists.

    Returns ``{"failures": [...], "reported": {predicate: held}}``.
    """
    workdir = tempfile.mkdtemp(prefix=f"{name}-contract-", dir=work_root)
    try:
        plan = GENERATORS[name](seed, SIZES[name]["contract"], workdir)
        scenario = plan.scenario.config(record_perceived_traces=True)
        scenario.checks(fec="weak", seq="strong")
        live = scenario.build()
        if not drive(live, plan):
            return {"failures": [f"contract instance of {name} did not finish"], "reported": {}}
        result = live.finish(well_formed=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reported = {"NCC": True}
    if plan.open_loop:
        reported["SessArb(strong)"] = True
    failures: List[str] = []
    for reports in result.checks.values():
        for report in reports if isinstance(reports, list) else [reports]:
            for check in report.results:
                if check.ok:
                    continue
                if check.name in reported:
                    reported[check.name] = False
                else:
                    failures.append(f"contract: {check.name} violated on {name}")
    return {"failures": failures, "reported": reported}


# ----------------------------------------------------------------------
# One instance
# ----------------------------------------------------------------------
def time_setups(name: str, seed: int, size: str, work_root: str, repeats: int) -> List[float]:
    """Normalised seconds to generate the operations and build the
    deployment (``Scenario.build()``, which pre-queues every session's
    operations), ``repeats`` times over."""
    meter = machine.Speedometer()
    seconds: List[float] = []
    meter.sample()
    for _ in range(repeats):
        gc.collect()
        workdir = tempfile.mkdtemp(prefix=f"{name}-setup-", dir=work_root)
        try:
            started = perf_counter()
            GENERATORS[name](seed, SIZES[name][size], workdir).scenario.build()
            seconds.append(perf_counter() - started)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    meter.sample()
    return [value * meter.factor() for value in seconds]


def run_instance(
    name: str,
    seed: int,
    size: str,
    work_root: str,
    meter: machine.Speedometer,
    *,
    tracer: Optional[LayerTracer] = None,
    telemetry: bool = False,
) -> Dict[str, Any]:
    """Build, drive, verify and measure one instance of a simulated workload.

    Returns a flat dict: ``wall_s``/``setup_s``/``ops``/``failed``, the
    simulated-time end-to-end numbers, the exact per-op counts, ``digest``
    and ``failures``; with a ``tracer`` also each layer's self time. Seconds
    are as clocked; the caller normalises them with ``meter``'s factor, for
    which a calibration slice is taken before and after the instance.
    """
    gc.collect()
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=work_root)
    try:
        meter.sample()
        if tracer is not None:
            tracer.reset()
        started = perf_counter()
        plan = GENERATORS[name](seed, SIZES[name][size], workdir)
        if telemetry:
            plan.scenario.telemetry(True)
        watch = RepairWatch(plan.repair_at) if plan.repair_at is not None else None
        if watch is not None:
            plan.scenario.at(watch.at, watch.start)
        live = plan.scenario.build()
        built = perf_counter()
        finished = drive(live, plan)
        wall = perf_counter() - built
        meter.sample()
        self_s = dict(tracer.self_s) if tracer is not None else {}
        counts = dict(tracer.counts) if tracer is not None else {}
        order_waits = list(tracer.order_waits) if tracer is not None else []

        futures = futures_of(live)
        stable = [future for future in futures if future.stable]
        ops = len(stable)
        weak = [f.latency for f in stable if not f.strong]
        strong = [f.latency for f in stable if f.strong]
        staleness = [f.staleness for f in stable if not f.strong]
        clusters = clusters_of(live)
        replicas = [replica for cluster in clusters for replica in cluster.replicas]
        sim = clusters[0].sim
        sends = sum(cluster.network.sent_count for cluster in clusters)
        dropped = sum(cluster.network.dropped_count for cluster in clusters)
        result: Dict[str, Any] = {
            "setup_s": built - started,
            "wall_s": wall,
            "attempted": plan.attempted,
            "ops": ops,
            "failed": plan.attempted - ops,
            "ops_per_s": ratio(ops, wall),
            "sim_time": live.now,
            "weak_n": len(weak),
            "strong_n": len(strong),
            "weak_respond_mean_ms": mean(weak),
            "weak_respond_p50_ms": percentile(weak, 0.50),
            "weak_respond_p99_ms": percentile(weak, 0.99),
            "strong_respond_mean_ms": mean(strong),
            "strong_respond_p50_ms": percentile(strong, 0.50),
            "strong_respond_p95_ms": percentile(strong, 0.95),
            "weak_staleness_p50_ms": percentile(staleness, 0.50),
            "outage_ms": 0.0,
            "reconverge_ms": 0.0,
            "held_per_op": 0.0,
            "events_per_op": ratio(sim.executed_events, ops),
            "sends_per_op": ratio(sends, ops),
            "dropped_frac": ratio(dropped, sends + dropped),
            "rollbacks_per_op": ratio(sum(r.rollback_count for r in replicas), ops),
            "execs_per_op": ratio(sum(r.execution_count for r in replicas), ops * len(replicas)),
            "checkpoint_restores": sum(r.state.checkpoint_restores for r in replicas),
            "undo_unwinds": sum(r.state.undo_unwinds for r in replicas),
            "wal_bytes_per_op": ratio(tree_bytes(workdir), ops),
            "digest": digest_of(live) if finished else "",
            "failures": [] if finished else [f"{plan.attempted - ops} ops not stable at the deadline"],
            "self_s": self_s,
            "counts": counts,
            "order_wait_p50_ms": percentile(order_waits, 0.50),
        }
        if plan.crash_at is not None:
            after = [
                f.stable_time for f in stable if f.strong and f.invoke_time >= plan.crash_at
            ]
            result["outage_ms"] = min(after) - plan.crash_at if after else 0.0
        if watch is not None:
            result["held_per_op"] = ratio(watch.undelivered, ops)
            if watch.reconverged_at is not None:
                result["reconverge_ms"] = watch.reconverged_at - watch.at
            else:
                result["failures"].append("replicas never reconverged after the repair")
        router = getattr(live, "router", None)
        if router is not None:
            coordinator = router.coordinator
            subs = sum(
                len(f.prepare_futures) + len(f.commit_futures)
                for f in stable
                if hasattr(f, "prepare_futures")
            )
            result["deferred_frac"] = ratio(router.deferred_count, ops)
            result["subs_per_plan"] = ratio(subs, coordinator.staged_count)
            result["aborted_frac"] = ratio(coordinator.aborted_count, coordinator.staged_count)
            result["lost"] = coordinator.lost_count
        plane = clusters[0].telemetry
        result["spans_per_op"] = ratio(len(plane.tracer), ops) if plane is not None else 0.0
        if finished:
            result["failures"].extend(verify(live, plan))
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def tree_bytes(root: str) -> int:
    total = 0
    for directory, _, files in os.walk(root):
        for filename in files:
            total += os.path.getsize(os.path.join(directory, filename))
    return total
