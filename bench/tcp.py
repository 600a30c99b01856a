"""The ``tcp_closed`` workload: three real replica processes, one client.

Three ``python -m repro serve`` processes on localhost (sequencer + RB,
JSON-lines durability), driven by this process with **one thread and one
request in flight**, rotating over one connection per replica. Every fifth
operation is strong and waits for ``stable``; weak ones wait for their
tentative ``response``; 60/40 put/get over 256 keys. The sequencer engine
is used because ``serve`` cannot start the Paxos engine today (see
:func:`probe_paxos_start`).

Nothing polls inside the timed window: no ``status`` (it serialises the
whole committed list) and no ``await_convergence`` (50 ms poll) between
operations. Convergence is checked once, after the window.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.datatypes import KVStore
from repro.datatypes.base import PlainDb
from repro.runtime.launcher import RealtimeCluster
from repro.runtime.serve import ClusterSpec

import machine
from tracing import LayerTracer
from workloads import mean, percentile, ratio, tree_bytes

N_REPLICAS = 3
WARMUP_OPS = 50
#: The window is a fixed number of operations per second of ``--seconds``
#: (3000 for the ledger's 10 s; ~6 s of wall time today), not a fixed time:
#: the cost of an operation grows with the length of the history behind it
#: (288 ops/s at 4800 operations against 565 at the start), so a time
#: window would measure a different thing on a faster machine or build.
OPS_PER_BUDGET_SECOND = 300
#: The smoke size, and the cap of each half of the traced pass (whose
#: ``telemetry`` reply carries every span of the window in one frame).
QUICK_OPS = 300
TRACED_OPS = 1500
#: Operations between two calibration slices.
BLOCK_OPS = 400
CONVERGE_TIMEOUT_S = 30.0


def _next_op(rng: random.Random) -> Any:
    key = f"k{rng.randrange(256)}"
    if rng.random() < 0.6:
        return KVStore.put(key, rng.randrange(100))
    return KVStore.get(key)


def _proc_status_kb(pid: Any, field: str) -> float:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def _cpu_seconds(pid: Any) -> float:
    """utime + stime of a process, from ``/proc/<pid>/stat``."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Deployment:
    """One spawned cluster plus the client-side record of what it was sent."""

    def __init__(self, work_root: str, *, telemetry: bool) -> None:
        self.workdir = tempfile.mkdtemp(prefix="tcp-", dir=work_root)
        spec = ClusterSpec(
            n_replicas=N_REPLICAS,
            datatype="kvstore",
            tob_engine="sequencer",
            dissemination="rb",
            durability="jsonl",
            durability_dir=os.path.join(self.workdir, "wal"),
            telemetry=telemetry,
        )
        self.cluster = RealtimeCluster(spec)
        #: (dot, op, strong, value) of every acknowledged operation.
        self.acked: List[Tuple[Any, Any, bool, Any]] = []
        self.sent = 0

    def start(self, rng: random.Random) -> float:
        """Spawn, wait for every ping, warm up; returns the seconds taken."""
        started = perf_counter()
        self.cluster.start()
        for _ in range(WARMUP_OPS):
            self.invoke(_next_op(rng))
        return perf_counter() - started

    def invoke(self, op: Any) -> bool:
        """Send the next operation; returns whether it was a strong one.

        Every fifth operation is strong — a fixed pattern, not a draw, so
        the share of consensus round trips does not vary with the seed.
        """
        client = self.cluster.client(self.sent % N_REPLICAS)
        strong = self.sent % 5 == 4
        self.sent += 1
        reply = client.invoke(op, strong=strong, wait="stable" if strong else "response")
        self.acked.append((tuple(reply["dot"]), op, strong, reply["value"]))
        return strong

    def replica_pids(self) -> List[int]:
        return [proc.pid for proc in self.cluster.procs]

    def converge(self) -> Optional[List[Dict[str, Any]]]:
        """Wait until every replica agrees; None on timeout."""
        try:
            return self.cluster.await_convergence(
                expect_committed=len(self.acked), timeout=CONVERGE_TIMEOUT_S
            )
        except TimeoutError:
            return None

    def verify(self, statuses: Optional[List[Dict[str, Any]]]) -> List[str]:
        if statuses is None:
            return ["replicas did not converge after the window"]
        failures: List[str] = []
        committed = [tuple(dot) for dot in statuses[0]["committed"]]
        by_dot = {dot: (op, strong, value) for dot, op, strong, value in self.acked}
        if len(by_dot) != len(self.acked):
            failures.append("two operations were acknowledged under one dot")
        if len(set(committed)) != len(committed):
            failures.append("a dot was committed twice")
        if set(committed) != set(by_dot):
            failures.append(
                f"{len(by_dot)} dots acknowledged, {len(set(committed))} committed"
            )
            return failures
        datatype = KVStore()
        db = PlainDb()
        wrong = 0
        for dot in committed:
            op, strong, value = by_dot[dot]
            expected = datatype.execute(op, db)
            if strong and expected != value:
                wrong += 1
        if wrong:
            failures.append(f"{wrong} strong responses differ from the sequential replay")
        if db.data != statuses[0]["state"]:
            failures.append("state differs from a sequential replay")
        return failures

    def telemetry(self) -> Dict[str, float]:
        """Transport counters and span volume over the ``telemetry`` verb."""
        totals = {"frames": 0.0, "redials": 0.0, "spans": 0.0}
        for pid in range(N_REPLICAS):
            reply = self.cluster.client(pid).call("telemetry")
            if not reply.get("enabled"):
                continue
            totals["spans"] += len(reply["spans"])
            for name, value in reply["metrics"]["counters"].items():
                if name.startswith("repro_net_frames_sent"):
                    totals["frames"] += value
                elif name.startswith("repro_net_redials"):
                    totals["redials"] += value
        return totals

    def close(self) -> None:
        self.cluster.shutdown()
        shutil.rmtree(self.workdir, ignore_errors=True)


def run_window(
    deployment: Deployment,
    rng: random.Random,
    n_ops: int,
    meter: machine.Speedometer,
    tracer: Optional[LayerTracer] = None,
) -> Dict[str, Any]:
    """The timed closed loop of ``n_ops`` operations, then one convergence
    check and the verdict.

    The loop runs in blocks of ``BLOCK_OPS`` operations with a calibration
    slice between blocks (outside the timed seconds; the replicas are idle
    meanwhile). Seconds and latencies are as clocked; the caller normalises
    them with ``meter``'s factor.
    """
    pids = deployment.replica_pids()
    weak: List[float] = []
    strong_ms: List[float] = []
    if tracer is not None:
        tracer.reset()
    cpu_before = [_cpu_seconds(pid) for pid in pids]
    client_cpu = 0.0
    window = 0.0
    done = 0
    while done < n_ops:
        meter.sample()
        block_started = perf_counter()
        block_cpu = time.process_time()
        for _ in range(min(BLOCK_OPS, n_ops - done)):
            op = _next_op(rng)
            sent = perf_counter()
            strong = deployment.invoke(op)
            (strong_ms if strong else weak).append((perf_counter() - sent) * 1000.0)
            done += 1
        window += perf_counter() - block_started
        client_cpu += time.process_time() - block_cpu
    meter.sample()
    cpu_after = [_cpu_seconds(pid) for pid in pids]
    rss_mb = _rss_mb(pids)
    self_s = dict(tracer.self_s) if tracer is not None else {}
    statuses = deployment.converge()
    cpu = [after - before for before, after in zip(cpu_before, cpu_after)]
    return {
        "wall_s": window,
        "attempted": done,
        "ops": done,
        "failed": 0,
        "ops_per_s": ratio(done, window),
        "weak_n": len(weak),
        "strong_n": len(strong_ms),
        "weak_respond_mean_ms": mean(weak),
        "weak_respond_p50_ms": percentile(weak, 0.50),
        "weak_respond_p99_ms": percentile(weak, 0.99),
        "strong_respond_mean_ms": mean(strong_ms),
        "strong_respond_p50_ms": percentile(strong_ms, 0.50),
        "strong_respond_p95_ms": percentile(strong_ms, 0.95),
        "peak_rss_mb": rss_mb,
        "replica_cpu_ms_per_op": ratio(max(cpu) * 1000.0, done),
        "client_cpu_ms_per_op": ratio(client_cpu * 1000.0, done),
        "wal_bytes_per_op": ratio(tree_bytes(deployment.workdir), done + WARMUP_OPS),
        "self_s": self_s,
        "failures": deployment.verify(statuses),
    }


def _rss_mb(replica_pids: List[int]) -> float:
    """Resident memory now: this client plus every replica process."""
    kb = _proc_status_kb("self", "VmRSS")
    kb += sum(_proc_status_kb(pid, "VmRSS") for pid in replica_pids)
    return kb / 1024.0


def probe_paxos_start() -> str:
    """Can ``python -m repro serve`` start the Paxos engine? (non-fatal)"""
    cluster = RealtimeCluster(
        ClusterSpec(n_replicas=N_REPLICAS, tob_engine="paxos"), startup_timeout=5.0
    )
    try:
        cluster.start()
        reply = cluster.invoke(0, KVStore.put("probe", 1), strong=True, wait="stable")
        return "ok" if reply.get("stable") else "failed: strong op did not stabilise"
    except (RuntimeError, TimeoutError, OSError) as error:
        first_line = str(error).strip().splitlines()
        return "failed: " + (first_line[-1] if first_line else type(error).__name__)
    finally:
        cluster.shutdown()
