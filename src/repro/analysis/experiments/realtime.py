"""Experiment E15 — the same protocol on real sockets, cross-checked.

The runtime seam (:mod:`repro.runtime`) claims that the protocol stack is
backend-agnostic: the code that runs deterministically on the simulation
kernel is byte-for-byte the code a real deployment runs over asyncio TCP.
This experiment puts the claim on the line.

**Cross-check leg.** A scripted key-value workload is driven *closed-loop*
(each operation waits until it is committed at its origin replica before
the next is submitted) against two deployments of the identical stack:

- a 3-replica **realtime** cluster — three operating-system processes
  speaking length-prefixed frames over localhost TCP
  (:class:`~repro.runtime.launcher.RealtimeCluster`), and
- a 3-replica **simulated** cluster with the same configuration
  (:class:`~repro.core.cluster.BayouCluster`).

Closed-loop driving pins the committed order to the submission order on
*both* substrates — the sequencer numbers operation *k* before operation
*k+1* is even cast — so the runs must agree exactly: same committed dot
sequence on every replica, same final state snapshot. Any divergence means
a backend leaked into protocol behaviour.

**Throughput leg.** A burst of commutative counter increments is fired
open-loop (no waiting) round-robin across the realtime cluster, then the
experiment waits for full convergence and reports real wall-clock
operations per second — the number the simulator, whose clock is virtual,
cannot produce. Commutativity makes the final state order-independent, so
the leg still ends with a hard correctness check (every replica's counter
equals the burst size) without constraining the race.

Run ``python -m repro realtime`` (``--smoke`` for the quick variant,
``--json FILE`` to write the artifact; the exit status is 1 on divergence).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from repro.analysis.metrics import rate
from repro.analysis.report import format_table
from repro.core.cluster import BayouCluster
from repro.core.config import BayouConfig
from repro.datatypes import Counter, KVStore
from repro.runtime.launcher import RealtimeCluster
from repro.runtime.serve import ClusterSpec

#: Closed-loop scripted workload: (op constructor name, args) round-robin.
def _scripted_ops(n_ops: int) -> List[Any]:
    ops: List[Any] = []
    for index in range(n_ops):
        key = f"k{index % 5}"
        if index % 4 == 3:
            ops.append(KVStore.get(key))
        elif index % 7 == 5:
            ops.append(KVStore.remove(key))
        else:
            ops.append(KVStore.put(key, f"v{index}"))
    return ops


def _sim_run(
    ops: List[Any], n_replicas: int
) -> Tuple[List[List[Tuple[int, int]]], Dict[str, Any], List[Any]]:
    """Drive the scripted workload closed-loop on the simulated cluster."""
    cluster = BayouCluster(
        KVStore(),
        BayouConfig(n_replicas=n_replicas, record_perceived_traces=False),
    )
    responses: List[Any] = []
    for index, op in enumerate(ops):
        future = cluster.submit(index % n_replicas, op)
        cluster.run_until_quiescent()
        assert future.stable, f"sim op {index} did not stabilise"
        responses.append(future.value)
    cluster.shutdown()
    cluster.run_until_quiescent()
    orders = [[req.dot for req in replica.committed] for replica in cluster.replicas]
    snapshot = cluster.replicas[0].state.snapshot()
    return orders, snapshot, responses


def _realtime_run(
    ops: List[Any], n_replicas: int
) -> Tuple[List[List[Tuple[int, int]]], List[Dict[str, Any]], List[Any], float]:
    """Drive the same workload closed-loop over real sockets."""
    spec = ClusterSpec(n_replicas=n_replicas, datatype="kvstore")
    responses: List[Any] = []
    started = time.perf_counter()
    with RealtimeCluster(spec) as cluster:
        for index, op in enumerate(ops):
            reply = cluster.invoke(index % n_replicas, op, wait="stable")
            responses.append(reply["value"])
            # Full convergence between steps, mirroring the sim leg's
            # run-until-quiescent: the *next* op's tentative response is
            # computed against every prior op, on both substrates.
            cluster.await_convergence(expect_committed=index + 1)
        statuses = cluster.await_convergence(expect_committed=len(ops))
        elapsed = time.perf_counter() - started
    orders = [
        [tuple(dot) for dot in status["committed"]] for status in statuses
    ]
    snapshots = [status["state"] for status in statuses]
    return orders, snapshots, responses, elapsed


def _throughput_run(burst: int, n_replicas: int) -> Dict[str, Any]:
    """Open-loop commutative burst; report wall-clock ops/sec."""
    spec = ClusterSpec(n_replicas=n_replicas, datatype="counter")
    with RealtimeCluster(spec) as cluster:
        started = time.perf_counter()
        for index in range(burst):
            cluster.invoke(index % n_replicas, Counter.increment(), wait="none")
        statuses = cluster.await_convergence(expect_committed=burst)
        elapsed = time.perf_counter() - started
        final = cluster.invoke(0, Counter.read(), wait="stable")["value"]
    counters = [status["state"] for status in statuses]
    return {
        "burst": burst,
        "elapsed_s": elapsed,
        "ops_per_sec": rate(burst, elapsed, default=float("inf")),
        "final_value": final,
        "value_ok": final == burst
        and all(state.get("counter:value") == burst for state in counters),
    }


def run_experiment(*, smoke: bool = False) -> Dict[str, Any]:
    n_replicas = 3
    n_ops = 8 if smoke else 24
    burst = 20 if smoke else 120

    ops = _scripted_ops(n_ops)
    sim_orders, sim_snapshot, sim_responses = _sim_run(ops, n_replicas)
    rt_orders, rt_snapshots, rt_responses, rt_elapsed = _realtime_run(
        ops, n_replicas
    )

    order_match = all(order == sim_orders[0] for order in sim_orders) and all(
        order == sim_orders[0] for order in rt_orders
    )
    state_match = all(snap == sim_snapshot for snap in rt_snapshots)
    response_match = sim_responses == rt_responses
    throughput = _throughput_run(burst, n_replicas)

    return {
        "n_replicas": n_replicas,
        "n_ops": n_ops,
        "committed_order_match": order_match,
        "state_match": state_match,
        "response_match": response_match,
        "committed_order": [list(dot) for dot in sim_orders[0]],
        "final_state": {str(k): v for k, v in sim_snapshot.items()},
        "closed_loop_elapsed_s": rt_elapsed,
        "closed_loop_ops_per_sec": rate(
            n_ops, rt_elapsed, default=float("inf")
        ),
        "throughput": throughput,
        "ok": order_match
        and state_match
        and response_match
        and throughput["value_ok"],
    }


def main(smoke: bool = False) -> Dict[str, Any]:
    result = run_experiment(smoke=smoke)
    rows = [
        ["cross-check: committed order", "match" if result["committed_order_match"] else "DIVERGED"],
        ["cross-check: final state", "match" if result["state_match"] else "DIVERGED"],
        ["cross-check: responses", "match" if result["response_match"] else "DIVERGED"],
        [
            "closed-loop (stable per op)",
            f"{result['n_ops']} ops, "
            f"{result['closed_loop_ops_per_sec']:.1f} ops/s wall-clock",
        ],
        [
            "open-loop counter burst",
            f"{result['throughput']['burst']} ops, "
            f"{result['throughput']['ops_per_sec']:.1f} ops/s wall-clock, "
            f"value {'ok' if result['throughput']['value_ok'] else 'WRONG'}",
        ],
    ]
    print(format_table(["leg", "result"], rows))
    print(
        "verdict:",
        "realtime deployment matches the simulation"
        if result["ok"]
        else "DIVERGENCE between realtime and simulated runs",
    )
    return result
