"""Experiment E16 — consensus amortization: ops per message round.

Without batching, Paxos TOB pays one consensus instance — a 2A and a round
of 2B votes — per operation. The batched, pipelined engine drains the
submission queue into multi-op instance values and pipelines up to
``max_inflight`` instances. This experiment quantifies what that buys on a
single burst of operations submitted at the leader, across three engines:

- **paxos-unbatched** — the same engine with ``max_batch=1`` and no
  pipeline cap: one instance per operation;
- **paxos-batched** — the default batched/pipelined configuration;
- **sequencer** — the fixed-sequencer engine, as the protocol-free floor.

Reported per engine: consensus instances consumed, operations per
consensus round, network messages per operation, simulated completion
time, and wall-clock committed-op throughput. The delivered sequences are
asserted identical across all three engines — batching must change the
*cost* of the total order, never the order itself.

Run with ``python -m repro batch`` (``--json FILE`` writes the artifact).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.analysis.report import format_columns
from repro.broadcast.failure_detector import OmegaFailureDetector
from repro.broadcast.paxos import PaxosTOB
from repro.broadcast.sequencer import SequencerTOB
from repro.net.network import FixedLatency, Network
from repro.net.node import RoutingNode
from repro.runtime.sim import SimRuntime
from repro.sim.kernel import Simulator

N_NODES = 3
OPS = 1000
#: Simulated-time safety limit per leg (every leg finishes far earlier).
TIME_LIMIT = 400.0

#: Engine legs: name → PaxosTOB knobs (None = the sequencer engine).
LEGS: Dict[str, Optional[Dict[str, Any]]] = {
    "paxos-unbatched": dict(max_batch=1, max_inflight=None),
    "paxos-batched": dict(max_batch=32, max_inflight=8),
    "sequencer": None,
}


@dataclass
class EngineRun:
    """One engine's cost profile over the burst."""

    engine: str
    ops: int
    #: Consensus instances consumed (sequencer: seqno assignments).
    instances: int
    #: Operations amortized per consensus round (= ops / instances).
    ops_per_round: float
    messages: int
    messages_per_op: float
    #: Simulated time from burst to the last node's last delivery.
    sim_time: float
    wall_seconds: float
    wall_ops_per_sec: float


class _Rig:
    """A bare 3-node TOB deployment (no Bayou layer): the engine alone."""

    def __init__(self, engine: str) -> None:
        self.sim = Simulator()
        self.network = Network(self.sim, N_NODES, latency=FixedLatency(1.0))
        runtime = SimRuntime(self.sim, self.network)
        self.nodes = [RoutingNode(runtime, pid) for pid in range(N_NODES)]
        self.delivered: List[List[Hashable]] = [[] for _ in range(N_NODES)]
        self.endpoints = []
        self.omegas = []
        knobs = LEGS[engine]
        for pid, node in enumerate(self.nodes):
            deliver = (lambda p: lambda key, payload: self.delivered[p].append(key))(pid)
            if knobs is None:
                self.endpoints.append(
                    SequencerTOB(node, deliver, sequencer_pid=0)
                )
            else:
                omega = OmegaFailureDetector(
                    node, heartbeat_interval=3.0, timeout=10.0
                )
                self.omegas.append(omega)
                self.endpoints.append(
                    PaxosTOB(node, deliver, omega, retry_interval=8.0, **knobs)
                )
        for omega in self.omegas:
            self.sim.schedule(0.0, omega.start)

    def run_burst(self, ops: int) -> Tuple[float, float]:
        """Cast ``ops`` keys at node 0 at t=0; run until all nodes deliver.

        Returns ``(sim_time, wall_seconds)`` for the whole run (the wall
        clock includes every simulation event the engine generates — its
        Python-work footprint is exactly what batching shrinks).
        """
        endpoint = self.endpoints[0]
        self.sim.schedule(
            0.0,
            lambda: [endpoint.tob_cast(i, ("payload", i)) for i in range(ops)],
            label="burst",
        )
        started = time.perf_counter()
        while not all(len(seq) >= ops for seq in self.delivered):
            if self.sim.now >= TIME_LIMIT:
                raise RuntimeError(
                    f"burst did not complete by t={TIME_LIMIT}: "
                    f"{[len(seq) for seq in self.delivered]}"
                )
            self.sim.run(until=self.sim.now + 5.0)
        wall = time.perf_counter() - started
        done_at = self.sim.now
        for endpoint in self.endpoints:
            endpoint.stop()
        for omega in self.omegas:
            omega.stop()
        return done_at, wall


def _instances_used(rig: _Rig, engine: str, ops: int) -> int:
    if LEGS[engine] is None:
        return ops  # one seqno assignment per op
    return rig.endpoints[0]._next_deliver


def run_leg(engine: str, ops: int = OPS) -> Tuple[EngineRun, List[Hashable]]:
    """Run one engine over the burst; returns its profile and delivered order."""
    rig = _Rig(engine)
    sim_time, wall = rig.run_burst(ops)
    sequences = [tuple(seq[:ops]) for seq in rig.delivered]
    assert all(seq == sequences[0] for seq in sequences), (
        f"{engine}: nodes disagree on the delivered order"
    )
    instances = _instances_used(rig, engine, ops)
    messages = rig.network.sent_count
    return (
        EngineRun(
            engine=engine,
            ops=ops,
            instances=instances,
            ops_per_round=ops / instances if instances else float(ops),
            messages=messages,
            messages_per_op=messages / ops,
            sim_time=sim_time,
            wall_seconds=wall,
            wall_ops_per_sec=ops / wall if wall > 0 else float("inf"),
        ),
        list(sequences[0]),
    )


def run_burst_comparison(ops: int = OPS) -> Tuple[List[EngineRun], bool]:
    """All three legs over the same burst; histories must be identical."""
    rows: List[EngineRun] = []
    histories: List[List[Hashable]] = []
    for engine in LEGS:
        row, delivered = run_leg(engine, ops)
        rows.append(row)
        histories.append(delivered)
    identical = all(history == histories[0] for history in histories)
    return rows, identical


def to_json(rows: List[EngineRun], identical: bool) -> Dict[str, Any]:
    """The E16 amortization artifact."""
    by_engine = {row.engine: row for row in rows}
    unbatched = by_engine["paxos-unbatched"]
    batched = by_engine["paxos-batched"]
    return {
        "experiment": "E16-batching",
        "histories_identical": identical,
        "message_amortization": (
            unbatched.messages_per_op / batched.messages_per_op
        ),
        "wall_speedup": batched.wall_ops_per_sec / unbatched.wall_ops_per_sec,
        "runs": [asdict(row) for row in rows],
    }


COLUMNS = (
    ("engine", lambda row: row.engine),
    ("ops", lambda row: row.ops),
    ("instances", lambda row: row.instances),
    ("ops/round", lambda row: f"{row.ops_per_round:.2f}"),
    ("msgs", lambda row: row.messages),
    ("msgs/op", lambda row: f"{row.messages_per_op:.2f}"),
    ("sim time", lambda row: f"{row.sim_time:g}"),
    ("wall ops/s", lambda row: f"{row.wall_ops_per_sec:,.0f}"),
)


def main() -> Dict[str, Any]:
    rows, identical = run_burst_comparison()
    print(format_columns(
        COLUMNS,
        rows,
        title=(
            "Consensus amortization over a "
            f"{rows[0].ops}-op burst (experiment E16) — histories "
            + ("identical" if identical else "DIVERGED")
        ),
    ))
    return to_json(rows, identical)
