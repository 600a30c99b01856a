"""``python -m repro serve`` — one real Bayou replica over TCP.

This is the asyncio deployment of the *identical* protocol stack the
simulator runs: a :class:`~repro.net.node.RoutingNode` hosting the
dissemination endpoint (RB or anti-entropy), a TOB engine (sequencer or
Multi-Paxos with Ω) and a :class:`~repro.core.replica.BayouReplica` — all
assembled by the same :func:`~repro.core.stack.build_replica_stack`
:class:`~repro.core.cluster.BayouCluster` calls, but over an
:class:`~repro.runtime.asyncio_net.AsyncioRuntime` instead of a
:class:`~repro.runtime.sim.SimRuntime`. No protocol file knows which one
it got.

A cluster is described by a JSON spec file shared by all members::

    {"n_replicas": 3, "host": "127.0.0.1", "ports": [7701, 7702, 7703],
     "datatype": "kvstore", "tob_engine": "sequencer"}

Start each member in its own OS process::

    python -m repro serve --replica 0 --config cluster.json

Clients speak the framed RPC protocol on the replica's port (see
:class:`repro.runtime.launcher.RealtimeClient`): ``ping`` (health),
``invoke`` (submit an operation, optionally waiting for its tentative
response or its committed/stable fate), ``status`` (committed order,
backlog, state snapshot — what convergence checks read) and ``shutdown``.
``SIGTERM``/``SIGINT`` shut the process down cleanly (exit code 0).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import BayouConfig
from repro.core.session import OpLedger
from repro.core.stack import (
    build_replica_stack,
    open_replica_store,
    stop_replica_stack,
)
from repro.datatypes import BankAccounts, Counter, KVStore, Register
from repro.net.node import RoutingNode
from repro.obs import Telemetry
from repro.runtime.asyncio_net import AsyncioRuntime
from repro.sim.clock import DriftingClock

#: Datatypes a real deployment can serve (name -> zero-arg factory).
DATATYPES = {
    "kvstore": KVStore,
    "counter": Counter,
    "bank": BankAccounts,
    "register": Register,
}


@dataclass
class ClusterSpec:
    """The shared description of one realtime deployment."""

    n_replicas: int = 3
    host: str = "127.0.0.1"
    ports: List[int] = field(default_factory=list)
    datatype: str = "kvstore"
    tob_engine: str = "sequencer"
    dissemination: str = "rb"
    sequencer_pid: int = 0
    #: Real seconds per internal replica step; 0 = as fast as the loop runs.
    exec_delay: float = 0.0
    ae_sync_interval: float = 0.05
    heartbeat_interval: float = 0.5
    failure_timeout: float = 2.0
    paxos_retry_interval: float = 1.0
    retransmit_interval: Optional[float] = None
    durability: str = "none"
    durability_dir: Optional[str] = None
    #: Arm the telemetry plane: causal op traces (propagated across TCP
    #: frames) and transport/engine instruments, read via the
    #: ``telemetry`` RPC verb.
    telemetry: bool = False

    def validate(self) -> None:
        if self.datatype not in DATATYPES:
            raise ValueError(
                f"unknown datatype {self.datatype!r}; "
                f"choose from {sorted(DATATYPES)}"
            )
        if len(self.ports) != self.n_replicas:
            raise ValueError(
                f"spec needs exactly n_replicas={self.n_replicas} ports, "
                f"got {len(self.ports)}"
            )
        self.to_config().validate()

    def to_config(self) -> BayouConfig:
        """The :class:`BayouConfig` equivalent of this spec.

        Perceived-trace capture is off: it exists for the formal
        framework's deterministic checks, and a real deployment pays its
        O(n²) memory for nothing.
        """
        return BayouConfig(
            n_replicas=self.n_replicas,
            exec_delay=self.exec_delay,
            tob_engine=self.tob_engine,
            sequencer_pid=self.sequencer_pid,
            dissemination=self.dissemination,
            ae_sync_interval=self.ae_sync_interval,
            heartbeat_interval=self.heartbeat_interval,
            failure_timeout=self.failure_timeout,
            paxos_retry_interval=self.paxos_retry_interval,
            retransmit_interval=self.retransmit_interval,
            durability=self.durability,
            durability_dir=self.durability_dir,
            record_perceived_traces=False,
            enable_telemetry=self.telemetry,
        )

    def peers(self) -> Dict[int, Tuple[str, int]]:
        return {pid: (self.host, self.ports[pid]) for pid in range(self.n_replicas)}

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ClusterSpec":
        """Build and validate a spec from a parsed spec file.

        The file is input from outside the program: an unknown or misspelt
        key is reported by name, next to the keys that exist.
        """
        known = [spec_field.name for spec_field in fields(cls)]
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(
                f"unknown cluster-spec key(s) {unknown}; valid keys: {known}"
            )
        spec = cls(**data)
        spec.validate()
        return spec

    @classmethod
    def load(cls, path: str) -> "ClusterSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(json.load(handle))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2)


class ReplicaServer:
    """One replica process: the full Bayou stack on an AsyncioRuntime."""

    def __init__(self, spec: ClusterSpec, pid: int) -> None:
        spec.validate()
        if not (0 <= pid < spec.n_replicas):
            raise ValueError(f"replica {pid} out of range 0..{spec.n_replicas - 1}")
        self.spec = spec
        self.pid = pid
        config = spec.to_config()
        #: Same plane as the simulator's, timestamped with wall-clock
        #: runtime seconds instead of sim time.
        self.telemetry: Optional[Telemetry] = (
            Telemetry() if spec.telemetry else None
        )
        self.runtime = AsyncioRuntime(
            pid, spec.peers(), telemetry=self.telemetry
        )
        self.node = RoutingNode(self.runtime, pid, name=f"rt-R{pid}")
        clock = DriftingClock(self.runtime.timeview)
        #: Every operation being served, by dot: the same per-op record the
        #: simulator keeps, released once the op is stable (a server lives
        #: long; a History is never frozen here).
        self.ops = OpLedger(self.runtime.now, self.telemetry)
        self.replica, self.omega = build_replica_stack(
            self.node,
            clock,
            DATATYPES[spec.datatype](),
            config,
            self.ops,
            store=open_replica_store(config, pid, config.durability_dir),
            telemetry=self.telemetry,
        )
        self.runtime.rpc_handler = self._handle_rpc
        self._done: Optional[asyncio.Future] = None

    # ------------------------------------------------------------------
    # RPC surface
    # ------------------------------------------------------------------
    async def _handle_rpc(self, verb: str, args: Dict[str, Any]) -> Any:
        if verb == "ping":
            return {"pid": self.pid, "time": self.runtime.now(), "ok": True}
        if verb == "invoke":
            return await self._rpc_invoke(args)
        if verb == "status":
            return self._rpc_status()
        if verb == "telemetry":
            if self.telemetry is None:
                return {"enabled": False}
            return {
                "enabled": True,
                "spans": self.telemetry.spans_jsonable(),
                "metrics": self.telemetry.registry.snapshot(),
            }
        if verb == "shutdown":
            if self._done is not None and not self._done.done():
                self._done.set_result("rpc")
            return {"ok": True}
        raise ValueError(f"unknown RPC verb {verb!r}")

    async def _rpc_invoke(self, args: Dict[str, Any]) -> Dict[str, Any]:
        op = args["op"]
        strong = bool(args.get("strong", False))
        wait = args.get("wait", "response")
        if wait not in ("none", "response", "stable"):
            raise ValueError(f"unknown wait mode {wait!r}")
        future = self.ops.invoke(self.replica, op, strong=strong)
        future.add_stable_callback(self.ops.forget)
        reply: Dict[str, Any] = {
            "dot": future.dot,
            "timestamp": future.request.timestamp,
        }
        if wait != "none":
            reached: asyncio.Future = asyncio.get_running_loop().create_future()

            def wake(_future: Any) -> None:
                if not reached.done():  # the RPC task may have been cancelled
                    reached.set_result(None)

            if wait == "stable":
                future.add_stable_callback(wake)
                reply["stable"] = True
            else:
                future.add_done_callback(wake)
            await reached
            reply["value"] = future.value
        return reply

    def _rpc_status(self) -> Dict[str, Any]:
        replica = self.replica
        return {
            "pid": self.pid,
            "committed": [req.dot for req in replica.committed],
            "tentative": [req.dot for req in replica.tentative],
            "backlog": replica.backlog,
            "executed": replica.cursor,
            "state": replica.state.snapshot(),
            "curr_event_no": replica.curr_event_no,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.runtime.start()
        if self.omega is not None:
            self.runtime.spawn(self.omega.start, label="omega start")

    async def stop(self) -> None:
        stop_replica_stack(self.replica)
        if self.omega is not None:
            self.omega.stop()
        await self.runtime.stop()

    async def run_forever(self) -> str:
        """Serve until SIGTERM/SIGINT or a ``shutdown`` RPC; returns why."""
        loop = asyncio.get_running_loop()
        self._done = loop.create_future()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, self._signal_shutdown, signal.Signals(signum).name
                )
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await self.start()
        try:
            return await self._done
        finally:
            await self.stop()

    def _signal_shutdown(self, signame: str) -> None:
        if self._done is not None and not self._done.done():
            self._done.set_result(signame)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run one real Bayou replica: the identical protocol stack the "
            "simulator runs, over asyncio TCP between OS processes."
        ),
    )
    parser.add_argument(
        "--replica",
        type=int,
        required=True,
        metavar="N",
        help="which member of the cluster spec this process is (0-based)",
    )
    parser.add_argument(
        "--config",
        required=True,
        metavar="PATH",
        help="path to the shared cluster-spec JSON file",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    spec = ClusterSpec.load(args.config)
    server = ReplicaServer(spec, args.replica)
    host, port = spec.peers()[args.replica]
    print(
        f"replica {args.replica}/{spec.n_replicas} serving "
        f"{spec.datatype} on {host}:{port} "
        f"(tob={spec.tob_engine}, dissemination={spec.dissemination})",
        flush=True,
    )
    reason = asyncio.run(server.run_forever())
    print(f"replica {args.replica} shut down ({reason})", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
