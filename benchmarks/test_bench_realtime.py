"""E15 over real sockets — the realtime deployment, end to end.

Everything here is marked ``realtime``: it spawns actual replica OS
processes, binds localhost TCP ports and measures wall-clock time, none of
which belongs in the deterministic tier-1 suite (``addopts`` excludes the
marker; CI runs this file in its own timeout-guarded job with
``pytest -m realtime``).

Shapes asserted:

- a 3-replica localhost cluster started from scratch converges on a
  scripted workload to **exactly** the committed order, final state and
  responses of the simulated run of the same workload (the runtime seam's
  core claim);
- an open-loop burst of commutative increments converges with the right
  final counter value and a positive wall-clock ops/sec figure (the number
  E15 reports and the simulator cannot).
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments.realtime import run_experiment
from repro.datatypes import KVStore
from repro.runtime.launcher import RealtimeCluster
from repro.runtime.serve import ClusterSpec

pytestmark = pytest.mark.realtime


@pytest.mark.timeout(120)
def test_e15_smoke_matches_simulation(tmp_path):
    result = run_experiment(smoke=True)
    assert result["committed_order_match"], result
    assert result["state_match"], result
    assert result["response_match"], result
    assert result["throughput"]["value_ok"], result
    assert result["throughput"]["ops_per_sec"] > 0
    assert result["ok"]


@pytest.mark.timeout(120)
def test_three_replica_cluster_basic_session():
    spec = ClusterSpec(n_replicas=3)
    with RealtimeCluster(spec) as cluster:
        put = cluster.invoke(0, KVStore.put("greeting", "hello"), wait="stable")
        assert put["stable"]
        cluster.await_convergence(expect_committed=1)
        # A different replica reads the committed write over its own socket.
        got = cluster.invoke(2, KVStore.get("greeting"), wait="stable")
        assert got["value"] == "hello"
        statuses = cluster.statuses()
        assert [len(s["committed"]) for s in statuses] == [2, 2, 2]


@pytest.mark.timeout(120)
def test_three_replica_paxos_cluster_commits_a_strong_op():
    """``serve`` builds its replica before ``asyncio.run``; the Paxos
    engine used to die there on ``no running event loop``."""
    spec = ClusterSpec(
        n_replicas=3,
        tob_engine="paxos",
        heartbeat_interval=0.1,
        failure_timeout=0.5,
        paxos_retry_interval=0.3,
    )
    with RealtimeCluster(spec) as cluster:
        put = cluster.invoke(1, KVStore.put("k", 1), strong=True, wait="stable")
        assert put["stable"]
        statuses = cluster.await_convergence(expect_committed=1)
        assert [s["state"] for s in statuses] == [statuses[0]["state"]] * 3
