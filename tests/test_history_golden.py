"""Frozen histories are pinned field by field.

``BayouCluster.build_history`` freezes the per-operation records of a run
into the :class:`~repro.framework.history.History` every guarantee check
reads. The values below were recorded from seeded runs; a refactor of the
record plumbing must reproduce every field of every event exactly
(including ``stable`` = "the first response was already final", ``seq``,
the perceived trace, ``tob_cast`` for the modified protocol's invisible
reads and ``rval = ∇`` for an operation a crash left unanswered).

Next to the history, every run pins each replica's ``rollback_count`` and
``execution_count``: two schedules can answer every client identically and
still differ in how much speculative work they threw away, and a change to
the reorder path must not move either.

``EVENTS`` pins, per run, the kernel's ``executed_events`` and the
network's ``sent_count`` / ``delivered_count`` / ``suppressed_count`` /
``dropped_count``: a change to how events and deliveries are handed to the
kernel must keep every one of them, not only what clients saw.

Re-record (``python tests/test_history_golden.py``) only in a change that
*means* to alter behaviour.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import pytest

from repro.core.cluster import BayouCluster, MODIFIED, ORIGINAL
from repro.core.config import BayouConfig
from repro.datatypes.rlist import RList
from repro.net.faults import CrashSchedule, MessageFilter

FIELDS = (
    "eid", "session", "op", "level", "invoke_time", "return_time", "rval",
    "timestamp", "readonly", "tob_cast", "tob_no", "perceived_trace",
    "stable", "seq",
)


def _mixed_run(
    protocol: str,
    tob_engine: str,
    *,
    filters: Optional[MessageFilter] = None,
    **engine: Any,
) -> BayouCluster:
    """Weak and strong updates and reads racing across three replicas with
    skewed clocks, a slow replica and jittered links."""
    config = BayouConfig(
        n_replicas=3,
        exec_delay=0.05,
        exec_delay_overrides={2: 0.4},
        message_delay=0.5,
        latency_jitter=0.3,
        tob_engine=tob_engine,
        clock_offsets={1: -0.7, 2: 0.25},
        seed=7,
        **engine,
    )
    cluster = BayouCluster(RList(), config, protocol=protocol, filters=filters)
    cluster.schedule_invoke(1.0, 0, RList.append("a"))
    cluster.schedule_invoke(1.1, 1, RList.append("b"))
    cluster.schedule_invoke(1.2, 2, RList.read())
    cluster.schedule_invoke(1.3, 1, RList.duplicate(), strong=True)
    cluster.schedule_invoke(1.4, 2, RList.append("c"))
    cluster.schedule_invoke(1.5, 0, RList.read())
    cluster.schedule_invoke(2.6, 0, RList.read(), strong=True)
    cluster.schedule_invoke(9.0, 1, RList.read())
    if tob_engine == "paxos":
        assert cluster.run_until_stable(max_time=400.0)
        cluster.shutdown()
    cluster.run_until_quiescent()
    return cluster


def _crash_recovery_run() -> BayouCluster:
    """Replica 2 crashes holding an unanswered strong op and recovers from
    in-memory stable storage; the op commits but is never answered."""
    config = BayouConfig(
        n_replicas=3, exec_delay=0.05, message_delay=0.5, durability="memory"
    )
    crashes = CrashSchedule()
    crashes.add(2, 3.2, 12.0, mode="recover")
    cluster = BayouCluster(RList(), config, crashes=crashes)
    cluster.schedule_invoke(1.0, 0, RList.append("a"))
    cluster.schedule_invoke(2.0, 2, RList.append("b"))
    cluster.schedule_invoke(3.0, 2, RList.duplicate(), strong=True)
    cluster.schedule_invoke(5.0, 1, RList.append("c"))
    cluster.schedule_invoke(20.0, 2, RList.read(), strong=True)
    cluster.run_until_quiescent()
    return cluster


def _anti_entropy_heal_run() -> BayouCluster:
    """Replica 2 is cut off while both sides keep writing; the heal ships
    each side's log suffix in one sync session — the only driver of
    ``on_rb_deliver_batch`` — into replicas that already executed theirs."""
    config = BayouConfig(
        n_replicas=3,
        exec_delay=0.05,
        message_delay=0.5,
        dissemination="anti_entropy",
        ae_sync_interval=1.0,
        sequencer_pid=1,
        clock_offsets={2: -0.3},
    )
    cluster = BayouCluster(RList(), config)
    cluster.partitions.split(0.5, [[0, 1], [2]])
    cluster.schedule_invoke(1.0, 0, RList.append("a"))
    cluster.schedule_invoke(1.4, 2, RList.append("x"))
    cluster.schedule_invoke(2.0, 1, RList.append("b"))
    cluster.schedule_invoke(2.2, 2, RList.duplicate(), strong=True)
    cluster.schedule_invoke(3.0, 2, RList.append("y"))
    cluster.schedule_invoke(3.1, 0, RList.remove_last())
    cluster.schedule_invoke(4.0, 2, RList.read())
    cluster.schedule_invoke(4.5, 1, RList.read(), strong=True)
    cluster.schedule_invoke(5.7, 0, RList.append("d"))
    cluster.schedule_invoke(5.9, 2, RList.append("z"))
    cluster.partitions.heal(6.0)
    cluster.schedule_invoke(6.1, 1, RList.append("c"))
    cluster.run_until_quiescent()
    return cluster


def _filtered_jitter_run() -> BayouCluster:
    """The mixed run with a dropping and a delaying filter on live links and
    retransmission armed: every send takes the filter branch, and a dropped
    message must draw no latency sample (the RNG order decides every later
    delivery time)."""
    filters = MessageFilter()
    filters.drop_between(1, 2)
    filters.delay_between(0, 1, 0.7)
    return _mixed_run(
        ORIGINAL, "sequencer", filters=filters, retransmit_interval=1.0
    )


RUNS = {
    "original-sequencer": lambda: _mixed_run(ORIGINAL, "sequencer"),
    "original-sequencer-batched": lambda: _mixed_run(
        ORIGINAL, "sequencer", reorder_engine="batched", checkpoint_interval=2
    ),
    "modified-sequencer-batched": lambda: _mixed_run(
        MODIFIED, "sequencer", reorder_engine="batched", checkpoint_interval=2
    ),
    "anti-entropy-heal": _anti_entropy_heal_run,
    "original-paxos": lambda: _mixed_run(ORIGINAL, "paxos"),
    "modified-sequencer": lambda: _mixed_run(MODIFIED, "sequencer"),
    "modified-paxos": lambda: _mixed_run(MODIFIED, "paxos"),
    "crash-recovery": _crash_recovery_run,
    "filtered-jitter": _filtered_jitter_run,
}


def _frozen(cluster: BayouCluster) -> List[Tuple[Any, ...]]:
    """Every event as a tuple of plain values, in ``FIELDS`` order."""
    rows = []
    for event in cluster.build_history(well_formed=False).events:
        row = [getattr(event, name) for name in FIELDS]
        row[FIELDS.index("op")] = repr(event.op)
        row[FIELDS.index("rval")] = repr(event.rval)
        rows.append(tuple(row))
    return rows


def _work_counts(cluster: BayouCluster) -> Tuple[List[int], List[int]]:
    """Per-replica ``(rollback_count, execution_count)``, replica order."""
    return (
        [replica.rollback_count for replica in cluster.replicas],
        [replica.execution_count for replica in cluster.replicas],
    )


def _event_counts(cluster: BayouCluster) -> Tuple[int, int, int, int, int]:
    """``(executed_events, sent, delivered, suppressed, dropped)``."""
    network = cluster.network
    return (
        cluster.sim.executed_events,
        network.sent_count,
        network.delivered_count,
        network.suppressed_count,
        network.dropped_count,
    )


# One row per event, FIELDS order; recorded at the commit before the
# per-operation records were merged (the batched and anti-entropy runs, and
# COUNTS, at the commit before the replica's re-diff was replaced; the
# filtered-jitter run and EVENTS at the commit before events stopped being
# closures over an envelope). Re-recorded when the self-addressed 2B, the
# RB relay back to its sender and the early drive-timer resends were cut:
# EVENTS drop by the sends removed, and the jittered runs' return times
# and counts move because fewer sends draw latency samples.
GOLDEN = {
    'anti-entropy-heal': [
        ((0, 1), 0, "append('a')", 'weak', 1.0, 1.05, "'a'", 1.0, False, True, 0, (), False, 1),
        ((2, 1), 2, "append('x')", 'weak', 1.4, 1.45, "'x'", 1.0999999999999999, False, True, 4, (), False, 2),
        ((1, 1), 1, "append('b')", 'weak', 2.0, 2.0999999999999996, "'ab'", 2.0, False, True, 1, ((0, 1),), False, 3),
        ((2, 2), 2, 'duplicate()', 'strong', 2.2, 6.549999999999998, "'axax'", 1.9000000000000001, False, True, 5, ((0, 1), (1, 1), (0, 2), (1, 2), (2, 1)), True, 4),
        ((2, 3), 2, "append('y')", 'weak', 3.0, 3.05, "'xxy'", 2.7, False, True, 6, ((2, 1), (2, 2)), False, 5),
        ((0, 2), 0, 'remove_last()', 'weak', 3.1, 3.15, "'b'", 3.1, False, True, 2, ((0, 1), (1, 1)), False, 6),
        ((2, 4), 2, 'read()', 'weak', 4.0, 4.05, "'xxy'", 3.7, True, True, 7, ((2, 1), (2, 2), (2, 3)), False, 7),
        ((1, 2), 1, 'read()', 'strong', 4.5, 5.5, "'a'", 4.5, True, True, 3, ((0, 1), (1, 1), (0, 2)), True, 8),
        ((0, 3), 0, "append('d')", 'weak', 5.7, 5.75, "'ad'", 5.7, False, True, 8, ((0, 1), (1, 1), (0, 2), (1, 2)), False, 9),
        ((2, 5), 2, "append('z')", 'weak', 5.9, 5.95, "'xxyz'", 5.6000000000000005, False, True, 9, ((2, 1), (2, 2), (2, 3), (2, 4)), False, 10),
        ((1, 3), 1, "append('c')", 'weak', 6.1, 6.1499999999999995, "'ac'", 6.1, False, True, 10, ((0, 1), (1, 1), (0, 2), (1, 2)), False, 11),
    ],
    'crash-recovery': [
        ((0, 1), 0, "append('a')", 'weak', 1.0, 1.05, "'a'", 1.0, False, True, 0, (), False, 1),
        ((2, 1), 2, "append('b')", 'weak', 2.0, 2.05, "'ab'", 2.0, False, True, 1, ((0, 1),), False, 2),
        ((2, 2), 2, 'duplicate()', 'strong', 3.0, None, '∇', 3.0, False, True, 2, None, False, 3),
        ((1, 1), 1, "append('c')", 'weak', 5.0, 5.05, "'ababc'", 5.0, False, True, 3, ((0, 1), (2, 1), (2, 2)), False, 4),
        ((2, 3), 2, 'read()', 'strong', 20.0, 21.000000001, "'ababc'", 20.0, True, True, 4, ((0, 1), (2, 1), (2, 2), (1, 1)), True, 5),
    ],
    'filtered-jitter': [
        ((0, 1), 0, "append('a')", 'weak', 1.0, 1.05, "'a'", 1.0, False, True, 0, (), False, 1),
        ((1, 1), 1, "append('b')", 'weak', 1.1, 1.1500000000000001, "'b'", 0.40000000000000013, False, True, 1, (), False, 2),
        ((2, 1), 2, 'read()', 'weak', 1.2, 1.6, "''", 1.45, True, True, 2, (), False, 3),
        ((1, 2), 1, 'duplicate()', 'strong', 1.3, 3.7023116570053354, "'abcabc'", 0.6000000000000001, False, True, 4, ((0, 1), (1, 1), (2, 1), (2, 2)), True, 4),
        ((2, 2), 2, "append('c')", 'weak', 1.4, 3.5999999999999996, "'abc'", 1.65, False, True, 3, ((0, 1), (1, 1), (2, 1)), True, 5),
        ((0, 2), 0, 'read()', 'weak', 1.5, 1.55, "'a'", 1.5, True, True, 5, ((0, 1),), False, 6),
        ((0, 3), 0, 'read()', 'strong', 2.6, 3.9297884555952534, "'abcabc'", 2.6, True, True, 6, ((0, 1), (1, 1), (2, 1), (2, 2), (1, 2), (0, 2)), True, 7),
        ((1, 3), 1, 'read()', 'weak', 9.0, 9.05, "'abcabc'", 8.3, True, True, 7, ((0, 1), (1, 1), (2, 1), (2, 2), (1, 2), (0, 2), (0, 3)), False, 8),
    ],
    'modified-paxos': [
        ((0, 1), 0, "append('a')", 'weak', 1.0, 1.0, "'a'", 1.0, False, True, 0, (), False, 1),
        ((1, 1), 1, "append('b')", 'weak', 1.1, 1.1, "'b'", 0.40000000000000013, False, True, 1, (), False, 2),
        ((2, 1), 2, 'read()', 'weak', 1.2, 1.2, "''", 1.45, True, False, None, (), False, 3),
        ((1, 2), 1, 'duplicate()', 'strong', 1.3, 2.7869874268831705, "'abab'", 0.6000000000000001, False, True, 2, ((0, 1), (1, 1)), True, 4),
        ((2, 2), 2, "append('c')", 'weak', 1.4, 1.4, "'c'", 1.65, False, True, 3, (), False, 5),
        ((0, 2), 0, 'read()', 'weak', 1.5, 1.5, "'a'", 1.5, True, False, None, ((0, 1),), False, 6),
        ((0, 3), 0, 'read()', 'strong', 2.6, 3.9985372183572507, "'ababc'", 2.6, True, True, 4, ((0, 1), (1, 1), (1, 2), (2, 2)), True, 7),
        ((1, 3), 1, 'read()', 'weak', 9.0, 9.0, "'ababc'", 8.3, True, False, None, ((0, 1), (1, 1), (1, 2), (2, 2), (0, 3)), False, 8),
    ],
    'modified-sequencer': [
        ((0, 1), 0, "append('a')", 'weak', 1.0, 1.0, "'a'", 1.0, False, True, 0, (), False, 1),
        ((1, 1), 1, "append('b')", 'weak', 1.1, 1.1, "'b'", 0.40000000000000013, False, True, 1, (), False, 2),
        ((2, 1), 2, 'read()', 'weak', 1.2, 1.2, "''", 1.45, True, False, None, (), False, 3),
        ((1, 2), 1, 'duplicate()', 'strong', 1.3, 2.6315279940899625, "'abab'", 0.6000000000000001, False, True, 2, ((0, 1), (1, 1)), True, 4),
        ((2, 2), 2, "append('c')", 'weak', 1.4, 1.4, "'c'", 1.65, False, True, 3, (), False, 5),
        ((0, 2), 0, 'read()', 'weak', 1.5, 1.5, "'a'", 1.5, True, False, None, ((0, 1),), False, 6),
        ((0, 3), 0, 'read()', 'strong', 2.6, 3.990615188345374, "'ababc'", 2.6, True, True, 4, ((0, 1), (1, 1), (1, 2), (2, 2)), True, 7),
        ((1, 3), 1, 'read()', 'weak', 9.0, 9.0, "'ababc'", 8.3, True, False, None, ((0, 1), (1, 1), (1, 2), (2, 2), (0, 3)), False, 8),
    ],
    'modified-sequencer-batched': [
        ((0, 1), 0, "append('a')", 'weak', 1.0, 1.0, "'a'", 1.0, False, True, 0, (), False, 1),
        ((1, 1), 1, "append('b')", 'weak', 1.1, 1.1, "'b'", 0.40000000000000013, False, True, 1, (), False, 2),
        ((2, 1), 2, 'read()', 'weak', 1.2, 1.2, "''", 1.45, True, False, None, (), False, 3),
        ((1, 2), 1, 'duplicate()', 'strong', 1.3, 2.6815279940899632, "'abab'", 0.6000000000000001, False, True, 2, ((0, 1), (1, 1)), True, 4),
        ((2, 2), 2, "append('c')", 'weak', 1.4, 1.4, "'c'", 1.65, False, True, 3, (), False, 5),
        ((0, 2), 0, 'read()', 'weak', 1.5, 1.5, "'a'", 1.5, True, False, None, ((0, 1),), False, 6),
        ((0, 3), 0, 'read()', 'strong', 2.6, 3.990615188345374, "'ababc'", 2.6, True, True, 4, ((0, 1), (1, 1), (1, 2), (2, 2)), True, 7),
        ((1, 3), 1, 'read()', 'weak', 9.0, 9.0, "'ababc'", 8.3, True, False, None, ((0, 1), (1, 1), (1, 2), (2, 2), (0, 3)), False, 8),
    ],
    'original-paxos': [
        ((0, 1), 0, "append('a')", 'weak', 1.0, 1.05, "'a'", 1.0, False, True, 0, (), False, 1),
        ((1, 1), 1, "append('b')", 'weak', 1.1, 1.1500000000000001, "'b'", 0.40000000000000013, False, True, 2, (), False, 2),
        ((2, 1), 2, 'read()', 'weak', 1.2, 1.6, "''", 1.45, True, True, 3, (), False, 3),
        ((1, 2), 1, 'duplicate()', 'strong', 1.3, 2.9316464258273185, "'abab'", 0.6000000000000001, False, True, 4, ((0, 1), (0, 2), (1, 1), (2, 1)), True, 4),
        ((2, 2), 2, "append('c')", 'weak', 1.4, 4.3999999999999995, "'ababc'", 1.65, False, True, 5, ((0, 1), (0, 2), (1, 1), (2, 1), (1, 2)), True, 5),
        ((0, 2), 0, 'read()', 'weak', 1.5, 1.55, "'a'", 1.5, True, True, 1, ((0, 1),), False, 6),
        ((0, 3), 0, 'read()', 'strong', 2.6, 3.887296871517094, "'ababc'", 2.6, True, True, 6, ((0, 1), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2)), True, 7),
        ((1, 3), 1, 'read()', 'weak', 9.0, 9.05, "'ababc'", 8.3, True, True, 7, ((0, 1), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2), (0, 3)), False, 8),
    ],
    'original-sequencer': [
        ((0, 1), 0, "append('a')", 'weak', 1.0, 1.05, "'a'", 1.0, False, True, 0, (), False, 1),
        ((1, 1), 1, "append('b')", 'weak', 1.1, 1.1500000000000001, "'b'", 0.40000000000000013, False, True, 1, (), False, 2),
        ((2, 1), 2, 'read()', 'weak', 1.2, 1.6, "''", 1.45, True, True, 2, (), False, 3),
        ((1, 2), 1, 'duplicate()', 'strong', 1.3, 2.9422521581668692, "'abab'", 0.6000000000000001, False, True, 3, ((0, 1), (1, 1), (2, 1)), True, 4),
        ((2, 2), 2, "append('c')", 'weak', 1.4, 3.9999999999999996, "'ababc'", 1.65, False, True, 4, ((0, 1), (1, 1), (2, 1), (1, 2)), True, 5),
        ((0, 2), 0, 'read()', 'weak', 1.5, 1.55, "'a'", 1.5, True, True, 5, ((0, 1),), False, 6),
        ((0, 3), 0, 'read()', 'strong', 2.6, 3.6856182384909246, "'ababc'", 2.6, True, True, 6, ((0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (0, 2)), True, 7),
        ((1, 3), 1, 'read()', 'weak', 9.0, 9.05, "'ababc'", 8.3, True, True, 7, ((0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (0, 2), (0, 3)), False, 8),
    ],
    'original-sequencer-batched': [
        ((0, 1), 0, "append('a')", 'weak', 1.0, 1.05, "'a'", 1.0, False, True, 0, (), False, 1),
        ((1, 1), 1, "append('b')", 'weak', 1.1, 1.1500000000000001, "'b'", 0.40000000000000013, False, True, 1, (), False, 2),
        ((2, 1), 2, 'read()', 'weak', 1.2, 3.9999999999999996, "'ab'", 1.45, True, True, 2, ((0, 1), (1, 1)), True, 3),
        ((1, 2), 1, 'duplicate()', 'strong', 1.3, 3.042252158166871, "'abab'", 0.6000000000000001, False, True, 3, ((0, 1), (1, 1), (2, 1)), True, 4),
        ((2, 2), 2, "append('c')", 'weak', 1.4, 3.9999999999999996, "'ababc'", 1.65, False, True, 4, ((0, 1), (1, 1), (2, 1), (1, 2)), True, 5),
        ((0, 2), 0, 'read()', 'weak', 1.5, 1.55, "'a'", 1.5, True, True, 5, ((0, 1),), False, 6),
        ((0, 3), 0, 'read()', 'strong', 2.6, 3.6856182384909246, "'ababc'", 2.6, True, True, 6, ((0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (0, 2)), True, 7),
        ((1, 3), 1, 'read()', 'weak', 9.0, 9.05, "'ababc'", 8.3, True, True, 7, ((0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (0, 2), (0, 3)), False, 8),
    ],
}
COUNTS = {
    'anti-entropy-heal': ([1, 1, 6], [12, 12, 17]),
    'crash-recovery': ([0, 0, 0], [5, 5, 8]),
    'filtered-jitter': ([11, 10, 1], [19, 18, 9]),
    'modified-paxos': ([7, 5, 3], [12, 10, 8]),
    'modified-sequencer': ([6, 5, 4], [11, 10, 9]),
    'modified-sequencer-batched': ([6, 5, 3], [11, 10, 8]),
    'original-paxos': ([14, 9, 1], [22, 17, 9]),
    'original-sequencer': ([8, 7, 1], [16, 15, 9]),
    'original-sequencer-batched': ([8, 7, 0], [16, 15, 8]),
}
EVENTS = {
    'anti-entropy-heal': (195, 101, 101, 0, 0),
    'crash-recovery': (73, 48, 44, 4, 0),
    'filtered-jitter': (170, 81, 81, 0, 4),
    'modified-paxos': (205, 117, 117, 0, 0),
    'modified-sequencer': (73, 32, 32, 0, 0),
    'modified-sequencer-batched': (56, 32, 32, 0, 0),
    'original-paxos': (287, 157, 157, 0, 0),
    'original-sequencer': (128, 64, 64, 0, 0),
    'original-sequencer-batched': (95, 64, 64, 0, 0),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_frozen_history_matches_recorded_values(name):
    cluster = RUNS[name]()
    rows = _frozen(cluster)
    golden = GOLDEN[name]
    assert len(rows) == len(golden)
    for row, expected in zip(rows, golden):
        for field, got, want in zip(FIELDS, row, expected):
            assert got == want, f"{name}: event {row[0]} field {field!r}"
    assert _work_counts(cluster) == COUNTS[name]
    assert _event_counts(cluster) == EVENTS[name]


def test_golden_runs_cover_the_fields_the_refactor_could_lose():
    """The recorded runs exercise every non-default value of the fields a
    record merge could silently drop."""
    every = [dict(zip(FIELDS, row)) for rows in GOLDEN.values() for row in rows]
    assert any(event["stable"] for event in every)
    assert any(not event["stable"] for event in every)
    assert any(not event["tob_cast"] for event in every)
    assert any(event["perceived_trace"] for event in every)
    # The op the crash left unanswered still committed.
    assert any(
        event["rval"] == "∇" and event["tob_no"] is not None for event in every
    )


if __name__ == "__main__":  # pragma: no cover - re-recording entry point
    recorded = {run_name: run() for run_name, run in sorted(RUNS.items())}
    print("GOLDEN = {")
    for run_name, run_cluster in recorded.items():
        print(f"    {run_name!r}: [")
        for frozen_row in _frozen(run_cluster):
            print(f"        {frozen_row!r},")
        print("    ],")
    print("}")
    print("COUNTS = {")
    for run_name, run_cluster in recorded.items():
        print(f"    {run_name!r}: {_work_counts(run_cluster)!r},")
    print("}")
    print("EVENTS = {")
    for run_name, run_cluster in recorded.items():
        print(f"    {run_name!r}: {_event_counts(run_cluster)!r},")
    print("}")
