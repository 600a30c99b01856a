"""Unit tests for the durable-store layer (stable storage for recovery)."""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.paxos import Batch
from repro.core import durability
from repro.core.durability import (
    DurabilityError,
    InMemoryStore,
    JsonLinesStore,
    from_jsonable,
    open_store,
    to_jsonable,
)
from repro.core.request import Req
from repro.datatypes.base import Operation
from repro.datatypes.counter import Counter
from repro.datatypes.rlist import RList
from repro.net.faults import CrashSchedule
from repro.core.cluster import BayouCluster
from repro.core.config import BayouConfig
from tests.test_wire_codec import dots, reqs, values


# ----------------------------------------------------------------------
# Wire encoding
# ----------------------------------------------------------------------
class TestJsonableCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            3,
            2.5,
            "text",
            (1, 2),
            [1, "a", (2, 3)],
            {"plain": 1},
            {(0, 1): "tuple-keyed", 2: "int-keyed"},
            Operation("append", ("x",)),
            Req(timestamp=1.5, dot=(0, 3), strong=True, op=Operation("read")),
            {"nested": [((0, 1), Req(0.0, (1, 1), False, Operation("op", (1,))))]},
        ],
    )
    def test_round_trip(self, value):
        assert from_jsonable(to_jsonable(value)) == value

    def test_round_trip_preserves_types(self):
        restored = from_jsonable(to_jsonable((1, [2, (3,)])))
        assert isinstance(restored, tuple)
        assert isinstance(restored[1], list)
        assert isinstance(restored[1][1], tuple)

    def test_unencodable_value_fails_loudly(self):
        with pytest.raises(DurabilityError):
            to_jsonable(object())

    def test_tilde_keyed_dict_stays_reversible(self):
        value = {"~t": "not a tuple tag"}
        assert from_jsonable(to_jsonable(value)) == value


# ----------------------------------------------------------------------
# Stores
# ----------------------------------------------------------------------
@pytest.fixture
def open_modes(monkeypatch):
    """The mode of every ``open`` the durability module makes, in order."""
    modes = []

    def recording_open(path, mode="r", **kwargs):
        modes.append(mode)
        return open(path, mode, **kwargs)

    monkeypatch.setattr(durability, "open", recording_open, raising=False)
    return modes


class TestStores:
    def test_open_store_backends(self, tmp_path):
        assert open_store("none") is None
        assert isinstance(open_store("memory"), InMemoryStore)
        assert isinstance(
            open_store("jsonl", directory=str(tmp_path)), JsonLinesStore
        )
        with pytest.raises(DurabilityError):
            open_store("jsonl")
        with pytest.raises(DurabilityError):
            open_store("floppy")

    @pytest.mark.parametrize("backend", ["memory", "jsonl"])
    def test_log_append_order_and_kv(self, backend, tmp_path):
        store = open_store(backend, directory=str(tmp_path))
        log = store.log("test.log")
        for i in range(5):
            log.append((i, f"v{i}"))
        assert len(log) == 5
        assert store.log("test.log").records() == [(i, f"v{i}") for i in range(5)]
        store.put("k", 1)
        store.put("k", 2)  # last write wins
        assert store.get("k") == 2
        assert store.get("missing", "default") == "default"

    def test_jsonl_survives_process_restart(self, tmp_path):
        """Re-opening the directory models an operating-system restart."""
        req = Req(timestamp=2.0, dot=(1, 4), strong=False, op=RList.append("z"))
        first = JsonLinesStore(str(tmp_path))
        first.log("replica.wal").append(req)
        first.put("replica.curr_event_no", 4)
        reopened = JsonLinesStore(str(tmp_path))
        assert reopened.log("replica.wal").records() == [req]
        assert reopened.get("replica.curr_event_no") == 4

    def test_log_names_are_kept_verbatim(self, tmp_path):
        """Names are data in the journal, not file names: nothing to sanitise,
        so ``x/y`` and ``x_y`` cannot land in one log (they once shared a file)."""
        store = JsonLinesStore(str(tmp_path))
        store.log("weird/..name").append("x")
        store.log("x/y").append(1)
        store.log("x_y").append(2)
        reopened = JsonLinesStore(str(tmp_path))
        assert reopened.log("weird/..name").records() == ["x"]
        assert reopened.log("x/y").records() == [1]
        assert reopened.log("x_y").records() == [2]
        assert os.listdir(tmp_path) == ["journal.jsonl"]

    @pytest.mark.parametrize("backend", ["memory", "jsonl"])
    def test_kv_area_name_is_not_a_log(self, backend, tmp_path):
        with pytest.raises(DurabilityError):
            open_store(backend, directory=str(tmp_path)).log("~kv")

    def test_memory_store_keeps_records_by_reference(self):
        store = InMemoryStore()
        record, value = (1, [2]), {"k": object()}  # not even encodable
        store.log("a").append(record)
        store.put("k", value)
        assert store.log("a").records()[0] is record
        assert store.get("k") is value

    def test_second_reader_sees_every_flushed_write(self, tmp_path):
        """The flush contract — what a SIGKILL survivor finds: each write is
        in the operating system before ``append`` / ``put`` returns."""
        writer = JsonLinesStore(str(tmp_path))
        for i in range(3):
            writer.log("a").append((i, "v"))
            writer.put("k", i)
            reader = JsonLinesStore(str(tmp_path))  # writer still open
            assert reader.log("a").records() == [(j, "v") for j in range(i + 1)]
            assert reader.get("k") == i

    def test_journal_is_opened_for_append_once(self, tmp_path, open_modes):
        store = JsonLinesStore(str(tmp_path))
        for i in range(20):
            store.log(f"log{i % 3}").append(i)
            store.put("k", i)
        assert open_modes == ["a"]  # nothing to replay, no reopen per write
        JsonLinesStore(str(tmp_path))
        assert open_modes == ["a", "rb", "a"]

    def test_torn_final_line_is_dropped_and_cut_off(self, tmp_path):
        """A write cut short by ``kill -9`` loses that record only, and the
        next record is not glued onto the fragment."""
        store = JsonLinesStore(str(tmp_path))
        store.log("a").append((1, "whole"))
        store.put("k", "whole")
        journal = tmp_path / "journal.jsonl"
        whole = journal.read_bytes()
        for fragment in (b'["a", {"~t": [2, "to', b'["a", 2]', b"\xe2\x82"):
            journal.write_bytes(whole + fragment)
            reopened = JsonLinesStore(str(tmp_path))
            assert reopened.log("a").records() == [(1, "whole")]
            assert reopened.get("k") == "whole"
            assert journal.read_bytes() == whole
            reopened.log("a").append((3, "next"))
            assert JsonLinesStore(str(tmp_path)).log("a").records() == [
                (1, "whole"),
                (3, "next"),
            ]

    @pytest.mark.parametrize(
        "content",
        [
            '["a", 1]\n["a", {"~t": [2, \n["a", 3]\n',
            '["a", 1]\n5\n["a", 3]\n',  # JSON, but not a journal line
            # A kill cuts a write before its newline, never after it: a whole
            # last line that does not decode was acknowledged, then damaged.
            '["a", 1]\n["a", {"~t": [2, \n',
        ],
    )
    def test_undecodable_whole_line_is_an_error(self, tmp_path, content):
        journal = tmp_path / "journal.jsonl"
        journal.write_text(content)
        with pytest.raises(DurabilityError, match=r"journal\.jsonl:2"):
            JsonLinesStore(str(tmp_path))
        assert journal.read_text() == content

    def test_old_layout_directory_is_refused(self, tmp_path):
        """One file per log plus a kv file is what this store used to write;
        it is not read any more, and must not look like an empty disk."""
        (tmp_path / "replica.wal.jsonl").write_text("[1, 2]\n")
        with pytest.raises(DurabilityError, match="layout"):
            JsonLinesStore(str(tmp_path))
        assert not (tmp_path / "journal.jsonl").exists()


# ----------------------------------------------------------------------
# One format: any interleaving of writes reads back equal, on both backends
# ----------------------------------------------------------------------
LOG_NAMES = ["replica.wal", "rb.log", "paxos/acc", "paxos_acc"]
KV_KEYS = ["a.k", "b.k", "~kv"]
_records = st.one_of(
    values,  # scalars, tuples, lists, dicts with non-string keys, Operation, Req
    st.builds(Batch, st.lists(st.tuples(dots, reqs), max_size=3).map(tuple)),
)
_writes = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.sampled_from(LOG_NAMES), _records),
        st.tuples(st.just("put"), st.sampled_from(KV_KEYS), _records),
    ),
    max_size=30,
)


@pytest.mark.parametrize("backend", ["memory", "jsonl"])
@settings(max_examples=60, deadline=None)
@given(writes=_writes)
def test_any_interleaving_of_writes_round_trips(backend, writes):
    logs, kv = {}, {}
    with tempfile.TemporaryDirectory() as directory:
        store = open_store(backend, directory=directory)
        for verb, name, record in writes:
            if verb == "append":
                store.log(name).append(record)
                logs.setdefault(name, []).append(record)
            else:
                store.put(name, record)
                kv[name] = record
        if backend == "jsonl":  # the disk is what survives, not the object
            store = JsonLinesStore(directory)
        for name in LOG_NAMES:
            assert store.log(name).records() == logs.get(name, [])
            assert len(store.log(name)) == len(logs.get(name, []))
        for key in KV_KEYS:
            assert store.get(key) == kv.get(key)


# ----------------------------------------------------------------------
# End-to-end: a cluster over the JSON-lines backend
# ----------------------------------------------------------------------
class TestJsonlCluster:
    def test_crash_recovery_over_jsonl(self, tmp_path, open_modes):
        config = BayouConfig(
            n_replicas=3,
            exec_delay=0.05,
            message_delay=0.5,
            durability="jsonl",
            durability_dir=str(tmp_path),
        )
        crashes = CrashSchedule()
        crashes.add(1, crash_at=5.0, recover_at=15.0)
        cluster = BayouCluster(Counter(), config, crashes=crashes)
        cluster.schedule_invoke(1.0, 1, Counter.increment(1))
        cluster.schedule_invoke(7.0, 0, Counter.increment(2))
        cluster.schedule_invoke(20.0, 1, Counter.increment(4))
        cluster.run_until_quiescent()
        assert cluster.converged()
        assert cluster.replicas[1].state.snapshot()["counter:value"] == 7
        # The write-ahead log really hit the disk: one journal per replica,
        # three ``replica.wal`` lines in node 1's.
        for pid in range(3):
            assert os.listdir(tmp_path / f"node{pid}") == ["journal.jsonl"]
        assert open_modes == ["a"] * 3  # once per store: recovery reopens nothing
        journal = (tmp_path / "node1" / "journal.jsonl").read_text()
        assert journal.count('["replica.wal", ') == 3

    def test_cluster_restart_over_jsonl_directory_keeps_state(self, tmp_path):
        """A *new* cluster over the same directory models an OS-level
        restart of every replica: committed state, the replicated value and
        the event counters must all come back (no dot reuse)."""
        config = BayouConfig(
            n_replicas=2,
            exec_delay=0.05,
            message_delay=0.5,
            durability="jsonl",
            durability_dir=str(tmp_path),
        )
        first = BayouCluster(RList(), config)
        first.schedule_invoke(1.0, 0, RList.append("a"))
        first.schedule_invoke(2.0, 1, RList.append("b"))
        first.run_until_quiescent()
        expected = first.replicas[0].state.snapshot()
        assert expected["list:items"] == ("a", "b")

        restarted = BayouCluster(RList(), config)
        assert all(replica.restored_from_store for replica in restarted.replicas)
        restarted.schedule_invoke(1.0, 0, RList.append("c"))
        restarted.run_until_quiescent()
        assert restarted.converged()
        snapshot = restarted.replicas[1].state.snapshot()
        assert snapshot["list:items"] == ("a", "b", "c")
        # Event numbering continued: the new append minted dot (0, 2).
        assert restarted.replicas[0].curr_event_no == 2
        assert [req.dot for req in restarted.replicas[0].committed][:2] == [
            (0, 1),
            (1, 1),
        ]

    def test_validate_rejects_dir_without_jsonl(self):
        with pytest.raises(ValueError):
            BayouConfig(durability="memory", durability_dir="/tmp/x").validate()
        with pytest.raises(ValueError):
            BayouConfig(durability="postgres").validate()
