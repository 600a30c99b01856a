"""The one-pass durable encoder against the two-pass encoder it replaced.

:func:`repro.core.durability.dumps` writes the tagged JSON text directly.
Its contract is the text the old encoder produced, ``json.dumps`` of the
tree ``_reference_to_jsonable`` builds, byte for byte, so either encoder
writes the same journal files. The reference is kept here, verbatim, as
the oracle.

Also pinned here:

- the store's per-request memo (a request is encoded once per store, equal
  but distinct requests keep their own text, a recycled ``id`` never
  serves stale text);
- a record that contains itself fails with the codec's own error and
  leaves the journal and the in-memory log untouched;
- the journals of one seeded crash-recovery run, by sha256.
"""

from __future__ import annotations

import collections
import enum
import hashlib
import json
import math
import weakref
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.paxos import Batch
from repro.core import durability
from repro.core.durability import (
    _CODECS,
    DurabilityError,
    JsonLinesStore,
    dumps,
    from_jsonable,
    to_jsonable,
)
from repro.core.request import Req
from repro.datatypes import KVStore
from repro.datatypes.base import Operation
from repro.runtime.wire import WireError, encode_frame
from repro.scenario import Scenario
from tests.test_wire_codec import CODEC_EXAMPLES, dots, reqs, values


def _reference_to_jsonable(value: Any) -> Any:
    """The two-pass encoder's first pass, as it stood before ``dumps``."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Req):
        return {
            "~req": [
                value.timestamp,
                _reference_to_jsonable(value.dot),
                value.strong,
                _reference_to_jsonable(value.op),
            ]
        }
    if isinstance(value, Operation):
        return {"~op": [value.name, _reference_to_jsonable(value.args)]}
    for tag, (cls, encode, _decode) in _CODECS.items():
        if isinstance(value, cls):
            return {tag: _reference_to_jsonable(encode(value))}
    if isinstance(value, tuple):
        return {"~t": [_reference_to_jsonable(item) for item in value]}
    if isinstance(value, list):
        return [_reference_to_jsonable(item) for item in value]
    if isinstance(value, dict):
        if all(isinstance(key, str) and not key.startswith("~") for key in value):
            return {key: _reference_to_jsonable(item) for key, item in value.items()}
        return {
            "~d": [
                [_reference_to_jsonable(key), _reference_to_jsonable(item)]
                for key, item in value.items()
            ]
        }
    raise DurabilityError(f"cannot persist {value!r}")


def _reference_dumps(value: Any) -> str:
    return json.dumps(_reference_to_jsonable(value))


# ----------------------------------------------------------------------
# Byte for byte
# ----------------------------------------------------------------------
batches = st.builds(Batch, st.lists(st.tuples(dots, reqs), max_size=3).map(tuple))


@settings(max_examples=300, deadline=None)
@given(st.one_of(values, batches, st.sampled_from(sorted(CODEC_EXAMPLES.values(), key=repr))))
def test_dumps_matches_the_two_pass_encoder(value):
    text = dumps(value)
    assert text == _reference_dumps(value)
    assert to_jsonable(value) == _reference_to_jsonable(value)
    assert from_jsonable(json.loads(text)) == value


@pytest.mark.parametrize("tag", sorted(CODEC_EXAMPLES))
def test_every_registered_codec_matches(tag):
    value = {"payload": CODEC_EXAMPLES[tag], "again": [CODEC_EXAMPLES[tag]]}
    assert dumps(value) == _reference_dumps(value)


class _Colour(enum.IntEnum):
    RED = 3


_Pair = collections.namedtuple("_Pair", "left right")


class _Text(str):
    pass


class _Real(float):
    pass


class _Items(list):
    pass


EDGE_CASES = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "-0.0": -0.0,
    "float-extremes": (5e-324, 1.7976931348623157e308, 1e16, 0.1 + 0.2),
    "int-2**63": (2**63, -(2**63), 2**63 - 1, 2**64 + 1),
    "bools-in-tuple": (True, False, None, 1, 0),
    "non-ascii-value": "é日本\U0001f600",
    "control-chars": "\x00\x01\x1f\x7f\t\n\r\"\\/",
    "non-ascii-keys": {"é": 1, "\n": (2,), "日本": None},
    "tag-keys": {"~t": 1, "~req": (2,)},
    "tag-key-alone": {"~t": [1, 2]},
    "mixed-keys": {1: "int", "s": "str", (0, 1): "dot", None: "none"},
    "int-enum": _Colour.RED,
    "int-enum-key": {_Colour.RED: "red"},
    "namedtuple": _Pair(1, ("x", 2.5)),
    "str-subclass": _Text("sub"),
    "float-subclass": (_Real(1.5), _Real(math.inf)),
    "list-subclass": _Items([1, (2, "x"), _Items([])]),
    "empties": ((), [], {}, ""),
    "nested-req": [{"r": Req(0.5, (2, 9), False, Operation("put", ("k", (1.0, None))))}],
    "req-int-timestamp": Req(3, (0, 1), True, Operation("get", ("k",))),
}


@pytest.mark.parametrize("value", list(EDGE_CASES.values()), ids=list(EDGE_CASES))
def test_edge_cases_match_the_two_pass_encoder(value):
    assert dumps(value) == _reference_dumps(value)
    assert dumps(value).isascii()


def test_an_unencodable_object_fails_loudly():
    with pytest.raises(DurabilityError):
        dumps([1, object()])
    with pytest.raises(DurabilityError):
        to_jsonable(object())


def test_a_codec_cannot_claim_plain_tuples():
    with pytest.raises(DurabilityError, match="tuples"):
        durability.register_codec("~seq", object, repr, repr)
    assert "~seq" not in _CODECS


# ----------------------------------------------------------------------
# The store's memo: once per store, never stale
# ----------------------------------------------------------------------
def _journal_lines(directory) -> list:
    with open(directory / "journal.jsonl", encoding="ascii") as handle:
        return handle.read().splitlines()


def test_a_request_in_four_logs_is_encoded_once(tmp_path, monkeypatch):
    req = Req(1.25, (1, 4), True, Operation("put", ("k", 1)))
    seen = []
    encode = durability._encode

    def counting(value, memo):
        if value is req.op:
            seen.append(value)
        return encode(value, memo)

    monkeypatch.setattr(durability, "_encode", counting)
    store = JsonLinesStore(str(tmp_path))
    batch = Batch(((req.dot, req),))
    records = {
        "replica.wal": req,
        "rb.log": (req.dot, req),
        "paxos.acc": (0, (1, 0), (1, 0), batch),
        "paxos.decided": (0, batch),
    }
    for name, record in records.items():
        store.log(name).append(record)
    assert len(seen) == 1
    assert _journal_lines(tmp_path) == [
        _reference_dumps([name, record]) for name, record in records.items()
    ]


def test_equal_but_distinct_requests_keep_their_own_text(tmp_path):
    """``0.0 == -0.0`` and ``1 == True``: requests that compare equal can
    still encode differently, so the memo must go by identity."""
    pairs = [
        (Req(0.0, (0, 1), False, Operation("put", ("k", 1))),
         Req(-0.0, (0, 1), False, Operation("put", ("k", True)))),
        (Req(2.0, (1, 1), True, Operation("get", ("k",))),
         Req(2, (1, 1), True, Operation("get", ("k",)))),
    ]
    store = JsonLinesStore(str(tmp_path))
    written = []
    for first, second in pairs:
        assert first == second
        for record in (first, (first.dot, second), second, [first, second]):
            store.log("log").append(record)
            written.append(record)
    assert _journal_lines(tmp_path) == [
        _reference_dumps(["log", record]) for record in written
    ]
    assert len(set(_journal_lines(tmp_path))) == len(written)


def test_a_recycled_id_is_never_served_stale_text(tmp_path, monkeypatch):
    """Overwritten kv values are dropped by the store; only the memo keeps a
    request alive, until the memo is emptied. After that the allocator hands
    the freed ids to new requests, which must get their own text."""
    monkeypatch.setattr(durability, "_MEMO_REQUESTS", 8)
    store = JsonLinesStore(str(tmp_path))
    ids = set()  # an id seen before belonged to a request that is gone
    recycled = 0
    expected = []
    for number in range(300):
        req = Req(number / 4, (number % 3, number), number % 2 == 0,
                  Operation("put", (f"k{number}", number)))
        recycled += id(req) in ids
        ids.add(id(req))
        store.put("latest", req)
        expected.append(_reference_dumps(["~kv", ["latest", req]]))
        held = weakref.ref(req)
        del req
        assert held() is not None  # the memo entry holds it
    assert recycled > 0
    assert _journal_lines(tmp_path) == expected


# ----------------------------------------------------------------------
# A record that contains itself
# ----------------------------------------------------------------------
def _cyclic():
    record = [1, "x"]
    record.append({"self": record})
    return record


def test_a_cyclic_record_is_refused_and_nothing_is_written(tmp_path):
    store = JsonLinesStore(str(tmp_path))
    store.log("a").append((1, "whole"))
    store.put("k", "whole")
    before = (tmp_path / "journal.jsonl").read_bytes()
    with pytest.raises(DurabilityError, match="contains itself"):
        store.log("a").append(_cyclic())
    with pytest.raises(DurabilityError, match="contains itself"):
        store.put("k", (0, _cyclic()))
    assert (tmp_path / "journal.jsonl").read_bytes() == before
    assert store.log("a").records() == [(1, "whole")]
    assert store.get("k") == "whole"
    store.log("a").append((2, "after"))  # the store still works
    reopened = JsonLinesStore(str(tmp_path))
    assert reopened.log("a").records() == [(1, "whole"), (2, "after")]
    assert reopened.get("k") == "whole"


def test_a_cyclic_wire_value_is_a_wire_error():
    with pytest.raises(WireError, match="contains itself"):
        encode_frame({"kind": "msg", "payload": _cyclic()})


# ----------------------------------------------------------------------
# Journal golden: the files a seeded crash-recovery run leaves behind
# ----------------------------------------------------------------------
#: Recorded with the two-pass encoder; a change to the encoder must not
#: move them. They move when what the replicas write moves (a protocol or
#: schedule change), and are then re-recorded on purpose.
JOURNAL_SHA256 = {
    "node0": "a6317ab6c73e1836d62c4655ed1e2a785314dca47bc3b6b684bcbc35d1990d23",
    "node1": "838a37762776fe514c081289c101431eb3e2da41e239154561e929472efddc1d",
    "node2": "31b4fa5a38f76c8c2e4c76067b19586b7bbd368871e3ce1a64c45e5d06b0bb38",
}

_GOLDEN_VALUES = (
    "plain", "é", "日本", "tab\there", 'quote"back\\slash', "\x00\x1f",
    2.5, -0.0, 1e300, 2**63, True, None, ("nested", (1, 2.25)),
)


def _journal_golden_run(directory: str) -> None:
    """Paxos + RB, three replicas, the leader crashes and recovers, with a
    committed-prefix checkpoint every four executions."""
    scenario = (
        Scenario(KVStore(), name="journal_golden")
        .replicas(3)
        .config(
            message_delay=1.0,
            latency_jitter=0.3,
            exec_delay=0.05,
            tob_engine="paxos",
            heartbeat_interval=10.0,
            failure_timeout=35.0,
            paxos_retry_interval=20.0,
            checkpoint_interval=4,
        )
        .seed(11)
        .durability("jsonl", directory=directory)
        .crash(0, 8.0, recover_at=30.0)
    )
    # Eight writes before the crash, the rest once the leader is back.
    for index, value in enumerate(_GOLDEN_VALUES):
        at = 1.0 + index * 0.5 if index < 8 else 100.0 + index
        scenario.invoke(at, index % 3, KVStore.put(f"k{index % 5}", value), strong=index % 3 == 0)
    live = scenario.build()
    live.run(until=150.0)
    live.settle()
    assert live.converged()
    assert [len(replica.committed) for replica in live.cluster.replicas] == [13] * 3


def test_journal_bytes_are_unchanged(tmp_path):
    _journal_golden_run(str(tmp_path))
    digests = {
        node: hashlib.sha256((tmp_path / node / "journal.jsonl").read_bytes()).hexdigest()
        for node in sorted(JOURNAL_SHA256)
    }
    assert digests == JOURNAL_SHA256
