"""Durable (stable-storage) state for crash–recovery replicas.

The paper's model lets replicas "crash silently and cease all
communication"; the original 1995 Bayou kept its write log in stable
storage precisely so a crashed replica could come back and catch up. This
module is that stable storage, shared by every component living on a
:class:`~repro.net.node.RoutingNode`:

- a :class:`DurableStore` is one replica's disk. It exposes *named
  append-only logs* (``store.log("replica.wal")``) and a small *key–value
  area* (``store.put`` / ``store.get``). Component state is namespaced by
  prefixing keys/log names with the component tag, so one store serves the
  replica, the dissemination endpoint and the TOB engine at once.
- :class:`InMemoryStore` models perfect stable storage: whatever was
  written before the crash is readable after recovery, with zero I/O cost.
  It survives :meth:`Process.crash` because crashing wipes only *volatile*
  state — the store object itself plays the role of the disk.
- :class:`JsonLinesStore` is the same store written through to one
  append-only file per replica, ``<directory>/journal.jsonl``, so a
  recovery can also be exercised across operating-system processes.
  Records must be encodable by :func:`dumps` (requests, operations,
  tuples, dicts, registered codec types and JSON scalars; arbitrary
  objects are rejected loudly, and so is a record that contains itself).

:func:`dumps` is the one encoder and :func:`loads` the one decoder, both
shared with the wire codec (:mod:`repro.runtime.wire`). :func:`dumps`
writes the tagged JSON text in one pass: tuples, non-string-keyed dicts,
:class:`Req`, :class:`Operation` and registered codec types are tagged
(``{"~t": [...]}`` and friends) so :func:`loads` restores an equal Python
value. The text is exactly what the standard ``json`` encoder, at its
defaults, gives for the tagged tree: ``", "`` and ``": "`` separators,
ASCII only (other characters as ``\\u`` escapes), ``NaN`` / ``Infinity``
for non-finite floats. :func:`loads` is one C-scanner pass whose object
hook turns each tagged object into its value as the object closes.
:func:`to_jsonable` is the tagged tree, parsed back from the text, and
:func:`from_jsonable` inverts it bottom-up through the same tag table;
the replica's checkpoint keeps its state in that tree form.

The journal encodes each value once per process. Every
:class:`JsonLinesStore` shares one memo from ``id(value)`` to ``(value,
text)``, for requests and for values of registered codec types whose class
is a frozen dataclass (the Paxos ``Batch``): a request reaches the WAL, the
dissemination log and both Paxos logs of every replica in the process, and
a batch both Paxos logs. Each entry holds its value, so the id cannot be
reused while the entry lives. The memo holds at most 2,048 values
(``_MEMO_ENTRIES``) and drops the oldest first; a value written again after
that is encoded again, to the same text. :func:`dumps` keeps a memo per
call. The encoder resolves the ``isinstance`` order for a type it has not
seen once and caches the result; :func:`register_codec` empties that cache.

The journal holds one JSON line per write, in write order: ``[name,
record]`` for ``log(name).append(record)``, ``["~kv", [key, value]]`` for
``put(key, value)``. The file is opened once, for unbuffered binary
append, when the store is built, and closed by :meth:`JsonLinesStore.close`.
Each line is written with one call (a short write is completed, never
dropped), so it is in the operating system before the call returns (no
fsync: it survives ``kill -9``, not a power cut) and nothing is buffered
across calls. Opening a store replays the journal once: a final
line without its newline (a write cut short by a kill) is truncated off the
file, an undecodable whole line raises :class:`DurabilityError`, and so does
a directory in the older one-file-per-log layout (refused, never read).

Writes are *write-ahead* with respect to the simulation: a component
persists a record in the same atomic simulation step that mutates its
in-memory state, so there is no window in which a crash loses
acknowledged state. Recovery (:meth:`Process.recover`) is the inverse:
each component's ``on_recover`` hook discards volatile state and reloads
from its namespace.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.core.request import Req
from repro.datatypes.base import Operation

__all__ = [
    "DurabilityError",
    "DurableLog",
    "DurableStore",
    "InMemoryStore",
    "JsonLinesStore",
    "dumps",
    "from_jsonable",
    "loads",
    "open_store",
    "register_codec",
    "to_jsonable",
]


class DurabilityError(RuntimeError):
    """Raised when a record cannot be persisted or decoded."""


# ----------------------------------------------------------------------
# Wire encoding (JSON-lines backend)
# ----------------------------------------------------------------------
#: tag -> (class, encode, decode): extension codecs registered by higher
#: layers (e.g. the shard layer's epoch-chain records). ``encode`` maps
#: an instance to a jsonable-friendly payload, ``decode`` inverts it.
_CODECS: Dict[str, Tuple[type, Callable[[Any], Any], Callable[[Any], Any]]] = {}


def register_codec(
    tag: str,
    cls: type,
    encode: Callable[[Any], Any],
    decode: Callable[[Any], Any],
) -> None:
    """Teach the durable codec a new tagged value type.

    ``core`` must not import the layers built on top of it, yet those
    layers have state that belongs in stable storage (the shard layer
    persists its placement-epoch chain so recovery rebuilds routing).
    Registering a codec gives such a type a reversible tagged encoding
    in every store backend without inverting the dependency. Tags share
    the ``~``-prefixed namespace of the built-in tags and must be unique.
    A codec cannot claim plain tuples or lists: the encoder handles those
    before it looks at the registry.
    """
    if not tag.startswith("~"):
        raise DurabilityError(f"codec tags must start with '~', got {tag!r}")
    if issubclass(tuple, cls) or issubclass(list, cls):
        raise DurabilityError(
            f"codec class {cls.__name__} would capture plain tuples or lists"
        )
    if tag in _UNTAG and tag not in _CODECS:
        raise DurabilityError(f"codec tag {tag!r} is a built-in tag")
    existing = _CODECS.get(tag)
    if existing is not None and existing[0] is not cls:
        raise DurabilityError(f"codec tag {tag!r} already registered")
    _CODECS[tag] = (cls, encode, decode)
    _UNTAG[tag] = decode
    _ENCODERS.clear()  # a type resolved before may now match this codec


_encode_str = json.encoder.encode_basestring_ascii
_int_repr = int.__repr__
_float_repr = float.__repr__
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: The most values the journal's memo holds before it drops its oldest. A
#: request and its batch take two entries, so it spans about 1,000 requests:
#: a replica that recovers after an outage of several hundred requests still
#: finds the values its catch-up writes (at 1,024 entries, a 600-request
#: outage re-encoded each of them). Three stores' 1,024-request memos, the
#: memo this one replaced, held up to 3,072 texts.
_MEMO_ENTRIES = 2048

_Memo = Dict[int, Tuple[Any, str]]

#: The journal's memo, shared by every JsonLinesStore of the process:
#: ``id(value) -> (value, text)`` in insertion order. It takes no lock: a
#: process journals from one thread (the simulator's or a server's loop).
_MEMO: _Memo = {}

_Encoder = Callable[[Any, _Memo], str]

#: exact type -> its encoder, resolved on first sight by :func:`_resolve`
#: for every value the fast path in :func:`_encode` does not handle.
_ENCODERS: Dict[type, _Encoder] = {}


def dumps(value: Any) -> str:
    """Encode ``value`` as tagged JSON text, reversibly, in one pass.

    Tuples, non-string-keyed dicts, :class:`Req`, :class:`Operation` and
    registered codec types are tagged so :func:`loads` restores the exact
    Python value — recovered replica state must compare equal to what
    survivors hold (bit-identical convergence is the whole point). The
    text is what the standard ``json`` encoder writes for the tagged tree
    at its defaults: ``", "`` / ``": "`` separators and ASCII only.

    >>> dumps({"k": (1, 2.5, None), (0, 1): "é"})
    '{"~d": [["k", {"~t": [1, 2.5, null]}], [{"~t": [0, 1]}, "\\\\u00e9"]]}'
    """
    return _encode(value, {})


def to_jsonable(value: Any) -> Any:
    """The tagged JSON tree of ``value``: what :func:`dumps` writes, parsed."""
    return json.loads(dumps(value))


def _encode(value: Any, memo: _Memo) -> str:
    # The exact types records are made of come first; any other type
    # (scalar subclasses, registered codec types, dicts) takes the encoder
    # _resolve picked for it.
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return _int_repr(value)
    if kind is tuple:
        # Dots and ballots are pairs of ints: no call and no list for them.
        if len(value) == 2:
            first, second = value
            if type(first) is int and type(second) is int:
                return f'{{"~t": [{_int_repr(first)}, {_int_repr(second)}]}}'
        items = [
            _int_repr(item) if type(item) is int else _encode(item, memo)
            for item in value
        ]
        return '{"~t": [' + ", ".join(items) + "]}"
    if kind is Req:
        return _encode_req(value, memo)
    if kind is list:
        return "[" + ", ".join([_encode(item, memo) for item in value]) + "]"
    if kind is float:
        text = _float_repr(value)
        return _NON_FINITE.get(text, text)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    encoder = _ENCODERS.get(kind)
    if encoder is None:
        encoder = _ENCODERS[kind] = _resolve(kind)
    return encoder(value, memo)


def _resolve(kind: type) -> _Encoder:
    """The encoder of exact type ``kind``: the first class in this order
    that it subclasses (scalars, requests and operations, registered codecs
    in registration order, then sequence and dict subclasses)."""
    if issubclass(kind, str):
        return lambda value, memo: _encode_str(value)
    if issubclass(kind, int):  # an IntEnum, say; bool never gets here
        return lambda value, memo: _int_repr(value)
    if issubclass(kind, float):
        return lambda value, memo: _encode(float(value), memo)
    if issubclass(kind, Req):
        return _encode_req
    if issubclass(kind, Operation):
        return _encode_op
    for tag, (cls, encode, _decode) in _CODECS.items():
        if issubclass(kind, cls):
            return _codec_encoder(tag, encode, memoize=_is_frozen_dataclass(kind))
    if issubclass(kind, tuple):  # a namedtuple, say
        return lambda value, memo: _encode(tuple(value), memo)
    if issubclass(kind, list):
        return lambda value, memo: _encode(list(value), memo)
    if issubclass(kind, dict):
        return _encode_dict
    return _refuse


def _encode_req(req: Req, memo: _Memo) -> str:
    entry = memo.get(id(req))
    if entry is None:
        text = (
            '{"~req": ['
            f"{_encode(req.timestamp, memo)}, {_encode(req.dot, memo)}, "
            f"{_encode(req.strong, memo)}, {_encode(req.op, memo)}]}}"
        )
        entry = memo[id(req)] = (req, text)
    return entry[1]


def _encode_op(value: Operation, memo: _Memo) -> str:
    return f'{{"~op": [{_encode(value.name, memo)}, {_encode(value.args, memo)}]}}'


def _is_frozen_dataclass(kind: type) -> bool:
    # The class itself, not a base: a plain subclass may add mutable state.
    params = vars(kind).get("__dataclass_params__")
    return params is not None and params.frozen


def _codec_encoder(tag: str, encode: Callable[[Any], Any], *, memoize: bool) -> _Encoder:
    head = f"{{{_encode_str(tag)}: "

    def encode_codec(value: Any, memo: _Memo) -> str:
        return f"{head}{_encode(encode(value), memo)}}}"

    if not memoize:
        return encode_codec

    def encode_frozen(value: Any, memo: _Memo) -> str:
        entry = memo.get(id(value))
        if entry is None:
            entry = memo[id(value)] = (value, encode_codec(value, memo))
        return entry[1]

    return encode_frozen


def _encode_dict(value: Dict[Any, Any], memo: _Memo) -> str:
    if all(isinstance(key, str) and not key.startswith("~") for key in value):
        items = [
            f"{_encode_str(key)}: {_encode(item, memo)}" for key, item in value.items()
        ]
        return "{" + ", ".join(items) + "}"
    items = [
        f"[{_encode(key, memo)}, {_encode(item, memo)}]" for key, item in value.items()
    ]
    return '{"~d": [' + ", ".join(items) + "]}"


def _refuse(value: Any, memo: _Memo) -> str:
    raise DurabilityError(
        f"cannot persist {value!r} of type {type(value).__name__}; the "
        "JSON-lines backend handles scalars, tuples, lists, dicts, "
        "Operation and Req only"
    )


def _untag_req(value: List[Any]) -> Req:
    timestamp, dot, strong, op = value
    return Req(timestamp, dot, strong, op)


def _untag_op(value: List[Any]) -> Operation:
    name, args = value
    return Operation(name, args)


#: tag -> function of the tagged object's (already decoded) value: the
#: built-in tags, then every registered codec's ``decode``.
_UNTAG: Dict[str, Callable[[Any], Any]] = {
    "~t": tuple,
    "~req": _untag_req,
    "~op": _untag_op,
    "~d": dict,
}


def _untag(obj: Dict[str, Any]) -> Any:
    # An object whose members are decoded already. A tagged object has
    # exactly one key; the encoder writes a plain dict with a "~"-prefixed
    # key in the "~d" form, so no plain dict is mistaken for one.
    if len(obj) == 1:
        for tag in obj:
            untag = _UNTAG.get(tag)
            if untag is not None:
                return untag(obj[tag])
    return obj


_DECODER = json.JSONDecoder(object_hook=_untag)


def loads(text: str) -> Any:
    """Decode :func:`dumps` text back to an equal Python value, in one pass.

    The C scanner parses the text and hands each JSON object, its members
    already decoded, to a hook that turns a tagged object into its value.
    This is the one decoder: journal replay and wire frames both use it.

    >>> loads(dumps({"k": (1, 2.5, None), (0, 1): "é"}))
    {'k': (1, 2.5, None), (0, 1): 'é'}
    """
    return _DECODER.decode(text)


def from_jsonable(value: Any) -> Any:
    """Invert :func:`to_jsonable`: untag a tree already parsed from text,
    bottom-up, through the same table as :func:`loads`."""
    if isinstance(value, list):
        return [from_jsonable(item) for item in value]
    if isinstance(value, dict):
        return _untag({key: from_jsonable(item) for key, item in value.items()})
    return value


# ----------------------------------------------------------------------
# Store interfaces
# ----------------------------------------------------------------------
class DurableLog:
    """One named append-only log inside a :class:`DurableStore`."""

    def append(self, record: Any) -> None:
        raise NotImplementedError

    def records(self) -> List[Any]:
        """All records, in append order (a fresh list each call)."""
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.records())


class DurableStore:
    """A replica's stable storage: named logs plus a key–value area."""

    def log(self, name: str) -> DurableLog:
        """The (created-on-first-use) append-only log called ``name``."""
        raise NotImplementedError

    def put(self, key: str, value: Any) -> None:
        """Durably set ``key`` (last write wins)."""
        raise NotImplementedError

    def get(self, key: str, default: Any = None) -> Any:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the store holds open; a second call does nothing."""


_KV = "~kv"  #: the key–value area's name in the journal (never a log's)


class _Log(DurableLog):
    """One named log: a cached list, written through to its store."""

    def __init__(self, name: str, write: Callable[[str, Any], None]) -> None:
        self._name = name
        self._write = write
        self._records: List[Any] = []

    def append(self, record: Any) -> None:
        self._write(self._name, record)
        self._records.append(record)

    def records(self) -> List[Any]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)


class InMemoryStore(DurableStore):
    """Perfect stable storage held in the host process.

    Models a disk that never loses a completed write; records are stored
    by reference (requests and operations are immutable, and snapshot
    values are copied by the writers before they reach the store).
    """

    def __init__(self) -> None:
        self._logs: Dict[str, _Log] = {}
        self._kv: Dict[str, Any] = {}

    def _write(self, name: str, record: Any) -> None:
        """Write-through hook: runs before a write lands in memory."""

    def log(self, name: str) -> _Log:
        log = self._logs.get(name)
        if log is None:
            if name == _KV:
                raise DurabilityError(f"{_KV!r} names the key-value area, not a log")
            log = self._logs[name] = _Log(name, self._write)
        return log

    def put(self, key: str, value: Any) -> None:
        self._write(_KV, [key, value])
        self._kv[key] = value

    def get(self, key: str, default: Any = None) -> Any:
        return self._kv.get(key, default)


class JsonLinesStore(InMemoryStore):
    """An :class:`InMemoryStore` journalled to ``<directory>/journal.jsonl``.

    Opening a second store over the same directory models an operating-system
    restart: everything written before the "crash" is visible again.
    """

    def __init__(self, directory: str) -> None:
        super().__init__()
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, "journal.jsonl")
        if os.path.exists(path):
            self._replay(path)
        elif any(entry.endswith(".jsonl") for entry in os.listdir(directory)):
            raise DurabilityError(f"{directory}: per-log *.jsonl layout is not read")
        self._journal = open(path, "ab", buffering=0)
        #: log name -> the line's ``["name", `` head, encoded once
        self._heads: Dict[str, str] = {}

    def close(self) -> None:
        """Close the journal file; the store takes no write after it."""
        self._journal.close()

    def _replay(self, path: str) -> None:
        with open(path, "rb") as handle:
            *lines, torn = handle.read().split(b"\n")
        for number, line in enumerate(lines, start=1):
            try:
                name, record = loads(line.decode("utf-8"))
            except (ValueError, TypeError) as error:
                raise DurabilityError(f"{path}:{number}: bad line") from error
            if name == _KV:
                self._kv[record[0]] = record[1]
            else:
                self.log(name)._records.append(record)
        if torn:  # a write cut short by a kill: the next one must not be glued on
            os.truncate(path, os.path.getsize(path) - len(torn))

    def _write(self, name: str, record: Any) -> None:
        head = self._heads.get(name)
        if head is None:
            head = self._heads[name] = f"[{_encode_str(name)}, "
        try:
            text = _encode(record, _MEMO)
        except RecursionError as error:
            raise DurabilityError(
                f"cannot persist a record of type {type(record).__name__} to "
                f"{name!r}: it contains itself (or nests too deep)"
            ) from error
        while len(_MEMO) > _MEMO_ENTRIES:
            _MEMO.pop(next(iter(_MEMO)), None)
        line = f"{head}{text}]\n".encode("ascii")
        written = self._journal.write(line)
        if written != len(line):
            self._write_rest(line, written)

    def _write_rest(self, line: bytes, written: int) -> None:
        # A short write (a signal, a nearly full disk): the rest of the line
        # follows before the call returns, so no line is left cut short.
        view = memoryview(line)
        while written < len(line):
            step = self._journal.write(view[written:])
            if not step:
                raise DurabilityError(f"{self.directory}: the journal took no bytes")
            written += step


def open_store(backend: str, *, directory: Optional[str] = None) -> Optional[DurableStore]:
    """Construct the store for one replica, or None for ``"none"``."""
    if backend == "none":
        return None
    if backend == "memory":
        return InMemoryStore()
    if backend == "jsonl":
        if directory is None:
            raise DurabilityError("the jsonl durability backend needs a directory")
        return JsonLinesStore(directory)
    raise DurabilityError(f"unknown durability backend {backend!r}")
