"""Base classes for replicated data types.

The paper models every request as an arbitrary deterministic transaction
that can be decomposed into register reads and writes plus local computation
(Appendix A.2.2). We mirror that: an :class:`Operation` names a transaction
of a :class:`DataType`; executing it means calling ``execute(op, view)``
where ``view`` exposes ``read(register_id)`` / ``write(register_id, value)``.

The *same* ``execute`` implementation serves three purposes:

1. live execution inside :class:`repro.core.state_object.StateObject`
   (which wraps the view to build undo logs),
2. the sequential specification ``F(op, context)`` used by the correctness
   checkers (replay the context's operations on a fresh
   :class:`PlainDb` in the context's order, then execute ``op``), and
3. plain single-copy execution in tests.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import UnknownOperationError


@dataclass(frozen=True)
class Operation:
    """An invocable transaction: a name plus arguments.

    Operations are immutable and hashable so they can be carried inside
    request messages, used as dictionary keys and compared structurally.
    """

    name: str
    args: Tuple[Any, ...] = ()

    def __repr__(self) -> str:
        rendered = ", ".join(repr(a) for a in self.args)
        return f"{self.name}({rendered})"


class DbView:
    """The read/write interface an operation executes against."""

    def read(self, register_id: Hashable) -> Any:
        """Return the current value of a register (None if never written)."""
        raise NotImplementedError

    def write(self, register_id: Hashable, value: Any) -> None:
        """Overwrite a register."""
        raise NotImplementedError


class PlainDb(DbView):
    """A direct, in-memory register map (no undo tracking)."""

    def __init__(self, initial: Optional[Dict[Hashable, Any]] = None) -> None:
        self.data: Dict[Hashable, Any] = dict(initial or {})

    def read(self, register_id: Hashable) -> Any:
        return self.data.get(register_id)

    def write(self, register_id: Hashable, value: Any) -> None:
        self.data[register_id] = value


#: Operation names of the shard-migration protocol. They never reach
#: ``DataType.execute``: :class:`~repro.core.state_object.StateObject`
#: intercepts them (the barrier is a pure no-op marking an epoch's
#: position in the source shard's TOB; the install writes a migrated
#: register snapshot, with normal undo tracking, at a fixed position in
#: the destination shard's order). They are invoked directly on replicas
#: — never through the cluster's client surface — so they hold no
#: history events and the guarantee checkers never see them.
EPOCH_BARRIER_OP = "__epoch_barrier__"
MIGRATION_INSTALL_OP = "__migration_install__"

#: Both protocol ops, for "skip these" checks in log scans.
MIGRATION_PROTOCOL_OPS = frozenset({EPOCH_BARRIER_OP, MIGRATION_INSTALL_OP})


@dataclass(frozen=True)
class ShardedOp:
    """One staged sub-operation of a cross-shard plan.

    ``key`` names the register-group the sub-operation touches; a sharded
    deployment routes it to the shard owning that key.
    """

    key: Hashable
    op: "Operation"


def _all_succeeded(prepare_values: Tuple[Any, ...]) -> Tuple[bool, Any]:
    """Default decision: commit iff no prepare returned None/False."""
    ok = all(value is not None and value is not False for value in prepare_values)
    return ok, ok


@dataclass(frozen=True)
class CrossShardPlan:
    """A prepare/commit decomposition of one multi-key operation.

    When a multi-key operation's keys land on different shards it cannot
    execute atomically inside one TOB; the plan stages it instead:

    1. every ``prepare`` sub-operation is submitted *strongly* through its
       owner shard's TOB (these are the guarded steps — e.g. the debit of
       a transfer — and may fail);
    2. once all prepares are committed, ``decide(prepare_values)`` returns
       ``(success, rval)`` — ``rval`` is the whole operation's response;
    3. on success the ``commit`` sub-operations are submitted strongly to
       their owner shards; on failure the ``abort`` compensations are
       (for plans whose prepares mutate state even when refused).

    Conservation-style invariants (no money minted or lost) hold at
    quiescence: between the prepare and commit TOB positions the moved
    quantity is "in flight", which weak reads may observe as staleness.
    """

    prepare: Tuple[ShardedOp, ...] = ()
    commit: Tuple[ShardedOp, ...] = ()
    abort: Tuple[ShardedOp, ...] = ()
    decide: Callable[[Tuple[Any, ...]], Tuple[bool, Any]] = _all_succeeded


@dataclass(frozen=True)
class OperationSpec:
    """Metadata of one declared operation of a :class:`DataType`.

    ``min_arity``/``max_arity`` bound the number of positional arguments the
    constructor accepts (``max_arity`` is None for variadic constructors).
    """

    name: str
    readonly: bool
    min_arity: int
    max_arity: Optional[int]
    doc: str = ""


#: Attribute names of the typed-proxy hosts (Session, ScenarioClient, and
#: the DataType machinery itself). An operation with one of these names
#: could never be reached through ``session.<name>(...)`` — it would
#: resolve to the host attribute instead — so declaration fails fast.
RESERVED_OPERATION_NAMES = frozenset(
    {
        # Session / ScenarioClient public surface
        "call",
        "cluster",
        "completed",
        "futures",
        "idle",
        "latencies",
        "launch_pending",
        "op",
        "ops",
        "pid",
        "scenario",
        "strong",
        "submit",
        "think_time",
        "weak",
        # DataType machinery
        "cross_shard_plan",
        "execute",
        "is_readonly",
        "keys_of",
        "registers_of",
        "op_spec",
        "operation_specs",
        "operations",
        "replay",
        "spec_return",
        "type_name",
    }
)


class operation:
    """Descriptor declaring a typed operation constructor on a DataType.

    Used either bare or with a ``readonly`` flag::

        class Counter(DataType):
            @operation
            def increment(amount: int = 1) -> Operation: ...

            @operation(readonly=True)
            def read() -> Operation: ...

    The wrapped function builds the wire-level :class:`Operation`; the
    descriptor registers an :class:`OperationSpec` on the owning class, so
    :meth:`DataType.operations` and :meth:`DataType.is_readonly` derive from
    the declarations instead of hand-maintained name sets. Accessing the
    attribute (``Counter.increment`` or ``counter.increment``) returns the
    plain constructor, so the historical ``DataType.op(...)`` call style
    keeps working unchanged — and session proxies resolve the same registry
    to offer ``session.increment(1)`` directly.
    """

    def __init__(
        self,
        func: Optional[Callable[..., "Operation"]] = None,
        *,
        readonly: bool = False,
    ) -> None:
        self.readonly = readonly
        self.func: Optional[Callable[..., "Operation"]] = None
        self.spec: Optional[OperationSpec] = None
        if func is not None:
            self._bind(func)

    def __call__(self, func: Callable[..., "Operation"]) -> "operation":
        """Support the ``@operation(readonly=True)`` decorator form."""
        self._bind(func)
        return self

    def _bind(self, func: Callable[..., "Operation"]) -> None:
        if isinstance(func, staticmethod):  # tolerate doubled decoration
            func = func.__func__
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        assert self.func is not None, f"@operation {name} wraps no constructor"
        if name in RESERVED_OPERATION_NAMES or name.startswith("_"):
            raise ValueError(
                f"{owner.__name__}.{name}: operation name {name!r} is "
                "reserved (it would be shadowed by the session/client "
                "proxy surface)"
            )
        min_arity, max_arity = _constructor_arity(self.func)
        self.spec = OperationSpec(
            name=name,
            readonly=self.readonly,
            min_arity=min_arity,
            max_arity=max_arity,
            doc=inspect.getdoc(self.func) or "",
        )
        if "_declared_specs" not in owner.__dict__:
            owner._declared_specs = {}
        owner.__dict__["_declared_specs"][name] = self.spec

    def __get__(self, instance: Any, owner: Optional[type] = None):
        return self.func


def _constructor_arity(func: Callable[..., Any]) -> Tuple[int, Optional[int]]:
    """The (min, max) positional-argument counts of an op constructor."""
    min_arity = 0
    max_arity: Optional[int] = 0
    for parameter in inspect.signature(func).parameters.values():
        if parameter.kind is inspect.Parameter.VAR_POSITIONAL:
            max_arity = None
        elif parameter.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            if max_arity is not None:
                max_arity += 1
            if parameter.default is inspect.Parameter.empty:
                min_arity += 1
    return min_arity, max_arity


class DataType:
    """Base class for replicated data types (``F`` in the paper).

    Subclasses declare their operations with the :class:`operation`
    descriptor and implement :meth:`execute`. The descriptor registry drives
    :meth:`operations` and :meth:`is_readonly` (the Section 3.4 requirement
    that read-only operations do not influence other operations' return
    values); ``READONLY`` is derived from the same registry for subclasses
    that do not set it explicitly, so legacy code reading it keeps working.
    """

    #: Names of the read-only operations of this type (derived from the
    #: ``@operation(readonly=True)`` declarations unless set explicitly).
    READONLY: frozenset = frozenset()

    #: name -> OperationSpec, merged across the MRO (set by __init_subclass__).
    _op_registry: Dict[str, OperationSpec] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        merged: Dict[str, OperationSpec] = {}
        for klass in reversed(cls.__mro__):
            merged.update(klass.__dict__.get("_declared_specs", {}))
        cls._op_registry = merged
        if merged and "READONLY" not in cls.__dict__:
            cls.READONLY = frozenset(
                spec.name for spec in merged.values() if spec.readonly
            )

    #: Human-readable type name (defaults to the class name).
    @property
    def type_name(self) -> str:
        return type(self).__name__

    def execute(self, op: Operation, view: DbView) -> Any:
        """Run ``op`` against ``view``; return the operation's response."""
        raise NotImplementedError

    def is_readonly(self, op: Operation) -> bool:
        """True if ``op`` is a read-only operation of this type."""
        spec = self._op_registry.get(op.name)
        if spec is not None:
            return spec.readonly
        return op.name in self.READONLY

    def operations(self) -> frozenset:
        """The full set of operation names (from the descriptor registry)."""
        if self._op_registry:
            return frozenset(self._op_registry)
        return self.READONLY

    # ------------------------------------------------------------------
    # Sharding hooks
    # ------------------------------------------------------------------
    def keys_of(self, op: Operation) -> Tuple[Hashable, ...]:
        """The keys (register groups) ``op`` touches, for shard routing.

        The default — an empty tuple — declares the type *unkeyed*: its
        whole state is one unit, so a sharded deployment routes every
        operation to the home shard (shard 0). Keyed types (``KVStore``,
        ``BankAccounts``) override this so a ``ShardMap`` can place each
        key's registers on exactly one shard.
        """
        return ()

    def registers_of(self, key: Hashable) -> Tuple[Hashable, ...]:
        """The register ids holding ``key``'s state, for live migration.

        A resharding handoff moves a key by copying exactly these
        registers out of the source shard's committed-prefix snapshot
        into the destination's. Keyed types (``KVStore``,
        ``BankAccounts``) override this; the default raises — an unkeyed
        type's state is one indivisible unit, so there is nothing a
        migration could carve out per key.
        """
        from repro.errors import MigrationError

        raise MigrationError(
            f"{self.type_name} declares no per-key register groups "
            "(registers_of); only keyed data types support live key "
            "migration"
        )

    def cross_shard_plan(self, op: Operation) -> Optional[CrossShardPlan]:
        """The prepare/commit staging of a multi-key ``op`` (or None).

        Only consulted when :meth:`keys_of` maps ``op`` onto more than one
        shard; returning None refuses the operation (the router raises
        :class:`~repro.errors.CrossShardError`).
        """
        return None

    @classmethod
    def operation_specs(cls) -> Dict[str, OperationSpec]:
        """The declared :class:`OperationSpec` registry of this type."""
        return dict(cls._op_registry)

    @classmethod
    def op_spec(cls, name: str) -> OperationSpec:
        """The spec of one operation; raises UnknownOperationError."""
        try:
            return cls._op_registry[name]
        except KeyError:
            raise UnknownOperationError(
                f"{cls.__name__} has no operation {name!r}"
            ) from None

    # ------------------------------------------------------------------
    # Sequential specification
    # ------------------------------------------------------------------
    def replay(
        self,
        ops: Iterable[Operation],
        db: Optional[PlainDb] = None,
    ) -> PlainDb:
        """Execute ``ops`` in order on a fresh (or given) database."""
        db = db if db is not None else PlainDb()
        for op in ops:
            self.execute(op, db)
        return db

    def spec_return(
        self,
        op: Operation,
        preceding: Sequence[Operation],
    ) -> Any:
        """The return value of ``op`` after ``preceding`` (the spec ``F``).

        This is the sequential specification used to *check* executions:
        ``F(op, C)`` where the context ``C`` is linearised into the sequence
        ``preceding`` by the (perceived) arbitration order. Read-only
        operations in ``preceding`` may be included or excluded freely — by
        the Section 3.4 requirement they cannot change the result, which the
        property tests verify for every data type.
        """
        db = self.replay(preceding)
        return self.execute(op, db)
