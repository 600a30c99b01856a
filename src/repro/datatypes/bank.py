"""Replicated bank accounts.

A transactional workload with strongly order-sensitive semantics:
``withdraw`` and ``transfer`` fail on insufficient funds, so their return
values depend on every prior operation touching the account. Issued weakly
they exhibit temporary reordering (a withdrawal may tentatively succeed and
finally fail); issued strongly they are safe — the bank-transfers example
demonstrates exactly this trade-off.

Each account is a separate register, so transactions only undo-log the
accounts they touch.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional, Tuple

from repro.datatypes.base import (
    CrossShardPlan,
    DataType,
    DbView,
    Operation,
    ShardedOp,
    operation,
)
from repro.errors import UnknownOperationError


def _reg(account: str) -> str:
    return f"bank:{account}"


class BankAccounts(DataType):
    """A replicated map of account balances with guarded updates."""

    @operation
    def deposit(account: str, amount: int) -> Operation:
        """Add ``amount``; returns the new balance."""
        return Operation("deposit", (account, amount))

    @operation
    def withdraw(account: str, amount: int) -> Operation:
        """Remove ``amount`` if covered; returns the new balance or None."""
        return Operation("withdraw", (account, amount))

    @operation(readonly=True)
    def balance(account: str) -> Operation:
        """Return the balance (0 for a never-touched account)."""
        return Operation("balance", (account,))

    @operation
    def transfer(source: str, target: str, amount: int) -> Operation:
        """Atomically move ``amount``; returns True on success."""
        return Operation("transfer", (source, target, amount))

    def execute(self, op: Operation, view: DbView) -> Any:
        if op.name == "deposit":
            account, amount = op.args
            balance = view.read(_reg(account)) or 0
            view.write(_reg(account), balance + amount)
            return balance + amount
        if op.name == "withdraw":
            account, amount = op.args
            balance = view.read(_reg(account)) or 0
            if balance < amount:
                return None
            view.write(_reg(account), balance - amount)
            return balance - amount
        if op.name == "balance":
            return view.read(_reg(op.args[0])) or 0
        if op.name == "transfer":
            source, target, amount = op.args
            source_balance = view.read(_reg(source)) or 0
            if source_balance < amount:
                return False
            if source == target:
                # A self-transfer moves nothing (and must not mint money).
                return True
            target_balance = view.read(_reg(target)) or 0
            view.write(_reg(source), source_balance - amount)
            view.write(_reg(target), target_balance + amount)
            return True
        raise UnknownOperationError(f"BankAccounts has no operation {op.name!r}")

    # ------------------------------------------------------------------
    # Sharding hooks
    # ------------------------------------------------------------------
    def keys_of(self, op: Operation) -> Tuple[Hashable, ...]:
        if op.name == "transfer":
            return (op.args[0], op.args[1])
        return (op.args[0],)

    def registers_of(self, key: Hashable) -> Tuple[Hashable, ...]:
        return (_reg(key),)

    def cross_shard_plan(self, op: Operation) -> Optional[CrossShardPlan]:
        if op.name != "transfer":
            return None
        source, target, amount = op.args
        # Debit first (the guarded step), credit once the debit committed.
        # Between the two TOB positions the amount is in flight; the
        # conservation invariant (no money minted or lost) holds again at
        # quiescence, which E12's conservation leg asserts.
        return CrossShardPlan(
            prepare=(ShardedOp(source, BankAccounts.withdraw(source, amount)),),
            commit=(ShardedOp(target, BankAccounts.deposit(target, amount)),),
            decide=lambda values: (values[0] is not None, values[0] is not None),
        )
