"""Unit tests for the replicated data types (the specification F)."""

import pytest

from repro.datatypes.base import PlainDb
from repro.datatypes.bank import BankAccounts
from repro.datatypes.counter import Counter
from repro.datatypes.kvstore import KVStore
from repro.datatypes.orset import SetType
from repro.datatypes.register import Register
from repro.datatypes.rlist import RList
from repro.errors import UnknownOperationError


# ----------------------------------------------------------------------
# Register
# ----------------------------------------------------------------------
def test_register_read_write_swap():
    register = Register()
    db = PlainDb()
    assert register.execute(Register.read(), db) is None
    assert register.execute(Register.write(5), db) is None
    assert register.execute(Register.read(), db) == 5
    assert register.execute(Register.swap(9), db) == 5
    assert register.execute(Register.read(), db) == 9


def test_register_readonly_classification():
    register = Register()
    assert register.is_readonly(Register.read())
    assert not register.is_readonly(Register.write(1))
    assert not register.is_readonly(Register.swap(1))


# ----------------------------------------------------------------------
# Counter
# ----------------------------------------------------------------------
def test_counter_arithmetic():
    counter = Counter()
    db = PlainDb()
    assert counter.execute(Counter.increment(3), db) == 3
    assert counter.execute(Counter.decrement(1), db) == 2
    assert counter.execute(Counter.read(), db) == 2


def test_counter_add_if_even_is_order_sensitive():
    counter = Counter()
    value_a = counter.spec_return(
        Counter.read(), [Counter.increment(1), Counter.add_if_even(10)]
    )
    value_b = counter.spec_return(
        Counter.read(), [Counter.add_if_even(10), Counter.increment(1)]
    )
    assert value_a == 1      # odd, conditional add skipped
    assert value_b == 11     # added while even, then incremented


# ----------------------------------------------------------------------
# RList (the paper's running example)
# ----------------------------------------------------------------------
def test_rlist_paper_semantics():
    rlist = RList()
    db = PlainDb()
    assert rlist.execute(RList.append("a"), db) == "a"
    assert rlist.execute(RList.duplicate(), db) == "aa"
    assert rlist.execute(RList.append("x"), db) == "aax"
    assert rlist.execute(RList.read(), db) == "aax"
    assert rlist.execute(RList.get_first(), db) == "a"
    assert rlist.execute(RList.size(), db) == 3
    assert rlist.execute(RList.remove_last(), db) == "x"
    assert rlist.execute(RList.read(), db) == "aa"


def test_rlist_duplicate_equals_append_read():
    """The paper: duplicate() ≡ atomically executing append(read())."""
    rlist = RList()
    history = [RList.append("a"), RList.append("x")]
    via_duplicate = rlist.spec_return(RList.read(), history + [RList.duplicate()])
    via_append = rlist.spec_return(RList.read(), history + [RList.append("ax")])
    assert via_duplicate == "axax"
    # append of the concatenation renders identically
    assert via_append == "axax"


def test_rlist_empty_edge_cases():
    rlist = RList()
    db = PlainDb()
    assert rlist.execute(RList.get_first(), db) is None
    assert rlist.execute(RList.remove_last(), db) is None
    assert rlist.execute(RList.duplicate(), db) == ""


# ----------------------------------------------------------------------
# KVStore
# ----------------------------------------------------------------------
def test_kv_put_get_remove():
    kv = KVStore()
    db = PlainDb()
    assert kv.execute(KVStore.put("k", 1), db) is None
    assert kv.execute(KVStore.put("k", 2), db) == 1
    assert kv.execute(KVStore.get("k"), db) == 2
    assert kv.execute(KVStore.remove("k"), db) == 2
    assert kv.execute(KVStore.get("k"), db) is None
    assert kv.execute(KVStore.contains("k"), db) is False


def test_put_if_absent_first_writer_wins():
    kv = KVStore()
    db = PlainDb()
    assert kv.execute(KVStore.put_if_absent("room", "alice"), db) is True
    assert kv.execute(KVStore.put_if_absent("room", "bob"), db) is False
    assert kv.execute(KVStore.get("room"), db) == "alice"


def test_put_if_absent_after_remove_succeeds():
    kv = KVStore()
    db = PlainDb()
    kv.execute(KVStore.put_if_absent("k", 1), db)
    kv.execute(KVStore.remove("k"), db)
    assert kv.execute(KVStore.put_if_absent("k", 2), db) is True


def test_kv_none_value_still_counts_as_bound():
    kv = KVStore()
    db = PlainDb()
    kv.execute(KVStore.put("k", None), db)
    assert kv.execute(KVStore.contains("k"), db) is True
    assert kv.execute(KVStore.put_if_absent("k", 7), db) is False


# ----------------------------------------------------------------------
# SetType
# ----------------------------------------------------------------------
def test_set_semantics():
    s = SetType()
    db = PlainDb()
    assert s.execute(SetType.add(1), db) is True
    assert s.execute(SetType.add(1), db) is False
    assert s.execute(SetType.contains(1), db) is True
    assert s.execute(SetType.remove(1), db) is True
    assert s.execute(SetType.remove(1), db) is False
    s.execute(SetType.add(3), db)
    s.execute(SetType.add(2), db)
    assert s.execute(SetType.elements(), db) == (2, 3)
    assert s.execute(SetType.size(), db) == 2


# ----------------------------------------------------------------------
# BankAccounts
# ----------------------------------------------------------------------
def test_bank_deposit_withdraw():
    bank = BankAccounts()
    db = PlainDb()
    assert bank.execute(BankAccounts.deposit("a", 100), db) == 100
    assert bank.execute(BankAccounts.withdraw("a", 30), db) == 70
    assert bank.execute(BankAccounts.withdraw("a", 100), db) is None
    assert bank.execute(BankAccounts.balance("a"), db) == 70


def test_bank_transfer_guarded():
    bank = BankAccounts()
    db = PlainDb()
    bank.execute(BankAccounts.deposit("a", 50), db)
    assert bank.execute(BankAccounts.transfer("a", "b", 60), db) is False
    assert bank.execute(BankAccounts.transfer("a", "b", 40), db) is True
    assert bank.execute(BankAccounts.balance("a"), db) == 10
    assert bank.execute(BankAccounts.balance("b"), db) == 40


def test_bank_self_transfer_preserves_balance():
    bank = BankAccounts()
    db = PlainDb()
    bank.execute(BankAccounts.deposit("a", 50), db)
    assert bank.execute(BankAccounts.transfer("a", "a", 20), db) is True
    assert bank.execute(BankAccounts.balance("a"), db) == 50


# ----------------------------------------------------------------------
# Generic behaviour
# ----------------------------------------------------------------------
ALL_TYPES = [Register(), Counter(), RList(), KVStore(), SetType(), BankAccounts()]


@pytest.mark.parametrize("datatype", ALL_TYPES, ids=lambda d: d.type_name)
def test_unknown_operation_raises(datatype):
    from repro.datatypes.base import Operation

    with pytest.raises(UnknownOperationError):
        datatype.execute(Operation("definitely_not_real"), PlainDb())


@pytest.mark.parametrize("datatype", ALL_TYPES, ids=lambda d: d.type_name)
def test_readonly_names_are_subset_of_operations(datatype):
    assert datatype.READONLY <= datatype.operations()


def test_spec_return_replays_in_order():
    counter = Counter()
    assert counter.spec_return(
        Counter.read(), [Counter.increment(2), Counter.decrement(1)]
    ) == 1


def test_spec_return_empty_context():
    assert RList().spec_return(RList.read(), []) == ""
