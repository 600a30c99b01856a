"""Property test: a mid-run split is invisible to the final state.

The migration-safety acceptance criterion of the resharding PR: for
random ``(seed, schedule, split-point)`` triples, a deployment that
splits mid-run converges to a keyspace state **bit-identical** to a
static deployment executing the same client script — no committed
operation lost or duplicated across the epoch boundary, and the bank's
conservation invariant (Σ balances = Σ deposits) holding through the
split.

Deposits are the probe workload on purpose: each one adds a fixed amount
exactly once, so "every balance equals the script's per-key sum" *is*
the no-loss/no-duplication statement — a lost deposit undershoots, a
double-executed transferred twin overshoots, and any disagreement with
the static run breaks bit-identity.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.datatypes.bank import BankAccounts
from repro.scenario import Scenario

SLOW = settings(max_examples=15)

KEYS = [f"k{i}" for i in range(8)]


@st.composite
def split_scripts(draw):
    """A random deposit schedule plus a random mid-run split point."""
    seed = draw(st.integers(0, 3))
    n_ops = draw(st.integers(6, 16))
    ops = []
    for _ in range(n_ops):
        at = 1.0 + draw(st.integers(0, 44)) * 0.25
        pid = draw(st.integers(0, 1))
        key = draw(st.sampled_from(KEYS))
        amount = draw(st.integers(1, 25))
        ops.append((at, pid, key, amount))
    return {
        "seed": seed,
        "ops": ops,
        "split_src": draw(st.integers(0, 1)),
        "split_at": 2.0 + draw(st.integers(0, 22)) * 0.5 + 0.125,
        "transfer_delay": draw(st.sampled_from([0.0, 0.5, 1.5])),
    }


def _run(script, *, with_split):
    scenario = (
        Scenario(BankAccounts(), name="prop-split")
        .shards(2)
        .replicas(2)
        .exec_delay(0.05)
        .message_delay(0.4)
        .seed(script["seed"])
    )
    if with_split:
        scenario.resharding(
            script["split_at"],
            split=script["split_src"],
            transfer_delay=script["transfer_delay"],
        )
    for index, (at, pid, key, amount) in enumerate(script["ops"]):
        scenario.invoke(
            at, pid, BankAccounts.deposit(key, amount), label=f"d{index}"
        )
    return scenario.run(well_formed=False)


@given(split_scripts())
@SLOW
def test_split_mid_run_is_bit_identical_to_a_static_deployment(script):
    dynamic = _run(script, with_split=True)
    static = _run(script, with_split=False)

    expected = {key: 0 for key in KEYS}
    for _, _, key, amount in script["ops"]:
        expected[key] += amount

    dynamic_state = {
        key: dynamic.query(BankAccounts.balance(key)) for key in KEYS
    }
    static_state = {
        key: static.query(BankAccounts.balance(key)) for key in KEYS
    }
    # Bit-identical to the static run AND exactly the script's sums: no
    # committed deposit lost or duplicated across the epoch boundary.
    assert dynamic_state == static_state == expected
    # Conservation holds through the split.
    assert sum(dynamic_state.values()) == sum(expected.values())
    # The split really happened and the deployment converged after it.
    assert dynamic.epoch == 1
    assert dynamic.migrations[0].complete
    assert dynamic.converged and static.converged
    # Every scripted operation reached a final TOB position somewhere.
    assert not dynamic.refused
    assert all(future.stable for future in dynamic.futures.values())
