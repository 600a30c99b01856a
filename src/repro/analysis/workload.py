"""Random workload generation over the replicated data types.

A :class:`WorkloadProfile` is a weighted set of operation factories plus a
probability of issuing an operation as strong. :class:`RandomWorkload`
drives closed-loop :class:`~repro.core.session.Session` clients (one per
replica by default) so the resulting history is well-formed, which the
checking experiments (Theorems 2/3) require. ``Scenario.workload(...)`` is
the fluent entry point.

Keyed workloads: a :class:`KeySampler` draws keys from a finite universe
under a configurable skew (uniform, or Zipf with exponent ``s``), and the
``kv``/``bank`` profiles accept one so the *same* generator drives
single-cluster runs and sharded deployments (experiment E12 sweeps shard
counts under uniform vs skewed key traffic). On a sharded deployment the
cluster argument is a :class:`~repro.shard.router.ShardRouter`; the
sessions it opens route each operation to the key's owner shard, and
operations a profile marks *always-strong* (``strong_ops`` — e.g. the
bank's potentially cross-shard ``transfer``) go through the cross-shard
coordinator.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.session import Session
from repro.datatypes.base import Operation
from repro.datatypes.bank import BankAccounts
from repro.datatypes.counter import Counter
from repro.datatypes.kvstore import KVStore
from repro.datatypes.orset import SetType
from repro.datatypes.rlist import RList
from repro.sim.rng import SeededRngRegistry

OpFactory = Callable[[random.Random], Operation]


def _cumulative_weights(weights, *, label: str) -> List[float]:
    """Validated running sums — the one-time cost of bisect sampling."""
    cumulative: List[float] = []
    total = 0.0
    for weight in weights:
        if weight <= 0:
            raise ValueError(f"{label} weights must be positive, got {weight!r}")
        total += weight
        cumulative.append(total)
    return cumulative


def _weighted_index(cumulative: List[float], rng: random.Random) -> int:
    """One weighted draw: a uniform pick located by bisect, O(log n).

    The ``min`` clamp covers the float edge where ``uniform`` returns its
    upper bound exactly.
    """
    pick = rng.uniform(0.0, cumulative[-1])
    return min(bisect_left(cumulative, pick), len(cumulative) - 1)


class KeySampler:
    """Draws keys from a finite universe under a fixed skew.

    Cumulative weights are precomputed once; each draw is one uniform
    sample plus a :func:`bisect.bisect_left` — O(log n) per key.
    """

    #: Whether the skew depends on simulated time (see
    #: :class:`ShiftingHotspotSampler`); fixed-skew samplers pre-sample
    #: eagerly, time-varying ones force the workload into lazy mode.
    time_varying = False

    def __init__(self, keys: Sequence, weights: Optional[Sequence[float]] = None):
        self.keys = list(keys)
        if not self.keys:
            raise ValueError("KeySampler needs at least one key")
        if weights is None:
            weights = [1.0] * len(self.keys)
        if len(weights) != len(self.keys):
            raise ValueError("weights must match keys one-to-one")
        self._cumulative = _cumulative_weights(weights, label="key")

    @classmethod
    def uniform(cls, keys: Sequence) -> "KeySampler":
        """Every key equally likely."""
        return cls(keys)

    @classmethod
    def zipf(cls, keys: Sequence, s: float = 1.1) -> "KeySampler":
        """Zipf-skewed: the i-th key (1-based) has weight ``1 / i**s``.

        The canonical hot-key model — a handful of keys take most of the
        traffic, so on a sharded deployment the shards owning them become
        hotspots (E12's skewed legs measure exactly that).
        """
        if s <= 0:
            raise ValueError(f"zipf exponent must be positive, got {s!r}")
        weights = [1.0 / (rank**s) for rank in range(1, len(keys) + 1)]
        return cls(keys, weights)

    def set_now(self, now: float) -> None:
        """Advance the sampler's clock (no-op for fixed skews)."""

    def sample(self, rng: random.Random):
        """Draw one key."""
        return self.keys[_weighted_index(self._cumulative, rng)]


class ShiftingHotspotSampler(KeySampler):
    """Zipf skew whose *hottest key rotates* at scheduled simulated times.

    Phase ``p`` holds between ``shift_times[p-1]`` and ``shift_times[p]``;
    in phase ``p`` the Zipf ranks are rotated by ``p`` positions over the
    key list, so ``keys[p % len(keys)]`` is the hottest key, the next key
    second-hottest, and so on. The *shape* of the skew never changes —
    only which keys carry it — which is exactly the adversary a static
    placement cannot follow and a placement controller must chase (E14).

    The sampler is clocked externally: :class:`RandomWorkload` calls
    :meth:`set_now` with the simulated time before each draw (lazy
    submission mode, forced by ``time_varying``). Draw-count determinism
    is unchanged — one weighted draw per key, same as the base class.
    """

    time_varying = True

    def __init__(self, keys: Sequence, shift_times: Sequence[float], *, s: float = 1.1):
        if s <= 0:
            raise ValueError(f"zipf exponent must be positive, got {s!r}")
        weights = [1.0 / (rank**s) for rank in range(1, len(keys) + 1)]
        super().__init__(keys, weights)
        self.shift_times = tuple(sorted(shift_times))
        self._now = 0.0

    def set_now(self, now: float) -> None:
        self._now = now

    def phase(self, now: Optional[float] = None) -> int:
        """How many shifts have happened by ``now`` (default: the clock)."""
        at = self._now if now is None else now
        return bisect_right(self.shift_times, at)

    def sample(self, rng: random.Random):
        rank = _weighted_index(self._cumulative, rng)
        return self.keys[(rank + self.phase()) % len(self.keys)]


def make_sampler(
    keys: Sequence, skew: str = "uniform", *, zipf_s: float = 1.1
) -> KeySampler:
    """A :class:`KeySampler` from a skew name (``"uniform"``/``"zipf"``)."""
    if skew == "uniform":
        return KeySampler.uniform(keys)
    if skew == "zipf":
        return KeySampler.zipf(keys, s=zipf_s)
    raise ValueError(f"unknown key skew {skew!r} (use 'uniform' or 'zipf')")


@dataclass
class WorkloadProfile:
    """Weighted operation mix for one data type.

    ``strong_ops`` names operations that are *always* issued strongly,
    regardless of ``strong_probability`` — order-sensitive multi-key
    operations (the bank's ``transfer``) must be strong on sharded
    deployments, where they may span shards.
    """

    name: str
    factories: List[Tuple[float, OpFactory]]
    strong_probability: float = 0.2
    strong_ops: frozenset = frozenset()
    #: The key sampler the factories close over (keyed profiles only);
    #: carried so the workload can clock a time-varying skew.
    sampler: Optional[KeySampler] = None
    #: Cumulative factory weights, precomputed once (sampling is O(log n)).
    _cumulative: List[float] = field(
        init=False, repr=False, compare=False, default_factory=list
    )

    def __post_init__(self) -> None:
        self._cumulative = _cumulative_weights(
            (weight for weight, _ in self.factories), label="factory"
        )

    @property
    def time_varying(self) -> bool:
        """Whether key choice depends on simulated time (lazy sampling)."""
        return self.sampler is not None and self.sampler.time_varying

    def set_time(self, now: float) -> None:
        """Clock the profile's sampler before a draw (lazy mode)."""
        if self.sampler is not None:
            self.sampler.set_now(now)

    def sample(self, rng: random.Random) -> Tuple[Operation, bool]:
        """Draw one (operation, strong?) pair."""
        op = self.factories[_weighted_index(self._cumulative, rng)][1](rng)
        # Drawn unconditionally so the stream of random values — and hence
        # every seeded workload — is identical whether or not the op is
        # forced strong.
        strong = rng.random() < self.strong_probability
        if op.name in self.strong_ops:
            strong = True
        return op, strong


def counter_profile(strong_probability: float = 0.2) -> WorkloadProfile:
    """Increments, decrements, conditional adds and reads on a counter."""
    return WorkloadProfile(
        name="counter",
        factories=[
            (4.0, lambda rng: Counter.increment(rng.randint(1, 5))),
            (2.0, lambda rng: Counter.decrement(rng.randint(1, 3))),
            (1.0, lambda rng: Counter.add_if_even(rng.randint(1, 3))),
            (2.0, lambda rng: Counter.read()),
        ],
        strong_probability=strong_probability,
    )


def list_profile(strong_probability: float = 0.2) -> WorkloadProfile:
    """The paper's list: appends, duplicates and reads."""
    alphabet = "abcdefgh"
    return WorkloadProfile(
        name="list",
        factories=[
            (5.0, lambda rng: RList.append(rng.choice(alphabet))),
            (1.0, lambda rng: RList.duplicate()),
            (2.0, lambda rng: RList.read()),
            (1.0, lambda rng: RList.size()),
        ],
        strong_probability=strong_probability,
    )


#: Default key universe of the keyed profiles (kept at the historical four
#: keys so existing seeded runs reproduce bit-identically).
DEFAULT_KV_KEYS = ("alpha", "beta", "gamma", "delta")
DEFAULT_ACCOUNTS = ("checking", "savings", "escrow")


def kv_profile(
    strong_probability: float = 0.25,
    *,
    sampler: Optional[KeySampler] = None,
) -> WorkloadProfile:
    """Puts, conditional puts (the consensus-requiring op), gets, removes.

    ``sampler`` controls key choice (default: uniform over the four
    historical keys); pass a skewed/bigger :class:`KeySampler` for E12's
    sharded sweeps.
    """
    keys = sampler if sampler is not None else KeySampler.uniform(DEFAULT_KV_KEYS)
    return WorkloadProfile(
        name="kv",
        factories=[
            (3.0, lambda rng: KVStore.put(keys.sample(rng), rng.randint(0, 99))),
            (2.0, lambda rng: KVStore.put_if_absent(keys.sample(rng), rng.randint(0, 99))),
            (3.0, lambda rng: KVStore.get(keys.sample(rng))),
            (1.0, lambda rng: KVStore.remove(keys.sample(rng))),
        ],
        strong_probability=strong_probability,
        sampler=keys,
    )


def bank_profile(
    strong_probability: float = 0.3,
    *,
    sampler: Optional[KeySampler] = None,
) -> WorkloadProfile:
    """Deposits, guarded withdrawals and transfers over a few accounts.

    Transfers are always issued strongly: on a sharded deployment the two
    accounts may live on different shards, and only strong operations may
    cross shards (they stage through each owner's TOB).
    """
    accounts = (
        sampler if sampler is not None else KeySampler.uniform(DEFAULT_ACCOUNTS)
    )
    return WorkloadProfile(
        name="bank",
        factories=[
            (3.0, lambda rng: BankAccounts.deposit(accounts.sample(rng), rng.randint(1, 50))),
            (2.0, lambda rng: BankAccounts.withdraw(accounts.sample(rng), rng.randint(1, 60))),
            (1.0, lambda rng: BankAccounts.transfer(
                accounts.sample(rng), accounts.sample(rng), rng.randint(1, 30))),
            (2.0, lambda rng: BankAccounts.balance(accounts.sample(rng))),
        ],
        strong_probability=strong_probability,
        strong_ops=frozenset({"transfer"}),
        sampler=accounts,
    )


def set_profile(strong_probability: float = 0.2) -> WorkloadProfile:
    """Adds, removes and membership checks over a small element space."""
    elements = list(range(6))
    return WorkloadProfile(
        name="set",
        factories=[
            (3.0, lambda rng: SetType.add(rng.choice(elements))),
            (2.0, lambda rng: SetType.remove(rng.choice(elements))),
            (2.0, lambda rng: SetType.contains(rng.choice(elements))),
            (1.0, lambda rng: SetType.elements()),
        ],
        strong_probability=strong_probability,
    )


PROFILES = {
    "counter": counter_profile,
    "list": list_profile,
    "kv": kv_profile,
    "bank": bank_profile,
    "set": set_profile,
}

#: Profiles accepting a ``sampler=`` keyword (keyed types).
KEYED_PROFILES = frozenset({"kv", "bank"})


class RandomWorkload:
    """Drives closed-loop sessions against a cluster (or shard router).

    ``cluster`` is anything exposing ``connect(pid, think_time=...)`` and
    ``config.n_replicas`` — a :class:`~repro.core.cluster.BayouCluster`
    or a :class:`~repro.shard.router.ShardRouter` (whose sessions route
    every operation to its key's owner shard). ``sessions`` overrides the
    client count (default: one per replica index), so a sharded sweep can
    hold the offered load constant while the shard count varies.
    """

    def __init__(
        self,
        cluster,
        profile: WorkloadProfile,
        *,
        ops_per_session: int = 10,
        think_time: float = 0.5,
        seed: int = 0,
        sessions: Optional[int] = None,
    ) -> None:
        self.cluster = cluster
        self.profile = profile
        self.ops_per_session = ops_per_session
        self.think_time = think_time
        self.rngs = SeededRngRegistry(seed)
        self.n_sessions = (
            sessions if sessions is not None else cluster.config.n_replicas
        )
        if self.n_sessions < 1:
            raise ValueError(f"sessions must be >= 1, got {self.n_sessions}")
        self.sessions: List[Session] = []

    def start(self) -> None:
        """Create the sessions and queue their operations.

        Session ``i`` binds to replica index ``i mod n_replicas`` — with
        the default count that is exactly one session per replica, the
        historical behaviour.

        Fixed-skew profiles pre-sample every operation here (the
        historical behaviour, byte-identical streams under a seed). A
        *time-varying* profile (:attr:`WorkloadProfile.time_varying`)
        cannot: the key skew at simulated time ``t`` is unknowable at
        time 0, so each session samples lazily — the next operation is
        drawn when the previous one responds, with the sampler clocked
        to the response's simulated time. Draw order per session rng is
        identical in both modes.
        """
        n_replicas = self.cluster.config.n_replicas
        lazy = self.profile.time_varying
        for index in range(self.n_sessions):
            session = self.cluster.connect(
                index % n_replicas, think_time=self.think_time
            )
            rng = self.rngs.stream(f"session.{index}")
            self.sessions.append(session)
            if lazy:
                self._submit_next(session, rng, self.ops_per_session)
            else:
                for _ in range(self.ops_per_session):
                    op, strong = self.profile.sample(rng)
                    session.submit(op, strong)

    def _submit_next(
        self, session: Session, rng: random.Random, remaining: int
    ) -> None:
        """Lazy closed-loop submission: one draw per response."""
        self.profile.set_time(self.cluster.sim.now)
        op, strong = self.profile.sample(rng)
        future = session.submit(op, strong)
        if remaining > 1:
            future.add_done_callback(
                lambda _future: self._submit_next(session, rng, remaining - 1)
            )

    @property
    def all_done(self) -> bool:
        return all(session.idle for session in self.sessions)

    @property
    def futures(self) -> list:
        """Every submitted operation's future, session by session."""
        return [future for session in self.sessions for future in session.futures]

    def latencies(self) -> List[float]:
        samples: List[float] = []
        for session in self.sessions:
            samples.extend(session.latencies)
        return samples
