"""Tests for keyspace partitioning: ShardMap, hash/range partitioners.

The load-bearing property is *routing determinism*: placement is a pure
function of (seed, partitioner, n_shards) — the simulation's determinism
guarantee extends to routing, so replayed scenarios shard identically.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard.partitioner import (
    EpochShardMap,
    HashPartitioner,
    RangePartitioner,
    Reassignment,
    ShardMap,
    VersionedShardMap,
)


# ----------------------------------------------------------------------
# Determinism (satellite: hypothesis over seeds and key sets)
# ----------------------------------------------------------------------
@settings(max_examples=50)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n_shards=st.integers(min_value=1, max_value=8),
    keys=st.lists(
        st.one_of(st.text(max_size=8), st.integers(-1000, 1000)),
        min_size=1,
        max_size=40,
        unique=True,
    ),
)
def test_hash_placement_deterministic_across_instances(seed, n_shards, keys):
    """(seed, partitioner) ⇒ identical placement, run after run."""
    first = ShardMap(n_shards, HashPartitioner(seed)).placement(keys)
    second = ShardMap(n_shards, HashPartitioner(seed)).placement(keys)
    assert first == second
    assert all(0 <= shard < n_shards for _, shard in first)


@settings(max_examples=25)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_shards=st.integers(min_value=2, max_value=8),
)
def test_every_shard_owns_keys_under_uniform_universe(seed, n_shards):
    """With enough uniform keys, no shard is left without any."""
    keys = [f"key{i}" for i in range(64 * n_shards)]
    shard_map = ShardMap(n_shards, HashPartitioner(seed))
    owners = {shard_map.owner(key) for key in keys}
    assert owners == set(range(n_shards))


def test_different_seeds_usually_place_differently():
    keys = [f"key{i}" for i in range(64)]
    a = ShardMap(4, HashPartitioner(0)).placement(keys)
    b = ShardMap(4, HashPartitioner(1)).placement(keys)
    assert a != b


# ----------------------------------------------------------------------
# Range partitioner
# ----------------------------------------------------------------------
def test_range_partitioner_contiguous_ownership():
    shard_map = ShardMap(3, RangePartitioner(["h", "p"]))
    assert shard_map.owner("alpha") == 0
    assert shard_map.owner("h") == 1  # boundary belongs to the upper range
    assert shard_map.owner("middle") == 1
    assert shard_map.owner("zulu") == 2


def test_range_partitioner_rejects_unsorted_or_duplicate_boundaries():
    with pytest.raises(ValueError, match="sorted"):
        RangePartitioner(["p", "h"])
    with pytest.raises(ValueError, match="distinct"):
        RangePartitioner(["h", "h"])


def test_shard_map_rejects_surplus_range_boundaries():
    with pytest.raises(ValueError, match="ranges"):
        ShardMap(2, RangePartitioner(["a", "b", "c"]))


def test_range_partitioner_last_shard_absorbs_tail():
    # More shards than ranges is fine: the boundaries define the splits.
    shard_map = ShardMap(4, RangePartitioner(["m"]))
    assert shard_map.owner("a") == 0
    assert shard_map.owner("z") == 1


# ----------------------------------------------------------------------
# ShardMap surface
# ----------------------------------------------------------------------
def test_owners_deduplicates_in_first_seen_order():
    shard_map = ShardMap(2, RangePartitioner(["m"]))
    assert shard_map.owners(["z", "a", "x", "b"]) == (1, 0)


def test_shard_map_validates_n_shards():
    with pytest.raises(ValueError, match="n_shards"):
        ShardMap(0)


def test_default_partitioner_is_stable_hash():
    shard_map = ShardMap(4)
    assert isinstance(shard_map.partitioner, HashPartitioner)
    assert "hash" in shard_map.describe()


def test_single_shard_owns_everything():
    shard_map = ShardMap(1, HashPartitioner(7))
    assert {shard_map.owner(k) for k in range(100)} == {0}


# ----------------------------------------------------------------------
# Range boundaries (satellite regression: half-open, deterministic)
# ----------------------------------------------------------------------
def test_boundary_key_routes_to_the_upper_range():
    """A key *equal* to a boundary deterministically takes the range
    above it — the boundary is that range's inclusive lower bound."""
    strings = RangePartitioner(["h", "p"])
    assert strings.owner("h", 3) == 1
    assert strings.owner("p", 3) == 2
    assert strings.owner("g", 3) == 0  # strictly below stays low
    integers = RangePartitioner([10, 20])
    assert integers.owner(10, 3) == 1
    assert integers.owner(9, 3) == 0
    assert integers.owner(20, 3) == 2
    assert integers.owner(19, 3) == 1


def test_surplus_range_boundaries_raise_instead_of_silently_clamping():
    """Two boundaries with two shards used to alias ranges 1 and 2 onto
    the last shard; the raw partitioner now fails loudly instead."""
    partitioner = RangePartitioner(["c", "f"])
    assert partitioner.owner("a", 2) == 0  # valid ranges still route
    assert partitioner.owner("d", 2) == 1
    with pytest.raises(ValueError, match="ranges"):
        partitioner.owner("z", 2)
    with pytest.raises(ValueError, match="ranges"):
        partitioner.owner("f", 2)  # the boundary key itself, too


# ----------------------------------------------------------------------
# Epoch-versioned placement
# ----------------------------------------------------------------------
def test_versioned_map_advance_is_immutable_and_queryable_per_epoch():
    maps = VersionedShardMap(ShardMap(2, RangePartitioner(["m"])))
    assert maps.epoch == 0
    maps.advance(Reassignment("move", 0, 1, ("a", "e")))
    assert maps.epoch == 1
    assert isinstance(maps.current, EpochShardMap)
    # Epoch 1 moved [a, e) to shard 1; epoch 0 is still queryable as-was.
    assert maps.owner("delta") == 1
    assert maps.owner("delta", epoch=0) == 0
    # Half-open: the upper bound itself stays.
    assert maps.owner("e") == 0
    assert maps.owner("zeta") == 1
    assert [r.kind for r in maps.chain()] == ["move"]


def test_split_reassignment_partitions_the_source_only():
    base = ShardMap(2)
    delta = Reassignment("split", 0, 2, ("salt",))
    keys = [f"k{i}" for i in range(200)]
    moving = [k for k in keys if base.owner(k) == 0 and delta.moves(k, base.owner(k))]
    staying = [k for k in keys if base.owner(k) == 0 and not delta.moves(k, 0)]
    others = [k for k in keys if base.owner(k) == 1]
    assert moving and staying  # a real split, both halves populated
    assert all(not delta.moves(k, 1) for k in others)
    # Deterministic: the same salt always selects the same half.
    again = Reassignment("split", 0, 2, ("salt",))
    assert [again.moves(k, 0) for k in keys] == [delta.moves(k, 0) for k in keys]


def test_merge_reassignment_moves_everything_and_chains():
    maps = VersionedShardMap(ShardMap(3, RangePartitioner(["h", "p"])))
    maps.advance(Reassignment("merge", 2, 0, ()))
    assert maps.owner("zulu") == 0
    assert maps.owner("alpha") == 0
    assert maps.owner("middle") == 1
    maps.advance(Reassignment("merge", 1, 0, ()))
    assert {maps.owner(k) for k in ["alpha", "middle", "zulu"]} == {0}
    assert maps.epoch == 2


def test_reassignment_validation():
    with pytest.raises(ValueError, match="kind"):
        Reassignment("teleport", 0, 1, ())
    with pytest.raises(ValueError, match="differ"):
        Reassignment("merge", 1, 1, ())
    maps = VersionedShardMap(ShardMap(2))
    with pytest.raises(ValueError, match="out of range"):
        maps.advance(Reassignment("split", 0, 5, ("s",)), n_shards=3)
    with pytest.raises(ValueError, match="source shard"):
        maps.advance(Reassignment("merge", 7, 0, ()))
