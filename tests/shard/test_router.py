"""ShardRouter: stability, range, spread and URL routing."""

import pytest

from repro.shard import ShardRouter


def test_rejects_zero_workers():
    with pytest.raises(ValueError):
        ShardRouter(0)


def test_shard_ids_in_range():
    router = ShardRouter(5)
    for i in range(200):
        assert 0 <= router.shard_of(f"h{i}.example") < 5


def test_stable_across_instances():
    hosts = [f"host{i}.example.org" for i in range(100)]
    a = ShardRouter(8)
    b = ShardRouter(8)
    assert [a.shard_of(h) for h in hosts] == [b.shard_of(h) for h in hosts]


def test_memoized_lookup_is_consistent():
    router = ShardRouter(8)
    first = router.shard_of("www.example.com")
    assert router.shard_of("www.example.com") == first


def test_every_shard_gets_hosts():
    """BLAKE2b spreads even structured host names over all workers."""
    router = ShardRouter(8)
    shards = {router.shard_of(f"u{i}.edu.example") for i in range(200)}
    assert shards == set(range(8))


def test_single_worker_routes_everything_to_zero():
    router = ShardRouter(1)
    assert router.shard_of("anything.example") == 0

