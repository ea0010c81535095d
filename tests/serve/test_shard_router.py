"""ShardRouter: process-stable hashing and consistent-hash routing."""

from __future__ import annotations

from repro.serve.sharded.router import ShardRouter, stable_hash


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash(("m", 17)) == stable_hash(("m", 17))

    def test_spreads(self):
        vals = {stable_hash(("m", i)) % 64 for i in range(512)}
        assert len(vals) > 32  # not collapsing onto a few buckets


class TestRouterPick:
    def test_replica_pick_is_sticky_per_key(self):
        router = ShardRouter(4)
        eligible = [0, 1, 2, 3]
        picks = {router.pick(("m", 9), eligible) for _ in range(10)}
        assert len(picks) == 1

    def test_pick_avoids_ineligible(self):
        router = ShardRouter(4)
        for seq in range(50):
            assert router.pick(("m", seq), eligible=[2]) == 2

    def test_least_loaded_override(self):
        router = ShardRouter(2, imbalance=1)
        # pile synthetic load onto shard 0
        for _ in range(10):
            router.dispatched(0)
        counts = {0: 0, 1: 0}
        for seq in range(40):
            counts[router.pick(("m", seq), eligible=[0, 1])] += 1
        assert counts[1] > counts[0]

    def test_no_eligible_falls_back_to_ring(self):
        # the caller's breaker path owns total outage; pick still
        # returns a valid shard index rather than raising mid-dispatch
        router = ShardRouter(2)
        assert router.pick(("m", 1), eligible=[]) in (0, 1)
