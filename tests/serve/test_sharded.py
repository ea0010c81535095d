"""End-to-end ShardedServer: exactness, swap, crash recovery, zero-copy."""

from __future__ import annotations

import asyncio
import os
import threading
import time

import numpy as np
import pytest

from repro.serve.resilience import ChaosPolicy
from repro.serve.sharded import ShardedServeConfig, ShardedServer
from repro.stream import StreamConfig, StreamLoop

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="POSIX shared memory not available",
)


def _config(**kw):
    base = dict(n_shards=2, max_batch=8, max_wait=0.002,
                max_shed_level=0, default_deadline=None)
    base.update(kw)
    return ShardedServeConfig(**base)


def _no_leaked_segments(server):
    prefix = server.arena.prefix
    return not [f for f in os.listdir("/dev/shm") if f.startswith(prefix)]


@pytest.fixture(scope="module")
def replica_server(serve_classifier):
    server = ShardedServer(_config(mode="replica"))
    server.register("m", serve_classifier)
    with server:
        yield server
    assert _no_leaked_segments(server)


class TestReplicaMode:
    def test_bit_exact_vs_single_process(self, replica_server, serve_packed,
                                         serve_queries):
        q = serve_queries[:32]
        ref = serve_packed.predict_packed(serve_packed.encode_packed(q))
        preds = replica_server.predict_many("m", q, timeout=60.0)
        np.testing.assert_array_equal([p.label for p in preds], ref)
        assert {p.shard for p in preds} <= {0, 1}

    def test_asubmit_from_event_loop(self, replica_server, serve_queries):
        async def go():
            preds = await asyncio.gather(*[
                replica_server.asubmit("m", x) for x in serve_queries[:6]
            ])
            return [p.label for p in preds]

        labels = asyncio.run(go())
        assert len(labels) == 6

    def test_shard_stats_and_zero_copy(self, replica_server, serve_queries):
        replica_server.predict_many("m", serve_queries[:8], timeout=60.0)
        stats = replica_server.shard_stats(timeout=10.0)
        assert set(stats) == {0, 1}
        for payload in stats.values():
            assert payload["served"] > 0
            mapping = payload["shm"]["m"]
            # the model mapping carries no private dirty pages: the
            # worker reads the one shared physical copy, it never wrote
            # or duplicated it
            assert mapping.get("private_dirty_kb", 0) == 0
        # absorbed worker series are queryable from the parent
        prom = replica_server.render_prometheus()
        assert "shard_served" in prom

    def test_stats_snapshot_shape(self, replica_server):
        snap = replica_server.stats()
        assert snap["router"]["mode"] == "replica"
        dep = snap["deployments"]["m"]
        assert dep["segment"] is not None and dep["epoch"] >= 1


class TestHotSwap:
    def test_swap_under_load_drops_nothing(self, serve_classifier,
                                           serve_queries):
        server = ShardedServer(_config())
        server.register("m", serve_classifier)
        futures, submit_errors = [], []
        stop = threading.Event()

        def pump():
            i = 0
            while not stop.is_set():
                try:
                    futures.append(
                        server.submit("m", serve_queries[i % len(serve_queries)])
                    )
                except Exception as exc:  # noqa: BLE001
                    submit_errors.append(exc)
                i += 1
                time.sleep(0.001)

        with server:
            t = threading.Thread(target=pump)
            t.start()
            while not futures or not futures[0].done():
                time.sleep(0.01)
            dep = server.swap("m", serve_classifier, drain=True)
            time.sleep(0.1)
            stop.set()
            t.join()
            assert server.wait_idle(30.0)
            preds = [f.result(timeout=30.0) for f in futures]
            assert not submit_errors
            assert dep.version == 2
            versions = {p.version for p in preds}
            assert versions == {1, 2}
            stats = server.stats()
            assert stats["counters"].get("errors", 0) == 0
            assert stats["counters"].get("swap_ack_timeouts", 0) == 0
            # the old epoch's segment was unlinked after the all-shard ack
            assert stats["deployments"]["m"]["epoch"] == 2
        assert _no_leaked_segments(server)

    def test_swap_rejects_dim_order(self, serve_classifier):
        server = ShardedServer(_config())
        server.register("m", serve_classifier)
        with pytest.raises(ValueError, match="dim_order"):
            server.swap("m", serve_classifier, dim_order=np.arange(4))
        server.stop()


class TestCrashRecovery:
    def test_killed_shard_respawns_and_requests_retry(
            self, serve_classifier, serve_packed, serve_queries):
        chaos = ChaosPolicy(kill_rate=0.08, max_kills=2, seed=13)
        server = ShardedServer(
            _config(max_retries=6, retry_backoff=0.02), chaos=chaos,
        )
        server.register("m", serve_classifier)
        q = serve_queries[:40]
        ref = serve_packed.predict_packed(serve_packed.encode_packed(q))
        with server:
            preds = server.predict_many("m", q, timeout=120.0)
            np.testing.assert_array_equal([p.label for p in preds], ref)
            stats = server.stats()
            assert stats["counters"].get("worker_kills", 0) >= 1
            assert stats["resilience"]["worker_restarts"] >= 1
        assert _no_leaked_segments(server)


class TestStreamLoopIntegration:
    def test_stream_loop_drives_sharded_server(self, serve_classifier,
                                               serve_queries, toy_problem):
        X_train, y_train, _, _ = toy_problem
        server = ShardedServer(_config())
        loop = StreamLoop(server, serve_classifier,
                          StreamConfig(model_name="m", chunk_size=32))
        assert server.registry.get("m").kind == "packed"
        with server, loop:
            report = loop.process(X_train[:32], y_train[:32])
            assert report.model_version == 1
            # a retrain-style swap rides the sharded epoch protocol
            loop._install(serve_classifier, reason="test")
            assert server.registry.get("m").version == 2
            preds = server.predict_many("m", serve_queries[:4], timeout=60.0)
            assert all(p.version == 2 for p in preds)
        assert _no_leaked_segments(server)
