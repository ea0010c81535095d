"""ServingSurface conformance: both backends, one contract.

The threaded :class:`InferenceServer` and the process-sharded
:class:`ShardedServer` must satisfy the :class:`~repro.serve.surface.
ServingSurface` protocol structurally, emit :func:`~repro.serve.surface.
validate_stats`-clean ``stats()`` snapshots with identical required
top-level keys, and -- since they share one request lifecycle --
behave the same under the same seeded chaos: same per-request
outcomes, same counters, the same conservation of requests, and the
same crash-loop verdict.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.hardware.faultspec import FaultSpec
from repro.serve import (
    STATS_OPTIONAL_KEYS,
    STATS_REQUIRED_KEYS,
    BreakerConfig,
    ChaosPolicy,
    InferenceServer,
    ServeConfig,
    ServeError,
    ServingSurface,
    validate_stats,
)
from repro.serve.sharded import ShardedServeConfig, ShardedServer
from repro.serve.surface import (
    MAX_CONSECUTIVE_CRASHES,
    RESPAWN_BACKOFF,
    ServingSurfaceBase,
)

needs_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="POSIX shared memory not available",
)


@pytest.fixture(scope="module")
def thread_server(serve_classifier):
    server = InferenceServer(ServeConfig(n_workers=1, max_batch=8))
    server.register("m", serve_classifier)
    with server:
        yield server


@pytest.fixture(scope="module")
def sharded_server(serve_classifier):
    if not os.path.isdir("/dev/shm"):
        pytest.skip("POSIX shared memory not available")
    server = ShardedServer(ShardedServeConfig(
        n_shards=2, max_batch=8, max_wait=0.002, default_deadline=None,
    ))
    server.register("m", serve_classifier)
    with server:
        yield server


class TestProtocol:
    def test_both_backends_satisfy_the_protocol(self, thread_server,
                                                sharded_server):
        assert isinstance(thread_server, ServingSurface)
        assert isinstance(sharded_server, ServingSurface)

    def test_both_backends_share_the_base(self, thread_server,
                                          sharded_server):
        assert isinstance(thread_server, ServingSurfaceBase)
        assert isinstance(sharded_server, ServingSurfaceBase)

    def test_a_random_object_does_not(self):
        assert not isinstance(object(), ServingSurface)


class TestStatsSchema:
    def test_thread_stats_validate(self, thread_server):
        thread_server.predict("m", np.zeros(24), timeout=30.0)
        snap = thread_server.stats()
        validate_stats(snap)
        assert set(snap) == STATS_REQUIRED_KEYS

    @needs_shm
    def test_sharded_stats_validate(self, sharded_server):
        sharded_server.predict("m", np.zeros(24), timeout=30.0)
        snap = sharded_server.stats()
        validate_stats(snap)
        assert set(snap) == STATS_REQUIRED_KEYS | STATS_OPTIONAL_KEYS

    @needs_shm
    def test_required_keys_agree_across_backends(self, thread_server,
                                                 sharded_server):
        thread_keys = set(thread_server.stats())
        sharded_keys = set(sharded_server.stats())
        assert thread_keys <= sharded_keys
        assert sharded_keys - thread_keys <= STATS_OPTIONAL_KEYS
        for key in ("queue", "policy", "resilience"):
            assert (set(thread_server.stats()[key])
                    == set(sharded_server.stats()[key]))

    def test_validate_rejects_missing_and_unknown_keys(self, thread_server):
        snap = thread_server.stats()
        broken = dict(snap)
        broken.pop("queue")
        with pytest.raises(ValueError, match="missing required"):
            validate_stats(broken)
        extra = dict(snap)
        extra["workers"] = {}  # the old pre-schema drift key
        with pytest.raises(ValueError, match="unknown top-level"):
            validate_stats(extra)

    def test_validate_rejects_malformed_nested_dicts(self, thread_server):
        snap = thread_server.stats()
        bad = dict(snap)
        bad["policy"] = {"level": 0}
        with pytest.raises(ValueError, match="policy"):
            validate_stats(bad)
        bad = dict(snap)
        bad["deployments"] = {"m": {"kind": "classifier"}}
        with pytest.raises(ValueError, match="deployments"):
            validate_stats(bad)

    def test_illegal_extra_stats_fail_fast(self, serve_classifier):
        class Rogue(InferenceServer):
            def _extra_stats(self):
                return {"not_in_schema": 1}

        rogue = Rogue(ServeConfig(n_workers=1))
        rogue.register("m", serve_classifier)
        with pytest.raises(RuntimeError, match="outside the stats schema"):
            rogue.stats()


class TestPredictEncoded:
    def test_thread_parity_with_direct_model(self, thread_server,
                                             serve_classifier,
                                             serve_queries):
        dep = thread_server.registry.get("m")
        encoded = dep.encode(serve_queries[:16])
        via_server = thread_server.predict_encoded("m", encoded)
        direct = serve_classifier.predict_encoded(encoded)
        np.testing.assert_array_equal(via_server, direct)

    def test_thread_dim_reduction_passthrough(self, thread_server,
                                              serve_classifier,
                                              serve_queries):
        dep = thread_server.registry.get("m")
        encoded = dep.encode(serve_queries[:8])
        via_server = thread_server.predict_encoded("m", encoded, dim=256)
        direct = serve_classifier.predict_encoded(encoded, dim=256)
        np.testing.assert_array_equal(via_server, direct)

    @needs_shm
    def test_sharded_parity_with_packed_model(self, sharded_server,
                                              serve_packed, serve_queries):
        dep = sharded_server.registry.get("m")
        encoded = dep.encode(serve_queries[:16])
        via_server = sharded_server.predict_encoded("m", encoded)
        direct = serve_packed.predict_packed(
            serve_packed.encode_packed(serve_queries[:16]))
        np.testing.assert_array_equal(via_server, direct)

    def test_matches_the_submit_path(self, thread_server, serve_queries):
        batch = serve_queries[:8]
        dep = thread_server.registry.get("m")
        side_door = thread_server.predict_encoded("m", dep.encode(batch))
        queued = [p.label for p in
                  thread_server.predict_many("m", batch, timeout=30.0)]
        np.testing.assert_array_equal(side_door, queued)


class TestUtilization:
    def test_thread_worker_utilization_shape(self, thread_server,
                                             serve_queries):
        thread_server.predict_many("m", serve_queries[:8], timeout=30.0)
        util = thread_server.worker_utilization()
        assert set(util) >= {"busy_seconds", "served"}
        assert len(util["busy_seconds"]) == len(util["served"])

    @needs_shm
    def test_sharded_worker_utilization_shape(self, sharded_server,
                                              serve_queries):
        sharded_server.predict_many("m", serve_queries[:8], timeout=60.0)
        util = sharded_server.worker_utilization()
        assert set(util) >= {"busy_seconds", "served"}
        assert len(util["busy_seconds"]) == 2  # one entry per shard


# -- one lifecycle, two transports -------------------------------------------

#: a breaker that never trips, so chaos outcomes stay comparable
_NEVER_TRIPS = BreakerConfig(min_samples=10 ** 6)


def _make(backend: str, chaos=None, **kw):
    base = dict(max_batch=8, max_shed_level=0, default_deadline=None,
                breaker=_NEVER_TRIPS)
    base.update(kw)
    if backend == "thread":
        return InferenceServer(ServeConfig(n_workers=2, **base), chaos=chaos)
    if not os.path.isdir("/dev/shm"):
        pytest.skip("POSIX shared memory not available")
    return ShardedServer(ShardedServeConfig(n_shards=2, **base), chaos=chaos)


def _outcome(future):
    try:
        return int(future.result(timeout=60.0).label)
    except ServeError as exc:
        return type(exc).__name__


_COUNTERS = ("submitted", "served", "errors", "retries", "deadline_expired")


class TestSameChaosOutcomes:
    def test_backends_agree_request_for_request(self, serve_packed,
                                                serve_queries):
        runs = {}
        for backend in ("thread", "sharded"):
            chaos = ChaosPolicy(fault_rate=0.3,
                                fault=FaultSpec(error_rate=0.4),
                                seed=21)
            server = _make(backend, chaos, max_retries=1,
                           retry_backoff=0.001)
            server.register("m", serve_packed)
            with server:
                # sequential single requests: one chaos draw order
                outcomes = [_outcome(server.submit("m", x))
                            for x in serve_queries[:40]]
                assert server.wait_idle(30.0)
                counters = server.stats()["counters"]
            runs[backend] = (outcomes,
                             {k: counters.get(k, 0) for k in _COUNTERS},
                             chaos.stats())
        thread, sharded = runs["thread"], runs["sharded"]
        assert thread[0] == sharded[0]
        assert thread[1] == sharded[1]
        assert thread[2] == sharded[2]
        # the run exercised every path it compares
        assert {"InjectedFault", "RetriesExhausted"} & set(thread[0])
        assert thread[1]["retries"] > 0
        assert thread[2]["bitflip_injections"] > 0
        # and the bit flips changed answers the same way on both
        clean = serve_packed.predict_packed(
            serve_packed.encode_packed(serve_queries[:40]))
        labels = [o for o in thread[0] if isinstance(o, int)]
        assert labels and any(
            o != int(c) for o, c in zip(thread[0], clean)
            if isinstance(o, int))


class TestConservation:
    @pytest.mark.parametrize("backend", ["thread", "sharded"])
    def test_every_request_ends_once(self, backend, serve_packed,
                                     serve_queries):
        chaos = ChaosPolicy(fault_rate=0.5, seed=3)
        server = _make(backend, chaos, max_retries=0)
        server.register("m", serve_packed)
        with server:
            futures = [server.submit("m", serve_queries[i % 60])
                       for i in range(200)]
            for f in futures:
                _outcome(f)
            assert server.wait_idle(30.0)
            counters = server.stats()["counters"]
            util = server.worker_utilization()
        served = counters.get("served", 0)
        assert counters["submitted"] == 200
        assert counters["submitted"] == (served + counters.get("errors", 0)
                                         + counters.get("deadline_expired", 0))
        assert 0 < served < 200
        # failed batches are not served ones
        assert sum(util["served"]) == served


class TestPartitionModeRemoved:
    def test_partition_mode_raises(self):
        with pytest.raises(ValueError, match="removed"):
            ShardedServeConfig(mode="partition")

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="'replica'"):
            ShardedServeConfig(mode="broadcast")


class TestCrashLoop:
    def _await_failed(self, server, n, timeout=60.0):
        deadline = time.monotonic() + timeout
        while len(server.failed) < n and time.monotonic() < deadline:
            time.sleep(0.02)

    @needs_shm
    def test_unmappable_model_ends_in_failed_state(
            self, serve_classifier, serve_queries, tmp_path):
        server = ShardedServer(ShardedServeConfig(
            n_shards=2, max_batch=8, default_deadline=None,
            postmortem_dir=str(tmp_path),
        ))
        server.register("m", serve_classifier)
        # every shard dies at startup mapping the model it cannot find
        server.arena.unlink(server._specs["m"].segment)
        with server:
            future = server.submit("m", serve_queries[0])
            self._await_failed(server, 2)
            with pytest.raises(ServeError):
                future.result(timeout=10.0)
            assert server.wait_idle(10.0)
            stats = server.stats()
            prom = server.render_prometheus()
        res = stats["resilience"]
        assert res["failed"] == [0, 1]
        # respawned until the cap, then no more
        assert res["worker_restarts"] == 2 * (MAX_CONSECUTIVE_CRASHES - 1)
        assert [b["state"] for b in res["breakers"]] == ["open", "open"]
        assert 'serve_worker_failed{shard="0"} 1' in prom
        assert 'serve_worker_failed{shard="1"} 1' in prom
        events = [e for e in server.recorder.events("worker_failed")]
        assert sorted(e["shard"] for e in events) == [0, 1]
        assert len(list(tmp_path.glob("flight-worker_failed-*.json"))) == 2

    def test_thread_crash_loop_ends_in_failed_state(self, serve_packed,
                                                    serve_queries):
        server = InferenceServer(
            ServeConfig(n_workers=1, max_retries=50, retry_backoff=0.001),
            chaos=ChaosPolicy(kill_rate=1.0, seed=1),
        )
        server.register("m", serve_packed)
        with server:
            future = server.submit("m", serve_queries[0])
            self._await_failed(server, 1)
            with pytest.raises(ServeError):
                future.result(timeout=10.0)
            stats = server.stats()
        assert stats["resilience"]["failed"] == [0]
        assert (stats["resilience"]["worker_restarts"]
                == MAX_CONSECUTIVE_CRASHES - 1)
        assert stats["resilience"]["breakers"][0]["state"] == "open"

    def test_respawns_back_off_exponentially(self, serve_packed,
                                             serve_queries):
        server = InferenceServer(
            ServeConfig(n_workers=1, max_retries=50, retry_backoff=0.001),
            chaos=ChaosPolicy(kill_rate=1.0, seed=1),
        )
        server.register("m", serve_packed)
        with server:
            future = server.submit("m", serve_queries[0])
            self._await_failed(server, 1)
            with pytest.raises(ServeError):
                future.result(timeout=10.0)
        respawns = [e["t"] for e in server.recorder.events("worker_respawn")]
        assert len(respawns) == MAX_CONSECUTIVE_CRASHES - 1
        # the k-th respawn waits at least RESPAWN_BACKOFF * 2^(k-1)
        # after the crash, which came after the previous respawn
        for k, gap in enumerate(np.diff(respawns), start=2):
            assert gap >= RESPAWN_BACKOFF * 2 ** (k - 1)

    def test_a_served_batch_resets_the_crash_count(self, serve_packed,
                                                    serve_queries):
        kills = MAX_CONSECUTIVE_CRASHES - 1
        chaos = ChaosPolicy(kill_rate=1.0, seed=1)
        server = InferenceServer(
            ServeConfig(n_workers=1, max_retries=50, retry_backoff=0.001),
            chaos=chaos,
        )
        server.register("m", serve_packed)
        with server:
            # two runs of kills, each one short of the cap, split by
            # a served batch: the worker must survive both
            for run in (1, 2):
                chaos.max_kills = run * kills
                assert server.submit("m", serve_queries[0]).result(
                    timeout=30.0).label is not None
            stats = server.stats()
        assert stats["resilience"]["failed"] == []
        assert stats["resilience"]["worker_restarts"] == 2 * kills
