"""Integration tests for the inference server.

These pin the subsystem's acceptance criteria:

- at full dimensionality, served predictions are identical to calling
  the underlying model directly;
- under induced overload the shed-level gauge rises, latency stays
  bounded, every request still completes, and shed predictions equal
  the model's own reduced-dimension output -- which uses the exact
  :class:`~repro.core.norms.SubNormTable` prefix norms of Section
  4.3.3, not the stale full-length norms.
"""

import json

import numpy as np
import pytest

from repro.core.classifier import HDClassifier
from repro.core.encoders import GenericEncoder
from repro.core.norms import SubNormTable
from repro.serve import (
    Deployment,
    InferenceServer,
    QueueClosed,
    QueueFull,
    ServeConfig,
)


@pytest.fixture
def server(serve_classifier, serve_packed):
    s = InferenceServer(ServeConfig(max_batch=16, n_workers=2))
    s.register("full", serve_classifier)
    s.register("packed", serve_packed)
    with s:
        yield s


class TestFullDimEquivalence:
    def test_classifier_outputs_identical(
        self, server, serve_classifier, serve_queries
    ):
        got = [p.label for p in server.predict_many("full", serve_queries)]
        assert np.array_equal(got, serve_classifier.predict(serve_queries))

    def test_packed_outputs_identical(self, server, serve_packed, serve_queries):
        got = [p.label for p in server.predict_many("packed", serve_queries)]
        assert np.array_equal(got, serve_packed.predict(serve_queries))

    def test_predictions_report_full_dim(self, server, serve_queries):
        pred = server.submit("full", serve_queries[0]).result(timeout=10)
        assert pred.dim == 512
        assert pred.shed_level == 0
        assert pred.model == "full"
        assert pred.latency > 0

    def test_sync_predict(self, server, serve_classifier, serve_queries):
        assert (server.predict("full", serve_queries[0])
                == serve_classifier.predict(serve_queries[:1])[0])


class TestShedding:
    def test_forced_shed_matches_subnorm_reduced_predict(
        self, serve_classifier, serve_queries
    ):
        """Shed level 2 on a 512-dim model -> 256 dims via SubNormTable."""
        # huge cooldown: the pinned level cannot drift during the run
        s = InferenceServer(ServeConfig(max_batch=16, shed_cooldown=1e6))
        s.register("full", serve_classifier)
        with s:
            s.policy.force_level(2)
            preds = s.predict_many("full", serve_queries)
        assert all(p.dim == 256 for p in preds)
        expected = serve_classifier.predict(serve_queries, dim=256)
        assert np.array_equal([p.label for p in preds], expected)

    def test_shed_uses_exact_prefix_norms_not_constant(self):
        """A crafted model where exact and stale norms disagree at dim=128."""
        dim, block = 256, 128
        clf = HDClassifier(GenericEncoder(dim=dim), norm_block=block)
        clf.classes_ = np.array([0, 1])
        # class 0: aligned prefix, huge tail norm; class 1: weak prefix only
        model = np.zeros((2, dim))
        model[0, :block] = 1.0
        model[0, block:] = 100.0
        model[1, :96] = 1.0
        model[1, 96:block] = -1.0
        clf.model_ = model
        clf.norms_ = SubNormTable(2, dim, block=block)
        clf.norms_.recompute(model)

        q = np.ones((1, dim))
        exact = clf.predict_encoded(q, dim=block)
        stale = clf.predict_encoded(q, dim=block, constant_norms=True)
        assert exact[0] == 0 and stale[0] == 1  # the paper's Fig. 5 failure

        dep = Deployment("crafted", clf)
        assert dep.search(q, dim=block)[0] == exact[0]

    def test_overload_sheds_and_stays_bounded(self, serve_classifier, serve_queries):
        config = ServeConfig(
            max_batch=4,
            max_wait=0.0,
            n_workers=1,
            queue_high=4,
            queue_low=0,
            shed_cooldown=0.0,
        )
        s = InferenceServer(config)
        s.register("m", serve_classifier)
        with s:
            futures = [
                s.submit("m", serve_queries[i % len(serve_queries)])
                for i in range(300)
            ]
            preds = [f.result(timeout=30) for f in futures]
            # the gauge rose under load
            assert s.policy.max_level_seen >= 1
            assert s.metrics.gauge("shed_level").max >= 1
            shed = [p for p in preds if p.dim < 512]
            assert shed, "overload never produced a reduced-dim prediction"
            assert s.metrics.counter("shed_predictions").value >= len(shed)
            # p95 stays bounded (loose sanity bound; the point is it completes)
            assert s.metrics.histogram("total").percentile(95) < 10.0

        # every shed prediction equals the exact SubNormTable-reduced output
        for i, p in enumerate(preds):
            if p.dim < 512:
                x = serve_queries[i % len(serve_queries)][None, :]
                assert p.label == serve_classifier.predict(x, dim=p.dim)[0]


class TestHotSwap:
    def test_swap_serves_new_version(
        self, server, serve_classifier, serve_packed, serve_queries
    ):
        v1 = server.submit("full", serve_queries[0]).result(timeout=10)
        assert v1.version == 1
        server.register("full", serve_packed)  # retrained/repacked model
        v2 = server.submit("full", serve_queries[0]).result(timeout=10)
        assert v2.version == 2
        assert v2.label == serve_packed.predict(serve_queries[:1])[0]


class TestAdmissionAndLifecycle:
    def test_submit_before_start_raises(self, serve_classifier):
        s = InferenceServer()
        s.register("m", serve_classifier)
        with pytest.raises(RuntimeError):
            s.submit("m", np.zeros(24))

    def test_unknown_model_raises(self, server):
        with pytest.raises(KeyError):
            server.submit("nope", np.zeros(24))

    def test_full_queue_rejects_and_counts(self, serve_classifier):
        s = InferenceServer(ServeConfig(queue_size=2))
        s.register("m", serve_classifier)
        s._started = True  # no workers: the queue can only fill
        s.submit("m", np.zeros(24))
        s.submit("m", np.zeros(24))
        with pytest.raises(QueueFull):
            s.submit("m", np.zeros(24))
        assert s.metrics.counter("rejected").value == 1
        s.stop()

    def test_stop_fails_pending_futures(self, serve_classifier):
        s = InferenceServer(ServeConfig(queue_size=8))
        s.register("m", serve_classifier)
        s._started = True  # no workers: submitted requests stay queued
        fut = s.submit("m", np.zeros(24))
        s.stop()
        with pytest.raises(QueueClosed):
            fut.result(timeout=1)

    def test_double_start_raises(self, server):
        with pytest.raises(RuntimeError):
            server.start()

    def test_stats_json_serializable(self, server, serve_queries):
        server.predict_many("full", serve_queries[:4])
        stats = json.loads(json.dumps(server.stats()))
        assert stats["counters"]["served"] >= 4
        assert stats["deployments"]["full"]["dim"] == 512
        assert "queue_wait" in stats["histograms"]
        assert "encode" in stats["histograms"]
        assert "search" in stats["histograms"]


class TestStatsSchema:
    """The stats() snapshot is a public contract (dashboards parse it)."""

    TOP_KEYS = {"counters", "gauges", "histograms", "queue", "policy",
                "deployments", "resilience", "slo", "recorder"}

    def test_schema_after_quick_bench_run(self, serve_classifier,
                                          serve_queries):
        """A bench-quick-style burst populates every snapshot section."""
        server = InferenceServer(ServeConfig(max_batch=8, n_workers=2))
        server.register("m", serve_classifier)
        with server:
            for x in serve_queries[:24]:
                server.predict("m", x)
            server.wait_idle(timeout=10.0)
            stats = server.stats()
        assert set(stats) == self.TOP_KEYS
        # stable sub-schemas
        assert set(stats["queue"]) == {"depth", "maxsize"}
        assert set(stats["policy"]) == {
            "level", "max_level_seen", "shed_events", "recover_events",
            "recent_p95_s",
        }
        assert set(stats["deployments"]["m"]) == {
            "kind", "dim", "min_dim", "version", "serving_dim", "degraded",
        }
        assert set(stats["resilience"]) == {
            "breakers", "ladder", "retry", "worker_restarts", "failed",
            "chaos",
        }
        assert [b["state"] for b in stats["resilience"]["breakers"]] == [
            "closed", "closed",
        ]
        assert stats["resilience"]["chaos"] is None
        # the workers maintain these gauges on every batch
        assert stats["gauges"]["shed_level"] == {"value": 0.0, "max": 0.0}
        assert stats["gauges"]["queue_depth"]["value"] >= 0.0
        assert stats["counters"]["served"] == 24
        for hist in ("batch_size", "queue_wait", "encode", "search", "total"):
            snap = stats["histograms"][hist]
            assert set(snap) == {
                "count", "mean_s", "p50_s", "p95_s", "p99_s", "min_s",
                "max_s",
            }
            assert snap["count"] > 0
        # round-trips to JSON without a custom encoder
        assert json.loads(json.dumps(stats)) == stats

    def test_prometheus_exposition(self, server, serve_queries):
        server.predict_many("full", serve_queries[:4])
        text = server.render_prometheus()
        assert "# TYPE serve_served counter" in text
        assert "serve_queue_depth" in text
        assert 'serve_total_bucket{le="+Inf"}' in text
        assert "serve_total_sum" in text

    def test_metrics_endpoint_lifecycle(self, serve_classifier,
                                        serve_queries):
        import urllib.error
        import urllib.request

        server = InferenceServer(ServeConfig(n_workers=1))
        server.register("m", serve_classifier)
        with server:
            endpoint = server.start_metrics_endpoint(port=0)
            with pytest.raises(RuntimeError):
                server.start_metrics_endpoint()
            server.predict("m", serve_queries[0])
            with urllib.request.urlopen(endpoint.url, timeout=5) as resp:
                body = resp.read().decode()
            assert "serve_served 1" in body
        # stop() closed the endpoint; the port no longer accepts requests
        with pytest.raises((ConnectionError, urllib.error.URLError, OSError)):
            urllib.request.urlopen(endpoint.url, timeout=1)
