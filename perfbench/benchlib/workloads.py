"""The three workloads: threaded serving, sharded serving, drift learning.

Each workload treats the program as a library: it generates inputs from
the seed, calls the public APIs of ``repro.core``, ``repro.serve``,
``repro.serve.sharded`` and ``repro.stream``, checks every output, and
returns a :class:`Outcome`.  With ``trace`` set, a traced phase follows
the measured one and the per-layer metrics come from its spans (see
:mod:`benchlib.spans`) and from the servers' own ``stats()``.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core import training
from repro.core.classifier import HDClassifier
from repro.core.config import ComputeConfig
from repro.core.encoders import GenericEncoder
from repro.core.ir import PLANNER
from repro.core.kernels import packed_kernel_cache_info
from repro.core.packed import PackedModel
from repro.datasets import make_drift_stream
from repro.serve import (
    InferenceServer,
    QueueFull,
    ServeConfig,
    ShardedServeConfig,
    ShardedServer,
)
from repro.serve.bench import make_workload
from repro.stream import DriftConfig, StreamConfig, StreamingEncoder, StreamLoop

from benchlib import host as hostmod
from benchlib.loadgen import generator_report, poisson_schedule, run_open_loop
from benchlib.metrics import PER_LAYER
from benchlib.spans import SpanRecorder, self_time_by_layer
from benchlib.stats import median, percentile

#: set-up is repeated this many times per run; setup_s is the median
SETUP_REPEATS = 5
#: a serve run measures this many back-to-back load blocks ...
MEASURE_BLOCKS = 10
#: ... and its timings are medians over the blocks with the least host
#: steal: a neighbour taking the CPU away is not the program's doing
QUIET_BLOCKS = 5
#: timed batch predictions of the query pool (serve-*), in batches of
#: the learn-drift held-out size
PREDICT_REPEATS = 15
PREDICT_BATCH = 1024
#: timed fits of the served model after the load blocks (serve-*); the
#: set-up fits run while the allocator is still growing its heap and
#: read up to a third slower than later ones
FIT_REPEATS = 7

# -- serve-* shape ------------------------------------------------------------
SERVE_RATE = 400.0          # offered open-loop Poisson rate, req/s
SERVE_DIM = 1024
SERVE_FEATURES = 24
SERVE_CLASSES = 4
SERVE_LEVELS = 16
SERVE_TRAIN = 8000          # samples the served model is fitted on
SERVE_QUERIES = 8192        # labelled query pool, sent in order
SERVE_WARMUP = 64           # closed-loop warm-up requests per set-up
MODEL = "edge"

# -- learn-drift shape --------------------------------------------------------
LEARN_DIM = 4096
LEARN_FEATURES = 64
LEARN_CLASSES = 8
LEARN_LEVELS = 32
LEARN_PRETRAIN = 2000       # pre-drift head the model is fitted on
LEARN_STREAM = 4000         # samples streamed after the head
LEARN_HELD_OUT = 1024       # batch-predict slice (first streamed samples)
LEARN_CHUNK = 64
LEARN_REP_NOMINAL_S = 1.25  # sizes the repetition count from --seconds


@dataclass
class Outcome:
    """What one run of one workload measured and checked."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    checks: Dict[str, bool]
    info: Dict[str, object] = field(default_factory=dict)
    recorder: Optional[SpanRecorder] = None

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def _per_layer_zeros() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def _hist_delta(before: Dict, after: Dict, name: str):
    """(count, mean) of a stats() histogram between two snapshots."""
    h1 = after["histograms"].get(name)
    if h1 is None:
        return 0, 0.0
    h0 = before["histograms"].get(name, {"count": 0, "mean_s": 0.0})
    count = h1["count"] - h0["count"]
    if count <= 0:
        return 0, 0.0
    total = h1["mean_s"] * h1["count"] - h0["mean_s"] * h0["count"]
    return count, total / count


def _counter_delta(before: Dict, after: Dict, name: str) -> int:
    return int(after["counters"].get(name, 0)
               - before["counters"].get(name, 0))


class _PlanCounter:
    """Counts KernelPlanner lookups and builds over a traced phase."""

    def __init__(self, rec: SpanRecorder):
        self.built0 = PLANNER.cache_info()["built"]
        rec.wrap(PLANNER, "plan", "ir.plan")
        self.rec = rec

    def metrics(self) -> Dict[str, float]:
        requests = sum(1 for s in self.rec.spans if s.name == "ir.plan")
        built = PLANNER.cache_info()["built"] - self.built0
        return {
            "ir.plan_requests": float(requests),
            "ir.plans_built": float(built),
            # no lookups means no wasted planning work
            "ir.plan_cache_hit_ratio":
                (requests - built) / requests if requests else 1.0,
            "ir.packed_kernels": float(packed_kernel_cache_info()["size"]),
        }


def _span(rec: Optional[SpanRecorder], name: str):
    """``rec.span(name)``, or a no-op when not tracing."""
    return nullcontext() if rec is None else rec.span(name)


def _fit(clf: HDClassifier, X, y,
         rec: Optional[SpanRecorder] = None) -> float:
    """Seconds of one ``clf.fit``; traced, encode spans nest under it."""
    if rec is not None:
        rec.wrap(clf.encoder, "encode_batch", "core.encode_batch")
    t0 = time.perf_counter()
    with _span(rec, "train.fit"):
        clf.fit(X, y)
    return time.perf_counter() - t0


def _fit_layers(rec: SpanRecorder) -> Dict[str, float]:
    fits = [s for s in rec.spans if s.name == "train.fit"]
    by_parent = {}
    for s in rec.spans:
        by_parent.setdefault(s.parent, []).append(s)
    enc = ret = 0.0
    for fit in fits:
        for child in by_parent.get(fit.sid, ()):
            if child.name == "core.encode_batch":
                enc += child.duration
            elif child.name == "core.retrain":
                ret += child.duration
    n = max(1, len(fits))
    return {"train.encode_s": enc / n, "train.retrain_s": ret / n}


# =============================================================================
# serve-threaded / serve-sharded
# =============================================================================

class _ServeSetup:
    """One set-up: data, fitted and packed model, started server, warm-up."""

    def __init__(self, sharded: bool, seed: int):
        t0 = time.perf_counter()
        X, y, _ = make_workload(
            n_features=SERVE_FEATURES, n_classes=SERVE_CLASSES,
            n_train=SERVE_TRAIN + SERVE_QUERIES, n_queries=1, seed=seed,
        )
        self.X_train, self.y_train = X[:SERVE_TRAIN], y[:SERVE_TRAIN]
        self.queries, self.truth = X[SERVE_TRAIN:], y[SERVE_TRAIN:]
        self.seed = seed
        clf = self.make_classifier()
        t_fit = time.perf_counter()
        clf.fit(self.X_train, self.y_train)
        self.fit_s = time.perf_counter() - t_fit
        self.model = PackedModel.from_classifier(clf)
        self.server = (
            ShardedServer(ShardedServeConfig(n_shards=2, mode="replica"))
            if sharded else InferenceServer(ServeConfig())
        )
        self.server.register(MODEL, self.model)
        self.server.start()
        try:
            # groups of 16 stay under the shed policy's queue_high, so
            # warm-up leaves the server at full dimensionality
            warm = self.queries[:SERVE_WARMUP]
            self.warmup = []
            for start in range(0, SERVE_WARMUP, 16):
                self.warmup += self.server.predict_many(
                    MODEL, warm[start:start + 16], timeout=60.0)
            self.warmup += [self.server.submit(MODEL, x).result(timeout=60.0)
                            for x in warm[:SERVE_WARMUP // 2]]
        except BaseException:
            self.server.stop()
            raise
        self.warmup_idx = np.r_[0:SERVE_WARMUP, 0:SERVE_WARMUP // 2]
        self.setup_s = time.perf_counter() - t0

    def make_classifier(self) -> HDClassifier:
        enc = GenericEncoder(dim=SERVE_DIM, num_levels=SERVE_LEVELS,
                             seed=self.seed)
        return HDClassifier(enc, epochs=3, seed=self.seed)

    def pids(self) -> List[int]:
        pids = [os.getpid()]
        if isinstance(self.server, ShardedServer):
            pids += [int(p["pid"]) for _, p in
                     sorted(self.server.shard_stats().items())]
        return pids


def _serve_phase(setup: _ServeSetup, seconds: float, seed: int,
                 wrap_submit: Optional[Callable] = None):
    """One open-loop phase at SERVE_RATE; returns (result, host window)."""
    server, queries = setup.server, setup.queries

    def submit(i):
        return server.submit(MODEL, queries[i % len(queries)])

    offsets = poisson_schedule(SERVE_RATE, seconds, seed)
    window = hostmod.HostWindow(setup.pids())
    result = run_open_loop(
        wrap_submit(submit) if wrap_submit is not None else submit,
        offsets, rejected_exc=(QueueFull,),
    )
    server.wait_idle(timeout=30.0)
    return result, window.close()


def _thread_trace_hooks(rec: SpanRecorder, setup: _ServeSetup,
                        roots: Dict[int, int]):
    """Wrap the deployment's encode/search; attach spans to requests.

    A micro-batch serves several requests: its encode and search spans
    are copied under every request in it, found by the query rows (each
    in-flight request carries a distinct query).  Returns the submit
    wrapper for :func:`_serve_phase`.
    """
    pending: Dict[bytes, List[int]] = {}
    submitted_at: Dict[int, float] = {}
    lock = threading.Lock()
    local = threading.local()
    queries = setup.queries

    def wrap_submit(submit):
        def traced_submit(i):
            # registered before the request can reach a worker
            roots[i] = rec.new_id()
            with lock:
                pending.setdefault(
                    queries[i % len(queries)].tobytes(), []).append(i)
            future = submit(i)
            submitted_at[i] = rec.clock()
            return future
        return traced_submit

    def after_encode(sid, start, end, args, result):
        X = np.atleast_2d(args[0])
        batch = []
        with lock:
            for row in X:
                waiting = pending.get(row.tobytes())
                if waiting:
                    batch.append(waiting.pop(0))
        local.batch = batch
        for i in batch:
            # queue wait runs from submit() returning to the batch's
            # encode; empty if a worker took the request first
            queued = min(submitted_at.get(i, start), start)
            rec.add("serve.queue", queued, start, parent=roots[i])
            rec.add("core.encode", start, end, parent=roots[i])

    def after_search(sid, start, end, args, result):
        for i in getattr(local, "batch", ()):
            rec.add("core.search", start, end, parent=roots[i])

    dep = setup.server.registry.get(MODEL)
    rec.wrap(dep, "encode", "batch.encode", after=after_encode)
    rec.wrap(dep, "search", "batch.search", after=after_search)
    return wrap_submit


def _serve_trace(setup: _ServeSetup, seconds: float, seed: int,
                 untraced_cpu_us: float, sharded: bool):
    """The traced phase: same load, spans around every public call."""
    server = setup.server
    rec = SpanRecorder()
    plans = _PlanCounter(rec)
    roots: Dict[int, int] = {}
    wrap_submit = (None if sharded
                   else _thread_trace_hooks(rec, setup, roots))
    util0 = server.worker_utilization()
    before = server.stats()
    result, window = _serve_phase(setup, seconds,
                                  seed * MEASURE_BLOCKS + MEASURE_BLOCKS,
                                  wrap_submit=wrap_submit)
    after = server.stats()
    util1 = server.worker_utilization()
    for i in range(result.attempted):
        sid = roots[i] if i in roots else rec.new_id()
        rec.add("gen.late", result.scheduled[i], result.sent[i], parent=sid)
        rec.add("serve.submit", result.sent[i], result.submitted[i],
                parent=sid)
        if result.results[i] is not None:
            rec.add("serve.request", result.scheduled[i], result.done[i],
                    sid=sid)
    rec.unwrap_all()

    served = _counter_delta(before, after, "served")
    busy = np.subtract(util1["busy_seconds"], util0["busy_seconds"])
    per_worker = np.subtract(util1["served"], util0["served"])
    out = _per_layer_zeros()
    out.update(plans.metrics())
    _, wait = _hist_delta(before, after, "queue_wait")
    _, batch = _hist_delta(before, after, "batch_size")
    out.update({
        "serve.requests": float(served),
        "serve.queue_wait_ms": wait * 1e3,
        "serve.batch_size": batch,
        "serve.worker_busy_us_per_request":
            float(busy.sum()) / max(served, 1) * 1e6,
        "serve.rejected": float(result.rejected),
        "serve.expired": float(_counter_delta(before, after,
                                              "deadline_expired")),
        "serve.retries": float(_counter_delta(before, after, "retries")),
        "obs.trace_overhead_pct":
            (window["cpu_s"] / max(served, 1) * 1e6 - untraced_cpu_us)
            / untraced_cpu_us * 100.0,
    })

    layers, n_roots = self_time_by_layer(rec.spans, "serve.request")
    per_root = {k: v / max(n_roots, 1) * 1e3 for k, v in layers.items()}
    out["self.gen_ms"] = per_root.get("gen.late", 0.0)
    out["self.submit_ms"] = per_root.get("serve.submit", 0.0)
    if sharded:
        # encode and search run in shard processes the benchmark cannot
        # wrap: their cost comes from the shards' stage histograms, and
        # the dispatch bracket (IPC + shard work) from serve_seconds
        stages = {}
        for stage in ("encode", "search"):
            total = count = 0.0
            hists1 = after["shard_metrics"]["histograms"]
            hists0 = before["shard_metrics"]["histograms"]
            for key, h1 in hists1.items():
                labels = key[key.find("{") + 1:-1].split(",")
                if (not key.startswith("stage_seconds{")
                        or f"stage={stage}" not in labels):
                    continue
                h0 = hists0.get(key, {"count": 0, "mean_s": 0.0})
                count += h1["count"] - h0["count"]
                total += (h1["mean_s"] * h1["count"]
                          - h0["mean_s"] * h0["count"])
            stages[stage] = total / count if count else 0.0
        n_disp, dispatch = _hist_delta(before, after, "serve_seconds")
        out.update({
            "encode.us_per_batch": stages["encode"] * 1e6,
            "encode.us_per_sample":
                stages["encode"] * n_disp / max(served, 1) * 1e6,
            "search.us_per_batch": stages["search"] * 1e6,
            "sharded.dispatch_ms": dispatch * 1e3,
            "sharded.ipc_us_per_batch":
                (dispatch - float(busy.sum()) / max(n_disp, 1)) * 1e6,
            "sharded.served_per_shard_min": float(per_worker.min()),
            "sharded.served_per_shard_max": float(per_worker.max()),
            "self.queue_ms": wait * 1e3,
            "self.encode_ms": stages["encode"] * 1e3,
            "self.search_ms": stages["search"] * 1e3,
        })
        out["unattributed_ms"] = per_root.get("serve.request", 0.0) - (
            wait + dispatch) * 1e3
    else:
        enc = [s for s in rec.spans if s.name == "batch.encode"]
        srch = [s for s in rec.spans if s.name == "batch.search"]
        out.update({
            "encode.us_per_batch":
                float(np.mean([s.duration for s in enc])) * 1e6,
            "encode.us_per_sample":
                sum(s.duration for s in enc) / max(served, 1) * 1e6,
            "search.us_per_batch":
                float(np.mean([s.duration for s in srch])) * 1e6,
            "self.queue_ms": per_root.get("serve.queue", 0.0),
            "self.encode_ms": per_root.get("core.encode", 0.0),
            "self.search_ms": per_root.get("core.search", 0.0),
            "unattributed_ms": per_root.get("serve.request", 0.0),
        })

    # the served model's training, traced the same way learn-drift's is
    rec.wrap(training, "retrain", "core.retrain")
    try:
        _fit(setup.make_classifier(), setup.X_train, setup.y_train, rec)
    finally:
        rec.unwrap_all()
    out.update(_fit_layers(rec))
    return out, rec


def run_serve(sharded: bool, seed: int, seconds: float,
              trace: bool) -> Outcome:
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            if setups:
                setups[-1].server.stop()
            setups.append(_ServeSetup(sharded, seed))
        setup = setups[-1]
        return _run_serve_measured(setup, sharded, seed, seconds, trace,
                                   setups)
    finally:
        if setups:
            setups[-1].server.stop()


def _labels_match(model: PackedModel, queries: np.ndarray, idx: np.ndarray,
                  predictions: Sequence, reference: np.ndarray) -> bool:
    """Served labels equal ``predict_packed`` at the dimension served.

    Under load shedding a request is served from a prefix of the
    dimensions; it is checked against the packed model at that prefix.
    """
    labels = np.array([p.label for p in predictions])
    dims = np.array([p.dim for p in predictions])
    full = dims >= model.dim
    ok = bool(np.array_equal(labels[full], reference[idx[full]]))
    for dim in np.unique(dims[~full]):
        sel = dims == dim
        shed = model.predict_packed(
            model.encode_packed(queries[idx[sel]]), dim=int(dim))
        ok &= bool(np.array_equal(labels[sel], shed))
    return ok


def _run_serve_measured(setup: _ServeSetup, sharded: bool, seed: int,
                        seconds: float, trace: bool,
                        setups: Sequence[_ServeSetup]) -> Outcome:
    """MEASURE_BLOCKS back-to-back open-loop blocks; medians over blocks.

    Each timing is the median of its per-block values over the
    QUIET_BLOCKS blocks with the least host steal, so a burst of steal
    spoils a block, not the run.  Every block's figures and steal are
    kept in ``info``, and correctness covers every block.
    """
    server, model = setup.server, setup.model
    blocks = [_serve_phase(setup, seconds / MEASURE_BLOCKS,
                           seed * MEASURE_BLOCKS + b)
              for b in range(MEASURE_BLOCKS)]
    stats = server.stats()
    util = server.worker_utilization()
    peak_rss = hostmod.peak_rss_mb(setup.pids())

    # reference labels: batch PackedModel.predict over the whole pool,
    # timed as the batch-predict throughput
    predict_s = []
    for _ in range(PREDICT_REPEATS):
        t0 = time.perf_counter()
        reference = np.concatenate([
            model.predict_packed(model.encode_packed(
                setup.queries[i:i + PREDICT_BATCH]))
            for i in range(0, len(setup.queries), PREDICT_BATCH)])
        predict_s.append(time.perf_counter() - t0)
    fit_s = [_fit(setup.make_classifier(), setup.X_train, setup.y_train)
             for _ in range(FIT_REPEATS)]

    n = served = hung = rejected = 0
    labels_ok = True
    correct_labels = 0
    lat_ms: List[float] = []
    per_block = {"p50": [], "p90": [], "cpu_us": [], "steal_s": []}
    spans_s = 0.0
    for result, window in blocks:
        idx = np.arange(result.attempted) % len(setup.queries)
        ok = np.array([r is not None for r in result.results], dtype=bool)
        served_preds = [r for r in result.results if r is not None]
        labels_ok &= _labels_match(model, setup.queries, idx[ok],
                                   served_preds, reference)
        labels = np.array([r.label for r in served_preds])
        correct_labels += int(np.sum(labels == setup.truth[idx[ok]]))
        block_served = int(ok.sum())
        n += result.attempted
        served += block_served
        rejected += result.rejected
        hung += result.hung
        block_ms = result.latencies * 1e3
        lat_ms.extend(block_ms)
        per_block["p50"].append(percentile(block_ms, 50)["value"])
        per_block["p90"].append(percentile(block_ms, 90)["value"])
        per_block["cpu_us"].append(
            window["cpu_s"] / max(block_served, 1) * 1e6)
        per_block["steal_s"].append(window["steal_s"])
        spans_s += float(result.done[ok].max() - result.scheduled[0])
    failed = n - served

    counters = stats["counters"]
    attempts = n + len(setup.warmup)
    accounted = (counters.get("served", 0) + counters.get("errors", 0)
                 + counters.get("deadline_expired", 0)
                 + counters.get("rejected", 0)
                 + counters.get("degraded_rejections", 0))
    checks = {
        "served_labels_match_predict_packed": labels_ok,
        "warmup_labels_match_predict_packed": _labels_match(
            model, setup.queries, setup.warmup_idx, setup.warmup, reference),
        "attempted_equals_served_errors_expired_rejected":
            attempts == accounted,
        "per_worker_served_sums_to_served":
            sum(util["served"]) == counters.get("served", 0),
        "no_hung_requests": hung == 0,
    }
    quiet = sorted(range(len(blocks)),
                   key=lambda b: per_block["steal_s"][b])[:QUIET_BLOCKS]
    metrics = {
        "latency_p50_ms": median([per_block["p50"][b] for b in quiet]),
        "cpu_us_per_request": median([per_block["cpu_us"][b]
                                      for b in quiet]),
        "success_rate": served / n,
        # pooled: a short block's Poisson sample strays from the rate
        "throughput_per_s": served / spans_s,
        "train_samples_per_s": SERVE_TRAIN / median(fit_s),
        "predict_samples_per_s":
            len(setup.queries) / median(predict_s),
        "accuracy": correct_labels / max(served, 1),
        "setup_s": median([s.setup_s for s in setups]),
        "peak_rss_mb": peak_rss,
    }
    gen = generator_report([result for result, _ in blocks], SERVE_RATE)
    hosts = [window for _, window in blocks]
    host = {key: sum(h[key] for h in hosts) for key in hosts[0]}
    info = {
        "pooled_latency_ms": {"p50": percentile(lat_ms, 50),
                              "p90": percentile(lat_ms, 90),
                              "p99": percentile(lat_ms, 99)},
        "per_block": per_block,
        "quiet_blocks": sorted(quiet),
        "generator": gen,
        "host": host,
        "requests": {"attempted": n, "served": served,
                     "rejected": rejected, "hung": hung,
                     "errors": failed - rejected - hung,
                     "shed": counters.get("shed_predictions", 0)},
        "setup_s": [s.setup_s for s in setups],
        "setup_fit_s": [s.fit_s for s in setups],
        "fit_s": fit_s,
        "mean_batch": stats["histograms"].get("batch_size", {}).get("mean_s"),
    }
    outcome = Outcome(attempted=n, failed=failed, metrics=metrics,
                      checks=checks, info=info)
    if trace:
        layers, rec = _serve_trace(setup, seconds, seed,
                                   metrics["cpu_us_per_request"], sharded)
        layers.update({
            "gen.late_ms_p99": gen["late_ms_p99"],
            "gen.achieved_rps": gen["achieved_rps"],
            "host.steal_s": host["steal_s"],
            "host.cpu_s": host["host_cpu_s"],
        })
        outcome.metrics = layers
        outcome.recorder = rec
    return outcome


# =============================================================================
# learn-drift
# =============================================================================

def _drift_data(seed: int):
    X, y, _ = make_drift_stream(
        n_classes=LEARN_CLASSES, n_features=LEARN_FEATURES,
        n_samples=LEARN_PRETRAIN + LEARN_STREAM, seed=seed,
        drift_start=0.4, drift_end=0.6, drift_magnitude=1.0, noise=0.4,
    )
    return X, y


def _learn_classifier(seed: int) -> HDClassifier:
    enc = GenericEncoder(dim=LEARN_DIM, num_levels=LEARN_LEVELS, seed=seed)
    return HDClassifier(enc, epochs=3, seed=seed,
                        config=ComputeConfig(train_engine="gram"))


def _learn_rep(seed: int, rec: Optional[SpanRecorder] = None) -> Dict:
    """fit -> batch predict -> drift stream; every retrain awaited."""
    X, y = _drift_data(seed)
    cpu0 = time.process_time()
    pre = LEARN_PRETRAIN
    X_pre, y_pre = X[:pre], y[:pre]
    X_ho = X[pre:pre + LEARN_HELD_OUT]

    clf = _learn_classifier(seed)
    fit_s = _fit(clf, X_pre, y_pre, rec)

    packed = PackedModel.from_classifier(clf)
    if rec is not None:
        rec.wrap(packed, "encode_packed", "core.encode")
        rec.wrap(packed, "predict_packed", "core.search")
    t0 = time.perf_counter()
    with _span(rec, "predict"):
        predicted = packed.predict(X_ho)
    predict_s = time.perf_counter() - t0

    server = InferenceServer(ServeConfig())
    loop = StreamLoop(server, clf, StreamConfig(
        model_name="learn", chunk_size=LEARN_CHUNK,
        replay_capacity=6 * LEARN_CHUNK,
        drift=DriftConfig(window=2 * LEARN_CHUNK, warmup=2 * LEARN_CHUNK,
                          cooldown=2 * LEARN_CHUNK, margin_drop=0.3),
    ))
    if rec is not None:
        rec.wrap(loop.encoder, "encode", "stream.encode")
        rec.wrap(loop.detector, "observe", "stream.detect")
        rec.wrap(server.registry, "swap", "registry.swap")
    chunk_s: List[float] = []
    correct = 0
    timeouts = 0
    with server:
        loop.start()
        try:
            t_stream = time.perf_counter()
            for start in range(pre, len(X), LEARN_CHUNK):
                Xc = X[start:start + LEARN_CHUNK]
                yc = y[start:start + LEARN_CHUNK]
                t0 = time.perf_counter()
                with _span(rec, "stream.chunk") as sid:
                    if rec is not None:
                        # the trainer thread's retrain spans land here
                        rec.current_root = sid
                    report = loop.process(Xc, yc)
                    idle = loop.wait_idle(timeout=60.0)
                if rec is not None:
                    rec.current_root = None
                chunk_s.append(time.perf_counter() - t0)
                timeouts += not idle
                correct += int(np.sum(report.preds == yc))
            stream_s = time.perf_counter() - t_stream
        finally:
            loop.stop()
    stats = loop.stats()
    return {
        "cpu_s": time.process_time() - cpu0,
        "correct": correct,
        "fit_s": fit_s,
        "predict_s": predict_s,
        "stream_s": stream_s,
        "chunk_s": chunk_s,
        "stream_accuracy": correct / (len(X) - pre),
        "predict_accuracy": float(np.mean(predicted
                                          == y[pre:pre + LEARN_HELD_OUT])),
        "predicted": predicted,
        "retrains": stats["trainer"]["retrains"],
        "retrain_failures": stats["trainer"]["failed"],
        "timeouts": timeouts,
        "drift_events": len(loop.detector.events),
        "samples": pre + LEARN_HELD_OUT + (len(X) - pre),
        "operations": 2 + len(chunk_s),
        "encoder": clf.encoder,
        "X": X,
    }


def _streaming_matches_one_shot(encoder, X) -> bool:
    """Chunked StreamingEncoder output equals one-shot encode_batch."""
    block = X[:256]
    reference = encoder.encode_batch(block)
    return all(
        np.array_equal(StreamingEncoder(encoder, chunk_size=c).encode(block),
                       reference)
        for c in (1, 17, LEARN_CHUNK)
    )


def _learn_trace(seeds: Sequence[int], untraced_cpu_us: float):
    rec = SpanRecorder()
    plans = _PlanCounter(rec)
    rec.wrap(training, "retrain", "core.retrain")
    try:
        reps = [_learn_rep(rep_seed, rec=rec) for rep_seed in seeds]
    finally:
        rec.unwrap_all()
    out = _per_layer_zeros()
    out.update(plans.metrics())
    out.update(_fit_layers(rec))
    by_name: Dict[str, List] = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    n_chunks = len(by_name.get("stream.chunk", ()))
    predicts = {s.sid for s in by_name.get("predict", ())}
    chunks = {s.sid for s in by_name.get("stream.chunk", ())}
    enc = [s for s in by_name.get("core.encode", ()) if s.parent in predicts]
    srch = [s for s in by_name.get("core.search", ()) if s.parent in predicts]
    stream_retrain = sum(s.duration for s in by_name.get("core.retrain", ())
                         if s.parent in chunks)
    swaps = by_name.get("registry.swap", ())
    out.update({
        "encode.us_per_batch": float(np.mean([s.duration for s in enc])) * 1e6,
        "encode.us_per_sample":
            sum(s.duration for s in enc) / (len(reps) * LEARN_HELD_OUT) * 1e6,
        "search.us_per_batch":
            float(np.mean([s.duration for s in srch])) * 1e6,
        "stream.encode_ms_per_chunk":
            sum(s.duration for s in by_name.get("stream.encode", ()))
            / max(n_chunks, 1) * 1e3,
        "stream.detect_ms_per_chunk":
            sum(s.duration for s in by_name.get("stream.detect", ()))
            / max(n_chunks, 1) * 1e3,
        "stream.retrain_s": stream_retrain / len(reps),
        "stream.retrains": float(median([r["retrains"] for r in reps])),
        "stream.drift_events": float(median([r["drift_events"]
                                             for r in reps])),
        "registry.swap_ms":
            float(np.mean([s.duration for s in swaps])) * 1e3 if swaps
            else 0.0,
        "obs.trace_overhead_pct":
            (median([r["cpu_s"] / r["samples"] * 1e6 for r in reps])
             - untraced_cpu_us) / untraced_cpu_us * 100.0,
    })
    layers, n_roots = self_time_by_layer(rec.spans, "stream.chunk")
    per_chunk = {k: v / max(n_roots, 1) * 1e3 for k, v in layers.items()}
    out.update({
        "self.encode_ms": per_chunk.get("stream.encode", 0.0)
        + per_chunk.get("core.encode_batch", 0.0),
        "self.retrain_ms": per_chunk.get("core.retrain", 0.0),
        "self.detect_ms": per_chunk.get("stream.detect", 0.0),
        "self.swap_ms": per_chunk.get("registry.swap", 0.0),
        "unattributed_ms": per_chunk.get("stream.chunk", 0.0),
    })
    return out, rec


def _rep_seeds(seed: int, seconds: float) -> List[int]:
    """One drift stream per repetition, their number fixed by ``seconds``.

    The count depends only on the requested length, never on how fast
    this host runs, so accuracy and retrain counts are a function of
    the seed alone.
    """
    n = max(3, int(round(seconds / LEARN_REP_NOMINAL_S)))
    return [seed * 1000 + i for i in range(n)]


def run_learn(seed: int, seconds: float, trace: bool) -> Outcome:
    seeds = _rep_seeds(seed, seconds)
    setup_s = []
    warm = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # fills caches and starts threads; the first stream doubles as
        # the determinism reference for the measured repetitions
        warm.append(_learn_rep(seeds[0]))
        setup_s.append(time.perf_counter() - t0)

    window = hostmod.HostWindow([os.getpid()])
    reps = [_learn_rep(rep_seed) for rep_seed in seeds]
    host = window.close()
    peak_rss = hostmod.peak_rss_mb([os.getpid()])

    chunk_ms = [c * 1e3 for r in reps for c in r["chunk_s"]]
    p50 = percentile(chunk_ms, 50)
    p90 = percentile(chunk_ms, 90)
    requested = sum(r["retrains"] + r["retrain_failures"] for r in reps)
    failures = sum(r["retrain_failures"] + r["timeouts"] for r in reps)
    first = reps[0]
    checks = {
        "stream_accuracy_repeats_exactly": len(
            {r["stream_accuracy"] for r in warm + [first]}) == 1,
        "batch_predictions_repeat_exactly": all(
            np.array_equal(r["predicted"], first["predicted"])
            for r in warm),
        "streaming_encoder_matches_one_shot":
            _streaming_matches_one_shot(first["encoder"], first["X"]),
        "drift_triggered_a_retrain": all(r["retrains"] > 0 for r in reps),
        "no_retrain_failed_or_hung": failures == 0,
    }
    metrics = {
        "latency_p50_ms": p50["value"],
        "cpu_us_per_request": median([r["cpu_s"] / r["samples"] * 1e6
                                      for r in reps]),
        "success_rate": 1.0 - failures / max(requested, 1),
        "throughput_per_s": median([LEARN_STREAM / r["stream_s"]
                                    for r in reps]),
        "train_samples_per_s": median([LEARN_PRETRAIN / r["fit_s"]
                                       for r in reps]),
        "predict_samples_per_s": median([LEARN_HELD_OUT / r["predict_s"]
                                         for r in reps]),
        "accuracy": sum(r["correct"] for r in reps) / (len(reps)
                                                       * LEARN_STREAM),
        "setup_s": median(setup_s),
        "peak_rss_mb": peak_rss,
    }
    info = {
        "reps": len(reps),
        "chunk_latency_ms": {"p50": p50, "p90": p90,
                             "p99": percentile(chunk_ms, 99)},
        "host": host,
        "retrains": [r["retrains"] for r in reps],
        "drift_events": [r["drift_events"] for r in reps],
        "stream_accuracy": [r["stream_accuracy"] for r in reps],
        "predict_accuracy": [r["predict_accuracy"] for r in reps],
        "setup_s": setup_s,
    }
    attempted = sum(r["operations"] for r in reps)
    outcome = Outcome(attempted=attempted, failed=failures,
                      metrics=metrics, checks=checks, info=info)
    if trace:
        layers, rec = _learn_trace(seeds, metrics["cpu_us_per_request"])
        layers.update({"host.steal_s": host["steal_s"],
                       "host.cpu_s": host["host_cpu_s"]})
        outcome.metrics = layers
        outcome.recorder = rec
    return outcome


WORKLOADS = {
    "serve-threaded": lambda seed, seconds, trace:
        run_serve(False, seed, seconds, trace),
    "serve-sharded": lambda seed, seconds, trace:
        run_serve(True, seed, seconds, trace),
    "learn-drift": run_learn,
}
