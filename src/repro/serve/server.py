"""The inference service façade: config, submission API, lifecycle.

:class:`InferenceServer` wires the pieces together::

    submit() --> RequestQueue --> MicroBatcher --> worker threads --> Future
                     |                 |                |
                 (bounded:      (sheds expired   ModelRegistry (hot swap)
                  rejects        requests)       LoadShedPolicy (dim shed)
                  when full)         ^           MetricsHub   (telemetry)
                     |               |           CircuitBreaker (per worker)
                 RetryScheduler -----+           DegradationLadder
                 (backed-off retries re-enter)   ChaosPolicy  (fault inj.)

Usage::

    server = InferenceServer(ServeConfig(max_batch=64, n_workers=2))
    server.register("mnist", trained_classifier)
    with server:
        fut = server.submit("mnist", x, deadline=0.05)   # async, 50 ms budget
        pred = fut.result()                   # Prediction(label=..., dim=...)
        label = server.predict("mnist", x)    # sync convenience
    print(server.stats())

At full dimensionality the served predictions are bit-identical to
calling the underlying model directly; under overload the policy sheds
dimensions in 128-dim steps and predictions keep using the exact
:class:`~repro.core.norms.SubNormTable` prefix norms.

Resilience semantics (see :mod:`repro.serve.resilience`): per-request
deadlines propagate through the queue and batcher to the workers;
retryable worker failures re-enter the queue with exponential backoff
while the deadline budget allows; each worker's circuit breaker opens
on sustained errors/latency and the :class:`~repro.serve.resilience.
degrade.DegradationLadder` converts pool-wide breaker state into the
paper's graceful-degradation knobs (engine fallback, forced dimension
shedding, and finally :class:`~repro.serve.errors.Backpressure`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import UNSET, ComputeConfig
from repro.obs import distributed as obs_distributed
from repro.obs import trace as obs_trace
from repro.obs.slo import SLObjective
from repro.serve.errors import ServeError, WorkerError, WorkerKilled
from repro.serve.registry import Deployment, Model
from repro.serve.resilience.breaker import BreakerConfig
from repro.serve.resilience.degrade import DegradeConfig
from repro.serve.surface import (
    SUPERVISE_INTERVAL,
    ServingSurfaceBase,
    group_by_model,
)

_LEGACY_COMPUTE_KWARGS = ("engine", "encode_jobs", "train_engine")


@dataclass
class ServeConfig:
    """All serving knobs in one place (defaults favor small test rigs)."""

    max_batch: int = 32          # micro-batch size cap
    max_wait: float = 0.002      # linger (s) after the first request of a batch
    n_workers: int = 2
    queue_size: int = 1024       # admission bound; beyond it -> QueueFull
    # -- compute stage ------------------------------------------------------
    #: consolidated compute knobs (engine / encode_jobs / train_engine /
    #: train_memory_budget); the deprecated ``engine``/``encode_jobs``/
    #: ``train_engine`` kwargs below fold into it with a warning
    config: Optional[ComputeConfig] = None
    engine: Optional[str] = None        # DEPRECATED: use config=
    encode_jobs: Optional[int] = None   # DEPRECATED: use config=
    train_engine: Optional[str] = None  # DEPRECATED: use config=
    # -- load shedding ------------------------------------------------------
    max_shed_level: int = 24     # each level drops 128 dims (clamped per model)
    queue_high: int = 32         # shed when depth reaches this
    queue_low: int = 2           # recover only at/below this (hysteresis)
    p95_target: Optional[float] = None   # optional latency SLO in seconds
    shed_cooldown: float = 0.05  # min seconds between level changes
    latency_window: int = 256    # recent samples for the policy's p95
    # -- deadlines & retries ------------------------------------------------
    default_deadline: Optional[float] = None  # per-request budget (seconds)
    max_retries: int = 2         # retryable-failure re-attempts per request
    retry_backoff: float = 0.002        # first backoff (seconds)
    retry_backoff_factor: float = 2.0   # exponential growth per attempt
    retry_max_backoff: float = 0.25     # backoff ceiling (seconds)
    # -- circuit breaking & degradation -------------------------------------
    breaker: Optional[BreakerConfig] = None   # None -> BreakerConfig()
    degrade: Optional[DegradeConfig] = None   # None -> DegradeConfig()
    # -- observability -------------------------------------------------------
    #: service-level objectives (repro.obs.slo.SLObjective); scored per
    #: request, evaluated by the supervisor, surfaced in stats()["slo"]
    #: and Prometheus, and -- when an objective names a degrade_tier --
    #: driving the degradation ladder pre-emptively on budget burn
    slos: Optional[Sequence[SLObjective]] = None
    #: directory for flight-recorder postmortem bundles; None keeps the
    #: recorder in-memory only (dump() still works with explicit paths)
    postmortem_dir: Optional[str] = None

    def __post_init__(self) -> None:
        # legacy kwargs fold into the consolidated config through the
        # one shim path (single DeprecationWarning site, see
        # repro.core.compat); None here means "not passed"
        legacy = {k: getattr(self, k) for k in _LEGACY_COMPUTE_KWARGS
                  if getattr(self, k) is not None}
        compute = ComputeConfig.from_kwargs(
            self.config, owner=type(self).__name__, stacklevel=4,
            **{k: legacy.get(k, UNSET) for k in _LEGACY_COMPUTE_KWARGS},
        )
        self.config = compute
        # mirror so legacy attribute reads keep working; ``config`` is
        # the source of truth everywhere inside the server
        self.engine = compute.engine
        self.encode_jobs = compute.encode_jobs
        self.train_engine = compute.train_engine
        if self.breaker is None:
            self.breaker = BreakerConfig()
        if self.degrade is None:
            self.degrade = DegradeConfig()


class InferenceServer(ServingSurfaceBase):
    """Micro-batching, load-shedding, fault-tolerant HDC prediction service.

    One of the two :class:`~repro.serve.surface.ServingSurface`
    backends: the GIL-bound thread-pool one (see
    :class:`~repro.serve.sharded.server.ShardedServer` for the
    process-sharded one).  The whole request lifecycle -- admission,
    expiry, retry-or-fail, resolution, supervision and ``stats()`` --
    lives in :class:`~repro.serve.surface.ServingSurfaceBase`; this
    class is only the transport: ``n_workers`` threads that each pull
    a micro-batch and run :meth:`Deployment.encode` then
    :meth:`Deployment.search` inline.

    ``chaos`` (a :class:`~repro.serve.resilience.chaos.ChaosPolicy`)
    attaches the fault-injection harness; production servers leave it
    ``None`` and pay only a few no-op checks per batch.
    """

    def __init__(self, config: Optional[ServeConfig] = None, chaos=None):
        config = config or ServeConfig()
        super().__init__(config, chaos, config.n_workers)
        self._threads: Dict[int, threading.Thread] = {}
        self._busy = [0.0] * config.n_workers

    # -- deployments --------------------------------------------------------

    def register(self, name: str, model: Model,
                 min_dim: Optional[int] = None,
                 engine: Optional[str] = None,
                 encode_jobs: Optional[int] = None) -> Deployment:
        """Deploy (or hot-swap) ``model`` under ``name``.

        The server's :class:`~repro.core.config.ComputeConfig` seeds the
        deployment; ``engine``/``encode_jobs`` override it per model.
        """
        return self.registry.register(
            name, model, min_dim=min_dim,
            engine=engine, encode_jobs=encode_jobs,
            config=self.config.config,
        )

    def swap(self, name: str, model: Model,
             dim_order: Optional[np.ndarray] = None,
             drain: bool = True,
             drain_timeout: float = 5.0) -> Deployment:
        """Hot-swap deployment ``name`` to a new model version.

        Thin wrapper over :meth:`ModelRegistry.swap` that also updates
        the serving metrics: bumps the ``model_swaps`` counter and sets
        the per-model ``model_version`` gauge.  ``drain=True`` (the
        default) blocks until batches in flight on the *old* version
        finish -- new batches already pick up the new version the moment
        the registry entry flips.
        """
        dep = self.registry.swap(
            name, model, dim_order=dim_order,
            drain=drain, drain_timeout=drain_timeout,
        )
        self.metrics.counter("model_swaps").inc()
        self.metrics.registry.gauge(
            "model_version", help="deployed model version",
            labels=("model",),
        ).labels(model=name).set(dep.version)
        return dep

    # -- the thread transport -----------------------------------------------

    def _start_transport(self) -> None:
        for i in range(len(self.breakers)):
            self._respawn(i)

    def _respawn(self, worker: int) -> None:
        thread = threading.Thread(target=self._run, args=(worker,),
                                  name=f"serve-worker-{worker}", daemon=True)
        self._threads[worker] = thread
        thread.start()

    def _worker_alive(self, worker: int) -> bool:
        return self._threads[worker].is_alive()

    def _stop_transport(self, timeout: Optional[float]) -> None:
        for thread in list(self._threads.values()):
            thread.join(timeout=timeout)

    @property
    def running(self) -> bool:
        """Whether any worker thread is still alive."""
        return any(t.is_alive() for t in list(self._threads.values()))

    def _busy_seconds(self) -> List[float]:
        return list(self._busy)

    def _run(self, worker: int) -> None:
        breaker = self.breakers[worker]
        while True:
            if not breaker.allow():
                # open breaker: sit out, let the rest of the pool drain
                if self._stop.is_set() or self.queue.closed:
                    return
                time.sleep(SUPERVISE_INTERVAL)
                continue
            batch = self.batcher.next_batch(timeout=SUPERVISE_INTERVAL)
            if not batch:
                if self._stop.is_set() or self.queue.closed:
                    return
                continue
            self.metrics.histogram("batch_size").record(len(batch))
            t0 = time.monotonic()
            groups = group_by_model(batch)
            try:
                for model in list(groups):
                    self._serve_group(worker, model, groups.pop(model))
            except WorkerKilled:
                # the thread dies like a crashed worker would: _open
                # booked the killed group, the groups never reached
                # retry or fail, and the supervisor respawns the thread
                err = WorkerError(f"worker {worker} died mid-batch",
                                  worker=worker, retryable=True)
                for requests in groups.values():
                    for req in requests:
                        self._fail_or_retry(req, err)
                return
            finally:
                self._busy[worker] += time.monotonic() - t0
            self._after_batch()

    def _serve_group(self, worker: int, model: str, requests) -> None:
        batch = self._open(worker, model, requests)
        if batch is None:
            return
        dep = batch.dep
        # a micro-batch coalesces many traces; its spans parent under
        # the first traced request (the "leader") and carry the other
        # trace ids as links so no trace is orphaned entirely
        attrs = {"model": model, "batch": len(batch.requests)}
        if batch.ctx is not None:
            links = [obs_distributed.fmt_id(r.ctx.trace_id)
                     for r in batch.requests
                     if r.ctx is not None and r.ctx is not batch.ctx][:16]
            if links:
                attrs["links"] = links
        try:
            # serving() brackets the batch so ModelRegistry.swap can
            # drain this (possibly outgoing) version precisely
            with dep.serving(), obs_distributed.use_context(batch.ctx):
                X = np.stack([r.x for r in batch.requests])
                t0 = time.monotonic()
                with obs_trace.span("serve.encode", **attrs):
                    encoded = dep.encode(X)
                t1 = time.monotonic()
                with obs_trace.span("serve.search", dim=batch.dim,
                                    **attrs) as sp:
                    if batch.fault is not None:
                        spec, rng = batch.fault
                        labels = dep.search(encoded, dim=batch.dim,
                                            fault=spec, rng=rng)
                    else:
                        labels = dep.search(encoded, dim=batch.dim)
                    if sp.recording:
                        # similarity against every class over the served
                        # prefix: one MAC per (request, class, dimension)
                        n_classes = (len(dep.model.class_words)
                                     if dep.kind == "packed"
                                     else dep.model.n_classes)
                        macs = len(batch.requests) * n_classes * batch.dim
                        sp.add_ops(add_ops=macs, mul_ops=macs,
                                   mem_bytes=n_classes * batch.dim * 8)
                t2 = time.monotonic()
        except Exception as exc:
            # structured failure: record on the breaker, then retry or
            # fail every future -- never leave one unresolved
            if not isinstance(exc, ServeError):
                # unknown model exceptions are deterministic: re-running
                # the same batch would fail the same way
                exc = WorkerError(
                    f"{type(exc).__name__} while serving {model!r}: {exc}",
                    model=model, worker=worker, retryable=False, cause=exc,
                )
            self._fail_requests(worker, batch.requests, exc, batch.t_start)
            self._take(batch.seq)
            return
        self.metrics.histogram("encode").record(t1 - t0)
        self.metrics.histogram("search").record(t2 - t1)
        self._resolve(batch, labels)
        self._take(batch.seq)
