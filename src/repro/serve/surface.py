"""The one serving surface and the one request lifecycle.

Both serving backends -- the threaded :class:`~repro.serve.server.
InferenceServer` and the process-sharded :class:`~repro.serve.sharded.
server.ShardedServer` -- run every request through the same pipeline:
admit, batch, encode, search, resolve.  They differ only in *where*
encode and search run (a worker thread, or a shard process behind a
FIFO queue).  This module holds everything else, once:

- :class:`ServingSurface` -- a :func:`typing.runtime_checkable`
  :class:`~typing.Protocol` naming the methods and attributes a serving
  backend must provide.  Anything that drives "a server" (StreamLoop,
  the benches, the fleet aggregator) types against this, not against a
  concrete class.
- :class:`ServingSurfaceBase` -- the request lifecycle both servers
  inherit: construction of the policy, queue, batcher, ladder, retry,
  recorder and SLO collaborators from one ``ServeConfig``; request
  admission; expiry and the ``queue_wait`` record; retry-or-fail;
  resolution into :class:`Prediction`; the supervisor (respawn with
  backoff, crash cap, breaker gauges, ladder, SLO); ``wait_idle``;
  ``stop``; and the canonical ``stats()`` assembly.
- :data:`STATS_REQUIRED_KEYS` / :data:`STATS_OPTIONAL_KEYS` /
  :func:`validate_stats` -- the ``stats()`` schema contract, enforced
  by a shared conformance test instead of per-server snapshots.

The schema: every backend's ``stats()`` carries exactly the required
top-level keys (metric families + ``queue`` / ``policy`` /
``deployments`` / ``resilience`` / ``slo`` / ``recorder``); a sharded
backend may add the optional ``shards`` / ``shard_metrics`` /
``router`` keys; nothing else is allowed at the top level.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import (
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

import numpy as np

from repro.obs import distributed as obs_distributed
from repro.obs import trace as obs_trace
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import SLOEngine
from repro.serve.batcher import MicroBatcher
from repro.serve.errors import (
    Backpressure,
    DeadlineExceeded,
    RetriesExhausted,
    ServeError,
    WorkerError,
    WorkerKilled,
)
from repro.serve.metrics import MetricsHub
from repro.serve.policy import LoadShedPolicy
from repro.serve.queue import QueueClosed, QueueFull, Request, RequestQueue
from repro.serve.registry import Deployment, Model, ModelRegistry
from repro.serve.resilience.breaker import CircuitBreaker
from repro.serve.resilience.degrade import DegradationLadder
from repro.serve.resilience.retry import RetryPolicy, RetryScheduler

__all__ = [
    "MAX_CONSECUTIVE_CRASHES",
    "RESPAWN_BACKOFF",
    "STATS_OPTIONAL_KEYS",
    "STATS_REQUIRED_KEYS",
    "Prediction",
    "ServingSurface",
    "ServingSurfaceBase",
    "validate_stats",
]

#: seconds between supervisor ticks
SUPERVISE_INTERVAL = 0.05
#: delay before the first respawn of a crashed worker; it doubles with
#: every further crash that follows without a served batch in between
RESPAWN_BACKOFF = 0.05
#: crashes in a row (no batch served between them) after which a worker
#: is marked failed: no more respawns, its breaker held open
MAX_CONSECUTIVE_CRASHES = 5

#: every backend's ``stats()`` must carry exactly these top-level keys
STATS_REQUIRED_KEYS = frozenset({
    "counters", "gauges", "histograms",          # the metrics hub families
    "queue", "policy", "deployments",            # serving state
    "resilience", "slo", "recorder",             # failure-handling state
})

#: a sharded backend may additionally carry these (and only these)
STATS_OPTIONAL_KEYS = frozenset({"shards", "shard_metrics", "router"})

#: per-entry schema of the nested required dicts
_QUEUE_KEYS = frozenset({"depth", "maxsize"})
_POLICY_KEYS = frozenset({
    "level", "max_level_seen", "shed_events", "recover_events",
    "recent_p95_s",
})
_RESILIENCE_KEYS = frozenset({
    "breakers", "ladder", "retry", "worker_restarts", "failed", "chaos",
})
#: every deployment entry carries at least these (backends may add more,
#: e.g. the sharded server's segment/epoch/model_bytes)
_DEPLOYMENT_KEYS = frozenset({
    "kind", "dim", "min_dim", "version", "serving_dim", "degraded",
})


def validate_stats(snap: Dict) -> None:
    """Raise ``ValueError`` unless ``snap`` conforms to the stats schema.

    Checked by the shared conformance test against both serving
    backends, and usable by any consumer that wants to fail fast on a
    foreign backend's snapshot.
    """
    keys = set(snap)
    missing = STATS_REQUIRED_KEYS - keys
    if missing:
        raise ValueError(f"stats() missing required keys: {sorted(missing)}")
    unknown = keys - STATS_REQUIRED_KEYS - STATS_OPTIONAL_KEYS
    if unknown:
        raise ValueError(f"stats() has unknown top-level keys: "
                         f"{sorted(unknown)}")
    if set(snap["queue"]) != _QUEUE_KEYS:
        raise ValueError(f"stats()['queue'] keys {sorted(snap['queue'])} "
                         f"!= {sorted(_QUEUE_KEYS)}")
    if set(snap["policy"]) != _POLICY_KEYS:
        raise ValueError(f"stats()['policy'] keys {sorted(snap['policy'])} "
                         f"!= {sorted(_POLICY_KEYS)}")
    if set(snap["resilience"]) != _RESILIENCE_KEYS:
        raise ValueError(
            f"stats()['resilience'] keys {sorted(snap['resilience'])} "
            f"!= {sorted(_RESILIENCE_KEYS)}")
    for name, dep in snap["deployments"].items():
        short = _DEPLOYMENT_KEYS - set(dep)
        if short:
            raise ValueError(
                f"stats()['deployments'][{name!r}] missing {sorted(short)}")


@dataclass
class Prediction:
    """What a resolved request future holds."""

    label: object
    model: str
    version: int
    dim: int
    shed_level: int
    latency: float
    #: retries burned before this answer (0 = served first try)
    attempts: int = 0
    #: shard process that served the request (None on the thread server)
    shard: Optional[int] = None
    #: 16-hex trace id when the request was traced (None otherwise) --
    #: the key to find this request's spans in an exported JSONL trace
    trace_id: Optional[str] = None


@dataclass
class PendingBatch:
    """One model group of a micro-batch, from admission to resolution.

    ``requests`` are the live :class:`~repro.serve.queue.Request`
    objects whose futures this batch resolves.  While the batch is in
    flight it sits in the server's pending table, which is what
    :meth:`ServingSurfaceBase.wait_idle` counts, what
    :meth:`ServingSurfaceBase.stop` fails, and what a dead worker's
    batches are retried from.
    """

    seq: int
    requests: List[Request]
    #: the deployment version admitted against -- a shard's FIFO queue
    #: serves a pre-swap batch with the pre-swap model, so predictions
    #: carry this, not the resolve-time registry entry
    dep: Deployment
    #: dimensions served (< ``dep.dim`` when the shed policy cut them)
    dim: int
    shed_level: int
    #: worker thread or shard process serving the batch
    worker: int
    t_start: float
    #: the chaos policy's class-memory fault draw, ``(spec, rng)``
    fault: Optional[tuple] = None
    #: the leader request's TraceContext when the batch is traced
    ctx: Optional[obs_distributed.TraceContext] = None
    #: span id of a ``serve.dispatch`` span bracketing the batch (process
    #: transport only); emitted at resolve time with exactly this id
    dispatch_span_id: Optional[int] = None


@runtime_checkable
class ServingSurface(Protocol):
    """What it means to be a serving backend.

    Satisfied structurally by :class:`~repro.serve.server.
    InferenceServer` and :class:`~repro.serve.sharded.server.
    ShardedServer` (enforced by the conformance test, not just by
    ``isinstance``).  Consumers -- :class:`~repro.stream.loop.
    StreamLoop`, :class:`~repro.fleet.aggregator.FleetAggregator`, the
    load benches -- accept any object with this surface.
    """

    # -- collaborating state every backend exposes --------------------------
    registry: object       # ModelRegistry mirror (get/names/swap)
    metrics: object        # MetricsHub (counter/gauge/histogram/registry)
    policy: object         # LoadShedPolicy (level, recent_p95)
    ladder: object         # DegradationLadder (tier, add_dim_shed_hook)
    recorder: object       # FlightRecorder (record_event, dump)
    config: object         # ServeConfig-like

    # -- deployments --------------------------------------------------------
    def register(self, name: str, model: Model, **kwargs) -> Deployment: ...

    def swap(self, name: str, model: Model,
             dim_order: Optional[np.ndarray] = None,
             drain: bool = True, **kwargs) -> Deployment: ...

    # -- lifecycle ----------------------------------------------------------
    def start(self): ...

    def stop(self, timeout: Optional[float] = 5.0) -> None: ...

    # -- request path -------------------------------------------------------
    def submit(self, model: str, x: np.ndarray,
               deadline: Optional[float] = None) -> "Future[Prediction]": ...

    def predict(self, model: str, x: np.ndarray,
                timeout: Optional[float] = None,
                deadline: Optional[float] = None) -> object: ...

    def predict_many(self, model: str, X: Sequence[np.ndarray],
                     timeout: Optional[float] = None,
                     deadline: Optional[float] = None) -> List[Prediction]: ...

    def predict_encoded(self, model: str, encodings: np.ndarray,
                        dim: Optional[int] = None) -> np.ndarray: ...

    # -- introspection ------------------------------------------------------
    def stats(self) -> Dict: ...

    def worker_utilization(self) -> Dict[str, List[float]]: ...

    def render_prometheus(self) -> str: ...

    def wait_idle(self, timeout: float = 10.0,
                  poll: float = 0.005) -> bool: ...


def group_by_model(batch: List[Request]) -> Dict[str, List[Request]]:
    """Split a micro-batch into per-model groups, arrival order kept."""
    groups: Dict[str, List[Request]] = {}
    for req in batch:
        groups.setdefault(req.model, []).append(req)
    return groups


class ServingSurfaceBase:
    """The request lifecycle shared by both serving backends.

    A subclass calls ``super().__init__(config, chaos, n_workers)`` and
    supplies only its transport:

    - :meth:`_start_transport` / :meth:`_stop_transport` /
      :meth:`_release` -- bring the workers up, join them, free
      resources (also on a never-started server);
    - :meth:`_worker_alive` / :meth:`_respawn` -- liveness and
      replacement of worker ``i`` (the supervisor owns when);
    - :meth:`_busy_seconds` -- per-worker busy time;
    - optionally :meth:`_on_death`, :meth:`_tick_transport`,
      :meth:`_deployment_extra` and :meth:`_extra_stats` (must stay
      within :data:`STATS_OPTIONAL_KEYS`).

    The transport admits each model group with :meth:`_open` and ends
    it with :meth:`_resolve` or :meth:`_fail_requests`.
    """

    #: what one serving unit is called in metric labels, events, spans
    _unit = "worker"

    def __init__(self, config, chaos, n_workers: int):
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        self.config = c = config
        self.chaos = chaos
        self.metrics = MetricsHub()
        self.registry = ModelRegistry()
        self.policy = LoadShedPolicy(
            max_level=c.max_shed_level, queue_high=c.queue_high,
            queue_low=c.queue_low, p95_target=c.p95_target,
            cooldown=c.shed_cooldown, window=c.latency_window,
        )
        self.queue = RequestQueue(maxsize=c.queue_size)
        # the batcher sheds expired requests straight into the
        # DeadlineExceeded path instead of batching them
        self.batcher = MicroBatcher(
            self.queue, max_batch=c.max_batch, max_wait=c.max_wait,
            on_expired=self.expire_request,
        )
        self.ladder = DegradationLadder(
            self.registry, self.policy, metrics=self.metrics,
            config=c.degrade,
        )
        self.retry_policy = RetryPolicy(
            max_retries=c.max_retries, backoff=c.retry_backoff,
            backoff_factor=c.retry_backoff_factor,
            max_backoff=c.retry_max_backoff,
        )
        self.scheduler = RetryScheduler(self.queue)
        self.recorder = FlightRecorder(dir=c.postmortem_dir)
        self.slo = (SLOEngine(c.slos, registry=self.metrics.registry,
                              ladder=self.ladder)
                    if c.slos else None)
        self.breakers = [
            CircuitBreaker(c.breaker, name=f"{self._unit}-{i}")
            for i in range(n_workers)
        ]
        self._breaker_gauge = self.metrics.registry.gauge(
            "breaker_state",
            help=f"0=closed 1=half-open 2=open, per {self._unit}",
            labels=(self._unit,),
        )
        self._failed_gauge = self.metrics.registry.gauge(
            "worker_failed",
            help=f"1 once a {self._unit} crashed {MAX_CONSECUTIVE_CRASHES} "
                 "times in a row and is no longer respawned",
            labels=(self._unit,),
        )
        self.worker_restarts = 0
        #: workers that hit the crash cap (never respawned again)
        self.failed: set = set()
        self._crashes = [0] * n_workers
        self._respawn_at: Dict[int, float] = {}
        self._served_by = [0] * n_workers
        self._seq = itertools.count(1)
        self._pending: Dict[int, PendingBatch] = {}
        self._plock = threading.Lock()
        self._stop = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._started = False
        self._metrics_endpoint = None

    # -- request admission ---------------------------------------------------

    def submit(self, model: str, x: np.ndarray,
               deadline: Optional[float] = None) -> "Future[Prediction]":
        """Enqueue one prediction; returns a future of :class:`Prediction`.

        ``deadline`` is a per-request latency budget in seconds
        (defaults to ``config.default_deadline``); once it expires the
        request is shed with :class:`~repro.serve.errors.
        DeadlineExceeded` instead of served.  Raises
        :class:`~repro.serve.queue.QueueFull` when the bounded queue
        rejects the request and its subclass :class:`~repro.serve.
        errors.Backpressure` at the ladder's rejecting tier.
        """
        if not self._started:
            raise RuntimeError(
                f"{type(self).__name__}.submit() before start()")
        if model not in self.registry:
            raise KeyError(
                f"no deployment named {model!r}; registered: "
                f"{self.registry.names()}"
            )
        if self.ladder.rejecting:
            self.metrics.counter("degraded_rejections").inc()
            raise Backpressure(
                "server is at degradation tier "
                f"{self.ladder.tier} ({self.ladder.tier_name}); "
                "request rejected"
            )
        if deadline is None:
            deadline = self.config.default_deadline
        abs_deadline = (None if deadline is None
                        else time.monotonic() + deadline)
        # mint the request's distributed trace identity only while
        # tracing is on: the untraced path stays id-allocation free
        ctx = (obs_distributed.new_trace()
               if obs_trace.tracing_enabled() else None)
        req = Request(x=np.asarray(x, dtype=np.float64), model=model,
                      deadline=abs_deadline, ctx=ctx)
        try:
            self.queue.put(req)
        except QueueFull:
            self.metrics.counter("rejected").inc()
            raise
        self.metrics.counter("submitted").inc()
        return req.future

    def asubmit(self, model: str, x: np.ndarray,
                deadline: Optional[float] = None) -> "asyncio.Future":
        """``await``-able submit: the same future, asyncio-wrapped."""
        return asyncio.wrap_future(self.submit(model, x, deadline=deadline))

    async def apredict(self, model: str, x: np.ndarray,
                       deadline: Optional[float] = None) -> object:
        """Async single prediction; returns the label only."""
        return (await self.asubmit(model, x, deadline=deadline)).label

    def predict(self, model: str, x: np.ndarray,
                timeout: Optional[float] = None,
                deadline: Optional[float] = None) -> object:
        """Synchronous single prediction; returns the label only."""
        return self.submit(model, x, deadline=deadline).result(
            timeout=timeout
        ).label

    def predict_many(
        self, model: str, X: Sequence[np.ndarray],
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> List[Prediction]:
        """Submit a whole batch and gather the resolved predictions."""
        futures = [self.submit(model, x, deadline=deadline)
                   for x in np.atleast_2d(np.asarray(X))]
        return [f.result(timeout=timeout) for f in futures]

    def predict_encoded(self, model: str, encodings: np.ndarray,
                        dim: Optional[int] = None) -> np.ndarray:
        """Search pre-encoded queries against the current model version.

        The registry side-door: runs stage-2 associative search
        directly on the caller's thread, bypassing the queue, batcher,
        shedding and retry machinery.  ``encodings`` must be the
        deployment's stage-1 representation (float encodings for a
        classifier deployment, packed query words for a packed one --
        i.e. whatever :meth:`~repro.serve.registry.Deployment.encode`
        produces).  The call is bracketed with
        :meth:`~repro.serve.registry.Deployment.serving`, so drained
        hot swaps still account for it.  Used by the fleet aggregator's
        between-round evaluation and by offline replay tooling; live
        traffic should go through :meth:`submit`.
        """
        dep = self.registry.get(model)
        with dep.serving():
            return dep.search(np.atleast_2d(np.asarray(encodings)), dim=dim)

    # -- the batch lifecycle: open, then resolve or fail ---------------------

    def _open(self, worker: int, model: str, requests: List[Request],
              seq: Optional[int] = None) -> Optional[PendingBatch]:
        """Admit one model group bound for ``worker``.

        Sheds expired requests, records ``queue_wait`` for the rest,
        consults the chaos policy, and registers the pending batch at
        the current shed level.  Returns ``None`` when nothing is left
        to serve (every request expired, or the group already failed).
        A chaos kill is booked here and re-raised as
        :class:`~repro.serve.errors.WorkerKilled` for the transport to
        crash its worker.
        """
        t0 = time.monotonic()
        live: List[Request] = []
        wait = self.metrics.histogram("queue_wait")
        for req in requests:
            if req.expired(t0):
                self.expire_request(req)
            else:
                wait.record(t0 - req.enqueue_t)
                live.append(req)
        if not live:
            return None
        fault = None
        try:
            if self.chaos is not None:
                # may sleep, raise InjectedFault, or raise WorkerKilled
                self.chaos.on_group(worker, model)
                fault = self.chaos.memory_fault(worker)
            dep = self.registry.get(model)
        except WorkerKilled:
            self._kill(worker, model, live, t0)
            raise
        except ServeError as err:
            self._fail_requests(worker, live, err, t0)
            return None
        except KeyError:
            self._fail_requests(worker, live, WorkerError(
                f"model {model!r} was unregistered", model=model,
                worker=worker, retryable=False,
            ), t0)
            return None
        level = self.policy.level
        batch = PendingBatch(
            seq=next(self._seq) if seq is None else seq, requests=live,
            dep=dep, dim=dep.dim_for_level(level), shed_level=level,
            worker=worker, t_start=t0, fault=fault,
            ctx=next((r.ctx for r in live if r.ctx is not None), None),
        )
        with self._plock:
            self._pending[batch.seq] = batch
        return batch

    def _take(self, seq: int) -> Optional[PendingBatch]:
        """Claim a pending batch (``None`` if already failed or done)."""
        with self._plock:
            return self._pending.pop(seq, None)

    def _resolve(self, batch: PendingBatch, labels) -> None:
        """Resolve a served batch's futures with :class:`Prediction`."""
        done = time.monotonic()
        n = len(batch.requests)
        w = batch.worker
        self.breakers[w].record_success(done - batch.t_start)
        self._crashes[w] = 0
        self.metrics.histogram("serve_seconds").record(done - batch.t_start)
        dep = batch.dep
        if batch.dim < dep.dim:
            self.metrics.counter("shed_predictions").inc(n)
        # counted before any future resolves: whoever sees a result
        # also sees it in the counters
        self.metrics.counter("served").inc(n)
        self._served_by[w] += n
        if batch.dispatch_span_id is not None:
            # the dispatch->resolve bracket: parent of every worker
            # span of this batch, child of the leader request's root
            obs_trace.emit_span(
                "serve.dispatch", done - batch.t_start,
                attrs={"model": dep.name, self._unit: w, "batch": n},
                ctx=batch.ctx, span_id=batch.dispatch_span_id,
            )
        shard = w if self._unit == "shard" else None
        total = self.metrics.histogram("total")
        for req, label in zip(batch.requests, labels):
            latency = done - req.enqueue_t
            total.record(latency)
            self.policy.record_latency(latency)
            if self.slo is not None:
                self.slo.record(latency, ok=True)
            trace_id = None
            if req.ctx is not None:
                trace_id = obs_distributed.fmt_id(req.ctx.trace_id)
                # the trace's root span: the whole request, submit to
                # resolve, emitted with the span id minted at submit()
                # so every stage span already parents under it
                obs_trace.emit_span(
                    "serve.request", latency,
                    attrs={"model": dep.name, self._unit: w},
                    ctx=req.ctx, span_id=req.ctx.span_id,
                )
            if not req.future.done():
                req.future.set_result(Prediction(
                    label=label, model=dep.name, version=dep.version,
                    dim=batch.dim, shed_level=batch.shed_level,
                    latency=latency, attempts=req.attempts, shard=shard,
                    trace_id=trace_id,
                ))

    def _after_batch(self) -> None:
        """Let the shed policy adapt to the load a batch left behind."""
        depth = self.queue.depth()
        self.metrics.gauge("shed_level").set(self.policy.observe(depth))
        self.metrics.gauge("queue_depth").set(depth)

    # -- failure disposition -------------------------------------------------

    def expire_request(self, request: Request) -> None:
        """Shed one expired request (also the batcher's on_expired hook)."""
        self.metrics.counter("deadline_expired").inc()
        if self.slo is not None:
            self.slo.record(time.monotonic() - request.enqueue_t, ok=False)
        self.recorder.record_event(
            "deadline_expired", model=request.model,
            attempts=request.attempts,
            trace_id=(obs_distributed.fmt_id(request.ctx.trace_id)
                      if request.ctx is not None else None),
        )
        if not request.future.done():
            request.future.set_exception(DeadlineExceeded(
                f"deadline expired before {request.model!r} could serve "
                f"the request (after {request.attempts} retries)",
                model=request.model, attempts=request.attempts,
            ))

    def _fail_or_retry(self, request: Request, err: ServeError) -> None:
        """Schedule a deadline-aware retry, or resolve the future failed."""
        now = time.monotonic()
        if self.retry_policy.should_retry(request, err, now):
            request.attempts += 1
            delay = self.retry_policy.delay_for(request.attempts)
            try:
                self.scheduler.schedule(request, delay, now)
                self.metrics.counter("retries").inc()
                return
            except QueueClosed:
                pass  # shutting down: fall through to a failed future
        self.metrics.counter("errors").inc()
        if self.slo is not None:
            self.slo.record(now - request.enqueue_t, ok=False)
        if request.future.done():
            return
        final: ServeError = err
        if request.attempts > 0 and getattr(err, "retryable", False):
            final = RetriesExhausted(
                f"gave up on {request.model!r} after "
                f"{request.attempts + 1} attempts",
                model=request.model, worker=err.worker,
                attempts=request.attempts + 1, cause=err,
            )
        request.future.set_exception(final)

    def _fail_requests(self, worker: int, requests: List[Request],
                       err: ServeError,
                       t_start: Optional[float] = None) -> None:
        """Book a failure on ``worker``'s breaker; retry or fail each."""
        self.breakers[worker].record_failure(
            None if t_start is None else time.monotonic() - t_start)
        for req in requests:
            if not req.future.done():
                self._fail_or_retry(req, err)

    def _kill(self, worker: int, model: str, requests: List[Request],
              t_start: float) -> None:
        """A chaos kill took ``worker`` down with ``requests`` in hand."""
        self.metrics.counter("worker_kills").inc()
        leader = next((r.ctx for r in requests if r.ctx is not None), None)
        affected = (obs_distributed.fmt_id(leader.trace_id)
                    if leader is not None else None)
        if leader is not None:
            # the affected batch's failed dispatch bracket: puts the
            # trace into the recorder's ring *before* the bundle
            # snapshot, so the postmortem leads with it
            obs_trace.emit_span(
                "serve.dispatch", time.monotonic() - t_start,
                attrs={"model": model, self._unit: worker,
                       "error": "worker_kill"},
                ctx=leader,
            )
        self.recorder.record_event("worker_kill", model=model,
                                   trace_id=affected,
                                   **{self._unit: worker})
        self.recorder.dump("worker_kill", trace_id=affected,
                           extra={self._unit: worker, "model": model,
                                  "batch": len(requests)})
        # breakers count batch outcomes; the crash itself is the
        # supervisor's to count (respawn backoff, crash cap)
        err = WorkerError(f"{self._unit} {worker} killed by chaos policy",
                          model=model, worker=worker, retryable=True)
        for req in requests:
            self._fail_or_retry(req, err)

    # -- supervision ---------------------------------------------------------

    def _supervise(self) -> None:
        self._prev_codes = [b.state_code for b in self.breakers]
        self._prev_tier = self.ladder.tier
        while not self._stop.wait(SUPERVISE_INTERVAL):
            self._tick()

    def _tick(self) -> None:
        """One supervisor pass: respawn, breakers, ladder, SLO."""
        now = time.monotonic()
        for i in range(len(self.breakers)):
            if i not in self.failed:
                self._watch(i, now)
        for i, breaker in enumerate(self.breakers):
            code = breaker.state_code
            self._breaker_gauge.labels(**{self._unit: str(i)}).set(code)
            if code != self._prev_codes[i]:
                self.recorder.record_event(
                    "breaker_transition", state=breaker.state, code=code,
                    **{self._unit: i},
                )
                self._prev_codes[i] = code
        self.ladder.observe(self.breakers)
        if self.slo is not None:
            self.slo.evaluate()
        tier = self.ladder.tier
        if tier != self._prev_tier:
            self.recorder.record_event("ladder_tier", old=self._prev_tier,
                                       new=tier)
            self._prev_tier = tier
        if len(self.failed) == len(self.breakers):
            # nothing will ever serve the queue again: fail it now
            # rather than leave futures hanging until stop()
            err = WorkerError(f"every {self._unit} has failed")
            for req in self.queue.drain():
                self._fail_or_retry(req, err)
        self._tick_transport()

    def _watch(self, i: int, now: float) -> None:
        """Respawn a dead worker with backoff; cap crashes in a row."""
        if self._worker_alive(i):
            return
        if i not in self._respawn_at:
            # a fresh death: retry what it held, then decide its fate
            info = self._on_death(i)
            self._crashes[i] += 1
            crashes = self._crashes[i]
            if crashes >= MAX_CONSECUTIVE_CRASHES:
                self.failed.add(i)
                self.breakers[i].hold_open()
                self._failed_gauge.labels(**{self._unit: str(i)}).set(1)
                self.recorder.record_event("worker_failed", crashes=crashes,
                                           **{self._unit: i}, **info)
                self.recorder.dump("worker_failed",
                                   extra={self._unit: i, "crashes": crashes})
                return
            self._respawn_at[i] = now + RESPAWN_BACKOFF * 2 ** (crashes - 1)
        if now < self._respawn_at[i]:
            return
        del self._respawn_at[i]
        self.worker_restarts += 1
        self.metrics.counter("worker_restarts").inc()
        self.recorder.record_event("worker_respawn",
                                   crashes=self._crashes[i],
                                   **{self._unit: i})
        self._respawn(i)

    def _on_death(self, i: int) -> Dict:
        """Retry every batch dead worker ``i`` held; returns event info."""
        with self._plock:
            doomed = [b for b in self._pending.values() if b.worker == i]
            for b in doomed:
                del self._pending[b.seq]
        for b in doomed:
            self._fail_requests(i, b.requests, WorkerError(
                f"{self._unit} {i} died with the batch in flight",
                model=b.dep.name, worker=i, retryable=True,
            ))
        return {}

    def _tick_transport(self) -> None:
        """Backend work riding the supervisor tick (default: none)."""

    # -- lifecycle ----------------------------------------------------------

    def start(self):
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self._stop.clear()
        # the flight recorder rides the trace-sink interface: while
        # tracing is enabled the span ring fills for free; the event
        # ring fills regardless
        obs_trace.add_sink(self.recorder)
        self._start_transport()
        self.scheduler.start()
        self._supervisor = threading.Thread(
            target=self._supervise, name="serve-supervisor", daemon=True)
        self._supervisor.start()
        return self

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        """Stop admitting work, drain the workers, fail leftover futures."""
        if self._metrics_endpoint is not None:
            self._metrics_endpoint.close()
            self._metrics_endpoint = None
        if not self._started:
            self._release()
            return
        obs_trace.remove_sink(self.recorder)
        self.queue.close()
        self._stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=timeout)
            self._supervisor = None
        self._stop_transport(timeout)
        self.scheduler.stop(timeout=timeout)
        with self._plock:
            leftovers = [r for b in self._pending.values()
                         for r in b.requests]
            self._pending.clear()
        err = QueueClosed("server stopped before request was served")
        for req in leftovers + self.queue.drain():
            if not req.future.done():
                req.future.set_exception(err)
        self._release()
        self._started = False

    def _release(self) -> None:
        """Free transport resources after stop (default: none)."""

    def __enter__(self):
        return self if self._started else self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def wait_idle(self, timeout: float = 10.0, poll: float = 0.005) -> bool:
        """Block until queue, retry heap and in-flight batches are empty."""
        deadline = time.monotonic() + timeout
        while True:
            idle = (self.queue.depth() == 0 and self.scheduler.pending() == 0
                    and not self._pending)
            if idle or time.monotonic() >= deadline:
                return idle
            time.sleep(poll)

    # -- introspection -------------------------------------------------------

    def worker_utilization(self) -> Dict[str, List[float]]:
        """Per-worker busy seconds and served-request counts."""
        return {"busy_seconds": self._busy_seconds(),
                "served": list(self._served_by)}

    def start_metrics_endpoint(self, host: str = "127.0.0.1",
                               port: int = 0):
        """Expose :meth:`render_prometheus` on an HTTP ``/metrics`` route.

        Returns the live :class:`~repro.obs.export.PrometheusEndpoint`
        (its ``url``/``port`` tell you where it bound; ``port=0`` picks
        a free one).  Closed automatically by :meth:`stop`.
        """
        if self._metrics_endpoint is not None:
            raise RuntimeError("metrics endpoint already started")
        from repro.obs.export import PrometheusEndpoint

        self._metrics_endpoint = PrometheusEndpoint(
            self.metrics.registry, host=host, port=port
        )
        return self._metrics_endpoint

    def render_prometheus(self) -> str:
        """Prometheus text-format exposition of the serving metrics.

        Queue depth, shed level, per-worker breaker state and failed
        workers appear as the ``queue_depth`` / ``shed_level`` /
        ``breaker_state`` / ``worker_failed`` gauges.
        """
        return self.metrics.render_prometheus()

    def _deployment_extra(self, name: str, dep: Deployment) -> Dict:
        """Backend-specific additions to one deployment's stats entry."""
        return {}

    def _extra_stats(self) -> Dict:
        """Backend-specific optional top-level keys (see schema)."""
        return {}

    def stats(self) -> Dict:
        """JSON-serializable snapshot conforming to the shared schema.

        Top-level keys are exactly :data:`STATS_REQUIRED_KEYS` plus
        whatever subset of :data:`STATS_OPTIONAL_KEYS` the backend's
        :meth:`_extra_stats` contributes -- checked by
        :func:`validate_stats` in the conformance tests.
        """
        snap = self.metrics.snapshot()
        snap["queue"] = {"depth": self.queue.depth(),
                         "maxsize": self.queue.maxsize}
        snap["policy"] = {
            "level": self.policy.level,
            "max_level_seen": self.policy.max_level_seen,
            "shed_events": self.policy.shed_events,
            "recover_events": self.policy.recover_events,
            "recent_p95_s": self.policy.recent_p95(),
        }
        snap["deployments"] = {}
        for name in self.registry.names():
            dep = self.registry.get(name)
            entry = {
                "kind": dep.kind,
                "dim": dep.dim,
                "min_dim": dep.min_dim,
                "version": dep.version,
                "serving_dim": dep.dim_for_level(self.policy.level),
                "degraded": dep.degraded,
            }
            entry.update(self._deployment_extra(name, dep))
            snap["deployments"][name] = entry
        snap["resilience"] = {
            "breakers": [b.stats() for b in self.breakers],
            "ladder": self.ladder.stats(),
            "retry": {
                "scheduled": self.scheduler.scheduled,
                "requeued": self.scheduler.requeued,
                "pending": self.scheduler.pending(),
            },
            "worker_restarts": self.worker_restarts,
            "failed": sorted(self.failed),
            "chaos": self.chaos.stats() if self.chaos is not None else None,
        }
        snap["slo"] = self.slo.snapshot() if self.slo is not None else None
        snap["recorder"] = self.recorder.snapshot()
        extra = self._extra_stats()
        illegal = set(extra) - STATS_OPTIONAL_KEYS
        if illegal:
            raise RuntimeError(
                f"{type(self).__name__}._extra_stats() produced keys "
                f"outside the stats schema: {sorted(illegal)}"
            )
        snap.update(extra)
        return snap
