"""Process-sharded inference server with zero-copy shared models.

:class:`ShardedServer` keeps the thread server's public surface
(``register`` / ``swap`` / ``submit`` / ``predict`` / ``stats`` /
``start``/``stop`` context manager) but moves the compute out of the
GIL::

    submit() -> RequestQueue -> MicroBatcher -> dispatcher thread
                                                     |  (mp.Queue, FIFO per shard)
                        +---------------+------------+----------+
                        v               v                       v
                   shard proc 0    shard proc 1   ...     shard proc N-1
                   (maps the ONE shared-memory model image read-only)
                        |               |                       |
                        +-------> result queue -> collector thread -> futures

Every shard maps the whole model (replica routing, see
:class:`~repro.serve.sharded.router.ShardRouter`): a batch goes to one
consistent-hash/least-loaded shard, which runs encode and search and
answers with labels bit-identical to single-process
:meth:`~repro.core.packed.PackedModel.predict_packed`.  The request
lifecycle around that one round trip -- expiry, retry-or-fail,
resolution, supervision -- is the one both servers share, in
:class:`~repro.serve.surface.ServingSurfaceBase`.

Hot swap is epoch-based: ``swap()`` publishes the new model as a fresh
shared segment, enqueues a swap message on every shard's FIFO queue,
and unlinks the old segment only after every shard acks -- FIFO
ordering makes an ack a proof that all pre-swap batches were answered,
so a drained swap drops zero requests by construction.

Resilience is per-shard: each shard process has a circuit breaker
(crashes and errors open it; the router avoids open shards), the
shared supervisor respawns dead processes onto the *same* queues
(undrained messages survive) with backoff and a crash cap, and the
:class:`~repro.serve.resilience.degrade.DegradationLadder` drives
engine fallback across the process boundary via control messages.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as std_queue
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.classifier import HDClassifier
from repro.core.packed import PackedModel
from repro.core.shared import SharedImageSpec, SharedModelArena
from repro.obs import distributed as obs_distributed
from repro.obs import trace as obs_trace
from repro.obs.registry import Registry
from repro.serve.errors import WorkerError, WorkerKilled
from repro.serve.queue import Request
from repro.serve.registry import Deployment, Model
from repro.serve.resilience.breaker import OPEN
from repro.serve.server import ServeConfig
from repro.serve.sharded import proto
from repro.serve.sharded.router import ShardRouter
from repro.serve.sharded.worker import worker_main
from repro.serve.surface import (
    SUPERVISE_INTERVAL,
    ServingSurfaceBase,
    group_by_model,
)

__all__ = ["ShardedServeConfig", "ShardedServer"]


@dataclass
class ShardedServeConfig(ServeConfig):
    """The thread server's knobs plus the process-sharding ones."""

    n_shards: int = 2
    #: routing mode; "replica" (every shard maps the full model) is the
    #: only one
    mode: str = "replica"
    #: multiprocessing start method ("spawn" is safe with parent threads)
    start_method: str = "spawn"
    #: seconds to wait for every shard's swap ack before giving up on
    #: unlinking the old segment (it is then reclaimed at stop())
    swap_ack_timeout: float = 10.0
    #: seconds stats() waits for worker snapshots
    stats_timeout: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.mode == "partition":
            raise ValueError(
                "mode='partition' was removed: splitting class rows "
                "across shards measured slower than replica serving at "
                "every model size tried; use mode='replica'"
            )
        if self.mode != "replica":
            raise ValueError(f"mode must be 'replica', got {self.mode!r}")


class ShardedServer(ServingSurfaceBase):
    """Micro-batching HDC service over N worker *processes*.

    The second :class:`~repro.serve.surface.ServingSurface` backend:
    the same call surface as :class:`~repro.serve.server.
    InferenceServer` (request admission, predict conveniences and the
    ``stats()`` schema are literally shared via
    :class:`~repro.serve.surface.ServingSurfaceBase`), so
    :class:`~repro.stream.loop.StreamLoop`, the benches and the fleet
    aggregator drive either interchangeably.  Models are always served
    from their bit-packed form; registering an
    :class:`~repro.core.classifier.HDClassifier` packs it first
    (sharded serving is the binary deployment path).
    """

    _unit = "shard"

    def __init__(self, config: Optional[ShardedServeConfig] = None,
                 chaos=None):
        config = config or ShardedServeConfig()
        super().__init__(config, chaos, config.n_shards)
        # self.registry is the parent-side mirror of the deployments
        # (owned model copies); StreamLoop and the ladder read/drive it
        # exactly as they would the thread server's registry
        self.arena = SharedModelArena(prefix="shardsrv")
        self.router: Optional[ShardRouter] = None
        self._ctx = mp.get_context(config.start_method)
        self._task_queues = [self._ctx.Queue()
                             for _ in range(config.n_shards)]
        self._result_queue = self._ctx.Queue()
        self._procs: List[Optional[mp.process.BaseProcess]] = (
            [None] * config.n_shards
        )
        self._specs: Dict[str, SharedImageSpec] = {}
        self._acks: Dict[int, Dict] = {}
        self._stats_waiters: Dict[int, Dict] = {}
        self._engine_degraded: Dict[str, bool] = {}
        #: aggregated per-shard observability (absorbed worker registries)
        self.shard_registry = Registry(namespace="shard")
        self._threads: List[threading.Thread] = []
        #: tracing state last propagated to the worker fleet; the
        #: supervisor forwards TRACE messages when the parent's flips
        self._trace_sent = False

    # -- deployments ---------------------------------------------------------

    @staticmethod
    def _pack(model: Model) -> PackedModel:
        if isinstance(model, PackedModel):
            return model
        if isinstance(model, HDClassifier):
            return PackedModel.from_classifier(model)
        raise TypeError(
            f"cannot shard-deploy {type(model).__name__}; expected "
            "HDClassifier or PackedModel"
        )

    def register(self, name: str, model: Model,
                 min_dim: Optional[int] = None) -> Deployment:
        """Deploy ``model`` on every shard (packed, one shared image)."""
        packed = self._pack(model)
        dep = self.registry.register(
            name, packed, min_dim=min_dim, config=self.config.config,
        )
        spec = packed.to_shared(self.arena, epoch=dep.version)
        old = self._specs.get(name)
        self._specs[name] = spec
        self._engine_degraded[name] = False
        if self._started:
            for q in self._task_queues:
                q.put((proto.DEPLOY, name, spec))
        if old is not None:
            self.arena.unlink(old.segment)
        self.metrics.registry.gauge(
            "model_version", help="deployed model version", labels=("model",),
        ).labels(model=name).set(dep.version)
        return dep

    def swap(self, name: str, model: Model,
             dim_order: Optional[np.ndarray] = None,
             drain: bool = True,
             drain_timeout: Optional[float] = None) -> Deployment:
        """Epoch-based hot swap: publish, flip every shard, then unlink.

        The new image goes out as a *new* shared segment with a bumped
        epoch.  Each shard's FIFO queue gets a swap message; a shard's
        ack therefore certifies that every batch dispatched before the
        swap has been answered.  With ``drain=True`` the call blocks
        until all live shards ack (bounded by ``drain_timeout`` /
        ``ShardedServeConfig.swap_ack_timeout``) and only then unlinks
        the old segment -- zero dropped requests by construction.  On
        an ack timeout the old segment is kept (reclaimed at
        :meth:`stop`) rather than yanked from under a slow shard.

        ``dim_order`` is unsupported here: packed class words bake the
        dimension layout in (the mirror registry enforces the same).
        """
        if dim_order is not None:
            raise ValueError(
                "sharded serving deploys packed models; dim_order "
                "regeneration needs the thread server's classifier path"
            )
        packed = self._pack(model)
        dep = self.registry.swap(name, packed, drain=False)
        old = self._specs.get(name)
        spec = packed.to_shared(self.arena, epoch=dep.version)
        self._specs[name] = spec
        ack_seq = next(self._seq)
        alive = {i for i in range(self.config.n_shards)
                 if self._worker_alive(i)}
        state = {"remaining": set(alive) or set(range(self.config.n_shards)),
                 "event": threading.Event(), "name": name}
        if self._started:
            with self._plock:
                self._acks[ack_seq] = state
            for q in self._task_queues:
                q.put((proto.SWAP, name, spec, ack_seq))
        else:
            state["event"].set()
        self.metrics.counter("model_swaps").inc()
        self.metrics.registry.gauge(
            "model_version", help="deployed model version", labels=("model",),
        ).labels(model=name).set(dep.version)
        if drain and self._started:
            timeout = (self.config.swap_ack_timeout
                       if drain_timeout is None else drain_timeout)
            acked = state["event"].wait(timeout)
            with self._plock:
                self._acks.pop(ack_seq, None)
            if acked and old is not None:
                self.arena.unlink(old.segment)
            elif not acked:
                self.metrics.counter("swap_ack_timeouts").inc()
        elif old is not None and not self._started:
            self.arena.unlink(old.segment)
        return dep

    # -- the process transport -----------------------------------------------

    def _start_transport(self) -> None:
        self.router = ShardRouter(self.config.n_shards)
        self._trace_sent = obs_trace.tracing_enabled()
        for i in range(self.config.n_shards):
            self._respawn(i)
        for target, tag in ((self._dispatch_loop, "dispatch"),
                            (self._collect_loop, "collect")):
            t = threading.Thread(target=target,
                                 name=f"sharded-{tag}", daemon=True)
            t.start()
            self._threads.append(t)

    def _respawn(self, shard: int) -> None:
        proc = self._ctx.Process(
            target=worker_main,
            args=(shard, self._task_queues[shard], self._result_queue,
                  dict(self._specs), obs_trace.tracing_enabled()),
            name=f"shard-worker-{shard}", daemon=True,
        )
        proc.start()
        self._procs[shard] = proc

    def _worker_alive(self, shard: int) -> bool:
        proc = self._procs[shard]
        return proc is not None and proc.is_alive()

    def _stop_transport(self, timeout: Optional[float]) -> None:
        for q in self._task_queues:
            try:
                q.put((proto.STOP,))
            except (ValueError, OSError):
                pass
        for t in self._threads:
            t.join(timeout=timeout)
        self._threads = []
        for i, proc in enumerate(self._procs):
            if proc is None:
                continue
            proc.join(timeout=timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            self._procs[i] = None

    def _release(self) -> None:
        for q in self._task_queues + [self._result_queue]:
            q.cancel_join_thread()
        self.arena.close_all()

    def _dispatch_loop(self) -> None:
        while True:
            batch = self.batcher.next_batch(timeout=SUPERVISE_INTERVAL)
            if not batch:
                if self._stop.is_set() or self.queue.closed:
                    return
                continue
            self.metrics.histogram("batch_size").record(len(batch))
            for model, requests in group_by_model(batch).items():
                self._dispatch(model, requests)
            self._after_batch()

    def _dispatch(self, model: str, requests: List[Request]) -> None:
        up = [i for i in range(self.config.n_shards) if i not in self.failed]
        if not up:
            err = WorkerError("every shard has failed", model=model)
            for req in requests:
                self._fail_or_retry(req, err)
            return
        healthy = [i for i in up if self.breakers[i].state != OPEN
                   and self._worker_alive(i)]
        seq = next(self._seq)
        shard = self.router.pick((model, seq), eligible=healthy or up)
        try:
            batch = self._open(shard, model, requests, seq=seq)
        except WorkerKilled:
            # a *process* kill: terminate the shard like a real crash;
            # the supervisor respawns it, the requests already retried
            proc = self._procs[shard]
            if proc is not None and proc.is_alive():
                proc.terminate()
            return
        if batch is None:
            return
        X = np.stack([r.x for r in batch.requests])
        wire_dim = None if batch.dim >= batch.dep.dim else batch.dim
        # the batch's dispatch->resolve bracket gets its own span under
        # the leader request's trace; the worker parents its spans
        # under that span's id, wired with the message
        wire_ctx = None
        if batch.ctx is not None:
            batch.dispatch_span_id = obs_distributed.new_span_id()
            wire_ctx = (batch.ctx.trace_id, batch.dispatch_span_id)
        self.router.dispatched(shard)
        self._task_queues[shard].put(
            (proto.PREDICT, seq, model, X, wire_dim, batch.fault, wire_ctx)
        )

    def _collect_loop(self) -> None:
        while True:
            try:
                msg = self._result_queue.get(timeout=SUPERVISE_INTERVAL)
            except (std_queue.Empty, OSError, EOFError):
                if self._stop.is_set():
                    return
                continue
            shard, kind, seq, payload = msg[:4]
            if kind == proto.OK:
                # worker span records piggyback on the OK reply (5th
                # element); emit them before resolving the futures so a
                # caller that joins a traced request always finds the
                # complete tree in the sink
                for record in msg[4] if len(msg) > 4 else ():
                    obs_trace.emit_foreign(record)
                batch = self._take(seq)
                if batch is not None:
                    self.router.completed(shard)
                    self._resolve(batch, payload)
            elif kind == proto.ERR:
                batch = self._take(seq)
                if batch is not None:
                    self.router.completed(shard)
                self._fail_requests(
                    shard, batch.requests if batch is not None else [],
                    WorkerError(
                        f"shard {shard} failed serving "
                        f"{payload.get('model')!r}: {payload.get('kind')}: "
                        f"{payload.get('message')}",
                        model=payload.get("model"), worker=shard,
                        retryable=True,
                    ))
            elif kind == proto.ACK:
                self._handle_ack(shard, seq)
            elif kind == proto.STATS_R:
                self._handle_stats(shard, seq, payload)
            elif kind == proto.SPANS:
                # worker span records, already carrying the request's
                # trace ids: re-emit into the parent's sinks
                for record in payload:
                    obs_trace.emit_foreign(record)

    def _handle_ack(self, shard: int, ack_seq: int) -> None:
        with self._plock:
            state = self._acks.get(ack_seq)
            if state is None:
                return
            state["remaining"].discard(shard)
            if not state["remaining"]:
                state["event"].set()

    def _handle_stats(self, shard: int, seq: int, payload: Dict) -> None:
        with self._plock:
            waiter = self._stats_waiters.get(seq)
            if waiter is None:
                return
            waiter["results"][shard] = payload
            if len(waiter["results"]) >= waiter["expect"]:
                waiter["event"].set()

    # -- supervision hooks ---------------------------------------------------

    def _on_death(self, shard: int) -> Dict:
        with self._plock:
            held = sum(b.worker == shard for b in self._pending.values())
        for _ in range(held):
            self.router.completed(shard)
        super()._on_death(shard)
        return {"exitcode": self._procs[shard].exitcode}

    def _tick_transport(self) -> None:
        self._propagate_engine_state()
        # forward the parent's tracing state so workers start/stop
        # producing SPANS in step with enable_tracing()
        enabled = obs_trace.tracing_enabled()
        if enabled != self._trace_sent:
            self._trace_sent = enabled
            for q in self._task_queues:
                try:
                    q.put((proto.TRACE, enabled))
                except (ValueError, OSError):
                    pass

    def _propagate_engine_state(self) -> None:
        """Ship the ladder's tier-1 engine fallback across processes.

        The ladder flips :meth:`Deployment.fallback_engine` on the
        *mirror* deployments; workers hold their own model objects, so
        the transition is forwarded as a control message per shard.
        """
        for name in self.registry.names():
            try:
                dep = self.registry.get(name)
            except KeyError:
                continue
            degraded = dep.degraded
            if degraded == self._engine_degraded.get(name, False):
                continue
            self._engine_degraded[name] = degraded
            engine = (self.config.degrade.fallback_engine
                      if degraded else None)
            for q in self._task_queues:
                q.put((proto.ENGINE, name, engine))

    # -- introspection -------------------------------------------------------

    def shard_stats(self, timeout: Optional[float] = None) -> Dict[int, Dict]:
        """Pull each live shard's snapshot; absorbs worker registries.

        Worker metric series land in :attr:`shard_registry` labeled
        ``{shard=i}`` (replacement semantics -- repeated calls never
        double-count).  Returns ``{shard: worker stats dict}``.
        """
        if not self._started:
            return {}
        timeout = self.config.stats_timeout if timeout is None else timeout
        alive = [i for i in range(self.config.n_shards)
                 if self._worker_alive(i)]
        if not alive:
            return {}
        seq = next(self._seq)
        waiter = {"results": {}, "expect": len(alive),
                  "event": threading.Event()}
        with self._plock:
            self._stats_waiters[seq] = waiter
        for i in alive:
            self._task_queues[i].put((proto.STATS, seq))
        waiter["event"].wait(timeout)
        with self._plock:
            self._stats_waiters.pop(seq, None)
        results = dict(waiter["results"])
        for shard, payload in results.items():
            self.shard_registry.absorb_state(
                payload.pop("registry", {}), {"shard": shard}
            )
        return results

    # stats() itself comes from ServingSurfaceBase; the hooks below add
    # the process-sharding specifics (schema-checked optional keys).

    def _deployment_extra(self, name: str, dep: Deployment) -> Dict:
        spec = self._specs.get(name)
        return {
            "segment": spec.segment if spec is not None else None,
            "epoch": spec.epoch if spec is not None else None,
            "model_bytes": dep.model.model_bytes(),
        }

    def _extra_stats(self) -> Dict:
        return {
            "shards": self.shard_stats(),
            "shard_metrics": self.shard_registry.snapshot(),
            "router": {
                "mode": self.config.mode,
                "n_shards": self.config.n_shards,
                "loads": self.router.loads() if self.router else None,
            },
        }

    def _busy_seconds(self) -> List[float]:
        """Per-shard busy time, pulled from the live workers."""
        stats = self.shard_stats()
        return [float(stats.get(i, {}).get("busy_seconds", 0.0))
                for i in range(self.config.n_shards)]

    def render_prometheus(self) -> str:
        """Parent metrics plus the absorbed per-shard series."""
        return (self.metrics.render_prometheus()
                + self.shard_registry.render_prometheus())
