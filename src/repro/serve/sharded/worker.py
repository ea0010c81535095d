"""The shard worker process: zero-copy models, batched serving, stats.

``worker_main`` is the target of each shard process.  It owns a
consumer :class:`~repro.core.shared.SharedModelArena`, maps every
deployed model's image read-only out of shared memory
(:meth:`PackedModel.from_shared` -- class words *and* the packed
``rho^j(levels)`` kernel tables are views, so N workers share one
physical copy), and drains its FIFO task queue:

- :data:`~repro.serve.sharded.proto.PREDICT` runs both inference
  stages (encode + prefix-Hamming search) on the batch;
- :data:`~repro.serve.sharded.proto.SWAP` attaches the next epoch's
  segment, flips the served model, detaches the old mapping and acks --
  FIFO ordering means the ack certifies every pre-swap batch answered;
- :data:`~repro.serve.sharded.proto.STATS` ships the local metrics
  registry's full state plus RSS / shared-mapping gauges so the parent
  can aggregate per-process observability and verify zero-copy;
- :data:`~repro.serve.sharded.proto.TRACE` toggles tracing at runtime
  (the parent forwards its own tracing state so ``--trace out.jsonl``
  sessions capture worker spans).

When tracing is on, :data:`~repro.serve.sharded.proto.PREDICT` opens
``serve.encode`` /
``serve.search`` spans under the :class:`~repro.obs.distributed.
TraceContext` wired in with the message, buffer the finished records
locally, and ship them back as :data:`~repro.serve.sharded.proto.SPANS`
messages -- the parent's collector re-emits them into its own sinks,
already re-parented under the submitting request's trace.

Workers never write the model image (the views are read-only; fault
injection corrupts a throwaway ``with_words`` clone), and they never
unlink segments -- lifecycle belongs to the parent's publisher arena.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Dict, Optional

from repro.core.packed import PackedModel
from repro.core.shared import SharedImageSpec, SharedModelArena
from repro.obs import distributed as obs_distributed
from repro.obs import trace as obs_trace
from repro.obs.registry import Registry
from repro.serve.sharded import proto

__all__ = ["worker_main", "rss_kb", "shm_mapping_kb"]


def rss_kb() -> int:
    """This process's resident set size in KiB (0 if unreadable)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def shm_mapping_kb(segment: str) -> Dict[str, int]:
    """Rss/Private_Dirty (KiB) of this process's mapping of ``segment``.

    Parsed from ``/proc/self/smaps``.  A zero-copy read-only mapping
    shows ``private_dirty_kb == 0`` -- the pages are file-backed and
    shared; any private dirty pages would mean the worker copied (or
    wrote) model memory.  Empty dict when the mapping is not found.
    """
    out: Dict[str, int] = {}
    try:
        with open("/proc/self/smaps") as fh:
            in_seg = False
            for line in fh:
                head = line.split(None, 1)[0] if line.strip() else ""
                if "-" in head and ":" not in head:
                    # a mapping header line ("addr-addr perms ..."):
                    # (re)decide whether the stat lines that follow
                    # belong to our segment's mapping
                    in_seg = line.rstrip().endswith(
                        "/dev/shm/" + segment
                    )
                    continue
                if not in_seg:
                    continue
                if line.startswith("Rss:"):
                    out["rss_kb"] = out.get("rss_kb", 0) + int(line.split()[1])
                elif line.startswith("Private_Dirty:"):
                    out["private_dirty_kb"] = (out.get("private_dirty_kb", 0)
                                               + int(line.split()[1]))
                elif line.startswith("Shared_Clean:"):
                    out["shared_clean_kb"] = (out.get("shared_clean_kb", 0)
                                              + int(line.split()[1]))
    except OSError:
        return {}
    return out


class _ShardState:
    """Everything one worker process keeps between messages."""

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.arena = SharedModelArena(prefix="shardw")
        self.models: Dict[str, PackedModel] = {}
        self.segments: Dict[str, str] = {}
        self.epochs: Dict[str, int] = {}
        self.registry = Registry(namespace="serve")
        self.busy_seconds = 0.0
        self.served = 0
        self._engine_saved: Dict[str, str] = {}

    # -- deployment lifecycle ------------------------------------------------

    def install(self, name: str, spec: SharedImageSpec) -> None:
        old_segment = self.segments.get(name)
        model = PackedModel.from_shared(spec, self.arena)
        self.models[name] = model
        self.segments[name] = spec.segment
        self.epochs[name] = spec.epoch
        if old_segment and old_segment != spec.segment:
            # the swapped-out mapping: views die with the old model
            # reference; detach defers to GC if any linger
            self.arena.detach(old_segment)

    def model(self, name: str) -> PackedModel:
        try:
            return self.models[name]
        except KeyError:
            raise KeyError(
                f"shard {self.shard_id}: no model {name!r} deployed "
                f"(has {sorted(self.models)})"
            ) from None

    def set_engine(self, name: str, engine: Optional[str]) -> None:
        """Degradation tier-1: fall back / restore the encode engine."""
        encoder = self.model(name).encoder
        if not hasattr(encoder, "engine"):
            return
        if engine is not None:
            if name not in self._engine_saved:
                self._engine_saved[name] = encoder.engine
            encoder.engine = engine
        else:
            saved = self._engine_saved.pop(name, None)
            if saved is not None:
                # restoring re-clears the kernel; the shared-backed one
                # reattaches on next use via from_shared's rebuild rule
                encoder.engine = saved

    # -- stats ---------------------------------------------------------------

    def stats(self) -> Dict:
        shm = {}
        for name, segment in self.segments.items():
            shm[name] = shm_mapping_kb(segment)
        return {
            "shard": self.shard_id,
            "pid": os.getpid(),
            "rss_kb": rss_kb(),
            "busy_seconds": self.busy_seconds,
            "served": self.served,
            "epochs": dict(self.epochs),
            "shm": shm,
            "registry": self.registry.state(),
        }


def _err_payload(exc: BaseException, shard_id: int, model: str) -> Dict:
    return {
        "kind": type(exc).__name__,
        "message": str(exc),
        "model": model,
        "shard": shard_id,
        "traceback": traceback.format_exc(limit=6),
    }


class _SpanBuffer:
    """Trace sink buffering finished span records for SPANS shipping."""

    def __init__(self) -> None:
        self.records = []

    def emit(self, record: Dict) -> None:
        self.records.append(record)

    def drain(self):
        records, self.records = self.records, []
        return records


def worker_main(shard_id: int, task_queue, result_queue,
                deployments: Dict[str, SharedImageSpec],
                trace_enabled: bool = False) -> None:
    """Run one shard worker until :data:`~proto.STOP` (or queue EOF).

    ``trace_enabled`` propagates the parent's tracing state across the
    spawn: a freshly-spawned worker starts with the obs layer reset, so
    without this flag a ``--trace`` session would silently lose every
    worker span.  The :data:`~proto.TRACE` message toggles it later.
    """
    state = _ShardState(shard_id)
    hist = state.registry.histogram("stage_seconds", labels=("stage",))
    served_ctr = state.registry.counter("served")
    batches_ctr = state.registry.counter("batches")
    errors_ctr = state.registry.counter("errors")
    span_buf = _SpanBuffer()
    if trace_enabled:
        obs_trace.enable_tracing(span_buf)
    for name, spec in deployments.items():
        state.install(name, spec)
    try:
        while True:
            try:
                msg = task_queue.get()
            except (EOFError, OSError):
                return
            kind = msg[0]
            if kind == proto.STOP:
                return
            if kind == proto.DEPLOY:
                _, name, spec = msg
                state.install(name, spec)
                continue
            if kind == proto.SWAP:
                _, name, spec, ack_seq = msg
                state.install(name, spec)
                result_queue.put((shard_id, proto.ACK, ack_seq, name))
                continue
            if kind == proto.ENGINE:
                _, name, engine = msg
                try:
                    state.set_engine(name, engine)
                except KeyError:
                    pass
                continue
            if kind == proto.TRACE:
                _, enabled = msg
                if enabled:
                    obs_trace.enable_tracing(span_buf)
                else:
                    obs_trace.disable_tracing()
                continue
            if kind == proto.STATS:
                _, seq = msg
                result_queue.put(
                    (shard_id, proto.STATS_R, seq, state.stats())
                )
                continue

            # -- the serving kind: PREDICT ---------------------------------
            _, seq, name, X, dim, fault_draw, *rest = msg
            ctx = obs_distributed.TraceContext.from_wire(
                rest[0] if rest else None
            )
            t0 = time.monotonic()
            try:
                model = state.model(name)
                scored = model
                if fault_draw is not None:
                    # the parent's draw, generator and all: the same
                    # bits flip as on the thread server
                    spec_f, rng = fault_draw
                    scored = model.with_words(
                        spec_f.corrupt_words(model.class_words, rng)
                    )
                with obs_distributed.use_context(ctx):
                    with obs_trace.span("serve.encode", shard=shard_id,
                                        model=name, batch=len(X)):
                        words = model.encode_packed(X)
                    t1 = time.monotonic()
                    with obs_trace.span("serve.search", shard=shard_id,
                                        model=name, batch=len(X)):
                        labels = scored.predict_packed(words, dim=dim)
                t2 = time.monotonic()
                hist.labels(stage="encode").record(t1 - t0)
                hist.labels(stage="search").record(t2 - t1)
                served_ctr.inc(len(labels))
                state.served += len(labels)
            except BaseException as exc:  # noqa: BLE001 - ships to parent
                errors_ctr.inc()
                result_queue.put(
                    (shard_id, proto.ERR, seq,
                     _err_payload(exc, shard_id, name))
                )
                if span_buf.records:
                    # spans finished before the failure still ship, on
                    # the standalone SPANS channel (rare, cold path)
                    result_queue.put(
                        (shard_id, proto.SPANS, seq, span_buf.drain())
                    )
                continue
            finally:
                state.busy_seconds += time.monotonic() - t0
            batches_ctr.inc()
            if span_buf.records:
                # piggyback the batch's span records on the OK reply:
                # one queue message instead of two halves the per-batch
                # IPC cost of tracing, and guarantees the parent sees
                # the worker spans before it resolves the futures
                result_queue.put(
                    (shard_id, proto.OK, seq, labels, span_buf.drain())
                )
            else:
                result_queue.put((shard_id, proto.OK, seq, labels))
    finally:
        state.models.clear()
        state.arena.close_all()
