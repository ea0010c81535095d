"""Wire protocol between the sharded server and its worker processes.

Messages are plain tuples (cheap to pickle through ``mp.Queue``) whose
first element is one of the kind constants below.  Everything that
crosses the boundary is either a scalar, a NumPy array, or a picklable
spec (:class:`~repro.core.shared.SharedImageSpec`,
:class:`~repro.hardware.faultspec.FaultSpec`) -- never a live model:
models travel as shared-memory image specs and are mapped zero-copy on
the other side.

Ordering is the protocol's backbone: each shard has its own FIFO task
queue fed by the parent, and a worker answers strictly in the order it
receives.  That is what makes the epoch swap safe -- by the time a
shard acks a :data:`SWAP`, every batch the parent enqueued *before* the
swap has already been answered, so once all shards ack, nothing can
still be reading the old segment and the parent may unlink it.

Parent -> worker::

    (DEPLOY, name, image_spec)                install/replace a model
    (SWAP, name, image_spec, ack_seq)         flip to a new epoch, ack
    (PREDICT, seq, name, X, dim, fault_draw[, ctx])  encode + search
    (ENGINE, name, engine_or_None)            degradation tier-1 toggle
    (TRACE, enabled)                          runtime tracing toggle
    (STATS, seq)                              metrics/RSS snapshot
    (STOP,)                                   exit the worker loop

``fault_draw`` is ``None`` or the chaos policy's ``(FaultSpec, rng)``
draw: the worker corrupts a clone of the class words with exactly that
generator, so a seeded chaos run flips the same bits on either server.
The optional trailing ``ctx`` on :data:`PREDICT` is a
:meth:`~repro.obs.distributed.TraceContext.to_wire` tuple -- the
submitting request's ``(trace_id, parent span_id)``.  A worker opens
its ``serve.encode``/``serve.search`` spans under it, so the spans it
ships back re-parent into the request's trace on the parent side.
Old-style messages without the element still parse (workers unpack it
as absent), keeping mixed-version queues harmless.

Worker -> parent (one shared result queue)::

    (shard_id, OK, seq, labels[, records])  the batch's labels; when the
                                      worker is tracing, the batch's
                                      finished span records piggyback as
                                      the optional fifth element (one
                                      message, not two)
    (shard_id, ERR, seq, err_dict)    structured ServeError.to_dict()
    (shard_id, ACK, ack_seq, name)    swap acknowledged
    (shard_id, STATS_R, seq, stats)   registry state + process gauges
    (shard_id, SPANS, seq, records)   finished span record dicts that
                                      could not ride an OK (error paths)
"""

from __future__ import annotations

# parent -> worker kinds
DEPLOY = "deploy"
SWAP = "swap"
PREDICT = "predict"
ENGINE = "engine"
TRACE = "trace"
STATS = "stats"
STOP = "stop"

# worker -> parent kinds
OK = "ok"
ERR = "err"
ACK = "ack"
STATS_R = "stats_r"
SPANS = "spans"

