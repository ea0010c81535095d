"""Process-sharded serving: zero-copy shared models + a shard router.

The GIL caps the thread-based :class:`~repro.serve.server.
InferenceServer` at roughly two cores; this package moves the workers
into processes while keeping exactly one physical copy of the model in
POSIX shared memory (:mod:`repro.core.shared`).  See
:class:`ShardedServer` for the façade, :class:`~repro.serve.sharded.
router.ShardRouter` for the consistent-hash replica routing,
and ``python -m repro.serve.sharded.bench`` for the open-loop
saturation harness.
"""

from repro.serve.sharded.router import ShardRouter, stable_hash
from repro.serve.sharded.server import ShardedServeConfig, ShardedServer

__all__ = [
    "ShardedServer",
    "ShardedServeConfig",
    "ShardRouter",
    "stable_hash",
]
