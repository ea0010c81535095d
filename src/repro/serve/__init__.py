"""Micro-batching inference service for trained GENERIC models.

This subpackage turns the repo's single-call ``predict()`` APIs into a
*service*: a bounded request queue, a micro-batcher that coalesces
requests for batched encode + packed Hamming search, a hot-swappable
model registry, and an adaptive load-shedding policy that degrades
gracefully under overload by dropping prediction dimensionality in
128-dim steps -- the paper's Section 4.3.3 on-demand dimension
reduction with exact :class:`~repro.core.norms.SubNormTable` prefix
norms, driven by live load instead of a static spec.

Entry points:

- :class:`InferenceServer` / :class:`ServeConfig` -- the service façade;
- :class:`ModelRegistry` / :class:`Deployment` -- named model versions;
- :class:`LoadShedPolicy` -- the queue-depth/p95 shed controller;
- :mod:`repro.serve.resilience` -- circuit breakers, deadline/retry
  handling, graceful-degradation tiers and the :class:`ChaosPolicy`
  fault-injection harness;
- :mod:`repro.serve.bench` (``python -m repro.serve.bench``) -- the
  open-loop Poisson traffic harness.
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.errors import (
    Backpressure,
    DeadlineExceeded,
    InjectedFault,
    RetriesExhausted,
    ServeError,
    WorkerError,
    WorkerKilled,
)
from repro.serve.metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsHub,
    SlidingWindow,
)
from repro.serve.policy import LoadShedPolicy
from repro.serve.queue import QueueClosed, QueueFull, Request, RequestQueue
from repro.serve.registry import Deployment, ModelRegistry
from repro.serve.resilience import (
    BreakerConfig,
    ChaosPolicy,
    CircuitBreaker,
    DegradationLadder,
    DegradeConfig,
    RetryPolicy,
    RetryScheduler,
)
from repro.serve.server import InferenceServer, ServeConfig
from repro.serve.sharded import ShardedServeConfig, ShardedServer, ShardRouter
from repro.serve.surface import (
    STATS_OPTIONAL_KEYS,
    STATS_REQUIRED_KEYS,
    Prediction,
    ServingSurface,
    ServingSurfaceBase,
    validate_stats,
)

__all__ = [
    "Backpressure",
    "BreakerConfig",
    "ChaosPolicy",
    "CircuitBreaker",
    "Counter",
    "DeadlineExceeded",
    "DegradationLadder",
    "DegradeConfig",
    "Deployment",
    "Gauge",
    "InferenceServer",
    "InjectedFault",
    "LatencyHistogram",
    "LoadShedPolicy",
    "MetricsHub",
    "MicroBatcher",
    "ModelRegistry",
    "Prediction",
    "QueueClosed",
    "QueueFull",
    "Request",
    "RequestQueue",
    "RetriesExhausted",
    "RetryPolicy",
    "RetryScheduler",
    "STATS_OPTIONAL_KEYS",
    "STATS_REQUIRED_KEYS",
    "ServeConfig",
    "ServeError",
    "ServingSurface",
    "ServingSurfaceBase",
    "ShardRouter",
    "ShardedServeConfig",
    "ShardedServer",
    "SlidingWindow",
    "validate_stats",
    "WorkerError",
    "WorkerKilled",
]
