"""Metric names, units and the one-line JSON result.

Every run prints, as its last line, ``{"correct", "attempted",
"failed", "metrics"}``.  The untraced run reports every end-to-end
metric, the traced run every per-layer metric, on every workload; a
layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, Mapping

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

#: end-to-end metrics (reported with tracing off)
END_TO_END: Dict[str, str] = {
    "latency_p50_ms": "ms",
    "cpu_us_per_request": "us",
    "success_rate": "ratio",
    "throughput_per_s": "1/s",
    "train_samples_per_s": "1/s",
    "predict_samples_per_s": "1/s",
    "accuracy": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: per-layer metrics (reported by the traced run)
PER_LAYER: Dict[str, str] = {
    # serve: queue / batcher / workers
    "serve.requests": "count",
    "serve.queue_wait_ms": "ms",
    "serve.batch_size": "count",
    "serve.worker_busy_us_per_request": "us",
    "serve.rejected": "count",
    "serve.expired": "count",
    "serve.retries": "count",
    # core.packed encode and search
    "encode.us_per_batch": "us",
    "encode.us_per_sample": "us",
    "search.us_per_batch": "us",
    # core.ir planner and packed-kernel cache
    "ir.plan_requests": "count",
    "ir.plans_built": "count",
    "ir.plan_cache_hit_ratio": "ratio",
    "ir.packed_kernels": "count",
    # serve.sharded
    "sharded.dispatch_ms": "ms",
    "sharded.ipc_us_per_batch": "us",
    "sharded.served_per_shard_min": "count",
    "sharded.served_per_shard_max": "count",
    # core.training
    "train.encode_s": "s",
    "train.retrain_s": "s",
    # stream
    "stream.encode_ms_per_chunk": "ms",
    "stream.detect_ms_per_chunk": "ms",
    "stream.retrain_s": "s",
    "stream.retrains": "count",
    "stream.drift_events": "count",
    "registry.swap_ms": "ms",
    # self time per layer, per root (request, chunk, fit or predict)
    "self.gen_ms": "ms",
    "self.submit_ms": "ms",
    "self.queue_ms": "ms",
    "self.encode_ms": "ms",
    "self.search_ms": "ms",
    "self.retrain_ms": "ms",
    "self.detect_ms": "ms",
    "self.swap_ms": "ms",
    "unattributed_ms": "ms",
    # generator, host and tracing cost
    "gen.late_ms_p99": "ms",
    "gen.achieved_rps": "1/s",
    "host.steal_s": "s",
    "host.cpu_s": "s",
    "obs.trace_overhead_pct": "%",
}


def valid_name(name: str) -> bool:
    """Letters, digits, ``_``, ``.``, ``-``; starts alphanumeric; <= 64."""
    return bool(_NAME.match(name))


def valid_unit(unit: str) -> bool:
    return bool(_UNIT.match(unit))


def check_metrics(values: Mapping[str, float],
                  spec: Mapping[str, str]) -> None:
    """Raise unless ``values`` has exactly ``spec``'s names, all finite."""
    missing = sorted(set(spec) - set(values))
    extra = sorted(set(values) - set(spec))
    if missing or extra:
        raise ValueError(f"metric set mismatch: missing {missing}, "
                         f"unexpected {extra}")
    for name, value in values.items():
        if not valid_name(name) or not valid_unit(spec[name]):
            raise ValueError(f"invalid metric name or unit: {name!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name} is not a finite number: "
                             f"{value!r}")


def result_line(correct: bool, attempted: int, failed: int,
                values: Mapping[str, float],
                spec: Mapping[str, str]) -> str:
    """The final stdout line the benchmark contract asks for."""
    check_metrics(values, spec)
    if attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": spec[name]}
                    for name in spec},
    })
