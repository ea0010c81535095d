"""Sharded-serving gate: throughput scaling, zero-copy, exactness, swap.

Measures what the process-sharded serving layer promises over the
GIL-bound thread pool and -- under ``--check`` -- fails CI when any of
it regresses:

- **throughput**: open-loop saturation rps of ``ShardedServer`` vs an
  ``InferenceServer`` thread pool with the same worker count and the
  same packed model.  The ``>= 1.8x at 4 processes`` gate only applies
  on machines with >= 4 cores (``gate_applied`` records the decision;
  a 1-core CI box cannot scale by forking, and pretending otherwise
  would just gate on scheduler noise);
- **zero-copy**: every worker's mapping of the model image must carry
  fewer private-dirty bytes than the image itself (in practice: zero)
  -- dirtying model pages would mean the worker *copied* the model,
  which is exactly the per-worker unpickle bloat shared memory exists
  to avoid;
- **bit-identity**: replica predictions equal single-process
  ``predict_packed`` on every query;
- **hot swap**: one epoch swap under continuous load drops or hangs
  zero requests and leaks zero segments.

Results land in ``BENCH_shard.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard.py            # full
    PYTHONPATH=src python benchmarks/bench_shard.py --quick --check
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import threading
import time

import numpy as np

from repro.serve.bench import make_workload, train_model
from repro.serve.sharded import ShardedServeConfig, ShardedServer
from repro.serve.sharded.bench import run_backends

OUT_PATH = pathlib.Path("BENCH_shard.json")

SPEEDUP_GATE = 1.8
GATE_CORES = 4


def _sharded_config(n_shards: int, **kw) -> ShardedServeConfig:
    base = dict(n_shards=n_shards, max_batch=32,
                max_shed_level=0, default_deadline=None)
    base.update(kw)
    return ShardedServeConfig(**base)


def exactness_scenario(packed, queries, n_shards: int, seed: int) -> dict:
    """Replica sharding vs single-process predict_packed, bit for bit."""
    q = queries[:128]
    ref = packed.predict_packed(packed.encode_packed(q))
    server = ShardedServer(_sharded_config(n_shards))
    server.register("bench", packed)
    with server:
        preds = server.predict_many("bench", q, timeout=120.0)
        labels = np.asarray([p.label for p in preds])
    mismatches = int(np.sum(labels != ref))
    print(f"exactness replica: {mismatches} mismatches / {len(q)}")
    return {"n_queries": len(q), "modes": {"replica": {
        "mismatches": mismatches}}}


def swap_scenario(packed, queries, n_shards: int) -> dict:
    """One hot swap under load: count drops, hangs, leaked segments."""
    server = ShardedServer(_sharded_config(n_shards))
    server.register("bench", packed)
    futures, submit_errors = [], []
    stop = threading.Event()

    def pump():
        i = 0
        while not stop.is_set():
            try:
                futures.append(server.submit("bench", queries[i % len(queries)]))
            except Exception as exc:  # noqa: BLE001
                submit_errors.append(repr(exc))
            i += 1
            time.sleep(0.0005)

    with server:
        t = threading.Thread(target=pump)
        t.start()
        while not futures or not futures[0].done():
            time.sleep(0.01)
        server.swap("bench", packed, drain=True)
        time.sleep(0.2)
        stop.set()
        t.join()
        server.wait_idle(60.0)
        dropped = 0
        for f in futures:
            try:
                f.result(timeout=60.0)
            except Exception:  # noqa: BLE001
                dropped += 1
        hung = sum(1 for f in futures if not f.done())
        stats = server.stats()
    leaked = [f for f in os.listdir("/dev/shm")
              if f.startswith(server.arena.prefix)]
    report = {
        "requests": len(futures),
        "submit_errors": len(submit_errors),
        "dropped": dropped,
        "hung": hung,
        "swap_ack_timeouts": stats["counters"].get("swap_ack_timeouts", 0),
        "final_epoch": stats["deployments"]["bench"]["epoch"],
        "leaked_segments": leaked,
    }
    print(f"swap under load: {len(futures)} reqs, {dropped} dropped, "
          f"{hung} hung, epoch -> {report['final_epoch']}, "
          f"{len(leaked)} leaked segments")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small smoke workload (CI)")
    parser.add_argument("--check", action="store_true",
                        help="fail when a sharding gate is violated")
    parser.add_argument("--shards", type=int, default=None,
                        help="worker count (default: min(4, cpu_count))")
    parser.add_argument("--min-speedup", type=float, default=SPEEDUP_GATE)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=pathlib.Path, default=OUT_PATH)
    args = parser.parse_args(argv)

    cores = os.cpu_count() or 1
    n_shards = args.shards or max(2, min(4, cores))
    dim = 1024 if args.quick else 2048
    n_requests = 600 if args.quick else 3000
    gate_applied = cores >= GATE_CORES and n_shards >= GATE_CORES

    _, _, queries = make_workload(seed=args.seed)
    packed = train_model(dim=dim, packed=True, seed=args.seed)

    throughput = run_backends(
        n_shards=n_shards, n_requests=n_requests, dim=dim,
        backends=("thread", "replica"), seed=args.seed,
    )
    exact = exactness_scenario(packed, queries, n_shards, args.seed)
    swap = swap_scenario(packed, queries, n_shards)

    by_backend = {p["backend"]: p for p in throughput["backends"]}
    thread_rps = by_backend["thread"]["throughput_rps"]
    speedups = {
        "replica": round(by_backend["replica"]["throughput_rps"]
                         / thread_rps, 3),
    }
    report = {
        "harness": "benchmarks.bench_shard",
        "profile": "quick" if args.quick else "full",
        "dim": dim,
        "n_shards": n_shards,
        "cpu_count": cores,
        "gates": {
            "min_speedup": args.min_speedup,
            "gate_cores": GATE_CORES,
            "speedup_gate_applied": gate_applied,
        },
        "numpy": np.__version__,
        "throughput": throughput,
        "speedup_vs_thread": speedups,
        "exactness": exact,
        "swap_under_load": swap,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}  "
          f"(speedups {speedups}, gate_applied={gate_applied})")

    if args.check:
        problems = []
        if gate_applied and speedups["replica"] < args.min_speedup:
            problems.append(
                f"replica speedup {speedups['replica']:.2f}x < "
                f"{args.min_speedup}x at {n_shards} processes"
            )
        zc = by_backend["replica"].get("zero_copy", {})
        image_bytes = zc.get("image_bytes") or 0
        for shard, m in zc.get("shards", {}).items():
            dirty = m.get("mapping_private_dirty_kb", 0) * 1024
            if m.get("mapping_rss_kb", 0) == 0:
                problems.append(
                    f"replica shard {shard}: model mapping not found"
                )
            elif dirty >= max(image_bytes, 4096):
                problems.append(
                    f"replica shard {shard}: {dirty} private-dirty "
                    f"bytes on a {image_bytes}-byte model image "
                    "(worker copied the model?)"
                )
        for mode, r in exact["modes"].items():
            if r["mismatches"]:
                problems.append(
                    f"{mode}: {r['mismatches']} predictions differ from "
                    "single-process predict_packed"
                )
        if swap["dropped"] or swap["hung"] or swap["submit_errors"]:
            problems.append(
                f"swap under load: dropped={swap['dropped']} "
                f"hung={swap['hung']} submit_errors={swap['submit_errors']}"
            )
        if swap["leaked_segments"]:
            problems.append(
                f"leaked /dev/shm segments: {swap['leaked_segments']}"
            )
        if problems:
            print("GATE FAILURES:\n  - " + "\n  - ".join(problems))
            return 1
        print("all sharding gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
