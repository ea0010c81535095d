"""Edge serving and on-device learning benchmark for this repository.

Runs one workload (or all of them) against the program in ``src/``,
checks every output, and prints as its last line one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a traced phase that follows the
measured phase (spans are written to ``.perfbench/`` when the run ends).
Exits 1 when a correctness check fails and 2 when the program's sources
are missing.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-threaded --seed 1 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 5

``all`` runs each workload in a process of its own, so no workload's
peak memory or filled caches carry into the next, and merges their
result lines.

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import atexit
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from benchlib.host import (  # noqa: E402  (no numpy or multiprocessing)
    pin_blas_threads,
    stop_resource_tracker,
)

# before anything imports numpy, here and in spawned shard workers
pin_blas_threads()
# registered before multiprocessing registers its own exit handler, so it
# runs after that one has ended the shard workers and freed their locks
atexit.register(stop_resource_tracker)
sys.path.insert(0, str(SRC))


def _run_one(name: str, seed: int, seconds: float, trace: bool):
    import json

    from benchlib.metrics import END_TO_END, PER_LAYER, result_line
    from benchlib.workloads import WORKLOADS

    outcome = WORKLOADS[name](seed, seconds, trace)
    spec = PER_LAYER if trace else END_TO_END
    info = dict(outcome.info, workload=name, seed=seed, trace=trace,
                checks=outcome.checks)
    print("info " + json.dumps(info, default=float))
    gen = outcome.info.get("generator")
    if gen is not None and gen["behind_schedule"]:
        print(f"WARNING {name}: the load generator fell behind its "
              f"schedule (p99 lateness {gen['late_ms_p99']:.2f} ms, "
              f"{gen['achieved_rps']:.1f} of {gen['offered_rps']:.0f} "
              "req/s); latency figures of this run include that delay",
              file=sys.stderr)
    for check, ok in outcome.checks.items():
        if not ok:
            print(f"FAILED {name}: {check}", file=sys.stderr)
    for metric, unit in spec.items():
        print(f"  {name:15s} {metric:34s} {outcome.metrics[metric]:14.6g} "
              f"{unit}")
    if outcome.recorder is not None:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{name}-seed{seed}.jsonl"
        outcome.recorder.write_jsonl(path)
        print(f"spans: {path} ({len(outcome.recorder.spans)} spans)")
    line = result_line(outcome.correct, outcome.attempted, outcome.failed,
                       outcome.metrics, spec)
    return outcome, line


def _run_all(names, args) -> int:
    """Each workload in its own ``run.py`` process; results merged."""
    import json
    import subprocess

    lines = []
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate()
        finally:
            if proc.poll() is None:
                # let it unwind, so its servers stop their shards
                proc.terminate()
                proc.wait()
        *body, last = out.splitlines() or [""]
        if body:
            print("\n".join(body))
        try:
            result = json.loads(last)
        except ValueError:
            print(last)
            print(f"perfbench: {name} printed no result (exit "
                  f"{proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        print(f"{name} {last}")
        lines.append((name, result))
    correct = all(r["correct"] for _, r in lines)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for _, r in lines),
        "failed": sum(r["failed"] for _, r in lines),
        "metrics": {f"{name}.{metric}": value for name, r in lines
                    for metric, value in r["metrics"].items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    import argparse

    names = ("serve-threaded", "serve-sharded", "learn-drift")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=names + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2

    import json
    import signal
    import time

    # a terminated run still unwinds, so its servers stop their shards
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        return _run_all(names, args)
    t0 = time.perf_counter()
    import repro  # noqa: F401  (import cost is reported, not in setup_s)
    import_s = time.perf_counter() - t0
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2
    from benchlib.host import host_block

    print("host " + json.dumps(dict(host_block(ROOT), import_s=import_s)))
    outcome, line = _run_one(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    print(line)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
