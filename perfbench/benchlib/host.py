"""Host facts and process accounting read from /proc.

CPU time is summed over every process the benchmark runs -- its own and
the shard workers it spawns -- because a process-sharded server moves
work out of the parent, and a per-process figure would count that as a
saving.  Steal time comes from the host-wide ``/proc/stat`` counters:
on a shared machine it is the main cause of a run reading slower than
its neighbours, so each run records it.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, Optional

_TICK = os.sysconf("SC_CLK_TCK")

#: BLAS/OpenMP thread variables pinned for the measured processes
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads(env=os.environ) -> None:
    """One BLAS thread per process; must run before numpy is imported.

    numpy's OpenBLAS would otherwise start a thread per core on top of
    the server's worker threads and shard processes.  Spawned shard
    workers inherit the environment.
    """
    for name in BLAS_ENV:
        env[name] = "1"


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait until it ends.

    Spawning shard workers starts the tracker as a child of this
    process.  Left alone it outlives the run by a moment, until it reads
    the end of this process from its pipe.  Closing the pipe and reaping
    the tracker here ends it before the run does.  Call it after the
    shard workers have ended: they hold the pipe open too.
    """
    tracker_mod = sys.modules.get("multiprocessing.resource_tracker")
    if tracker_mod is None:
        return
    tracker = tracker_mod._resource_tracker
    if getattr(tracker, "_pid", None) is None:
        # not started by this process: a spawned worker shares the pipe
        return
    os.close(tracker._fd)
    os.waitpid(tracker._pid, 0)
    tracker._fd = tracker._pid = None


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one live process."""
    if pid == os.getpid():
        return time.process_time()
    with open(f"/proc/{pid}/stat") as fh:
        # the command name may contain spaces; fields resume after ')'
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def cpu_seconds(pids: Iterable[int]) -> float:
    """Summed CPU seconds of ``pids`` (all must be alive)."""
    return sum(process_cpu_seconds(pid) for pid in pids)


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Summed high-water resident memory (``VmHWM``) of ``pids``, MiB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def host_cpu_times() -> Dict[str, float]:
    """Host-wide busy and steal seconds since boot (``/proc/stat``)."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return {"busy_s": (user + nice + system + irq + softirq) / _TICK,
            "steal_s": steal / _TICK}


class HostWindow:
    """Host busy/steal seconds and benchmark CPU over one measured phase."""

    def __init__(self, pids: Iterable[int]):
        self.pids = list(pids)
        self._host0 = host_cpu_times()
        self._cpu0 = cpu_seconds(self.pids)
        self._wall0 = time.perf_counter()
        self.result: Optional[Dict[str, float]] = None

    def close(self) -> Dict[str, float]:
        cpu = cpu_seconds(self.pids) - self._cpu0
        host = host_cpu_times()
        self.result = {
            "wall_s": time.perf_counter() - self._wall0,
            "cpu_s": cpu,
            "host_cpu_s": host["busy_s"] - self._host0["busy_s"],
            "steal_s": host["steal_s"] - self._host0["steal_s"],
        }
        return self.result


def git_sha(root: Path) -> Optional[str]:
    """HEAD commit of ``root`` read from ``.git`` (None outside a clone)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(src: Path) -> str:
    """sha256 over the program's Python sources (path + bytes, sorted).

    Identifies the code under test in a checkout that is not a git
    repository, where no commit sha exists.
    """
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_block(root: Path) -> Dict[str, object]:
    """Everything a reader needs to place a result on a machine."""
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "git_sha": git_sha(root),
        "src_digest": source_digest(root / "src"),
        "argv": sys.argv[1:],
    }
