"""Seeded open-loop Poisson load.

Arrivals are drawn up front from the workload seed; the sender never
waits for a reply, so a slow server cannot throttle its own offered
load.  Each request is timed from the moment it was *due* to be sent,
which charges a stall to every request it delays, and the sender's own
lateness is kept per request so a run whose generator fell behind can
be flagged instead of silently reported.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from benchlib.stats import percentile

#: a run whose generator p99 lateness exceeds this is flagged
LATE_P99_LIMIT_S = 0.005
#: ... as is one whose sends reached less than this share of the rate
#: of their own schedule
ACHIEVED_RATE_FLOOR = 0.97


def poisson_schedule(rate: float, seconds: float, seed: int) -> np.ndarray:
    """Send offsets (s, from 0) of a Poisson process at ``rate`` req/s.

    The number of requests is fixed at ``round(rate * seconds)`` so the
    same seed always yields the same schedule, whatever the host speed.
    """
    if rate <= 0 or seconds <= 0:
        raise ValueError(f"need positive rate and seconds, got {rate}, "
                         f"{seconds}")
    n = max(1, int(round(rate * seconds)))
    gaps = np.random.default_rng(seed).exponential(1.0 / rate, size=n)
    return np.cumsum(gaps)


@dataclass
class OpenLoopResult:
    """What one open-loop phase observed, per request and in total."""

    scheduled: np.ndarray           # absolute due times (perf_counter)
    sent: np.ndarray                # when submit() was entered
    submitted: np.ndarray           # when submit() returned
    done: np.ndarray                # when the future resolved (nan: never)
    results: List[object] = field(repr=False, default_factory=list)
    errors: List[Optional[BaseException]] = field(
        repr=False, default_factory=list)
    rejected: int = 0

    @property
    def attempted(self) -> int:
        return len(self.scheduled)

    @property
    def hung(self) -> int:
        """Requests whose future never resolved."""
        return sum(isinstance(e, FutureTimeout) for e in self.errors)

    @property
    def lateness(self) -> np.ndarray:
        return self.sent - self.scheduled

    @property
    def latencies(self) -> np.ndarray:
        """Scheduled send to result, for requests that got a result."""
        ok = np.array([r is not None for r in self.results], dtype=bool)
        return (self.done - self.scheduled)[ok]


def generator_report(results: Sequence[OpenLoopResult],
                     rate: float) -> dict:
    """Generator lateness and achieved rate over phases, with a flag.

    Lateness is pooled over every send.  Each phase's achieved send
    rate is compared with the rate of its own schedule (a Poisson
    sample deviates from ``rate``), so only the sender's own delay can
    raise the behind-schedule flag.
    """
    late = percentile(np.concatenate([r.lateness for r in results]), 99)
    achieved, short = [], False
    for r in results:
        n = len(r.sent)
        scheduled_span = float(r.scheduled[-1] - r.scheduled[0])
        sent_span = float(r.sent[-1] - r.scheduled[0])
        if n < 2 or scheduled_span <= 0 or sent_span <= 0:
            continue
        achieved.append((n - 1) / sent_span)
        short |= sent_span * ACHIEVED_RATE_FLOOR > scheduled_span
    return {"late_ms_p99": late["value"] * 1e3,
            "late_samples": late["count"],
            "achieved_rps": float(np.median(achieved)) if achieved
            else float(rate),
            "offered_rps": float(rate),
            "behind_schedule": bool(late["value"] > LATE_P99_LIMIT_S
                                    or short)}


def run_open_loop(submit: Callable[[int], object], offsets: np.ndarray,
                  timeout: float = 30.0,
                  rejected_exc=()) -> OpenLoopResult:
    """Send request ``i`` via ``submit(i)`` at ``offsets[i]`` from now.

    ``submit`` returns a :class:`concurrent.futures.Future`.  Exceptions
    listed in ``rejected_exc`` count as admission rejections; a future
    still unresolved ``timeout`` seconds after the last send is hung
    (its error is :class:`concurrent.futures.TimeoutError`).
    """
    n = len(offsets)
    done = np.full(n, np.nan)
    sent = np.empty(n)
    submitted = np.empty(n)
    results: List[object] = [None] * n
    errors: List[Optional[BaseException]] = [None] * n
    futures = [None] * n
    finished = threading.Semaphore(0)

    def _resolved(i, fut):
        done[i] = time.perf_counter()
        finished.release()

    rejected = 0
    t0 = time.perf_counter()
    scheduled = t0 + np.asarray(offsets, dtype=np.float64)
    for i in range(n):
        wait = scheduled[i] - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent[i] = time.perf_counter()
        try:
            fut = submit(i)
        except rejected_exc as exc:
            submitted[i] = time.perf_counter()
            errors[i] = exc
            rejected += 1
            continue
        submitted[i] = time.perf_counter()
        futures[i] = fut
        fut.add_done_callback(lambda f, i=i: _resolved(i, f))

    deadline = time.perf_counter() + timeout
    for i, fut in enumerate(futures):
        if fut is None:
            continue
        try:
            results[i] = fut.result(
                timeout=max(0.0, deadline - time.perf_counter()))
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            errors[i] = exc
    # the done-callback runs after result() wakes its waiter: make sure
    # every resolved future has stamped its completion time
    for _ in range(sum(f is not None and f.done() for f in futures)):
        finished.acquire(timeout=timeout)
    return OpenLoopResult(scheduled=scheduled, sent=sent,
                          submitted=submitted, done=done, results=results,
                          errors=errors, rejected=rejected)
