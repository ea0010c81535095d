"""Per-worker circuit breaker: closed / open / half-open.

The pool gives every worker its own breaker.  While **closed**, the
worker serves normally and the breaker watches a sliding window of
outcomes; when the windowed error rate (or p95 latency) crosses its
threshold it **opens** and the worker stops pulling batches -- the other
workers keep draining the shared queue, so the pool routes around the
failing thread instead of feeding it work to burn.  After
``open_duration`` the breaker lets a limited number of **half-open**
probe batches through: if they all succeed it closes (window cleared),
one failure re-opens it.

The state machine is intentionally the textbook one (closed -> open on
error rate, open -> half-open on a timer, half-open -> closed/open on
probe outcome) because the interesting part here is what it *drives*:
breaker state feeds the :class:`~repro.serve.resilience.degrade.
DegradationLadder`, which converts "workers are failing" into the
paper's graceful-degradation knobs.

All methods are thread-safe; ``allow``/``record_*`` hold one lock for a
handful of scalar ops.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["BreakerConfig", "CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: numeric codes for the breaker-state gauge (Prometheus-friendly)
STATE_CODES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


@dataclass
class BreakerConfig:
    """Trip/recover thresholds for one :class:`CircuitBreaker`."""

    #: sliding window of recent outcomes the error rate is computed over
    window: int = 32
    #: don't trip before this many outcomes are in the window
    min_samples: int = 8
    #: windowed error rate at/above which the breaker opens
    error_threshold: float = 0.5
    #: optional p95 latency (seconds) at/above which the breaker opens
    latency_threshold: Optional[float] = None
    #: seconds to stay open before letting probes through
    open_duration: float = 1.0
    #: probe batches allowed (and successes required) while half-open
    half_open_probes: int = 2

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 0 < self.error_threshold <= 1:
            raise ValueError(
                f"error_threshold must be in (0, 1], got {self.error_threshold}"
            )
        if self.half_open_probes < 1:
            raise ValueError(
                f"half_open_probes must be >= 1, got {self.half_open_probes}"
            )


class CircuitBreaker:
    """Error-rate + latency keyed state machine guarding one worker."""

    def __init__(self, config: Optional[BreakerConfig] = None,
                 name: str = "",
                 time_fn: Callable[[], float] = time.monotonic):
        self.config = config or BreakerConfig()
        self.name = name
        self._time = time_fn
        self._lock = threading.Lock()
        self._state = CLOSED
        self._outcomes: deque = deque(maxlen=self.config.window)  # True=failure
        self._latencies: deque = deque(maxlen=self.config.window)
        self._opened_at = -math.inf
        self._probe_permits = 0
        self._probe_successes = 0
        self._held = False
        # lifetime transition counters (exported via stats())
        self.opened = 0
        self.half_opened = 0
        self.closed_from_half_open = 0
        self.reopened = 0

    # -- state inspection ----------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    @property
    def state_code(self) -> int:
        """0 = closed, 1 = half-open, 2 = open (for the obs gauge)."""
        return STATE_CODES[self.state]

    def _state_locked(self) -> str:
        # lazily perform the timed open -> half-open transition so a
        # reader observes the same state a caller of allow() would
        if (self._state == OPEN and not self._held
                and self._time() - self._opened_at >= self.config.open_duration):
            self._state = HALF_OPEN
            self.half_opened += 1
            self._probe_permits = self.config.half_open_probes
            self._probe_successes = 0
        return self._state

    def error_rate(self) -> Optional[float]:
        """Windowed failure fraction, ``None`` while the window is empty."""
        with self._lock:
            if not self._outcomes:
                return None
            return sum(self._outcomes) / len(self._outcomes)

    def recent_p95(self) -> Optional[float]:
        with self._lock:
            if not self._latencies:
                return None
            ordered = sorted(self._latencies)
        idx = min(len(ordered) - 1,
                  max(0, math.ceil(0.95 * len(ordered)) - 1))
        return ordered[idx]

    # -- the gate ------------------------------------------------------------

    def allow(self) -> bool:
        """May this worker take work right now?

        Closed: always.  Open: no, until ``open_duration`` elapses
        (which flips to half-open).  Half-open: yes while probe permits
        remain, each call consuming one.
        """
        with self._lock:
            state = self._state_locked()
            if state == CLOSED:
                return True
            if state == HALF_OPEN and self._probe_permits > 0:
                self._probe_permits -= 1
                return True
            return False

    # -- outcome feedback ----------------------------------------------------

    def record_success(self, latency: Optional[float] = None) -> None:
        with self._lock:
            state = self._state_locked()
            if state == HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.config.half_open_probes:
                    self._close_locked()
                return
            if state == OPEN:  # stale result from before the trip
                return
            self._outcomes.append(False)
            if latency is not None:
                self._latencies.append(float(latency))
            self._maybe_trip_locked()

    def record_failure(self, latency: Optional[float] = None) -> None:
        with self._lock:
            state = self._state_locked()
            if state == HALF_OPEN:
                # one failed probe re-opens immediately
                self._state = OPEN
                self._opened_at = self._time()
                self.reopened += 1
                return
            if state == OPEN:
                return
            self._outcomes.append(True)
            if latency is not None:
                self._latencies.append(float(latency))
            self._maybe_trip_locked()

    # -- transitions (lock held) --------------------------------------------

    def _maybe_trip_locked(self) -> None:
        cfg = self.config
        if len(self._outcomes) < cfg.min_samples:
            return
        rate = sum(self._outcomes) / len(self._outcomes)
        tripped = rate >= cfg.error_threshold
        if not tripped and cfg.latency_threshold is not None and self._latencies:
            ordered = sorted(self._latencies)
            idx = min(len(ordered) - 1,
                      max(0, math.ceil(0.95 * len(ordered)) - 1))
            tripped = ordered[idx] >= cfg.latency_threshold
        if tripped:
            self._state = OPEN
            self._opened_at = self._time()
            self.opened += 1

    def _close_locked(self) -> None:
        self._state = CLOSED
        self._outcomes.clear()
        self._latencies.clear()
        self._probe_permits = 0
        self._probe_successes = 0
        self.closed_from_half_open += 1

    def force_open(self) -> None:
        """Trip the breaker now (tests, manual drain of one worker)."""
        with self._lock:
            self._state = OPEN
            self._opened_at = self._time()
            self.opened += 1

    def hold_open(self) -> None:
        """Trip the breaker for good: it never probes or closes again
        (the supervisor's verdict on a worker that keeps crashing)."""
        with self._lock:
            if self._state != OPEN:
                self.opened += 1
            self._state = OPEN
            self._opened_at = self._time()
            self._held = True

    def stats(self) -> dict:
        """JSON-serializable snapshot for ``InferenceServer.stats()``."""
        return {
            "state": self.state,
            "error_rate": self.error_rate(),
            "recent_p95_s": self.recent_p95(),
            "opened": self.opened,
            "half_opened": self.half_opened,
            "closed_from_half_open": self.closed_from_half_open,
            "reopened": self.reopened,
        }
