"""Structured errors for the serving layer.

Before this module a failing worker resolved request futures with
whatever raw exception escaped the model -- callers could not tell a
retryable injected fault from a permanent model bug, and a worker that
*died* (thread kill) left its in-flight futures unresolved forever.
Every failure a caller can now see is a :class:`ServeError` carrying
where it happened (model, worker), whether retrying could help, and how
many attempts were burned; :meth:`ServeError.to_dict` makes it
log/JSON-friendly.

:class:`WorkerKilled` deliberately derives from :class:`BaseException`:
it must *not* be swallowed by the worker's per-group ``except
Exception`` recovery path -- it unwinds the worker thread the way a real
crash would, exercising the supervisor's respawn and the
fail-remaining-futures cleanup of the thread server's worker loop
(:meth:`~repro.serve.server.InferenceServer._run`).
"""

from __future__ import annotations

from typing import Optional

from repro.serve.queue import QueueFull

__all__ = [
    "ServeError",
    "WorkerError",
    "DeadlineExceeded",
    "RetriesExhausted",
    "InjectedFault",
    "Backpressure",
    "WorkerKilled",
]


class ServeError(RuntimeError):
    """Base structured serving failure (model/worker/retryable context)."""

    kind = "serve_error"

    def __init__(self, message: str, *, model: Optional[str] = None,
                 worker: Optional[int] = None, retryable: bool = False,
                 attempts: int = 0,
                 cause: Optional[BaseException] = None):
        super().__init__(message)
        self.model = model
        self.worker = worker
        self.retryable = retryable
        self.attempts = attempts
        if cause is not None:
            self.__cause__ = cause

    @property
    def cause(self) -> Optional[BaseException]:
        return self.__cause__

    def to_dict(self) -> dict:
        """JSON-serializable view (what a wire protocol would return)."""
        return {
            "kind": self.kind,
            "message": str(self),
            "model": self.model,
            "worker": self.worker,
            "retryable": self.retryable,
            "attempts": self.attempts,
            "cause": (type(self.__cause__).__name__
                      if self.__cause__ is not None else None),
        }


class WorkerError(ServeError):
    """A worker failed while serving the request (encode/search raised)."""

    kind = "worker_error"


class DeadlineExceeded(ServeError):
    """The request's deadline expired before a worker could finish it."""

    kind = "deadline_exceeded"

    def __init__(self, message: str, **kw):
        kw.setdefault("retryable", False)
        super().__init__(message, **kw)


class RetriesExhausted(ServeError):
    """Every allowed attempt failed; the last cause is chained."""

    kind = "retries_exhausted"


class InjectedFault(WorkerError):
    """A chaos-injected, transient (retryable) worker failure."""

    kind = "injected_fault"

    def __init__(self, message: str, **kw):
        kw.setdefault("retryable", True)
        super().__init__(message, **kw)


class Backpressure(QueueFull):
    """Submission rejected by the degradation ladder (its top tier).

    Subclasses :class:`~repro.serve.queue.QueueFull` so callers that
    already handle admission rejection handle degradation rejection the
    same way.
    """


class WorkerKilled(BaseException):
    """Chaos 'kill' signal: unwinds the worker thread like a crash."""

    def __init__(self, worker: Optional[int] = None):
        super().__init__(f"worker {worker} killed by chaos policy")
        self.worker = worker
