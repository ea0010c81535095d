"""In-memory spans around the program's public calls, and self times.

The traced run wraps calls into each layer from the benchmark's own
files -- an instance attribute or module function is replaced by a
timing wrapper and restored afterwards -- so the program itself is run
exactly as in the measured run.  A span is ``(id, name, start, end,
parent)``; spans of one request or stream chunk share its root.  They
stay in memory and are written out once, when the run ends.

A span's self time is its duration minus the part of its interval that
its children cover; a root's self time is the part of the end-to-end
time no recorded layer accounts for (the unattributed remainder).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe span sink with per-thread nesting.

    A span opened with :meth:`span` parents under the innermost span
    open on the same thread; on a thread with none open it parents
    under :attr:`current_root` (set by the caller around a request or
    chunk, so work a background thread does for it -- a retrain --
    lands in the right tree).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.current_root: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []

    def new_id(self) -> int:
        return next(self._ids)

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None,
            sid: Optional[int] = None) -> int:
        """Record a span whose interval the caller already knows."""
        sid = self.new_id() if sid is None else sid
        self.spans.append(Span(sid, name, start, end, parent))
        return sid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, parent: Optional[int]) -> Tuple[int, Optional[int]]:
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else self.current_root
        sid = self.new_id()
        stack.append(sid)
        return sid, parent

    def _close(self, sid: int, name: str, start: float,
               parent: Optional[int]) -> float:
        end = self.clock()
        self._stack().pop()
        self.spans.append(Span(sid, name, start, end, parent))
        return end

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None):
        sid, parent = self._open(parent)
        start = self.clock()
        try:
            yield sid
        finally:
            self._close(sid, name, start, parent)

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` as a span named ``name``.

        ``after(sid, start, end, args, result)`` runs after each call
        (used to attach derived spans).  :meth:`unwrap_all` restores the
        original attribute.
        """
        original = getattr(owner, attr)
        had_own = attr in getattr(owner, "__dict__", {})

        def wrapper(*args, **kwargs):
            sid, parent = self._open(None)
            start = self.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = self._close(sid, name, start, parent)
            if after is not None:
                after(sid, start, end, args, result)
            return result

        setattr(owner, attr, wrapper)

        def restore():
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._restore.append(restore)

    def unwrap_all(self) -> None:
        while self._restore:
            self._restore.pop()()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent}) + "\n")


def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: duration minus the union of its children."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: s.duration - covered(children.get(s.sid, ()), s.start,
                                        s.end)
            for s in spans}


def roots_of(spans: Sequence[Span]) -> Dict[int, int]:
    """Map every span id to the id of the root of its tree.

    A span whose parent was never recorded counts as a root.
    """
    parent = {s.sid: s.parent for s in spans}
    out: Dict[int, int] = {}
    for sid in parent:
        path = []
        cur = sid
        while cur not in out:
            up = parent[cur]
            if up is None or up not in parent:
                out[cur] = cur
                break
            path.append(cur)
            cur = up
        for p in path:
            out[p] = out[cur]
    return out


def self_time_by_layer(spans: Sequence[Span],
                       root_name: str) -> Tuple[Dict[str, float], int]:
    """Total self seconds per span name inside ``root_name`` trees.

    Returns ``(totals, n_roots)``; the root's own self time is listed
    under ``root_name`` -- the remainder no child layer covers.
    """
    by_id = {s.sid: s for s in spans}
    root_of = roots_of(spans)
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    n_roots = 0
    for s in spans:
        root = by_id.get(root_of[s.sid])
        if root is None or root.name != root_name:
            continue
        if s.sid == root.sid:
            n_roots += 1
        totals[s.name] += own[s.sid]
    return dict(totals), n_roots
