"""Shard routing: a consistent-hash ring with a least-loaded override.

Every shard holds the full model (replica routing).  The router spreads
batches with a consistent-hash ring (stable across processes: Python's
builtin ``hash`` is per-process salted, so keys hash through crc32)
and falls back to the least-loaded shard when the ring's pick is
overloaded or its breaker is open.  No processes live in this module,
so routing is unit-testable in isolation.
"""

from __future__ import annotations

import bisect
import threading
import zlib
from typing import List, Optional, Sequence

__all__ = ["stable_hash", "ShardRouter"]


def stable_hash(key: object) -> int:
    """Process-stable 32-bit hash (crc32; builtin ``hash`` is salted)."""
    if not isinstance(key, bytes):
        key = repr(key).encode()
    return zlib.crc32(key) & 0xFFFFFFFF


class ShardRouter:
    """Routes batches to shards.

    :meth:`pick` consults a consistent-hash ring of ``vnodes`` virtual
    nodes per shard -- same key, same shard, across restarts -- then
    applies a least-loaded override: if the ring's choice already
    carries ``imbalance`` more in-flight batches than the least-loaded
    shard (or is excluded, e.g. open breaker / dead process), the batch
    goes to the least-loaded eligible shard instead.  Load is tracked
    by :meth:`dispatched`/:meth:`completed`.
    """

    def __init__(self, n_shards: int, vnodes: int = 64, imbalance: int = 2):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.imbalance = int(imbalance)
        # consistent-hash ring: vnodes points per shard on a 32-bit circle
        points = []
        for shard in range(n_shards):
            for v in range(vnodes):
                points.append((stable_hash(f"shard-{shard}-vnode-{v}"), shard))
        points.sort()
        self._ring_keys = [p[0] for p in points]
        self._ring_shards = [p[1] for p in points]
        self._lock = threading.Lock()
        self._loads = [0] * n_shards

    # -- load tracking -------------------------------------------------------

    def dispatched(self, shard: int) -> None:
        with self._lock:
            self._loads[shard] += 1

    def completed(self, shard: int) -> None:
        with self._lock:
            self._loads[shard] = max(0, self._loads[shard] - 1)

    def loads(self) -> List[int]:
        with self._lock:
            return list(self._loads)

    # -- routing -------------------------------------------------------------

    def _ring_pick(self, key: object) -> int:
        h = stable_hash(key)
        i = bisect.bisect_right(self._ring_keys, h) % len(self._ring_keys)
        return self._ring_shards[i]

    def pick(self, key: object,
             eligible: Optional[Sequence[int]] = None) -> int:
        """Choose a shard for ``key`` (consistent hash, least-loaded cap).

        ``eligible`` restricts the candidates (shards whose breaker is
        closed and whose process is alive); when the ring's choice is
        ineligible or overloaded, the least-loaded eligible shard wins.
        With no eligible shard at all, the ring choice is returned
        anyway -- the caller's breaker/error path owns that failure.
        """
        choice = self._ring_pick(key)
        ok = set(range(self.n_shards) if eligible is None else eligible)
        if not ok:
            return choice
        with self._lock:
            least = min(ok, key=lambda s: (self._loads[s], s))
            if (choice not in ok
                    or self._loads[choice] > self._loads[least] + self.imbalance):
                return least
        return choice
