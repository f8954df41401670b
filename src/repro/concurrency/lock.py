"""The forest's structural lock: exclusive and reentrant.

Every mutation of the index relation and every atomic publish step
(CSR swap, view refresh) runs under :meth:`ForestLock.write`.  Readers
never take it: they sweep an immutable
:class:`~repro.concurrency.snapshot.SnapshotHandle` (see
``docs/CONCURRENCY.md``).  The holder may nest ``write()`` freely —
the refreeze worker compacts through the same entry points a caller
uses.

Observability is opt-in via :meth:`ForestLock.bind_metrics`: wait and
hold wall times land in ``lock_wait_seconds{mode="write"}`` /
``lock_hold_seconds{mode="write"}`` histograms.  An unbound lock skips
the clock reads, so the uncontended path is one mutex acquire.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.obsv.metrics import NULL_REGISTRY, MetricsRegistry


class ForestLock:
    """Reentrant exclusive lock with optional wait/hold timing."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._owner: Optional[int] = None
        self._depth = 0
        self._started = 0.0
        self.bind_metrics(NULL_REGISTRY)

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Attach wait/hold histograms; a no-op registry disables timing."""
        self._timed = registry.enabled
        self._m_wait = registry.histogram(
            "lock_wait_seconds",
            "wall seconds spent waiting to acquire the forest lock",
            mode="write",
        )
        self._m_hold = registry.histogram(
            "lock_hold_seconds",
            "wall seconds the forest lock was held per outermost acquire",
            mode="write",
        )

    def acquire_write(self) -> None:
        ident = threading.get_ident()
        if self._owner == ident:
            self._depth += 1
            return
        started = time.perf_counter() if self._timed else 0.0
        self._mutex.acquire()
        self._owner = ident
        self._depth = 1
        if self._timed:
            self._started = time.perf_counter()
            self._m_wait.observe(self._started - started)

    def release_write(self) -> None:
        if self._owner != threading.get_ident():
            raise RuntimeError("release_write by a non-holding thread")
        self._depth -= 1
        if self._depth:
            return
        self._owner = None
        if self._timed:
            self._m_hold.observe(time.perf_counter() - self._started)
        self._mutex.release()

    def write(self) -> "ForestLock":
        """Context manager holding the lock (the lock itself: the hold
        depth lives in it, so scopes nest)."""
        return self

    def __enter__(self) -> "ForestLock":
        self.acquire_write()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release_write()

    def held_exclusive(self) -> bool:
        """Whether the calling thread holds the lock."""
        return self._owner == threading.get_ident()
