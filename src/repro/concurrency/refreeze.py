"""Background refreeze: CSR rebuilds move off the serving threads.

The compact backend re-freezes its CSR snapshot when the dirty overlay
grows past a threshold — synchronously, on whichever caller happened
to trip it.  In the serving layer that caller would be a writer (or,
worse, the first lookup after a write burst).  The
:class:`RefreezeWorker` owns the rebuild instead: it listens to the
forest's generation bumps — so every mutation path wakes it, edits
and membership changes alike — and re-freezes under the forest's
exclusive lock when the backend reports staleness, then republishes
the read view so the next lookup already shares the new CSR.  Readers
are unaffected throughout — they hold immutable snapshot handles that
pin the *previous* CSR, and the swap itself is a reference assignment
under the exclusive lock, so overlay reads stay correct mid-refreeze.
The *first* freeze is not the worker's: the read that needs the CSR
builds it (``CompactBackend.freeze_view``).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lookup.forest import ForestIndex


class RefreezeWorker:
    """One daemon thread re-freezing a forest's backend on demand."""

    def __init__(self, forest: "ForestIndex") -> None:
        self._forest = forest
        self._wakeup = threading.Event()
        self._closed = False
        self._m_refreezes = forest.metrics.counter(
            "refreeze_background_total",
            "compactions performed by the background refreeze worker",
        )
        self._thread = threading.Thread(
            target=self._run, name="forest-refreeze", daemon=True
        )
        self._thread.start()
        forest.add_generation_listener(self.notify)

    def notify(self) -> None:
        """Signal that a write committed (cheap; the forest calls it on
        every generation bump)."""
        self._wakeup.set()

    def close(self) -> None:
        """Stop the worker (any in-flight refreeze completes first)."""
        if self._closed:
            return
        self._closed = True
        self._forest.remove_generation_listener(self.notify)
        self._wakeup.set()
        self._thread.join()

    def _run(self) -> None:
        forest = self._forest
        while True:
            self._wakeup.wait()
            self._wakeup.clear()
            if self._closed:
                return
            if not forest.backend.needs_compaction():
                continue
            # Exclusive mode excludes writers (and view refreshes) for
            # the duration of the CSR build; readers keep serving their
            # pinned handles.
            forest.refreeze()
            self._m_refreezes.inc()
