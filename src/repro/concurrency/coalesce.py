"""Write coalescing: per-document queues behind one appender thread.

Concurrent ``apply_edits`` callers do not contend on the WAL or the
index — they enqueue, and a single appender thread drains whatever has
accumulated into one *group*: every batch is validated in queue order
against the document state the batches before it produced, all valid
batches reach the WAL in one append with one fsync (group commit), and
each document's batches collapse into a single batched maintenance
call (the logs concatenate in application order, exactly the telescope
the maintenance engine consumes).  Per-document FIFO order is preserved, so
the result is bit-identical to applying the same batches one at a time
on one thread.

Failure isolation: a batch that does not validate fails only its own
submitter; later batches for the same document validate against the
state *without* it, the same outcome as serial execution where the
failed call raised before logging anything.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence

from repro.edits.ops import EditOperation
from repro.obsv.metrics import NULL_REGISTRY, MetricsRegistry


class PendingBatch:
    """One submitted ``apply_edits`` batch, awaiting group commit."""

    __slots__ = ("document_id", "operations", "done", "error")

    def __init__(
        self, document_id: int, operations: Sequence[EditOperation]
    ) -> None:
        self.document_id = document_id
        self.operations = list(operations)
        self.done = threading.Event()
        self.error: Optional[BaseException] = None


class WriteCoalescer:
    """FIFO write queue drained by one appender thread.

    ``apply_group`` is the store's group-commit callback: it receives
    the drained batches in submission order, durably applies them, and
    marks individual failures by setting ``PendingBatch.error`` (an
    exception escaping the callback fails every batch of the group).
    """

    def __init__(
        self,
        apply_group: Callable[[List[PendingBatch]], None],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._apply_group = apply_group
        self._queue: List[PendingBatch] = []
        self._mutex = threading.Lock()
        self._nonempty = threading.Condition(self._mutex)
        self._drained = threading.Condition(self._mutex)
        self._closed = False
        self._inflight = 0
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_groups = registry.counter(
            "write_groups_total", "group commits drained by the appender"
        )
        self._m_coalesced = registry.counter(
            "coalesced_writes_total",
            "batches that shared a group commit with an earlier batch",
        )
        self._m_group_size = registry.histogram(
            "write_group_batches", "batches per group commit"
        )
        self._thread = threading.Thread(
            target=self._run, name="store-appender", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------

    def submit(
        self, document_id: int, operations: Sequence[EditOperation]
    ) -> PendingBatch:
        """Enqueue one batch; returns once it is durable (or failed).

        Raises the batch's own validation/apply error, exactly like a
        synchronous-mode ``apply_edits`` call does.
        """
        pending = PendingBatch(document_id, operations)
        with self._mutex:
            if self._closed:
                raise RuntimeError("write coalescer is closed")
            self._queue.append(pending)
            self._nonempty.notify()
        pending.done.wait()
        if pending.error is not None:
            raise pending.error
        return pending

    def flush(self) -> None:
        """Block until everything submitted so far has been applied."""
        with self._mutex:
            while self._queue or self._inflight:
                self._drained.wait()

    def close(self) -> None:
        """Drain outstanding batches, then stop the appender thread."""
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            self._nonempty.notify()
        self._thread.join()
        # The callback is the store's bound method: dropping it leaves
        # no reference cycle between a closed store and its coalescer.
        self._apply_group = None  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # appender thread
    # ------------------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._mutex:
                while not self._queue and not self._closed:
                    self._nonempty.wait()
                if not self._queue and self._closed:
                    return
                group = self._queue
                self._queue = []
                self._inflight = len(group)
            try:
                self._apply_group(group)
            except BaseException as exc:  # noqa: BLE001 - fanned back to submitters
                for pending in group:
                    if pending.error is None:
                        pending.error = exc
            finally:
                self._m_groups.inc()
                self._m_group_size.observe(len(group))
                if len(group) > 1:
                    self._m_coalesced.inc(len(group) - 1)
                for pending in group:
                    pending.done.set()
                with self._mutex:
                    self._inflight = 0
                    if not self._queue:
                        self._drained.notify_all()
