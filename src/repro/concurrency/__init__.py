"""The concurrent serving layer: locks, snapshots, coalescing.

The paper's maintenance identity — I_n = I_0 ∖ λ(Δ-) ⊎ λ(Δ+) without
touching intermediate versions — keeps writes cheap; this package
keeps them *concurrent*:

- :class:`ForestLock` — the reentrant exclusive lock every forest owns
  (mutations and atomic publishes; readers never take it),
- :class:`SnapshotHandle` — immutable per-generation read views, so
  lookups never block on ``apply_edits``,
- :class:`WriteCoalescer` — per-document FIFO write queues behind one
  WAL appender thread with group fsync,
- :class:`RefreezeWorker` — background CSR rebuilds swapped in
  atomically under the exclusive lock.

``docs/CONCURRENCY.md`` documents the locking order, the snapshot
semantics, and exactly which operations are (and are not)
linearizable.
"""

from repro.concurrency.coalesce import PendingBatch, WriteCoalescer
from repro.concurrency.lock import ForestLock
from repro.concurrency.refreeze import RefreezeWorker
from repro.concurrency.snapshot import DictSnapshot, OverlaySnapshot, SnapshotHandle

__all__ = [
    "ForestLock",
    "SnapshotHandle",
    "DictSnapshot",
    "OverlaySnapshot",
    "WriteCoalescer",
    "PendingBatch",
    "RefreezeWorker",
]
