"""The ``ForestBackend`` interface: one write path for the index relation.

The paper's Fig. 4b relation ``(treeId, pqg, cnt)`` used to be
materialized in several places with hand-synchronized write paths —
per-tree bags, the inverted lists, the frozen array snapshot, the
relstore table.  A :class:`ForestBackend` is now the *single* surface
through which that relation is written and read; everything else
(:class:`~repro.lookup.forest.ForestIndex`, the lookup service, the
document store) is a view over one backend.

Write path (all mutations flow through exactly these three methods):

- :meth:`ForestBackend.add_tree_bag` — index a new tree's bag,
- :meth:`ForestBackend.apply_tree_delta` — fold an incremental
  maintenance delta ``I ← I ∖ minus ⊎ plus`` into one tree,
- :meth:`ForestBackend.remove_tree` — drop a tree,

plus :meth:`ForestBackend.restore` to reset the whole relation from a
persisted snapshot.  Read path: :meth:`ForestBackend.candidates` (the
inverted-list sweep behind lookups), per-tree bag/size accessors, raw
posting iteration (joins), and :meth:`ForestBackend.snapshot`.

Implementations must be *bit-identical* on every read: the conformance
suite (``tests/test_backend_conformance.py``) checks each backend
against :class:`~repro.backend.memory.MemoryBackend` over random
forests, random edit scripts (checked against the ``repro.core``
reference algorithms) and persistence round-trips.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Tuple,
)

from repro.obsv.metrics import NULL_REGISTRY, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.concurrency.snapshot import SnapshotHandle
    from repro.perf.sweep import TauScan

Key = Tuple[int, ...]
Bag = Dict[Key, int]
Admit = Callable[[int], bool]

#: every registered backend name, in factory preference order —
#: the single source the ``make_backend`` error message quotes, the
#: CLI offers and ``recorded_backend`` accepts
BACKEND_NAMES = ("memory", "compact")


class ForestBackend(ABC):
    """Storage engine for the forest's ``(treeId, pqg, cnt)`` relation."""

    #: short machine name used for factory lookup and persistence
    name: str = "abstract"

    #: the bound metrics recorder (the shared no-op by default)
    metrics: MetricsRegistry = NULL_REGISTRY

    # ------------------------------------------------------------------
    # observability binding
    # ------------------------------------------------------------------

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Attach a metrics recorder and pre-resolve the instruments.

        Called once per backend lifetime (the forest facade binds at
        construction); every hot-path event afterwards is a plain
        method call on an already-resolved instrument.  Binding the
        null registry (the default) swaps in shared no-op instruments.
        """
        self.metrics = registry
        self._bind_instruments(registry)

    def _bind_instruments(self, registry: MetricsRegistry) -> None:
        """Hook: subclasses resolve their instruments here."""

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    @abstractmethod
    def add_tree_bag(self, tree_id: int, bag: Mapping[Key, int]) -> None:
        """Index a new tree given its pq-gram bag.

        Raises :class:`~repro.errors.StorageError` if ``tree_id`` is
        already indexed.  An empty bag is legal (the tree is registered
        with size 0 and no postings).
        """

    @abstractmethod
    def apply_tree_delta(
        self, tree_id: int, minus: Mapping[Key, int], plus: Mapping[Key, int]
    ) -> None:
        """``I ← I ∖ minus ⊎ plus`` for one indexed tree (Lemma 2).

        ``minus`` / ``plus`` are the net delta bags of one maintenance
        call (disjoint key sets, as produced by
        :func:`~repro.core.batch.update_index_batch_delta`); only the
        O(|Δ|) touched keys are re-inverted.  Raises
        :class:`~repro.errors.StorageError` for an unknown tree and
        :class:`~repro.errors.IndexConsistencyError` if a subtraction
        would drive a multiplicity below zero.
        """

    @abstractmethod
    def remove_tree(self, tree_id: int) -> None:
        """Drop one tree and all its postings (no-op if unknown)."""

    @abstractmethod
    def restore(self, bags: Mapping[int, Mapping[Key, int]]) -> None:
        """Reset the whole relation to exactly ``bags`` (tree → bag).

        The inverse of :meth:`snapshot`; used by relstore snapshot /
        WAL recovery round-trips.  Any previous state (including
        read-optimized views) is discarded.
        """

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    @abstractmethod
    def candidates(
        self,
        query_items: Iterable[Tuple[Key, int]],
        admit: Optional[Admit] = None,
    ) -> Dict[int, int]:
        """``{tree_id: |I_query ∩ I_tree|}`` for all co-occurring trees.

        The inverted-list sweep behind every lookup: one pass over the
        query's distinct ``(key, count)`` pairs accumulates the bag
        intersection with every tree sharing at least one pq-gram.
        ``admit`` is an optional per-tree predicate (the τ size bound);
        when given, only admitted trees appear in the result — backends
        may call it any number of times per tree (callers memoize).
        """

    def tau_scan(
        self,
        query_items: Iterable[Tuple[Key, int]],
        query_size: int,
        tau: float,
    ) -> "Optional[TauScan]":
        """All trees with ``distance < tau``, scored in array space
        (:func:`repro.perf.sweep.tau_scan`), or None when this backend
        holds no frozen array form right now — the caller then runs
        :meth:`candidates` with the size bound as ``admit``, the
        reference both must agree with bit for bit.  Needs
        ``query_size > 0`` and ``tau > 0``."""
        return None

    @abstractmethod
    def tree_bag(self, tree_id: int) -> Mapping[Key, int]:
        """The stored bag of one tree, as a read-only mapping view.

        Implementations may return internal state — callers must not
        mutate the result.  Raises :class:`~repro.errors.StorageError`
        for an unknown tree.
        """

    @abstractmethod
    def tree_size(self, tree_id: int) -> int:
        """|I| of one tree (bag cardinality).  Raises
        :class:`~repro.errors.StorageError` for an unknown tree."""

    @abstractmethod
    def iter_sizes(self) -> Iterable[Tuple[int, int]]:
        """All ``(tree_id, |I|)`` pairs."""

    @abstractmethod
    def postings(self, key: Key) -> Optional[Mapping[int, int]]:
        """Posting list ``{tree_id: cnt}`` of one key, or None.

        Read-only view; callers must not mutate the result.
        """

    @abstractmethod
    def iter_postings(self) -> Iterator[Tuple[Key, Mapping[int, int]]]:
        """All ``(key, {tree_id: cnt})`` posting lists (joins, audits)."""

    @abstractmethod
    def snapshot(self) -> Dict[int, Bag]:
        """Deep copy of the whole relation as ``tree → bag``.

        The persistence unit: relstore checkpoints serialize exactly
        this, and :meth:`restore` accepts it back.
        """

    @abstractmethod
    def __len__(self) -> int:
        """Number of indexed trees."""

    @abstractmethod
    def __contains__(self, tree_id: int) -> bool:
        """Whether ``tree_id`` is indexed."""

    def tree_ids(self) -> Iterator[int]:
        """All indexed tree ids."""
        return iter([tree_id for tree_id, _ in self.iter_sizes()])

    # ------------------------------------------------------------------
    # maintenance of read-optimized views
    # ------------------------------------------------------------------

    def compact(self) -> None:
        """(Re)build any read-optimized view of the postings.

        Backends without such a view treat this as a no-op.  Results
        are identical with or without compaction — only the sweep cost
        changes.
        """

    def needs_compaction(self) -> bool:
        """Whether a background :meth:`compact` is due.

        The background refreeze worker polls this after every committed
        mutation; backends without a read-optimized view always answer
        False so the worker never takes the exclusive lock for them.
        """
        return False

    # ------------------------------------------------------------------
    # snapshot isolation
    # ------------------------------------------------------------------

    def freeze_view(self) -> "SnapshotHandle":
        """An immutable read view of the relation as it stands now.

        The returned :class:`~repro.concurrency.snapshot.SnapshotHandle`
        answers ``candidates`` / size reads bit-identically to this
        backend at freeze time and never changes afterwards — the
        serving layer hands it to reader threads so lookups proceed
        while writers mutate the live relation.  Must be called with
        writers excluded (the forest facade holds its exclusive lock).

        The default implementation copies the inverted lists
        (O(postings)); backends with immutable internal structure
        override it with something cheaper.
        """
        from repro.concurrency.snapshot import DictSnapshot

        return DictSnapshot(
            {key: dict(postings) for key, postings in self.iter_postings()},
            dict(self.iter_sizes()),
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release background resources; idempotent.

        Reads and writes after ``close`` are undefined.  Backends
        without background resources (every built-in one) treat this
        as a no-op.
        """

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    @abstractmethod
    def stats(self) -> Dict[str, object]:
        """Operational counters: at least ``backend``, ``trees``,
        ``postings`` and ``distinct_keys``."""

    @abstractmethod
    def check_consistency(self) -> None:
        """Verify every internal invariant, raising
        :class:`~repro.errors.IndexConsistencyError` on drift.

        Re-derives the inverted lists (and any frozen view) from the
        authoritative per-tree bags and compares — O(total postings),
        meant for tests and audits, not hot paths.
        """


def recorded_backend(name: Optional[str], default: str) -> str:
    """The backend to open a persisted store or forest on: the name
    its meta records (``default`` when it records none), or
    ``compact`` for a backend this version no longer builds.  Every
    backend rebuilds from the documents or bags alone, so nothing else
    a retired backend wrote is read."""
    if name is None:
        return default
    return name if name in BACKEND_NAMES else "compact"


def make_backend(spec: "str | ForestBackend") -> ForestBackend:
    """Resolve a backend spec: an instance (passed through), or one of
    the registered names ``memory`` / ``compact``."""
    from repro.backend.compact import CompactBackend
    from repro.backend.memory import MemoryBackend

    if isinstance(spec, ForestBackend):
        return spec
    if spec == "memory":
        return MemoryBackend()
    if spec == "compact":
        return CompactBackend()
    raise ValueError(
        f"unknown forest backend {spec!r}; valid backends: "
        + ", ".join(BACKEND_NAMES)
    )
