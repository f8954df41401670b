"""Immutable read views of the index relation: snapshot isolation.

A :class:`SnapshotHandle` is the read path of one backend frozen at a
single generation: a lookup that holds a handle sees the relation
exactly as it was when the handle was materialized, no matter how many
maintenance batches commit underneath it.  Handles are immutable and
therefore shared freely across reader threads without any locking —
the serving layer keeps one cached handle per generation and swaps the
reference atomically (a plain assignment under the GIL), so readers
*never* block on ``apply_edits``; at worst they serve the previous
generation while a refresh is in flight (the ``reader_generation_lag``
gauge counts exactly that).

Materialization cost is deliberately asymmetric per backend:

- :class:`OverlaySnapshot` (compact backend) shares the frozen CSR
  arrays — immutable by construction — and copies only the dirty-key
  overlay plus the size metadata: O(dirty + trees) per generation.
  The first view freezes the CSR; only without numpy does the overlay
  hold the whole relation.
- :class:`DictSnapshot` (memory backend) copies the inverted lists:
  O(postings).  The reference backend keeps no immutable structure to
  share, and stays the conformance oracle rather than a serving
  backend.
- :class:`ShardSnapshot` (sharded backend) composes one inner handle
  per shard; with compact shards the per-shard cost is the overlay
  copy again.

Every handle answers the same sweep bit-identically to the live
backend at the pinned generation — the conformance and stress suites
check this against a single-threaded replay.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.perf.sweep import TauScan, sweep_dict, tau_scan

Key = Tuple[int, ...]
Admit = Callable[[int], bool]


def _admit_filter(
    intersections: Dict[int, int], admit: Optional[Admit]
) -> Dict[int, int]:
    if admit is None:
        return intersections
    return {
        tree_id: shared
        for tree_id, shared in intersections.items()
        if admit(tree_id)
    }


class SnapshotHandle:
    """The frozen read path: what a lookup needs, nothing else.

    Subclasses fill in :meth:`candidates`; the size metadata lives here
    because every implementation carries the same ``{tree: |I|}`` copy.
    ``generation`` is stamped by the publisher (the forest) right after
    materialization.
    """

    __slots__ = ("generation", "_sizes")

    def __init__(self, sizes: Dict[int, int]) -> None:
        self.generation = -1
        self._sizes = sizes

    def candidates(
        self,
        query_items: Iterable[Tuple[Key, int]],
        admit: Optional[Admit] = None,
    ) -> Dict[int, int]:
        """``{tree_id: |I_query ∩ I_tree|}`` at the pinned generation."""
        raise NotImplementedError

    def tau_scan(
        self,
        query_items: Iterable[Tuple[Key, int]],
        query_size: int,
        tau: float,
    ) -> Optional[TauScan]:
        """The array-space τ-lookup at the pinned generation, or None
        when this view holds no frozen array form (same contract as
        :meth:`repro.backend.base.ForestBackend.tau_scan`)."""
        return None

    def tree_size(self, tree_id: int) -> int:
        """|I| of one tree at the pinned generation."""
        return self._sizes[tree_id]

    def iter_sizes(self) -> Iterable[Tuple[int, int]]:
        """All ``(tree_id, |I|)`` pairs at the pinned generation."""
        return self._sizes.items()

    def __len__(self) -> int:
        return len(self._sizes)

    def __contains__(self, tree_id: int) -> bool:
        return tree_id in self._sizes


class DictSnapshot(SnapshotHandle):
    """Full copy of the inverted lists (reference/memory backend)."""

    __slots__ = ("_inverted",)

    def __init__(
        self,
        inverted: Dict[Key, Dict[int, int]],
        sizes: Dict[int, int],
    ) -> None:
        super().__init__(sizes)
        self._inverted = inverted

    def candidates(
        self,
        query_items: Iterable[Tuple[Key, int]],
        admit: Optional[Admit] = None,
    ) -> Dict[int, int]:
        intersections: Dict[int, int] = {}
        sweep_dict(self._inverted, query_items, intersections)
        return _admit_filter(intersections, admit)


class OverlaySnapshot(SnapshotHandle):
    """Shared frozen CSR + copied dirty-key overlay (compact backend).

    ``frozen`` is None only without numpy, in which case ``overlay``
    holds the *whole* inverted relation and ``dirty`` / ``changed``
    are irrelevant.  ``changed`` names the trees mutated since the
    freeze, whose frozen ``|I|`` is stale.  Sharing the CSR across
    handles is safe: its arrays never mutate after build (the refreeze
    worker builds a *new* CSR and swaps the reference; handles pinning
    the old one keep it alive).  The CSR's ``last_touched`` tally and
    its ``slot_of`` cache are the shared mutable fields — a
    metrics-only int and a dict every builder fills identically, so
    their races are benign.
    """

    __slots__ = ("_frozen", "_dirty", "_overlay", "_changed")

    def __init__(
        self,
        frozen: object,
        dirty: FrozenSet[Key],
        overlay: Dict[Key, Dict[int, int]],
        changed: FrozenSet[int],
        sizes: Dict[int, int],
    ) -> None:
        super().__init__(sizes)
        self._frozen = frozen
        self._dirty = dirty
        self._overlay = overlay
        self._changed = changed

    def candidates(
        self,
        query_items: Iterable[Tuple[Key, int]],
        admit: Optional[Admit] = None,
    ) -> Dict[int, int]:
        frozen = self._frozen
        if frozen is None:
            intersections: Dict[int, int] = {}
            sweep_dict(self._overlay, query_items, intersections)
            return _admit_filter(intersections, admit)
        dirty = self._dirty
        clean: List[Tuple[Key, int]] = []
        overlaid: List[Tuple[Key, int]] = []
        for item in query_items:
            (overlaid if item[0] in dirty else clean).append(item)
        merged: Dict[int, int] = frozen.sweep(clean) if clean else {}  # type: ignore[attr-defined]
        if overlaid:
            sweep_dict(self._overlay, overlaid, merged)
        return _admit_filter(merged, admit)

    def tau_scan(
        self,
        query_items: Iterable[Tuple[Key, int]],
        query_size: int,
        tau: float,
    ) -> Optional[TauScan]:
        if self._frozen is None:
            return None
        return tau_scan(
            self._frozen,
            self._dirty,
            self._overlay,
            self._changed,
            self._sizes,
            query_items,
            query_size,
            tau,
        )


class SegmentSnapshot(SnapshotHandle):
    """Shared mmapped segment CSR + copied overlay (segment backend).

    ``masked`` is the tombstone set frozen at materialization: trees
    edited or removed since the seal whose segment postings must be
    skipped (their authoritative copy, if any, is in ``overlay``).  The
    segment file is read-only by construction, so sharing its arrays
    across handles and processes is free; only the overlay's inverted
    lists and the size metadata are copied — O(overlay + trees).
    """

    __slots__ = ("_frozen", "_masked", "_overlay")

    def __init__(
        self,
        frozen: object,
        masked: FrozenSet[int],
        overlay: Dict[Key, Dict[int, int]],
        sizes: Dict[int, int],
    ) -> None:
        super().__init__(sizes)
        self._frozen = frozen
        self._masked = masked
        self._overlay = overlay

    def candidates(
        self,
        query_items: Iterable[Tuple[Key, int]],
        admit: Optional[Admit] = None,
    ) -> Dict[int, int]:
        items = (
            query_items
            if isinstance(query_items, (list, tuple))
            else list(query_items)
        )
        merged: Dict[int, int] = self._frozen.sweep(items)  # type: ignore[attr-defined]
        if self._masked:
            for tree_id in self._masked:
                merged.pop(tree_id, None)
        if self._overlay:
            # Masked trees cover every overlay ∩ segment tree, so the
            # overlay sweep adds disjoint entries — plain addition.
            sweep_dict(self._overlay, items, merged)
        return _admit_filter(merged, admit)


class ShardSnapshot(SnapshotHandle):
    """One inner handle per shard, merged by addition (sharded backend)."""

    __slots__ = ("_inner", "_shard_of")

    def __init__(
        self,
        inner: List[SnapshotHandle],
        shard_of: Callable[[Key], int],
        sizes: Dict[int, int],
    ) -> None:
        super().__init__(sizes)
        self._inner = inner
        self._shard_of = shard_of

    def candidates(
        self,
        query_items: Iterable[Tuple[Key, int]],
        admit: Optional[Admit] = None,
    ) -> Dict[int, int]:
        groups: List[List[Tuple[Key, int]]] = [[] for _ in self._inner]
        shard_of = self._shard_of
        for item in query_items:
            groups[shard_of(item[0])].append(item)
        merged: Dict[int, int] = {}
        for handle, group in zip(self._inner, groups):
            if not group:
                continue
            for tree_id, shared in handle.candidates(group, admit).items():
                merged[tree_id] = merged.get(tree_id, 0) + shared
        return merged
