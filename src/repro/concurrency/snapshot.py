"""Immutable read views of the index relation: snapshot isolation.

A :class:`SnapshotHandle` is the read path of the forest's relation
frozen at a single generation: a lookup that holds a handle sees the
relation exactly as it was when the handle was materialized, no matter
how many maintenance batches commit underneath it.  Handles are
immutable and therefore shared freely across reader threads without
any locking — the serving layer keeps one cached handle per generation
and swaps the reference atomically (a plain assignment under the GIL),
so readers *never* block on ``apply_edits``; at worst they serve the
previous generation while a refresh is in flight (the
``reader_generation_lag`` gauge counts exactly that).

Two forms, chosen by whether numpy is installed:

- :class:`OverlaySnapshot` shares the frozen CSR base — immutable by
  construction — and copies only the mask and overlay of the trees
  written since it was built plus the size metadata: O(overlay +
  trees) per generation.  The first view freezes the CSR.
- :class:`DictSnapshot` (without numpy, where nothing can be frozen)
  copies the inverted lists: O(postings).

Every handle answers the same sweep bit-identically to the live
relation at the pinned generation — the conformance and stress suites
check this against a single-threaded replay.  A handle only sweeps:
``candidates`` returns the overlap of every co-occurring tree, and the
executor (:mod:`repro.query.executor`) prunes and scores.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.perf.sweep import (
    TauScan,
    TreeMask,
    overlay_candidates,
    sweep_dict,
    tau_scan,
)

Key = Tuple[int, ...]


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

    def candidates(self, query_items: Iterable[Tuple[Key, int]]) -> Dict[int, int]:
        """``{tree_id: |I_query ∩ I_tree|}`` of every co-occurring tree
        at the pinned generation."""
        raise NotImplementedError

    def tau_scan(
        self,
        query_items: Iterable[Tuple[Key, int]],
        query_size: int,
        tau: float,
    ) -> Optional[TauScan]:
        """The array-space τ-lookup at the pinned generation, or None
        when this view holds no frozen array form (same contract as
        :meth:`repro.backend.compact.CompactBackend.tau_scan`)."""
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
    """Full copy of the inverted lists (the view without numpy)."""

    __slots__ = ("_inverted",)

    def __init__(
        self,
        inverted: Dict[Key, Dict[int, int]],
        sizes: Dict[int, int],
    ) -> None:
        super().__init__(sizes)
        self._inverted = inverted

    def candidates(self, query_items: Iterable[Tuple[Key, int]]) -> Dict[int, int]:
        intersections: Dict[int, int] = {}
        sweep_dict(self._inverted, query_items, intersections)
        return intersections


class OverlaySnapshot(SnapshotHandle):
    """Shared frozen base + copied mask and overlay — the view of the
    frozen heap CSR.

    ``masked`` names the trees written since the base was built, whose
    postings in it every read ignores, and ``overlay`` holds their
    current postings (:mod:`repro.perf.sweep`).  Sharing the base is
    safe: its arrays never mutate after build — a refreeze
    builds a *new* base and swaps the reference; handles pinning the
    old one keep it alive.  Its ``last_touched`` tally and ``slot_of``
    cache are the shared mutable fields — a metrics-only int and a dict
    every builder fills identically, so their races are benign.
    """

    __slots__ = ("_frozen", "_masked", "_overlay")

    def __init__(
        self,
        frozen: object,
        masked: TreeMask,
        overlay: Dict[Key, Dict[int, int]],
        sizes: Dict[int, int],
    ) -> None:
        super().__init__(sizes)
        self._frozen = frozen
        self._masked = masked
        self._overlay = overlay

    def candidates(self, query_items: Iterable[Tuple[Key, int]]) -> Dict[int, int]:
        return overlay_candidates(
            self._frozen, self._masked, self._overlay, query_items
        )[0]

    def tau_scan(
        self,
        query_items: Iterable[Tuple[Key, int]],
        query_size: int,
        tau: float,
    ) -> Optional[TauScan]:
        return tau_scan(
            self._frozen,
            self._masked,
            self._overlay,
            self._sizes,
            query_items,
            query_size,
            tau,
        )
