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

One form: a handle shares the relation's frozen CSR base — immutable
by construction — and copies the mask and the overlay of the trees
the base does not describe plus the size metadata: O(overlay + trees)
per generation.  The first view freezes the CSR.  Without numpy there
is no base, and the overlay the view copies holds every posting:
O(postings).

Every handle answers the same sweep bit-identically to the live
relation at the pinned generation — the conformance and stress suites
check this against a single-threaded replay.  A handle only sweeps:
``candidates`` returns the overlap of every co-occurring tree, and the
executor (:mod:`repro.query.executor`) prunes and scores, or lets
``tau_scan`` do both in array space where there is a base.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.perf.sweep import TauScan, TreeMask, overlay_candidates, tau_scan

Key = Tuple[int, ...]


class SnapshotHandle:
    """The frozen read path: what a lookup needs, nothing else.

    ``frozen`` is the relation's CSR base or None, ``masked`` names the
    trees written since it was built, whose postings in it every read
    ignores, and ``overlay`` holds the current postings of every tree
    the base does not describe (:mod:`repro.perf.sweep`).  Sharing the
    base is safe: its arrays never mutate after build — a refreeze
    builds a *new* base and swaps the reference; handles pinning the
    old one keep it alive.  Its ``last_touched`` tally and ``slot_of``
    cache are the shared mutable fields — a metrics-only int and a dict
    every builder fills identically, so their races are benign.
    ``generation`` is stamped by the publisher (the forest) right after
    materialization.
    """

    __slots__ = ("generation", "_frozen", "_masked", "_overlay", "_sizes")

    def __init__(
        self,
        frozen: object,
        masked: TreeMask,
        overlay: Dict[Key, Dict[int, int]],
        sizes: Dict[int, int],
    ) -> None:
        self.generation = -1
        self._frozen = frozen
        self._masked = masked
        self._overlay = overlay
        self._sizes = sizes

    def candidates(self, query_items: Iterable[Tuple[Key, int]]) -> Dict[int, int]:
        """``{tree_id: |I_query ∩ I_tree|}`` of every co-occurring tree
        at the pinned generation."""
        return overlay_candidates(
            self._frozen, self._masked, self._overlay, query_items
        )[0]

    def tau_scan(
        self,
        query_items: Iterable[Tuple[Key, int]],
        query_size: int,
        tau: float,
    ) -> Optional[TauScan]:
        """The array-space τ-lookup at the pinned generation, or None
        when this view holds no base (same contract as
        :meth:`repro.backend.compact.CompactBackend.tau_scan`)."""
        return tau_scan(
            self._frozen,
            self._masked,
            self._overlay,
            self._sizes,
            query_items,
            query_size,
            tau,
        )

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
