"""Array-snapshot backend with a tree-level overlay.

The pre-backend design froze the inverted lists into a
:class:`~repro.perf.sweep.CompactPostings` CSR snapshot and threw the
whole snapshot away on *every* mutation — one maintained tree forced
the next lookup to re-freeze the entire forest.  This backend keeps
the snapshot and overlays mutations instead, the delta-file/compaction
split of log-structured index designs: writes land in the authoritative
dicts (inherited from :class:`~repro.backend.memory.MemoryBackend`),
and a tree written after the freeze is *masked*
(:class:`~repro.perf.sweep.TreeMask`) — every read ignores its
postings in the frozen arrays and takes its current bag from an overlay
``key → {tree: cnt}`` that holds masked trees only, so a lookup folds
in Python the postings of the trees that changed, not the whole
posting list of every key they hold.  :meth:`compact` re-freezes only
when the overlay has grown past a threshold, amortizing snapshot
construction over many maintenance batches.  Reads go through the two
functions of :mod:`repro.perf.sweep` that combine a frozen base with
an overlay: ``overlay_candidates`` and, for τ-lookups, ``tau_scan``.

Degrades to the plain dict sweep when numpy is unavailable — results
are identical either way.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.backend.base import Admit, Key
from repro.backend.memory import MemoryBackend
from repro.errors import IndexConsistencyError
from repro.obsv.metrics import MetricsRegistry
from repro.perf.sweep import (
    HAVE_NUMPY,
    CompactPostings,
    TauScan,
    TreeMask,
    overlay_candidates,
    tau_scan,
)


class CompactBackend(MemoryBackend):
    """Dict write path + frozen CSR sweep with a masked-tree overlay."""

    name = "compact"

    #: re-freeze when the overlay's distinct keys exceed this fraction
    #: of all keys
    REFREEZE_FRACTION = 0.25
    #: ... but never below this absolute count (tiny forests churn)
    REFREEZE_MIN_DIRTY = 64
    #: mutations that must land between *background* refreezes.  When
    #: the overlay hovers at the threshold, the refreeze worker would
    #: otherwise rebuild twice back-to-back — once for the batch that
    #: crossed the line and again for the next few writes, whose
    #: overlay is tiny but still over ``REFREEZE_MIN_DIRTY`` relative
    #: to a small key universe.  ``needs_compaction`` answers False
    #: until this many mutations have accumulated since the last
    #: freeze; explicit :meth:`compact` calls are *not* debounced.
    REFREEZE_MIN_MUTATION_GAP = 64

    def __init__(self) -> None:
        self._frozen: Optional[CompactPostings] = None
        # Trees written since the freeze, and their current postings.
        # An overlay key whose postings emptied keeps its (empty) entry,
        # so ``len(self._overlay)`` is every key written since the
        # freeze — what the refreeze policy and ``dirty_keys`` count.
        self._masked = TreeMask()
        self._overlay: Dict[Key, Dict[int, int]] = {}
        self._mutations = 0
        self._mutations_at_freeze = 0
        super().__init__()

    def _bind_instruments(self, registry: MetricsRegistry) -> None:
        super()._bind_instruments(registry)
        self._m_refreezes = registry.counter(
            "compact_refreezes_total",
            "CSR snapshot (re)builds triggered by the overlay threshold",
        )
        self._m_refreeze_seconds = registry.histogram(
            "compact_refreeze_seconds",
            "wall seconds spent (re)building the CSR snapshot",
        )
        self._m_frozen_keys = registry.counter(
            "compact_frozen_keys_swept_total",
            "query keys swept through the frozen CSR snapshot",
        )
        self._m_overlay_keys = registry.counter(
            "compact_overlay_keys_swept_total",
            "query keys that met the overlay of trees written since the freeze",
        )
        self._m_overlay_merges = registry.counter(
            "compact_overlay_merges_total",
            "sweeps in which some query key met the overlay",
        )

    # ------------------------------------------------------------------
    # view maintenance hooks (called by every MemoryBackend mutation)
    # ------------------------------------------------------------------

    def _touching(self, tree_id: int) -> None:
        # The first write to a tree since the freeze masks it, from the
        # bag the frozen arrays still describe (none: born since), and
        # copies that bag into the overlay.
        if self._frozen is not None and tree_id not in self._masked.trees:
            bag = self._bags.get(tree_id, ())
            self._masked.add(tree_id, bag)
            self._fold(tree_id, bag)

    def _touched(self, tree_id: int, keys: Iterable[Key]) -> None:
        self._mutations += 1
        if self._frozen is not None:
            self._fold(tree_id, keys)

    def _fold(self, tree_id: int, keys: Iterable[Key]) -> None:
        """Re-read ``keys`` of one masked tree from its live bag."""
        bag = self._bags.get(tree_id) or {}
        overlay = self._overlay
        for key in keys:
            postings = overlay.setdefault(key, {})
            count = bag.get(key)
            if count:
                postings[tree_id] = count
            else:
                postings.pop(tree_id, None)

    def _reset_views(self) -> None:
        self._frozen = None
        self._masked = TreeMask()
        self._overlay = {}

    # ------------------------------------------------------------------
    # compaction policy
    # ------------------------------------------------------------------

    def _stale(self) -> bool:
        if self._frozen is None:
            return True
        threshold = max(
            self.REFREEZE_MIN_DIRTY,
            int(self.REFREEZE_FRACTION * max(1, len(self._inverted))),
        )
        return len(self._overlay) > threshold

    def compact(self) -> None:
        """Freeze (or re-freeze, past the overlay threshold) the CSR
        snapshot.  A no-op without numpy.

        The rebuild constructs a *new* CSR and swaps the reference in
        one assignment — snapshot handles pinning the previous CSR
        keep it alive and stay bit-identical (they carry their own
        copies of the mask and the overlay of their generation).
        """
        if not HAVE_NUMPY:
            return
        if self._stale():
            with self._m_refreeze_seconds.time():
                frozen = CompactPostings.build(self._inverted, self._sizes)
            self._reset_views()
            self._frozen = frozen
            self._mutations_at_freeze = self._mutations
            self._m_refreezes.inc()

    def needs_compaction(self) -> bool:
        # Nothing frozen means no read has asked for the CSR yet: the
        # first one freezes it (freeze_view, or the lookup service's
        # compact()), so a store that only ingests builds none.
        return (
            self._frozen is not None
            and self._stale()
            and self._mutations - self._mutations_at_freeze
            >= self.REFREEZE_MIN_MUTATION_GAP
        )

    # ------------------------------------------------------------------
    # snapshot isolation
    # ------------------------------------------------------------------

    def freeze_view(self):
        """O(overlay + trees) immutable view: the frozen CSR is shared
        (it never mutates after build), only the mask, the overlay and
        the size metadata are copied.

        The first view freezes the CSR it then shares — one build, paid
        by the read that needs it, instead of a copy of the whole
        relation for every generation; later re-freezes are the
        refreeze worker's.  Only without numpy is there nothing to
        freeze, and the view is the base class's copy of the dicts."""
        from repro.concurrency.snapshot import OverlaySnapshot

        if self._frozen is None:
            self.compact()
        if self._frozen is None:
            return super().freeze_view()
        return OverlaySnapshot(
            self._frozen,
            self._masked.copy(),
            {
                key: dict(postings)
                for key, postings in self._overlay.items()
                if postings
            },
            dict(self._sizes),
        )

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def candidates(
        self,
        query_items: Iterable[Tuple[Key, int]],
        admit: Optional[Admit] = None,
    ) -> Dict[int, int]:
        if self._frozen is None:
            return super().candidates(query_items, admit)
        merged, keys_swept, touched, overlay_keys = overlay_candidates(
            self._frozen, self._masked, self._overlay, query_items, admit
        )
        self._count_overlay(keys_swept, overlay_keys)
        self._m_keys_swept.inc(keys_swept)
        self._m_postings_touched.inc(touched)
        self._m_candidates_emitted.inc(len(merged))
        return merged

    def tau_scan(
        self,
        query_items: Iterable[Tuple[Key, int]],
        query_size: int,
        tau: float,
    ) -> Optional[TauScan]:
        if self._frozen is None:
            return None
        scan = tau_scan(
            self._frozen,
            self._masked,
            self._overlay,
            self._sizes,
            query_items,
            query_size,
            tau,
        )
        self._count_overlay(scan.keys_swept, scan.overlay_keys)
        self._m_candidates_emitted.inc(scan.scored)
        return scan

    def _count_overlay(self, keys_swept: int, overlay_keys: int) -> None:
        self._m_frozen_keys.inc(keys_swept)
        if overlay_keys:
            self._m_overlay_keys.inc(overlay_keys)
            self._m_overlay_merges.inc()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        stats = super().stats()
        stats["backend"] = self.name
        stats["frozen"] = self._frozen is not None
        stats["dirty_keys"] = len(self._overlay)
        return stats

    def check_consistency(self) -> None:
        super().check_consistency()
        frozen, masked = self._frozen, self._masked.trees
        if frozen is None:
            return

        def unmasked(pairs):
            return {tree: value for tree, value in pairs if tree not in masked}

        def unmasked_postings(inverted):
            kept = {key: unmasked(entry.items()) for key, entry in inverted.items()}
            return {key: entry for key, entry in kept.items() if entry}

        # What the frozen form says of the unmasked trees must be what
        # the live dicts say: no write escaped the mask.
        stored = dict(frozen.iter_key_postings())
        if unmasked(zip(frozen.tree_ids, frozen.sizes.tolist())) != unmasked(
            self._sizes.items()
        ) or unmasked_postings(stored) != unmasked_postings(self._inverted):
            raise IndexConsistencyError(
                "frozen sizes or postings of unmasked trees drifted from "
                "the live relation (a write escaped the mask)"
            )
        # The mask counts exactly the frozen postings of masked trees.
        counts = {
            key: len(entry) - len(unmasked(entry.items()))
            for key, entry in stored.items()
        }
        if {key: n for key, n in counts.items() if n} != self._masked.counts:
            raise IndexConsistencyError(
                "masked posting accounting drifted from the frozen snapshot"
            )
        # The overlay is exactly the masked trees' live bags.
        expected: Dict[Key, Dict[int, int]] = {}
        for tree_id in masked & self._bags.keys():
            for key, count in self._bags[tree_id].items():
                expected.setdefault(key, {})[tree_id] = count
        if expected != {key: e for key, e in self._overlay.items() if e}:
            raise IndexConsistencyError(
                "overlay drifted from the live bags of the masked trees"
            )
