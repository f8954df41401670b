"""Array-snapshot backend with a delta overlay.

The pre-backend design froze the inverted lists into a
:class:`~repro.perf.sweep.CompactPostings` CSR snapshot and threw the
whole snapshot away on *every* mutation — one maintained tree forced
the next lookup to re-freeze the entire forest.  This backend keeps
the snapshot and overlays mutations instead, the delta-file/compaction
split of log-structured index designs: writes land in the authoritative
dicts (inherited from :class:`~repro.backend.memory.MemoryBackend`) and
mark their keys *dirty*; a sweep answers clean keys from the frozen
arrays and dirty keys from the dicts, merged by addition — key sets
are disjoint, so the merge is exact.  :meth:`compact` re-freezes only
when the dirty set has grown past a threshold, amortizing snapshot
construction over many maintenance batches.

τ-lookups go one step further (:meth:`CompactBackend.tau_scan`): over
the same frozen form and overlay, the size bound, the distance and the
threshold run as vector expressions and only the matches become
Python objects.

Degrades to the plain dict sweep when numpy is unavailable — results
are identical either way.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.backend.base import Admit, Key
from repro.backend.memory import MemoryBackend
from repro.errors import IndexConsistencyError
from repro.obsv.metrics import MetricsRegistry
from repro.perf.arraybag import HAVE_NUMPY
from repro.perf.sweep import CompactPostings, TauScan, tau_scan


class CompactBackend(MemoryBackend):
    """Dict write path + frozen CSR sweep with a dirty-key overlay."""

    name = "compact"

    #: re-freeze when the dirty keys exceed this fraction of all keys
    REFREEZE_FRACTION = 0.25
    #: ... but never below this absolute count (tiny forests churn)
    REFREEZE_MIN_DIRTY = 64
    #: mutations that must land between *background* refreezes.  When
    #: the dirty fraction hovers at the threshold, the refreeze worker
    #: would otherwise rebuild twice back-to-back — once for the batch
    #: that crossed the line and again for the next few writes, whose
    #: dirty set is tiny but still over ``REFREEZE_MIN_DIRTY`` relative
    #: to a small key universe.  ``needs_compaction`` answers False
    #: until this many mutations have accumulated since the last
    #: freeze; explicit :meth:`compact` calls are *not* debounced.
    REFREEZE_MIN_MUTATION_GAP = 64

    def __init__(self, compress: Optional[bool] = None) -> None:
        self._frozen = None  # CompactPostings / CompressedPostings / None
        self._dirty: Set[Key] = set()
        # Trees mutated since the freeze: their frozen |I| is stale.
        self._changed: Set[int] = set()
        self._mutations = 0
        self._mutations_at_freeze = 0
        super().__init__(compress=compress)

    def _bind_instruments(self, registry: MetricsRegistry) -> None:
        super()._bind_instruments(registry)
        self._m_refreezes = registry.counter(
            "compact_refreezes_total",
            "CSR snapshot (re)builds triggered by the dirty threshold",
        )
        self._m_refreeze_seconds = registry.histogram(
            "compact_refreeze_seconds",
            "wall seconds spent (re)building the CSR snapshot",
        )
        self._m_frozen_keys = registry.counter(
            "compact_frozen_keys_swept_total",
            "query keys answered from the frozen CSR snapshot",
        )
        self._m_overlay_keys = registry.counter(
            "compact_overlay_keys_swept_total",
            "query keys answered from the dirty-key dict overlay",
        )
        self._m_overlay_merges = registry.counter(
            "compact_overlay_merges_total",
            "sweeps that had to merge overlay results into frozen results",
        )

    # ------------------------------------------------------------------
    # view maintenance hooks (called by every MemoryBackend mutation)
    # ------------------------------------------------------------------

    def _touched(self, tree_id: int, keys: Iterable[Key]) -> None:
        # Every mutation path funnels through here: the snapshot is
        # never consulted for a key, or for the size of a tree, that
        # changed after the freeze.
        self._mutations += 1
        if self._frozen is not None:
            self._dirty.update(keys)
            self._changed.add(tree_id)

    def _reset_views(self) -> None:
        self._frozen = None
        self._dirty.clear()
        self._changed.clear()

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
        return len(self._dirty) > threshold

    def compact(self) -> None:
        """Freeze (or re-freeze, past the dirty threshold) the CSR
        snapshot.  A no-op without numpy.

        The rebuild constructs a *new* CSR and swaps the reference in
        one assignment — snapshot handles pinning the previous CSR
        keep it alive and stay bit-identical (their overlay copies
        mask exactly the keys that were dirty at their generation).
        """
        if not HAVE_NUMPY:
            return
        if self._stale():
            with self._m_refreeze_seconds.time():
                if self._compress:
                    from repro.compress.frozen import CompressedPostings

                    self._frozen = CompressedPostings.build(
                        self._inverted, self._sizes, self._pool
                    )
                else:
                    self._frozen = CompactPostings.build(
                        self._inverted, self._sizes
                    )
            self._dirty.clear()
            self._changed.clear()
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
    # frozen-array access (sharded fast path)
    # ------------------------------------------------------------------

    def frozen_clean(self):
        """The frozen CSR when it covers the *whole* relation, else None.

        Non-None means no key is dirty: a sweep over the CSR alone is
        bit-identical to :meth:`candidates`.  The sharded backend merges
        every shard's clean CSR into one cross-shard sweep structure.
        """
        if self._frozen is not None and not self._dirty:
            return self._frozen
        return None

    # ------------------------------------------------------------------
    # snapshot isolation
    # ------------------------------------------------------------------

    def freeze_view(self):
        """O(dirty + trees) immutable view: the frozen CSR is shared
        (it never mutates after build), only the dirty-key overlay and
        the size metadata are copied.  Dirty keys whose postings have
        emptied out stay in the dirty set so the view never falls back
        to the stale frozen entries for them.

        The first view freezes the CSR it then shares — one build, paid
        by the read that needs it, instead of a copy of the whole
        relation for every generation; later re-freezes are the
        refreeze worker's.  Only without numpy is there nothing to
        freeze, and the overlay is the whole relation."""
        from repro.concurrency.snapshot import OverlaySnapshot

        if self._frozen is None:
            self.compact()
        if self._frozen is None:
            return OverlaySnapshot(
                None,
                frozenset(),
                {key: dict(postings) for key, postings in self._inverted.items()},
                frozenset(),
                dict(self._sizes),
            )
        return OverlaySnapshot(
            self._frozen,
            frozenset(self._dirty),
            {
                key: dict(self._inverted[key])
                for key in self._dirty
                if key in self._inverted
            },
            frozenset(self._changed),
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
        dirty = self._dirty
        clean: List[Tuple[Key, int]] = []
        overlay: List[Tuple[Key, int]] = []
        for item in query_items:
            (overlay if item[0] in dirty else clean).append(item)
        merged = self._frozen.sweep(clean) if clean else {}
        keys_swept = len(clean)
        postings_touched = self._frozen.last_touched if clean else 0
        if overlay:
            overlay_hits: Dict[int, int] = {}
            overlay_keys, overlay_touched = self._accumulate(
                overlay, None, overlay_hits
            )
            keys_swept += overlay_keys
            postings_touched += overlay_touched
            self._m_overlay_keys.inc(overlay_keys)
            if overlay_hits:
                self._m_overlay_merges.inc()
            for tree_id, shared in overlay_hits.items():
                merged[tree_id] = merged.get(tree_id, 0) + shared
        self._m_frozen_keys.inc(len(clean))
        self._m_keys_swept.inc(keys_swept)
        self._m_postings_touched.inc(postings_touched)
        if admit is None:
            self._m_candidates_emitted.inc(len(merged))
            return merged
        filtered = {
            tree_id: shared
            for tree_id, shared in merged.items()
            if admit(tree_id)
        }
        self._m_candidates_emitted.inc(len(filtered))
        return filtered

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
            self._dirty,
            self._inverted,
            self._changed,
            self._sizes,
            query_items,
            query_size,
            tau,
        )
        self._m_frozen_keys.inc(scan.keys_swept - scan.overlay_keys)
        self._m_overlay_keys.inc(scan.overlay_keys)
        if scan.overlay_postings:
            self._m_overlay_merges.inc()
        self._m_candidates_emitted.inc(scan.scored)
        return scan

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        stats = super().stats()
        stats["backend"] = self.name
        stats["frozen"] = self._frozen is not None
        stats["dirty_keys"] = len(self._dirty)
        return stats

    def check_consistency(self) -> None:
        from repro.compress.frozen import CompressedPostings

        super().check_consistency()
        frozen = self._frozen
        if frozen is None:
            return
        # Every unchanged tree's frozen |I| must be its live one.
        frozen_sizes = dict(zip(frozen.tree_ids, frozen.sizes.tolist()))
        for tree_id in frozen_sizes.keys() | self._sizes.keys():
            if tree_id not in self._changed and frozen_sizes.get(
                tree_id
            ) != self._sizes.get(tree_id):
                raise IndexConsistencyError(
                    f"size of tree {tree_id} drifted from the frozen "
                    "snapshot but the tree was never marked changed"
                )
        # Every clean key's frozen posting list must match the live
        # dicts exactly — i.e. no mutation escaped the dirty set.
        if isinstance(frozen, CompressedPostings):
            frozen_keys = set(frozen.key_list or ())
            for key, stored in frozen.iter_key_postings():
                if key in self._dirty:
                    continue
                if stored != self._inverted.get(key, {}):
                    raise IndexConsistencyError(
                        f"compressed postings of clean key {key} drifted "
                        "from the live inverted lists (a mutation escaped "
                        "the overlay)"
                    )
            for key in self._inverted:
                if key not in frozen_keys and key not in self._dirty:
                    raise IndexConsistencyError(
                        f"key {key} is missing from the compressed snapshot "
                        "but was never marked dirty"
                    )
            return
        for key, (start, end) in frozen.spans.items():
            if key in self._dirty:
                continue
            stored = {
                frozen.tree_ids[slot]: int(count)
                for slot, count in zip(
                    frozen.slots[start:end], frozen.counts[start:end]
                )
            }
            if stored != self._inverted.get(key, {}):
                raise IndexConsistencyError(
                    f"frozen postings of clean key {key} drifted from the "
                    "live inverted lists (a mutation escaped the overlay)"
                )
        for key in self._inverted:
            if key not in frozen.spans and key not in self._dirty:
                raise IndexConsistencyError(
                    f"key {key} is missing from the frozen snapshot but "
                    "was never marked dirty"
                )
