"""The forest index relation: per-tree bags, a frozen CSR base, one overlay.

The paper's Fig. 4b relation ``(treeId, pqg, cnt)`` is stored once, in
one :class:`CompactBackend`, and written through exactly three methods:

- :meth:`CompactBackend.add_tree_bag` — index a new tree's bag,
- :meth:`CompactBackend.apply_tree_delta` — fold an incremental
  maintenance delta ``I ← I ∖ minus ⊎ plus`` into one tree,
- :meth:`CompactBackend.remove_tree` — drop a tree.

The authoritative form is the per-tree bags ``tree → {key: cnt}`` and
sizes; every key-major form is derived from them.  Reads sweep a
frozen :class:`~repro.perf.sweep.CompactPostings` CSR base plus one
overlay ``key → {tree: cnt}`` holding the postings of every tree the
base does not describe: all trees until the first freeze (and always
without numpy), after it only the trees born or written since — the
delta-file/compaction split of log-structured index designs.  A tree
written after the freeze is *masked* (:class:`~repro.perf.sweep.TreeMask`):
every read ignores its postings in the frozen arrays and takes its
current bag from the overlay, so a lookup folds in Python the postings
of the trees that changed, not the whole posting list of every key
they hold.  The first read that asks for it freezes the overlay into
the base; :meth:`compact` re-freezes from the bags only when the
overlay has grown past a threshold, amortizing snapshot construction
over many maintenance batches.  Reads go through the two functions of
:mod:`repro.perf.sweep` that combine a base with an overlay:
``overlay_candidates`` and, for τ-lookups, ``tau_scan``.

Reads only sweep: :meth:`CompactBackend.candidates` returns the
overlap of every co-occurring tree, and the executor
(:mod:`repro.query.executor`) prunes and scores; ``tau_scan`` is the
one read that does both, in array space, and needs a base.  Results
are bit-identical with or without one
(``tests/test_backend_conformance.py``).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Tuple,
)

from repro.errors import IndexConsistencyError, StorageError
from repro.obsv.metrics import NULL_REGISTRY, MetricsRegistry
from repro.perf.sweep import (
    HAVE_NUMPY,
    CompactPostings,
    TauScan,
    TreeMask,
    overlay_candidates,
    tau_scan,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.concurrency.snapshot import SnapshotHandle

Key = Tuple[int, ...]
Bag = Dict[Key, int]


class CompactBackend:
    """Per-tree bags + frozen CSR base with a masked-tree overlay."""

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
        self._bags: Dict[int, Bag] = {}
        self._sizes: Dict[int, int] = {}
        self._frozen: Optional[CompactPostings] = None
        # The trees written since the freeze, and the current postings
        # of every tree the base does not describe (all of them while
        # nothing is frozen).  Once something is frozen, an overlay key
        # whose postings emptied keeps its (empty) entry, so
        # ``len(self._overlay)`` is every key written since the freeze —
        # what the refreeze policy and ``dirty_keys`` count.
        self._masked = TreeMask()
        self._overlay: Dict[Key, Dict[int, int]] = {}
        self._mutations = 0
        self._mutations_at_freeze = 0
        self.bind_metrics(NULL_REGISTRY)

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Attach a metrics recorder and pre-resolve the instruments.

        Called once per backend lifetime (the forest facade binds at
        construction); every hot-path event afterwards is a plain
        method call on an already-resolved instrument.  Binding the
        null registry (the default) swaps in shared no-op instruments.
        """
        self._m_keys_swept = registry.counter(
            "index_keys_swept_total",
            "query pq-gram keys processed by the candidate sweep",
        )
        self._m_postings_touched = registry.counter(
            "index_postings_touched_total",
            "inverted-list (tree, cnt) entries consulted by sweeps",
        )
        self._m_candidates_emitted = registry.counter(
            "index_candidates_emitted_total",
            "co-occurring trees found by sweeps",
        )
        self._m_deltas = registry.counter(
            "index_deltas_applied_total",
            "apply_tree_delta calls folded into the relation",
        )
        self._m_delta_keys = registry.counter(
            "index_delta_keys_total",
            "distinct keys re-inverted by apply_tree_delta calls",
        )
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
    # write path
    # ------------------------------------------------------------------

    def add_tree_bag(self, tree_id: int, bag: Bag) -> None:
        """Index a new tree given its pq-gram bag, which the relation
        keeps: the caller hands the dict over and must not touch it
        again.

        Raises :class:`~repro.errors.StorageError` if ``tree_id`` is
        already indexed.  An empty bag is legal (the tree is registered
        with size 0 and no postings).
        """
        if tree_id in self._bags:
            raise StorageError(f"tree id {tree_id} is already indexed")
        self._bags[tree_id] = bag
        self._sizes[tree_id] = sum(bag.values())
        if self._frozen is not None and tree_id not in self._masked.trees:
            # Born since the freeze: the frozen arrays hold none of it.
            self._masked.add(tree_id, ())
        overlay = self._overlay
        for key, count in bag.items():
            overlay.setdefault(key, {})[tree_id] = count
        self._mutations += 1

    def apply_tree_delta(
        self, tree_id: int, minus: Mapping[Key, int], plus: Mapping[Key, int]
    ) -> None:
        """``I ← I ∖ minus ⊎ plus`` for one indexed tree (Lemma 2).

        ``minus`` / ``plus`` are the net delta bags of one maintenance
        call (disjoint key sets, as produced by
        :func:`~repro.core.batch.update_index_batch_delta`); only the
        O(|Δ|) touched keys of the overlay are rewritten.  Raises
        :class:`~repro.errors.StorageError` for an unknown tree and
        :class:`~repro.errors.IndexConsistencyError` if a subtraction
        would drive a multiplicity below zero — checked for all of
        ``minus`` before the first write, so a refused delta leaves the
        relation as it was.
        """
        bag = self._bags.get(tree_id)
        if bag is None:
            raise StorageError(f"tree id {tree_id} is not indexed")
        for key, count in minus.items():
            current = bag.get(key, 0)
            if count > current:
                raise IndexConsistencyError(
                    f"removing {count} occurrences of {key} from tree "
                    f"{tree_id} but index holds only {current}"
                )
        self._mask(tree_id)
        size = self._sizes[tree_id]
        for key, count in minus.items():
            if not count:
                continue
            current = bag[key]
            if count == current:
                del bag[key]
            else:
                bag[key] = current - count
            size -= count
        for key, count in plus.items():
            if count:
                bag[key] = bag.get(key, 0) + count
                size += count
        self._sizes[tree_id] = size
        touched = minus.keys() | plus.keys()
        self._m_deltas.inc()
        self._m_delta_keys.inc(len(touched))
        self._mutations += 1
        self._fold(tree_id, touched)

    def remove_tree(self, tree_id: int) -> None:
        """Drop one tree and all its postings (no-op if unknown)."""
        if tree_id not in self._bags:
            return
        self._mask(tree_id)
        bag = self._bags.pop(tree_id)
        del self._sizes[tree_id]
        self._mutations += 1
        self._fold(tree_id, bag)

    def _mask(self, tree_id: int) -> None:
        """Before the first write to an indexed tree since the freeze:
        mask it from the bag the frozen arrays still describe, and copy
        that bag into the overlay."""
        if self._frozen is not None and tree_id not in self._masked.trees:
            bag = self._bags[tree_id]
            self._masked.add(tree_id, bag)
            self._fold(tree_id, bag)

    def _fold(self, tree_id: int, keys: Iterable[Key]) -> None:
        """Re-read ``keys`` of one tree the base does not describe from
        its live bag.  While nothing is frozen a key whose postings
        empty is dropped, so a store that never reads keeps no dead
        keys."""
        bag = self._bags.get(tree_id) or {}
        overlay = self._overlay
        keep_empty = self._frozen is not None
        for key in keys:
            postings = overlay.setdefault(key, {})
            count = bag.get(key)
            if count:
                postings[tree_id] = count
            else:
                postings.pop(tree_id, None)
                if not (postings or keep_empty):
                    del overlay[key]

    # ------------------------------------------------------------------
    # compaction policy
    # ------------------------------------------------------------------

    def _stale(self) -> bool:
        if self._frozen is None:
            return True
        threshold = max(
            self.REFREEZE_MIN_DIRTY,
            int(self.REFREEZE_FRACTION * max(1, len(self._frozen.spans))),
        )
        return len(self._overlay) > threshold

    def compact(self) -> None:
        """Freeze (or re-freeze, past the overlay threshold) the CSR
        base.  A no-op without numpy.

        The first freeze builds the base from the overlay, which then
        holds every posting; a refreeze inverts the bags.  Either way
        the build constructs a *new* CSR and swaps the reference in one
        assignment — snapshot handles pinning the previous CSR keep it
        alive and stay bit-identical (they carry their own copies of the
        mask and the overlay of their generation).  Results are
        identical with or without compaction — only the sweep cost
        changes.
        """
        if not HAVE_NUMPY:
            return
        if self._stale():
            with self._m_refreeze_seconds.time():
                frozen = CompactPostings.build(
                    self._overlay if self._frozen is None else self.inverted_lists(),
                    self._sizes,
                )
            self._frozen = frozen
            self._masked = TreeMask()
            self._overlay = {}
            self._mutations_at_freeze = self._mutations
            self._m_refreezes.inc()

    def needs_compaction(self) -> bool:
        """Whether a background :meth:`compact` is due — polled by the
        refreeze worker after every committed mutation.

        Nothing frozen means no read has asked for the CSR yet: the
        first one freezes it (freeze_view, or the lookup service's
        compact()), so a store that only ingests builds none.
        """
        return (
            self._frozen is not None
            and self._stale()
            and self._mutations - self._mutations_at_freeze
            >= self.REFREEZE_MIN_MUTATION_GAP
        )

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

        O(overlay + trees): the frozen CSR is shared (it never mutates
        after build), only the mask, the overlay and the size metadata
        are copied.  The first view freezes the CSR it then shares —
        one build, paid by the read that needs it; later re-freezes are
        the refreeze worker's.  Only without numpy is there nothing to
        freeze, and the view copies an overlay that holds every posting.
        """
        from repro.concurrency.snapshot import SnapshotHandle

        if self._frozen is None:
            self.compact()
        return SnapshotHandle(
            self._frozen,
            self._masked.copy(),
            {key: dict(postings) for key, postings in self._overlay.items()},
            dict(self._sizes),
        )

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def candidates(self, query_items: Iterable[Tuple[Key, int]]) -> Dict[int, int]:
        """``{tree_id: |I_query ∩ I_tree|}`` for all co-occurring trees.

        The inverted-list sweep behind every lookup: one pass over the
        query's distinct ``(key, count)`` pairs accumulates the bag
        intersection with every tree sharing at least one pq-gram.
        Nothing is pruned here — the executor applies the size bound.
        """
        items = query_items if isinstance(query_items, list) else list(query_items)
        intersections, frozen_keys, postings_touched, overlay_keys = overlay_candidates(
            self._frozen, self._masked, self._overlay, items
        )
        self._count_overlay(frozen_keys, overlay_keys)
        self._m_keys_swept.inc(len(items))
        self._m_postings_touched.inc(postings_touched)
        self._m_candidates_emitted.inc(len(intersections))
        return intersections

    def tau_scan(
        self,
        query_items: Iterable[Tuple[Key, int]],
        query_size: int,
        tau: float,
    ) -> Optional[TauScan]:
        """All trees with ``distance < tau``, scored in array space
        (:func:`repro.perf.sweep.tau_scan`), or None while nothing is
        frozen — the executor then scores :meth:`candidates` itself,
        the reference both must agree with bit for bit.  Needs
        ``query_size > 0`` and ``0 < tau ≤ 1``."""
        scan = tau_scan(
            self._frozen,
            self._masked,
            self._overlay,
            self._sizes,
            query_items,
            query_size,
            tau,
        )
        if scan is not None:
            self._count_overlay(scan.keys_swept, scan.overlay_keys)
            self._m_candidates_emitted.inc(scan.candidates)
        return scan

    def _count_overlay(self, keys_swept: int, overlay_keys: int) -> None:
        self._m_frozen_keys.inc(keys_swept)
        if overlay_keys:
            self._m_overlay_keys.inc(overlay_keys)
            self._m_overlay_merges.inc()

    def tree_bag(self, tree_id: int) -> Mapping[Key, int]:
        """The stored bag of one tree — internal state, which callers
        must not mutate.  Raises :class:`~repro.errors.StorageError`
        for an unknown tree."""
        try:
            return self._bags[tree_id]
        except KeyError:
            raise StorageError(f"tree id {tree_id} is not indexed") from None

    def tree_size(self, tree_id: int) -> int:
        """|I| of one tree (bag cardinality).  Raises
        :class:`~repro.errors.StorageError` for an unknown tree."""
        try:
            return self._sizes[tree_id]
        except KeyError:
            raise StorageError(f"tree id {tree_id} is not indexed") from None

    def iter_sizes(self) -> Iterable[Tuple[int, int]]:
        """All ``(tree_id, |I|)`` pairs."""
        return self._sizes.items()

    def tree_ids(self) -> Iterator[int]:
        """All indexed tree ids."""
        return iter(list(self._sizes))

    def inverted_lists(self) -> Dict[Key, Dict[int, int]]:
        """The inverted lists ``key → {tree_id: cnt}``, derived from the
        bags — O(total postings); refreezes, audits and tests."""
        inverted: Dict[Key, Dict[int, int]] = {}
        for tree_id, bag in self._bags.items():
            for key, count in bag.items():
                inverted.setdefault(key, {})[tree_id] = count
        return inverted

    def __len__(self) -> int:
        return len(self._bags)

    def __contains__(self, tree_id: int) -> bool:
        return tree_id in self._bags

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Operational counters: trees, postings, distinct keys (both
        derived from the bags), whether the CSR is frozen, and the
        overlay's distinct keys since the freeze (0 before it)."""
        return {
            "trees": len(self._bags),
            "postings": sum(len(bag) for bag in self._bags.values()),
            "distinct_keys": len(set().union(*self._bags.values())),
            "frozen": self._frozen is not None,
            "dirty_keys": len(self._overlay) if self._frozen is not None else 0,
        }

    def check_consistency(self) -> None:
        """Verify every internal invariant, raising
        :class:`~repro.errors.IndexConsistencyError` on drift.

        Re-derives the inverted lists and the sizes from the
        authoritative per-tree bags and compares them with the frozen
        base, the mask and the overlay — O(total postings), meant for
        tests and audits, not hot paths.
        """
        sizes = {
            tree_id: sum(bag.values()) for tree_id, bag in self._bags.items()
        }
        if sizes != self._sizes:
            raise IndexConsistencyError(
                "size metadata drifted from the per-tree bags"
            )
        inverted = self.inverted_lists()
        frozen, masked = self._frozen, self._masked.trees
        # The overlay is exactly the live bags of the trees the base
        # does not describe: every tree while nothing is frozen.
        overlaid = {
            key: kept
            for key, entry in inverted.items()
            if (kept := {t: c for t, c in entry.items() if frozen is None or t in masked})
        }
        if overlaid != {key: e for key, e in self._overlay.items() if e}:
            raise IndexConsistencyError(
                "overlay drifted from the live bags of the trees the base "
                "does not describe"
            )
        if frozen is None:
            return

        def unmasked(pairs):
            return {tree: value for tree, value in pairs if tree not in masked}

        def unmasked_lists(inverted):
            kept = {key: unmasked(entry.items()) for key, entry in inverted.items()}
            return {key: entry for key, entry in kept.items() if entry}

        # What the frozen form says of the unmasked trees must be what
        # the bags say: no write escaped the mask.
        stored = dict(frozen.iter_key_postings())
        if unmasked(zip(frozen.tree_ids, frozen.sizes.tolist())) != unmasked(
            self._sizes.items()
        ) or unmasked_lists(stored) != unmasked_lists(inverted):
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
