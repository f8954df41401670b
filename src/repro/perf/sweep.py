"""Array-backed inverted postings for the forest lookup sweep.

The reference sweep in :meth:`repro.lookup.forest.ForestIndex.distances`
walks ``pqg → {treeId: cnt}`` dicts and accumulates per-tree bag
overlaps one ``min()`` at a time.  :class:`CompactPostings` freezes the
same postings into one CSR-style pair of arrays — all posting (tree
slot, cnt) entries back to back, plus a ``key → (start, end)`` span
map — so one query key accumulates its whole posting list with two
vector operations over a slice view.  Within one key every tree occurs
at most once, so the fancy-indexed ``acc[slots] += minimum(counts,
qcnt)`` is exact — no ``np.add.at`` needed.

The structure is a snapshot: any forest mutation invalidates it and the
owner rebuilds lazily.  Only built when numpy is importable; callers
fall back to the dict sweep otherwise.

:func:`tau_scan` is the τ-lookup over such a frozen form done in array
space from end to end: sweep, size bound, distance and ``< tau`` are
vector expressions over one slot accumulator, and Python objects exist
only for the matches.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Tuple,
)

from repro.core.distance import (
    distance_from_overlap,
    distances_from_overlaps,
    size_bound_admits,
    size_bounds_admit,
)
from repro.perf.arraybag import HAVE_NUMPY

if HAVE_NUMPY:
    import numpy as _np

Key = Tuple[int, ...]


class CompactPostings:
    """Frozen CSR-style array form of a forest's inverted lists."""

    __slots__ = (
        "tree_ids", "sizes", "slots", "counts", "spans",
        "last_touched", "last_present", "slot_of",
    )

    def __init__(self, tree_ids, sizes, slots, counts, spans) -> None:
        self.tree_ids: List[int] = tree_ids            # slot → tree id
        self.sizes = sizes                             # slot → |I| (int64)
        self.slots = slots                             # packed posting slots
        self.counts = counts                           # packed posting counts
        self.spans: Dict[Key, Tuple[int, int]] = spans  # key → [start, end)
        self.last_touched: int = 0  # posting entries read by the last sweep
        self.last_present: int = 0  # query keys the last sweep found spans for
        self.slot_of = None  # tree id → slot, built by the first overlay fold

    @classmethod
    def build(
        cls,
        inverted: Dict[Key, Dict[int, int]],
        sizes: Dict[int, int],
    ) -> "CompactPostings":
        """Snapshot ``pqg → {treeId: cnt}`` postings into arrays."""
        if not HAVE_NUMPY:  # pragma: no cover - guarded by callers
            raise RuntimeError("CompactPostings requires numpy")
        tree_ids = list(sizes)
        slot_of = {tree_id: slot for slot, tree_id in enumerate(tree_ids)}
        size_array = _np.fromiter(
            (sizes[tree_id] for tree_id in tree_ids),
            dtype=_np.int64,
            count=len(tree_ids),
        )
        total = sum(len(entry) for entry in inverted.values())
        slots = _np.fromiter(
            (
                slot_of[tree_id]
                for entry in inverted.values()
                for tree_id in entry
            ),
            dtype=_np.intp,
            count=total,
        )
        counts = _np.fromiter(
            (count for entry in inverted.values() for count in entry.values()),
            dtype=_np.int64,
            count=total,
        )
        spans: Dict[Key, Tuple[int, int]] = {}
        position = 0
        for key, entry in inverted.items():
            spans[key] = (position, position + len(entry))
            position += len(entry)
        return cls(tree_ids, size_array, slots, counts, spans)

    def sweep_into(
        self, query_items: Iterable[Tuple[Key, int]], acc
    ) -> int:
        """Accumulate the sweep into a caller-provided slot accumulator.

        ``acc`` must be an int64 array of ``len(self.tree_ids)`` zeros
        (or a partial accumulation over the *same* slot ordering — the
        sharded fast path shares one accumulator across shards whose
        tree-id lists are identical).  Returns the number of posting
        entries touched; within one key every tree occurs at most once,
        so the fancy-indexed add stays exact across chained calls.
        """
        spans = self.spans
        slots, counts = self.slots, self.counts
        touched = 0
        present = 0
        for key, query_count in query_items:
            span = spans.get(key)
            if span is None:
                continue
            start, end = span
            present += 1
            touched += end - start
            acc[slots[start:end]] += _np.minimum(counts[start:end], query_count)
        self.last_touched = touched
        self.last_present = present
        return touched

    def sweep(self, query_items: Iterable[Tuple[Key, int]]) -> Dict[int, int]:
        """Bag overlap of the query with every co-occurring tree.

        Returns ``{tree_id: |I_query ∩ I_tree|}`` containing exactly
        the trees sharing at least one pq-gram with the query — the
        same contents the reference dict sweep accumulates.
        """
        acc = _np.zeros(len(self.tree_ids), dtype=_np.int64)
        self.sweep_into(query_items, acc)
        tree_ids = self.tree_ids
        return {
            tree_ids[slot]: int(acc[slot]) for slot in _np.nonzero(acc)[0]
        }


def sweep_dict(
    inverted: Mapping[Key, Mapping[int, int]],
    query_items: Iterable[Tuple[Key, int]],
    intersections: Dict[int, int],
) -> int:
    """Fold the plain-dict candidate sweep into ``intersections``;
    the number of posting entries touched."""
    touched = 0
    for key, query_count in query_items:
        postings = inverted.get(key)
        if not postings:
            continue
        touched += len(postings)
        for tree_id, count in postings.items():
            intersections[tree_id] = intersections.get(tree_id, 0) + min(
                query_count, count
            )
    return touched


class TauScan(NamedTuple):
    """One τ-lookup answered by :func:`tau_scan`."""

    matches: Dict[int, float]  # tree id → distance, ``distance < tau`` only
    candidates: int            # co-occurring trees (= pruned + scored)
    pruned: int                # of those, rejected by the size bound
    scored: int                # of those, whose distance was computed
    keys_swept: int            # query keys processed
    overlay_keys: int          # of those, answered from the overlay
    postings_touched: int      # posting entries read, frozen and overlay
    overlay_postings: int      # of those, read from the overlay


def _slot_map(frozen) -> Dict[int, int]:
    """``tree id → slot`` of a frozen form, built on first use;
    concurrent first uses build equal dicts, so the unguarded
    assignment is benign."""
    slot_of = frozen.slot_of
    if slot_of is None:
        slot_of = frozen.slot_of = {
            tree_id: slot for slot, tree_id in enumerate(frozen.tree_ids)
        }
    return slot_of


def tau_scan(
    frozen,
    dirty: AbstractSet[Key],
    overlay: Mapping[Key, Mapping[int, int]],
    changed: AbstractSet[int],
    sizes: Mapping[int, int],
    query_items: Iterable[Tuple[Key, int]],
    query_size: int,
    tau: float,
) -> TauScan:
    """All trees with ``distance < tau``, scored in array space.

    ``frozen`` is a :class:`CompactPostings` or a
    :class:`~repro.compress.frozen.CompressedPostings` (only
    ``sweep_into`` / ``tree_ids`` / ``sizes`` and the ``slot_of`` cache
    are used); ``dirty`` the keys changed since it was built,
    ``overlay`` their current postings, ``changed`` the trees mutated
    since then and ``sizes`` the current ``{tree: |I|}``.

    Clean keys are swept into one int64 slot accumulator; the dirty
    keys' overlay postings are folded into the same accumulator, trees
    born after the freeze (no slot) into a side dict.  The size bound,
    the distance and the threshold then run as the vector twins of
    :mod:`repro.core.distance` over the non-zero slots, so the result
    and the ``candidates = pruned + scored`` ledger equal what the
    ``candidates(admit=)`` path computes one tree at a time, bit for
    bit.  Needs ``query_size > 0`` and ``tau > 0`` (the executor
    answers the degenerate cases before any sweep).
    """
    clean: List[Tuple[Key, int]] = []
    overlaid: List[Tuple[Key, int]] = []
    for item in query_items:
        (overlaid if item[0] in dirty else clean).append(item)
    acc = _np.zeros(len(frozen.tree_ids), dtype=_np.int64)
    touched = frozen.sweep_into(clean, acc) if clean else 0
    # Only a lookup that meets the overlay pays for the slot map.
    slot_of = _slot_map(frozen) if overlaid or changed else {}
    # The overlay is dicts: fold it per tree first, so the accumulator
    # takes one vector add over distinct slots, not one per posting.
    folded: Dict[int, int] = {}
    overlay_postings = sweep_dict(overlay, overlaid, folded)
    born: Dict[int, int] = {}
    if folded:
        overlay_slots: List[int] = []
        overlay_shared: List[int] = []
        for tree_id, shared in folded.items():
            slot = slot_of.get(tree_id)
            if slot is None:
                born[tree_id] = shared
            else:
                overlay_slots.append(slot)
                overlay_shared.append(shared)
        acc[overlay_slots] += _np.array(overlay_shared, dtype=_np.int64)
    tree_sizes = frozen.sizes
    if changed:
        # The frozen size array is shared and immutable: patch a copy.
        tree_sizes = tree_sizes.copy()
        for tree_id in changed:
            slot = slot_of.get(tree_id)
            if slot is not None and tree_id in sizes:
                tree_sizes[slot] = sizes[tree_id]
    slots = _np.nonzero(acc)[0]
    candidate_sizes = tree_sizes[slots]
    admitted = size_bounds_admit(query_size, candidate_sizes, tau)
    slots = slots[admitted]
    distances = distances_from_overlaps(
        acc[slots], query_size + candidate_sizes[admitted]
    )
    hits = distances < tau
    tree_ids = frozen.tree_ids
    matches = {
        tree_ids[slot]: distance
        for slot, distance in zip(slots[hits].tolist(), distances[hits].tolist())
    }
    candidates = len(candidate_sizes) + len(born)
    scored = len(slots)
    for tree_id, shared in born.items():
        size = sizes[tree_id]
        if size_bound_admits(query_size, size, tau):
            scored += 1
            distance = distance_from_overlap(shared, query_size + size)
            if distance < tau:
                matches[tree_id] = distance
    return TauScan(
        matches,
        candidates,
        candidates - scored,
        scored,
        len(clean) + len(overlaid),
        len(overlaid),
        touched + overlay_postings,
        overlay_postings,
    )
