"""Array-backed inverted postings for the forest lookup sweep.

The dict sweep (:func:`sweep_dict`) walks a relation's overlay
``pqg → {treeId: cnt}`` and accumulates per-tree bag overlaps one
``min()`` at a time; before the first freeze, and always without
numpy, the overlay holds every posting and that sweep is the whole
read.  :class:`CompactPostings` freezes the same postings into one
CSR-style pair of arrays — all posting (tree slot, cnt) entries back
to back, plus a ``key → (start, end)`` span map — so a whole query
accumulates the posting lists of all its keys with one gather, one
``minimum`` and one ``bincount`` (:func:`accumulate_spans`).

The structure is a snapshot, never mutated after build: later writes
*mask* the trees they change (:class:`TreeMask`) and keep their current
bags in the overlay until the owner folds both into a new snapshot.
Only built when numpy is importable.

Exactly two functions, both here, combine a base (or none) with its
mask and overlay, for the live relation and every read view:
:func:`overlay_candidates`, the plain sweep behind ``candidates()``,
and :func:`tau_scan`, the τ-lookup in array space from end to end
(sweep, size bound, distance and ``< tau`` are vector expressions over
one slot accumulator; Python objects exist only for the matches),
which declines without a base.  The executor's scorer over
``overlay_candidates`` is the reference ``tau_scan`` is tested against.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.core.distance import (
    distance_from_overlap,
    distances_from_overlaps,
    size_bound_admits,
    size_bounds_admit,
)

try:  # optional: without numpy, nothing is frozen and the overlay is swept
    import numpy as _np
except ImportError:  # pragma: no cover - environment without numpy
    _np = None

HAVE_NUMPY = _np is not None

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
        (or a partial accumulation over the *same* slot ordering).
        Returns the number of posting entries touched.
        """
        spans = self.spans
        starts: List[int] = []
        lengths: List[int] = []
        wanted: List[int] = []
        for key, query_count in query_items:
            span = spans.get(key)
            if span is not None:
                starts.append(span[0])
                lengths.append(span[1] - span[0])
                wanted.append(query_count)
        touched = 0
        if starts:
            touched = accumulate_spans(
                self.slots,
                self.counts,
                _np.array(starts),
                _np.array(lengths),
                _np.array(wanted),
                acc,
            )
        self.last_touched = touched
        self.last_present = len(starts)
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

    def iter_key_postings(self) -> Iterator[Tuple[Key, Dict[int, int]]]:
        """``(key, {treeId: cnt})`` per span (consistency checks)."""
        tree_ids = self.tree_ids
        for key, (start, end) in self.spans.items():
            slots = self.slots[start:end].tolist()
            counts = self.counts[start:end].tolist()
            yield key, {tree_ids[s]: count for s, count in zip(slots, counts)}


def accumulate_spans(slots, counts, starts, lengths, wanted, acc) -> int:
    """``acc[slot] += min(count, wanted)`` over every posting of the CSR
    spans ``[starts, starts + lengths)`` of ``slots`` / ``counts`` (integer
    arrays, one entry per span); returns the number of postings read.

    All spans are gathered through one index, so ``minimum`` and the
    accumulation run once per sweep, not once per query key.  Within a
    span every slot occurs once, across spans it repeats — hence
    ``bincount``; its float weights are exact, overlaps being far below
    2**53.
    """
    total = int(lengths.sum())
    # posting i of the gather sits at i + (where its span starts in
    # the CSR − where its span starts in the gather)
    gather = _np.arange(total) + _np.repeat(
        starts - (_np.cumsum(lengths) - lengths), lengths
    )
    overlaps = _np.minimum(counts[gather], _np.repeat(wanted, lengths))
    acc += _np.bincount(
        slots[gather], weights=overlaps, minlength=len(acc)
    ).astype(acc.dtype)
    return total


def sweep_dict(
    inverted: Mapping[Key, Mapping[int, int]],
    query_items: Iterable[Tuple[Key, int]],
    intersections: Dict[int, int],
) -> Tuple[int, int]:
    """Fold the plain-dict candidate sweep into ``intersections``;
    ``(query keys that met a posting, posting entries touched)``."""
    met = 0
    touched = 0
    for key, query_count in query_items:
        postings = inverted.get(key)
        if not postings:
            continue
        met += 1
        touched += len(postings)
        for tree_id, count in postings.items():
            intersections[tree_id] = intersections.get(tree_id, 0) + min(
                query_count, count
            )
    return met, touched


class TreeMask:
    """The trees written since a base was frozen.

    Every read ignores a masked tree's postings in the base and takes
    its current bag from the overlay the owner keeps beside the mask
    (``key → {tree: cnt}``, masked trees only).  ``counts`` is, per
    key, how many of the base's postings belong to masked trees: a
    sweep reads them in vain, and subtracting them keeps "postings
    touched" equal to what the dict reference reads.  A tree is masked
    from the bag the base still describes — before its first write
    after the freeze, O(|bag|) once; a refreeze starts a new mask.
    """

    __slots__ = ("trees", "counts")

    def __init__(
        self,
        trees: Iterable[int] = (),
        counts: Optional[Mapping[Key, int]] = None,
    ) -> None:
        self.trees: Set[int] = set(trees)
        self.counts: Dict[Key, int] = dict(counts or ())

    def add(self, tree_id: int, base_keys: Iterable[Key]) -> None:
        """Mask one tree; ``base_keys`` are the keys of its bag in the
        base (none for a tree born after the freeze)."""
        self.trees.add(tree_id)
        counts = self.counts
        for key in base_keys:
            counts[key] = counts.get(key, 0) + 1

    def copy(self) -> "TreeMask":
        return TreeMask(self.trees, self.counts)


def overlay_candidates(
    frozen,
    masked: TreeMask,
    overlay: Mapping[Key, Mapping[int, int]],
    query_items: Iterable[Tuple[Key, int]],
) -> Tuple[Dict[int, int], int, int, int]:
    """The candidate sweep over a frozen base and its overlay: the
    overlap of every co-occurring tree.

    Sweeps every query key through ``frozen`` (anything with ``sweep``
    and ``last_touched``), drops the masked trees and folds the overlay
    in (trees the base does not describe only, so a plain addition):
    ``(overlaps, keys swept through the base, postings touched, keys
    that met the overlay beside the base)``.  With no base
    (``frozen`` None) the overlay holds every posting and is the whole
    sweep; both key tallies then read 0.
    """
    items = query_items if isinstance(query_items, list) else list(query_items)
    if frozen is None:
        merged: Dict[int, int] = {}
        return merged, 0, sweep_dict(overlay, items, merged)[1], 0
    merged = frozen.sweep(items)
    touched = frozen.last_touched
    overlay_keys = 0
    if masked.trees:
        for tree_id in masked.trees:
            merged.pop(tree_id, None)
        counts = masked.counts
        touched -= sum(counts.get(key, 0) for key, _ in items)
        overlay_keys, overlay_touched = sweep_dict(overlay, items, merged)
        touched += overlay_touched
    return merged, len(items), touched, overlay_keys


class TauScan(NamedTuple):
    """One τ-lookup answered by :func:`tau_scan`."""

    matches: Dict[int, float]  # tree id → distance, ``distance < tau`` only
    candidates: int            # co-occurring trees (= pruned + scored)
    pruned: int                # of those, rejected by the size bound
    scored: int                # of those, whose distance was computed
    keys_swept: int            # query keys processed
    overlay_keys: int          # of those, that met the overlay
    postings_touched: int      # live posting entries read, base and overlay


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
    masked: TreeMask,
    overlay: Mapping[Key, Mapping[int, int]],
    sizes: Mapping[int, int],
    query_items: Iterable[Tuple[Key, int]],
    query_size: int,
    tau: float,
) -> Optional[TauScan]:
    """All trees with ``distance < tau``, scored in array space, or
    None when there is no base to score in (``frozen`` None) — the
    caller then scores :func:`overlay_candidates` itself.

    ``frozen`` is a :class:`CompactPostings` (only ``sweep_into`` /
    ``tree_ids`` / ``sizes`` and the ``slot_of`` cache are used);
    ``masked`` the trees written since it was built,
    ``overlay`` their current postings and ``sizes`` the current
    ``{tree: |I|}``.

    Every query key is swept into one int64 slot accumulator, the
    masked slots are zeroed with one assignment and take the overlay's
    fold instead (with their current ``|I|``); trees born after the
    freeze have no slot and go to a side dict.  The size bound, the
    distance and the threshold then run as the vector twins of
    :mod:`repro.core.distance` over the non-zero slots, so the result
    and the ``candidates = pruned + scored`` ledger equal what the
    executor's scorer (``repro.query.executor._score``) computes one
    tree at a time over :func:`overlay_candidates`, bit for bit.  Needs
    ``query_size > 0`` and ``0 < tau ≤ 1`` (the executor scores every
    other case itself).
    """
    if frozen is None:
        return None
    items = query_items if isinstance(query_items, list) else list(query_items)
    acc = _np.zeros(len(frozen.tree_ids), dtype=_np.int64)
    touched = frozen.sweep_into(items, acc)
    tree_sizes = frozen.sizes
    born: Dict[int, int] = {}
    overlay_keys = 0
    if masked.trees:
        slot_of = _slot_map(frozen)
        acc[[slot_of[t] for t in masked.trees if t in slot_of]] = 0
        counts = masked.counts
        touched -= sum(counts.get(key, 0) for key, _ in items)
        # The overlay is dicts: fold it per tree first, so the
        # accumulator takes one vector assignment over distinct slots.
        folded: Dict[int, int] = {}
        overlay_keys, overlay_touched = sweep_dict(overlay, items, folded)
        touched += overlay_touched
        slots: List[int] = []
        shared: List[int] = []
        current: List[int] = []
        for tree_id, overlap in folded.items():
            slot = slot_of.get(tree_id)
            if slot is None:
                born[tree_id] = overlap
            else:
                slots.append(slot)
                shared.append(overlap)
                current.append(sizes[tree_id])
        if slots:
            acc[slots] = shared
            # The frozen size array is shared and immutable: patch a copy.
            tree_sizes = tree_sizes.copy()
            tree_sizes[slots] = current
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
    for tree_id, overlap in born.items():
        size = sizes[tree_id]
        if size_bound_admits(query_size, size, tau):
            scored += 1
            distance = distance_from_overlap(overlap, query_size + size)
            if distance < tau:
                matches[tree_id] = distance
    return TauScan(
        matches,
        candidates,
        candidates - scored,
        scored,
        len(items),
        overlay_keys,
        touched,
    )
