"""Succinct frozen postings: fingerprint-probed, delta-varint CSR.

:class:`~repro.perf.sweep.CompactPostings` freezes the inverted lists
into CSR arrays but keeps a ``key tuple → (start, end)`` span dict —
at DBLP scale that dict (tuple keys, boxed span pairs) dwarfs the
arrays it indexes.  :class:`CompressedPostings` is the succinct form:

* the span dict becomes one **sorted uint64 array of key fingerprints**
  probed with ``searchsorted`` plus one CSR offset array — ~12 bytes
  per distinct key instead of a few hundred;
* posting slot lists are **per-span delta encoded** (absolute first
  element, then sorted gaps) and both slots and counts are block-packed
  to 1/2/4/8-byte words by :class:`~tests.support.packed.varint.PackedIntArray`
  — a span decodes with one ``frombuffer`` + ``cumsum`` per block run,
  so the sweep stays vectorized.

Equal-fingerprint keys are *not* folded at build time: every distinct
key keeps its own span, duplicates sit adjacent in fingerprint order,
and the sweep accumulates across the whole equal-fingerprint run.  A
query key therefore touches exactly its own postings unless a true
61-bit Karp–Rabin collision occurs — the same "unique with high
probability" contract the persistent relation relies on — and the
lookup result is bit-identical to the dict sweep whenever fingerprints
are (astronomically probably) collision-free.

A small FIFO cache keeps recently decoded spans hot, so repeated
lookups over a working set pay the varint decode once.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.hashing.fingerprint import batch_fingerprints
from tests.support.packed.intern import InternPool, default_pool
from tests.support.packed.varint import PackedIntArray, delta_encode_span
from repro.perf import HAVE_NUMPY
from repro.perf.sweep import CompactPostings, accumulate_spans

if HAVE_NUMPY:
    import numpy as _np

Key = Tuple[int, ...]

#: decoded spans kept hot; FIFO eviction past this many entries
SPAN_CACHE_LIMIT = 1 << 16


def _delta_spans(values, offsets):
    """Per-span delta transform, vectorized over the whole CSR: each
    span's first element stays absolute, the rest become gaps from the
    previous element (signed — the zigzag codec absorbs either sign, so
    spans need not be pre-sorted)."""
    deltas = values.copy()
    if len(values):
        deltas[1:] -= values[:-1]
        starts = offsets[:-1]
        starts = starts[starts < len(values)]
        deltas[starts] = values[starts]
    return deltas


class CompressedPostings:
    """Frozen delta-varint CSR postings, probed by key fingerprint.

    Drop-in for :class:`~repro.perf.sweep.CompactPostings` on the sweep
    surface (``tree_ids`` / ``sizes`` / ``sweep`` / ``sweep_into`` /
    ``last_touched`` / ``last_present`` / ``slot_of``); the span dict
    and raw arrays are replaced by the succinct fields documented in
    ``__init__``.
    """

    __slots__ = (
        "tree_ids", "sizes", "key_fps", "offsets",
        "packed_slots", "packed_counts", "key_list",
        "last_touched", "last_present", "slot_of",
        "_pool", "_cache", "_dense",
    )

    def __init__(
        self,
        tree_ids: List[int],
        sizes,
        key_fps,
        offsets,
        packed_slots: PackedIntArray,
        packed_counts: PackedIntArray,
        key_list: Optional[List[Key]] = None,
        pool: Optional[InternPool] = None,
    ) -> None:
        self.tree_ids = tree_ids          # slot → tree id
        self.sizes = sizes                # slot → |I| (int64)
        self.key_fps = key_fps            # sorted uint64, one per span
        self.offsets = offsets            # int64 CSR, len == n_spans + 1
        self.packed_slots = packed_slots   # per-span delta-encoded slots
        self.packed_counts = packed_counts
        # Span-order key tuples — present when built from in-memory
        # inverted lists (exact consistency checks, to_compact), absent
        # when reconstructed from a memory-mapped segment.
        self.key_list = key_list
        self.last_touched: int = 0
        self.last_present: int = 0
        self.slot_of = None  # tree id → slot, cached by perf.sweep.tau_scan
        self._pool = pool or default_pool()
        self._cache: Dict[int, Tuple[object, object]] = {}
        self._dense: Optional[Tuple[object, object]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        inverted: Dict[Key, Dict[int, int]],
        sizes: Dict[int, int],
        pool: Optional[InternPool] = None,
    ) -> "CompressedPostings":
        """Freeze ``pqg → {treeId: cnt}`` postings into succinct form."""
        if not HAVE_NUMPY:  # pragma: no cover - guarded by callers
            raise RuntimeError("CompressedPostings requires numpy")
        pool = pool or default_pool()
        tree_ids = list(sizes)
        slot_of = {tree_id: slot for slot, tree_id in enumerate(tree_ids)}
        size_array = _np.fromiter(
            (sizes[tree_id] for tree_id in tree_ids),
            dtype=_np.int64,
            count=len(tree_ids),
        )
        keys = [pool.intern(key) for key in inverted]
        fps = pool.fingerprints(keys)
        # Stable sort: true collisions (if the universe ends) keep
        # their spans adjacent in a deterministic order.
        order = _np.argsort(fps, kind="stable")
        key_list = [keys[position] for position in order]
        key_fps = fps[order]
        entries = [inverted[key] for key in key_list]
        lengths = _np.fromiter(
            (len(entry) for entry in entries),
            dtype=_np.int64,
            count=len(entries),
        )
        offsets = _np.zeros(len(entries) + 1, dtype=_np.int64)
        _np.cumsum(lengths, out=offsets[1:])
        total = int(offsets[-1])
        slots = _np.fromiter(
            (
                slot_of[tree_id]
                for entry in entries
                for tree_id in entry
            ),
            dtype=_np.int64,
            count=total,
        )
        counts = _np.fromiter(
            (count for entry in entries for count in entry.values()),
            dtype=_np.int64,
            count=total,
        )
        return cls(
            tree_ids,
            size_array,
            key_fps,
            offsets,
            PackedIntArray.pack(_delta_spans(slots, offsets)),
            PackedIntArray.pack(counts),
            key_list=key_list,
            pool=pool,
        )

    @classmethod
    def merge(
        cls,
        frozens: "List[CompressedPostings]",
        tree_ids: List[int],
        pool: Optional[InternPool] = None,
    ) -> "CompressedPostings":
        """Merge disjoint-key compressed postings over one shared slot
        order (the sharded backend's clean fast path).

        Every input must already use ``tree_ids`` as its slot order —
        decoded slots are then valid verbatim, and the merge is a
        re-sort of span fingerprints plus a repack of the span payloads.
        """
        pool = pool or frozens[0]._pool
        key_fps = _np.concatenate([frozen.key_fps for frozen in frozens])
        sources: List[Tuple["CompressedPostings", int]] = [
            (frozen, span)
            for frozen in frozens
            for span in range(frozen.n_spans)
        ]
        order = _np.argsort(key_fps, kind="stable")
        offsets = _np.zeros(len(sources) + 1, dtype=_np.int64)
        deltas: List[int] = []
        counts_out: List[int] = []
        key_list: Optional[List[Key]] = (
            [] if all(frozen.key_list is not None for frozen in frozens)
            else None
        )
        for out_span, position in enumerate(order):
            frozen, span = sources[int(position)]
            slots, counts = frozen._span(span)
            deltas.extend(delta_encode_span([int(s) for s in slots]))
            counts_out.extend(int(count) for count in counts)
            offsets[out_span + 1] = offsets[out_span] + len(slots)
            if key_list is not None:
                key_list.append(frozen.key_list[span])
        return cls(
            tree_ids,
            frozens[0].sizes,
            key_fps[order],
            offsets,
            PackedIntArray.pack(deltas),
            PackedIntArray.pack(counts_out),
            key_list=key_list,
            pool=pool,
        )

    # ------------------------------------------------------------------
    # span access
    # ------------------------------------------------------------------

    @property
    def n_spans(self) -> int:
        return len(self.key_fps)

    @property
    def entry_count(self) -> int:
        """Total posting (slot, cnt) entries across all spans."""
        return int(self.offsets[-1])

    def _span(self, index: int):
        """Decoded ``(slots, counts)`` int64 arrays for span ``index``."""
        dense = self._dense
        if dense is not None:
            start = int(self.offsets[index])
            end = int(self.offsets[index + 1])
            return dense[0][start:end], dense[1][start:end]
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        start = int(self.offsets[index])
        end = int(self.offsets[index + 1])
        slots = _np.cumsum(self.packed_slots.slice(start, end))
        counts = self.packed_counts.slice(start, end)
        cache = self._cache
        if len(cache) >= SPAN_CACHE_LIMIT:
            del cache[next(iter(cache))]
        cache[index] = (slots, counts)
        return slots, counts

    def _densify(self):
        """Absolute ``(slots, counts)`` int64 arrays for the whole CSR,
        decoded once per frozen instance — the sweep's gather source.

        Resident cost equals the raw arrays CompactPostings holds
        anyway (16 bytes per posting); the packed form stays the
        serialization and merge source of truth, so files and snapshots
        remain succinct.  Within a span the decoded deltas are
        ``[s0, gap, gap, ...]``, so one global cumulative sum ``C``
        yields absolute slot ``C[i] - C[span_start - 1]``.
        """
        dense = self._dense
        if dense is None:
            raw = self.packed_slots.decode_all()
            cumulative = _np.cumsum(raw)
            starts = self.offsets[:-1]
            lengths = _np.diff(self.offsets)
            bases = _np.zeros(len(starts), dtype=_np.int64)
            nonzero = starts > 0
            bases[nonzero] = cumulative[starts[nonzero] - 1]
            slots = (cumulative - _np.repeat(bases, lengths)).astype(
                _np.int64
            )
            counts = self.packed_counts.decode_all()
            dense = (
                slots,
                counts
                if isinstance(counts, _np.ndarray)
                else _np.asarray(counts, dtype=_np.int64),
            )
            self._dense = dense
            self._cache.clear()
        return dense

    def iter_key_postings(self) -> Iterator[Tuple[Key, Dict[int, int]]]:
        """``(key, {treeId: cnt})`` per span — consistency checks and
        merges; needs ``key_list`` (in-memory builds)."""
        if self.key_list is None:
            raise RuntimeError(
                "postings were loaded without their key tuples"
            )
        tree_ids = self.tree_ids
        for index, key in enumerate(self.key_list):
            slots, counts = self._span(index)
            yield key, {
                tree_ids[int(slot)]: int(count)
                for slot, count in zip(slots, counts)
            }

    def to_compact(self) -> CompactPostings:
        """Inflate back to a :class:`CompactPostings` (the sharded
        backend merges cross-shard postings in that raw form)."""
        if self.key_list is None:
            raise RuntimeError(
                "postings were loaded without their key tuples"
            )
        slots, counts = self._densify()
        offsets = self.offsets
        spans = {
            key: (int(offsets[index]), int(offsets[index + 1]))
            for index, key in enumerate(self.key_list)
        }
        return CompactPostings(
            self.tree_ids, self.sizes, slots.astype(_np.intp),
            counts, spans,
        )

    # ------------------------------------------------------------------
    # the sweep
    # ------------------------------------------------------------------

    def sweep_into(
        self, query_items: Iterable[Tuple[Key, int]], acc
    ) -> int:
        """Accumulate the candidate sweep into ``acc`` — the exact
        contract of :meth:`CompactPostings.sweep_into`, including the
        touched/present bookkeeping the metrics layer reports.

        The whole sweep is vectorized: one batched ``searchsorted``
        pair locates every query key's equal-fingerprint run, then one
        multi-range gather over the densified slot/count arrays feeds a
        single ``bincount`` accumulate — no Python loop per key or per
        span on the collision-free path.
        """
        items = (
            query_items
            if isinstance(query_items, list)
            else list(query_items)
        )
        touched = 0
        present = 0
        key_fps = self.key_fps
        if items and len(key_fps):
            # Computed, not memoized: the pool remembers stored keys only.
            probes = batch_fingerprints([key for key, _ in items])
            left = _np.searchsorted(key_fps, probes, side="left")
            right = _np.searchsorted(key_fps, probes, side="right")
            hits = _np.nonzero(right > left)[0]
            if len(hits):
                present = len(hits)
                slots_all, counts_all = self._densify()
                if int((right[hits] - left[hits]).max()) == 1:
                    span_idx = left[hits]
                    query_counts = _np.fromiter(
                        (items[position][1] for position in hits.tolist()),
                        dtype=_np.int64,
                        count=len(hits),
                    )
                else:
                    # a true 61-bit fingerprint collision between
                    # distinct keys: expand the run — accumulating every
                    # span in it folds the colliding keys' counts
                    span_list: List[int] = []
                    count_list: List[int] = []
                    for position in hits.tolist():
                        query_count = items[position][1]
                        for span in range(
                            int(left[position]), int(right[position])
                        ):
                            span_list.append(span)
                            count_list.append(query_count)
                    span_idx = _np.asarray(span_list, dtype=_np.int64)
                    query_counts = _np.asarray(count_list, dtype=_np.int64)
                starts = self.offsets[span_idx]
                lengths = self.offsets[span_idx + 1] - starts
                touched = accumulate_spans(
                    slots_all, counts_all, starts, lengths, query_counts, acc
                )
        self.last_touched = touched
        self.last_present = present
        return touched

    def sweep(self, query_items: Iterable[Tuple[Key, int]]) -> Dict[int, int]:
        """Bag overlap of the query with every co-occurring tree —
        bit-identical to the dict sweep and to CompactPostings."""
        acc = _np.zeros(len(self.tree_ids), dtype=_np.int64)
        self.sweep_into(query_items, acc)
        tree_ids = self.tree_ids
        return {
            tree_ids[slot]: int(acc[slot]) for slot in _np.nonzero(acc)[0]
        }

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def packed_nbytes(self) -> int:
        """Resident bytes of the succinct representation proper."""
        return int(
            self.key_fps.nbytes
            + self.offsets.nbytes
            + self.packed_slots.nbytes
            + len(self.packed_slots.widths)
            + self.packed_counts.nbytes
            + len(self.packed_counts.widths)
        )
