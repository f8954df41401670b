"""Out-of-core backend: memory-mapped frozen segments + tree overlay.

:class:`SegmentBackend` keeps the frozen majority of the
``(treeId, pqg, cnt)`` relation in an on-disk *segment* file laid out
exactly like :class:`~repro.perf.sweep.CompactPostings` (CSR posting
arrays + key table), mapped read-only via numpy ``memmap``, so the
frozen base lives in the page cache rather than on the Python heap.
Recent writes live in a small in-memory overlay (a plain
:class:`~repro.backend.memory.MemoryBackend`); *sealing*
(:meth:`SegmentBackend.compact`) folds overlay + mask into a new
segment generation ``segment-NNNNNNNN.seg`` in the backend's
directory.

The files are a memory map, not a durable home: the backend starts
empty, never reads a file it did not write in this process, and a
document store builds it from the documents on every open like any
other backend.

Segment file (all little-endian)::

    magic "RSEGIDX1" | <4QI4x> n_trees n_keys n_postings n_keyvals crc
    tree_ids[T] tree_sizes[T]                      (int64 each)
    key_offsets[K+1] key_values[V]                 key table (CSR)
    post_offsets[K+1] post_slots[P] post_counts[P] inverted lists (CSR)
    bag_offsets[T+1] bag_keys[P] bag_counts[P]     per-tree bags (CSR)

The CRC is computed over the whole file with the crc field zeroed, so
any byte flip — header or arrays — fails validation; truncation fails
the size check first.  A file that fails validation raises
:class:`~repro.errors.SegmentCorruptError` from :func:`_open_segment`
and is never served.

Masking: a tree that is written after the seal is *masked*
(:class:`~repro.perf.sweep.TreeMask`, the rule the compact backend
applies to its heap CSR) — its segment postings are ignored by every
read — and, for edits, its bag is first copied into the overlay
(materialized) so the overlay copy is authoritative.  Segment ∖ mask
and the overlay therefore hold disjoint tree sets, and reads combine
them through the two functions of :mod:`repro.perf.sweep` that every
frozen-plus-overlay reader shares.
"""

from __future__ import annotations

import os
import shutil
import struct
import sys
import tempfile
import time
import weakref
import zlib
from array import array
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.backend.base import Admit, Bag, ForestBackend, Key
from repro.backend.memory import MemoryBackend
from repro.errors import IndexConsistencyError, SegmentCorruptError, StorageError
from repro.obsv.metrics import NULL_REGISTRY, MetricsRegistry
from repro.perf.arraybag import HAVE_NUMPY
from repro.perf.sweep import (
    CompactPostings,
    TauScan,
    TreeMask,
    overlay_candidates,
    tau_scan,
)
from repro.relstore.database import fsync_directory

if HAVE_NUMPY:
    import numpy as _np

_MAGIC = b"RSEGIDX1"
_HEADER = struct.Struct("<4QI4x")  # n_trees n_keys n_postings n_keyvals crc
_HEADER_SIZE = len(_MAGIC) + _HEADER.size  # 48 bytes, 8-aligned


def _pack_int64(values: Iterable[int]) -> bytes:
    """Little-endian int64 serialization of a value sequence."""
    data = values if isinstance(values, array) else array("q", values)
    if sys.byteorder == "big":  # pragma: no cover - LE containers
        data = array("q", data)
        data.byteswap()
    return data.tobytes()


def write_segment_file(path: str, bags: Mapping[int, Mapping[Key, int]]) -> None:
    """Serialize ``tree → bag`` into one frozen segment at ``path``.

    Tree order is the mapping's iteration order (slot assignment); key
    order is first appearance across the bags.  Written via a sibling
    temp file + fsync + atomic rename so a crash never leaves a torn
    segment under the final name.
    """
    tree_ids = list(bags)
    tree_sizes = [sum(bags[tree_id].values()) for tree_id in tree_ids]
    key_index: Dict[Key, int] = {}
    keys: List[Key] = []
    postings: List[List[Tuple[int, int]]] = []
    bag_offsets = array("q", [0])
    bag_keys = array("q")
    bag_counts = array("q")
    for slot, tree_id in enumerate(tree_ids):
        for key, count in bags[tree_id].items():
            position = key_index.get(key)
            if position is None:
                position = key_index[key] = len(keys)
                keys.append(key)
                postings.append([])
            postings[position].append((slot, count))
            bag_keys.append(position)
            bag_counts.append(count)
        bag_offsets.append(len(bag_keys))
    key_offsets = array("q", [0])
    key_values = array("q")
    for key in keys:
        key_values.extend(key)
        key_offsets.append(len(key_values))
    post_offsets = array("q", [0])
    post_slots = array("q")
    post_counts = array("q")
    for entry in postings:
        for slot, count in entry:
            post_slots.append(slot)
            post_counts.append(count)
        post_offsets.append(len(post_slots))

    body = b"".join(
        _pack_int64(part)
        for part in (
            array("q", tree_ids),
            array("q", tree_sizes),
            key_offsets,
            key_values,
            post_offsets,
            post_slots,
            post_counts,
            bag_offsets,
            bag_keys,
            bag_counts,
        )
    )
    counts = (len(tree_ids), len(keys), len(post_slots), len(key_values))
    blank = _MAGIC + _HEADER.pack(*counts, 0)
    crc = zlib.crc32(body, zlib.crc32(blank))
    header = _MAGIC + _HEADER.pack(*counts, crc)

    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(header)
        handle.write(body)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    fsync_directory(os.path.dirname(path))


class _Segment:
    """Read-only view of one frozen segment file.

    With numpy the posting arrays are ``memmap`` views — opening is
    O(validation), not O(parse) — and the key table / span map are
    materialized lazily on first use.  Without numpy the arrays are
    plain ``array('q')`` loads and :meth:`sweep` walks spans in Python.
    """

    def __init__(self, path: str, verify_checksum: bool = True) -> None:
        self.path = path
        try:
            self.nbytes = os.path.getsize(path)
        except OSError as exc:
            raise SegmentCorruptError(f"segment file missing: {path}") from exc
        if self.nbytes < _HEADER_SIZE:
            raise SegmentCorruptError(f"segment {path} shorter than its header")
        if HAVE_NUMPY:
            self._buffer = _np.memmap(path, dtype=_np.uint8, mode="r")
            head = bytes(self._buffer[:_HEADER_SIZE])
        else:  # pragma: no cover - exercised only without numpy
            with open(path, "rb") as handle:
                self._buffer = handle.read()
            head = self._buffer[:_HEADER_SIZE]
        if head[: len(_MAGIC)] != _MAGIC:
            raise SegmentCorruptError(f"segment {path} has a bad magic/version")
        (
            self.n_trees,
            self.n_keys,
            self.n_postings,
            self.n_keyvals,
            crc,
        ) = _HEADER.unpack_from(head, len(_MAGIC))
        expected = _HEADER_SIZE + 8 * (
            3 * self.n_trees + 2 * self.n_keys + self.n_keyvals
            + 4 * self.n_postings + 3
        )
        if expected != self.nbytes:
            raise SegmentCorruptError(
                f"segment {path} is {self.nbytes} bytes, header implies {expected}"
            )
        if verify_checksum:
            blank = head[: len(_MAGIC)] + _HEADER.pack(
                self.n_trees, self.n_keys, self.n_postings, self.n_keyvals, 0
            )
            actual = zlib.crc32(
                memoryview(self._buffer)[_HEADER_SIZE:], zlib.crc32(blank)
            )
            if actual != crc:
                raise SegmentCorruptError(f"segment {path} failed its checksum")

        offset = _HEADER_SIZE
        arrays = []
        for length in (
            self.n_trees,                # tree_ids
            self.n_trees,                # tree_sizes
            self.n_keys + 1,             # key_offsets
            self.n_keyvals,              # key_values
            self.n_keys + 1,             # post_offsets
            self.n_postings,             # post_slots
            self.n_postings,             # post_counts
            self.n_trees + 1,            # bag_offsets
            self.n_postings,             # bag_keys
            self.n_postings,             # bag_counts
        ):
            arrays.append(self._view(offset, length))
            offset += 8 * length
        (
            tree_id_array, self.tree_sizes, self.key_offsets, self.key_values,
            self.post_offsets, self.post_slots, self.post_counts,
            self.bag_offsets, self.bag_keys, self.bag_counts,
        ) = arrays
        self._check_csr(path)

        self.tree_ids: List[int] = list(tree_id_array.tolist())
        self.slot_of: Dict[int, int] = {
            tree_id: slot for slot, tree_id in enumerate(self.tree_ids)
        }
        self._keys: Optional[List[Key]] = None
        self._spans: Optional[Dict[Key, Tuple[int, int]]] = None
        self._frozen = None
        self.last_touched = 0  # posting entries read by the last sweep()

    def _view(self, offset: int, length: int):
        if HAVE_NUMPY:
            return _np.frombuffer(
                self._buffer, dtype="<i8", count=length, offset=offset
            )
        data = array("q")  # pragma: no cover - exercised only without numpy
        data.frombytes(self._buffer[offset:offset + 8 * length])
        if sys.byteorder == "big":  # pragma: no cover
            data.byteswap()
        return data

    def _check_csr(self, path: str) -> None:
        """Structural sanity on the CSR arrays (belt under the CRC)."""
        for name, offsets, total in (
            ("key_offsets", self.key_offsets, self.n_keyvals),
            ("post_offsets", self.post_offsets, self.n_postings),
            ("bag_offsets", self.bag_offsets, self.n_postings),
        ):
            if len(offsets) and (offsets[0] != 0 or offsets[-1] != total):
                raise SegmentCorruptError(
                    f"segment {path}: {name} endpoints are inconsistent"
                )
            if HAVE_NUMPY:
                monotone = bool((_np.diff(offsets) >= 0).all()) if len(offsets) else True
            else:  # pragma: no cover - exercised only without numpy
                monotone = all(
                    offsets[i] <= offsets[i + 1] for i in range(len(offsets) - 1)
                )
            if not monotone:
                raise SegmentCorruptError(
                    f"segment {path}: {name} is not monotone"
                )
        if self.n_postings:
            if HAVE_NUMPY:
                slots_ok = bool(
                    ((self.post_slots >= 0) & (self.post_slots < self.n_trees)).all()
                )
                bag_keys_ok = bool(
                    ((self.bag_keys >= 0) & (self.bag_keys < self.n_keys)).all()
                )
            else:  # pragma: no cover - exercised only without numpy
                slots_ok = all(0 <= s < self.n_trees for s in self.post_slots)
                bag_keys_ok = all(0 <= k < self.n_keys for k in self.bag_keys)
            if not slots_ok:
                raise SegmentCorruptError(
                    f"segment {path}: posting slot out of range"
                )
            if not bag_keys_ok:
                raise SegmentCorruptError(
                    f"segment {path}: bag key index out of range"
                )

    # -- lazy structures ------------------------------------------------

    def keys(self) -> List[Key]:
        if self._keys is None:
            values = (
                self.key_values.tolist()
                if HAVE_NUMPY
                else list(self.key_values)
            )
            offsets = (
                self.key_offsets.tolist()
                if HAVE_NUMPY
                else list(self.key_offsets)
            )
            self._keys = [
                tuple(values[offsets[i]:offsets[i + 1]])
                for i in range(self.n_keys)
            ]
        return self._keys

    def spans(self) -> Dict[Key, Tuple[int, int]]:
        if self._spans is None:
            keys = self.keys()
            offsets = (
                self.post_offsets.tolist()
                if HAVE_NUMPY
                else list(self.post_offsets)
            )
            self._spans = {
                keys[i]: (offsets[i], offsets[i + 1])
                for i in range(self.n_keys)
            }
        return self._spans

    def frozen(self):
        """The sweepable form of the segment: the mmapped arrays wrapped
        as a :class:`CompactPostings` — or, without numpy, the segment
        itself (:meth:`sweep`)."""
        if not HAVE_NUMPY:
            return self
        if self._frozen is None:
            self._frozen = CompactPostings(
                self.tree_ids,
                self.tree_sizes,
                self.post_slots.astype(_np.intp),
                self.post_counts,
                self.spans(),
            )
            self._frozen.slot_of = self.slot_of
        return self._frozen

    def sweep(self, query_items: Iterable[Tuple[Key, int]]) -> Dict[int, int]:
        """:meth:`CompactPostings.sweep` walked span by span in Python."""
        spans = self.spans()
        slots, counts = self.post_slots, self.post_counts
        tree_ids = self.tree_ids
        merged: Dict[int, int] = {}
        touched = 0
        for key, query_count in query_items:
            start, end = spans.get(key, (0, 0))
            touched += end - start
            for index in range(start, end):
                tree_id = tree_ids[slots[index]]
                merged[tree_id] = merged.get(tree_id, 0) + min(
                    query_count, counts[index]
                )
        self.last_touched = touched
        return merged

    def tree_bag(self, tree_id: int) -> Bag:
        slot = self.slot_of[tree_id]
        start, end = self.bag_offsets[slot], self.bag_offsets[slot + 1]
        keys = self.keys()
        if HAVE_NUMPY:
            key_ids = self.bag_keys[start:end].tolist()
            counts = self.bag_counts[start:end].tolist()
        else:  # pragma: no cover - exercised only without numpy
            key_ids = list(self.bag_keys[start:end])
            counts = list(self.bag_counts[start:end])
        return {keys[k]: c for k, c in zip(key_ids, counts)}

    def key_postings(self, key: Key) -> Optional[Dict[int, int]]:
        span = self.spans().get(key)
        if span is None:
            return None
        start, end = span
        tree_ids = self.tree_ids
        if HAVE_NUMPY:
            slots = self.post_slots[start:end].tolist()
            counts = self.post_counts[start:end].tolist()
        else:  # pragma: no cover - exercised only without numpy
            slots = list(self.post_slots[start:end])
            counts = list(self.post_counts[start:end])
        return {tree_ids[s]: c for s, c in zip(slots, counts)}


def _open_segment(path: str, verify_checksum: bool = True) -> _Segment:
    """Open one ``RSEGIDX1`` segment file; a missing file, any other
    magic, or a failed validation raises
    :class:`~repro.errors.SegmentCorruptError`."""
    return _Segment(path, verify_checksum=verify_checksum)


class SegmentBackend(ForestBackend):
    """Frozen memory-mapped segment + in-memory overlay."""

    name = "segment"

    #: seal policy, mirroring the compact backend's refreeze policy
    SEAL_MIN_DIRTY = 64
    SEAL_FRACTION = 0.25
    #: mutations that must accumulate between background seals
    SEAL_MIN_MUTATION_GAP = 64

    def __init__(
        self,
        directory: Optional[str] = None,
    ) -> None:
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro-segments-")
            self._finalizer = weakref.finalize(
                self, shutil.rmtree, directory, True
            )
            self.ephemeral = True
        else:
            self._finalizer = None
            self.ephemeral = False
        self.directory = directory

        self._overlay = MemoryBackend()
        self._masked = TreeMask()  # trees written since the seal
        self._sizes: Dict[int, int] = {}
        self._segment: Optional[_Segment] = None
        self._generation = 0
        self._mutations = 0
        self._mutations_at_seal = 0
        self.bind_metrics(NULL_REGISTRY)

    # ------------------------------------------------------------------
    # observability binding
    # ------------------------------------------------------------------

    def _bind_instruments(self, registry: MetricsRegistry) -> None:
        self._overlay.bind_metrics(registry)
        # Same instrument ids as the reference backend: the registry
        # dedups, so these are the very counters the overlay increments.
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
            "candidate trees emitted by sweeps (after any admit filter)",
        )
        self._m_seals = registry.counter(
            "segment_seals_total",
            "overlay+mask seals folded into a new frozen segment",
        )
        self._m_seal_seconds = registry.histogram(
            "segment_seal_seconds",
            "wall time of segment seals (snapshot, write, fsync, swap)",
        )

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def _mask(self, tree_id: int) -> Optional[Bag]:
        """First write to a tree since the seal: mask it, from the bag
        the segment holds for it.  Returns that bag — None when the
        tree is not in the segment or is masked already."""
        segment = self._segment
        if segment is None or tree_id in self._masked.trees:
            return None
        bag = segment.tree_bag(tree_id) if tree_id in segment.slot_of else None
        self._masked.add(tree_id, bag or ())
        return bag

    def add_tree_bag(self, tree_id: int, bag: Mapping[Key, int]) -> None:
        if tree_id in self._sizes:
            raise StorageError(f"tree id {tree_id} is already indexed")
        self._mask(tree_id)
        self._overlay.add_tree_bag(tree_id, bag)
        self._sizes[tree_id] = self._overlay.tree_size(tree_id)
        self._mutations += 1

    def apply_tree_delta(
        self, tree_id: int, minus: Mapping[Key, int], plus: Mapping[Key, int]
    ) -> None:
        if tree_id not in self._sizes:
            raise StorageError(f"tree id {tree_id} is not indexed")
        frozen_bag = self._mask(tree_id)
        if frozen_bag is not None:
            # Materialize: the overlay copy becomes the authoritative one.
            self._overlay.add_tree_bag(tree_id, frozen_bag)
        self._overlay.apply_tree_delta(tree_id, minus, plus)
        self._sizes[tree_id] = self._overlay.tree_size(tree_id)
        self._mutations += 1

    def remove_tree(self, tree_id: int) -> None:
        if tree_id not in self._sizes:
            return
        self._overlay.remove_tree(tree_id)
        self._mask(tree_id)
        del self._sizes[tree_id]
        self._mutations += 1

    def restore(self, bags: Mapping[int, Mapping[Key, int]]) -> None:
        self._sizes = {
            tree_id: sum(bag.values()) for tree_id, bag in bags.items()
        }
        self._seal_from({tree_id: dict(bag) for tree_id, bag in bags.items()})

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def candidates(
        self,
        query_items: Iterable[Tuple[Key, int]],
        admit: Optional[Admit] = None,
    ) -> Dict[int, int]:
        if self._segment is None:
            # Nothing sealed: the overlay is the whole relation (and
            # counts on the very instruments bound below).
            return self._overlay.candidates(query_items, admit)
        merged, keys_swept, touched, _ = overlay_candidates(
            self._segment.frozen(),
            self._masked,
            self._overlay._inverted,
            query_items,
            admit,
        )
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
        if self._segment is None or not HAVE_NUMPY:
            return None
        scan = tau_scan(
            self._segment.frozen(),
            self._masked,
            self._overlay._inverted,
            self._sizes,
            query_items,
            query_size,
            tau,
        )
        self._m_candidates_emitted.inc(scan.scored)
        return scan

    def tree_bag(self, tree_id: int) -> Mapping[Key, int]:
        if tree_id in self._overlay:
            return self._overlay.tree_bag(tree_id)
        if tree_id in self._sizes and self._segment is not None:
            return self._segment.tree_bag(tree_id)
        raise StorageError(f"tree id {tree_id} is not indexed")

    def tree_size(self, tree_id: int) -> int:
        try:
            return self._sizes[tree_id]
        except KeyError:
            raise StorageError(f"tree id {tree_id} is not indexed") from None

    def iter_sizes(self) -> Iterable[Tuple[int, int]]:
        return self._sizes.items()

    def postings(self, key: Key) -> Optional[Mapping[int, int]]:
        overlay = self._overlay.postings(key)
        segment = self._segment
        if segment is None:
            return overlay
        frozen = segment.key_postings(key)
        if frozen is None:
            return overlay
        for tree_id in self._masked.trees:
            frozen.pop(tree_id, None)
        if overlay:
            frozen.update(overlay)
        return frozen or None

    def iter_postings(self) -> Iterator[Tuple[Key, Mapping[int, int]]]:
        segment = self._segment
        seen: Set[Key] = set()
        if segment is not None:
            for key in segment.keys():
                seen.add(key)
                entry = self.postings(key)
                if entry:
                    yield key, entry
        for key, entry in self._overlay.iter_postings():
            if key not in seen:
                yield key, entry

    def snapshot(self) -> Dict[int, Bag]:
        overlay = self._overlay
        segment = self._segment
        out: Dict[int, Bag] = {}
        for tree_id in self._sizes:
            if tree_id in overlay:
                out[tree_id] = dict(overlay.tree_bag(tree_id))
            else:
                out[tree_id] = segment.tree_bag(tree_id)
        return out

    def __len__(self) -> int:
        return len(self._sizes)

    def __contains__(self, tree_id: int) -> bool:
        return tree_id in self._sizes

    # ------------------------------------------------------------------
    # sealing (the segment analogue of compact's refreeze)
    # ------------------------------------------------------------------

    def _dirty_keys(self) -> int:
        return len(self._overlay._inverted) + len(self._masked.counts)

    def _stale(self) -> bool:
        dirty = self._dirty_keys()
        if self._segment is None:
            return bool(self._sizes) or dirty > 0
        if not dirty and not self._masked.trees:
            return False
        total = dirty + self._segment.n_keys
        return (
            dirty >= self.SEAL_MIN_DIRTY
            or dirty >= self.SEAL_FRACTION * total
        )

    def needs_compaction(self) -> bool:
        return self._stale() and (
            self._segment is None
            or self._mutations - self._mutations_at_seal
            >= self.SEAL_MIN_MUTATION_GAP
        )

    def compact(self) -> None:
        if self._stale():
            self.seal()

    def seal(self) -> bool:
        """Fold overlay + mask into a new frozen generation.

        Writes the next ``segment-*.seg``, maps it in place of the old
        one (whose file goes) and resets the overlay.  Returns whether
        anything was written (False when the live relation already
        equals the frozen segment).
        """
        if (
            not self._overlay._inverted
            and not self._masked.trees
            and not (self._segment is None and self._sizes)
        ):
            return False
        started = time.perf_counter()
        self._seal_from(self.snapshot())
        self._m_seals.inc()
        self._m_seal_seconds.observe(time.perf_counter() - started)
        return True

    def _seal_from(self, bags: Dict[int, Bag]) -> None:
        old_segment = self._segment
        segment = None
        if bags:
            os.makedirs(self.directory, exist_ok=True)
            path = os.path.join(
                self.directory, "segment-%08d.seg" % (self._generation + 1)
            )
            write_segment_file(path, bags)
            # Written by this very call: no checksum pass on the map.
            segment = _open_segment(path, verify_checksum=False)
        self._generation += 1
        self._segment = segment
        self._overlay.restore({})
        self._masked = TreeMask()
        self._mutations_at_seal = self._mutations
        if old_segment is not None:
            try:
                os.remove(old_segment.path)
            except OSError:  # pragma: no cover - best effort
                pass

    # ------------------------------------------------------------------
    # snapshot isolation
    # ------------------------------------------------------------------

    def freeze_view(self):
        """The mapped segment is read-only by construction, so the view
        shares it and copies only the mask, the overlay and the size
        metadata.  Like the compact backend's first freeze, the first
        view seals the segment it then shares (a backend built at open
        has sealed nothing); an empty relation, or no numpy, gets the
        base class's copy of the relation."""
        if HAVE_NUMPY and self._segment is None:
            self.compact()
        if HAVE_NUMPY and self._segment is not None:
            from repro.concurrency.snapshot import OverlaySnapshot

            return OverlaySnapshot(
                self._segment.frozen(),
                self._masked.copy(),
                {
                    key: dict(entry)
                    for key, entry in self._overlay.iter_postings()
                },
                dict(self._sizes),
            )
        return super().freeze_view()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        segment = self._segment
        masked_counts = self._masked.counts
        masked_postings = sum(masked_counts.values())
        dead_keys = 0
        if segment is not None and masked_counts:
            spans = segment.spans()
            for key, masked in masked_counts.items():
                start, end = spans[key]
                if end - start == masked:
                    dead_keys += 1
        overlay_stats = self._overlay.stats()
        segment_keys = 0 if segment is None else segment.n_keys
        segment_postings = 0 if segment is None else segment.n_postings
        overlay_only_keys = sum(
            1
            for key in self._overlay._inverted
            if segment is None or key not in segment.spans()
        )
        return {
            "backend": self.name,
            "trees": len(self._sizes),
            "postings": (
                segment_postings - masked_postings + overlay_stats["postings"]
            ),
            "distinct_keys": segment_keys - dead_keys + overlay_only_keys,
            "segments": 0 if segment is None else 1,
            "segment_bytes": 0 if segment is None else segment.nbytes,
            "segment_keys": segment_keys,
            "overlay_keys": overlay_stats["distinct_keys"],
            "overlay_trees": overlay_stats["trees"],
            "masked_trees": len(self._masked.trees),
            "generation": self._generation,
            "directory": self.directory,
        }

    def check_consistency(self) -> None:
        self._overlay.check_consistency()
        masked = self._masked
        sizes: Dict[int, int] = {}
        segment = self._segment
        if segment is not None:
            if not self._overlay._bags.keys() <= masked.trees:
                raise IndexConsistencyError(
                    "overlay holds trees that were never masked"
                )
            # Re-derive the inverted CSR from the bag CSR (transpose).
            derived: Dict[Key, Dict[int, int]] = {}
            counts: Dict[Key, int] = {}
            for tree_id in segment.tree_ids:
                bag = segment.tree_bag(tree_id)
                expected = int(segment.tree_sizes[segment.slot_of[tree_id]])
                if sum(bag.values()) != expected:
                    raise IndexConsistencyError(
                        f"segment size metadata drifted for tree {tree_id}"
                    )
                for key, count in bag.items():
                    derived.setdefault(key, {})[tree_id] = count
                if tree_id not in masked.trees:
                    sizes[tree_id] = expected
                else:
                    for key in bag:
                        counts[key] = counts.get(key, 0) + 1
            stored = {
                key: segment.key_postings(key) for key in segment.keys()
            }
            if derived != {key: entry for key, entry in stored.items() if entry}:
                raise IndexConsistencyError(
                    "segment posting arrays drifted from its bag arrays"
                )
            if counts != masked.counts:
                raise IndexConsistencyError(
                    "masked posting accounting drifted from the masked trees"
                )
        elif masked.trees or masked.counts:
            raise IndexConsistencyError(
                "trees masked without a frozen segment"
            )
        for tree_id, size in self._overlay.iter_sizes():
            sizes[tree_id] = size
        if sizes != self._sizes:
            raise IndexConsistencyError(
                "size metadata drifted from segment + overlay"
            )
