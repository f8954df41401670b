"""Writer of the removed ``RSEGIDX2`` segment format (test-only).

``repro`` reads and writes only ``RSEGIDX1`` segments; stores written
before the packed layer left could hold an ``RSEGIDX2`` file under
``segments/``.  Tests use this writer to plant such files and check
that no reader serves them.

Layout (all little-endian)::

    magic "RSEGIDX2"
    <7QI4x> n_trees n_keys n_postings n_keyvals n_labels n_bags n_bagvals crc
    packed tree_ids[T] tree_sizes[T] bag_refs[T]      (block varint)
    raw key_fps[K]                                    (sorted uint64)
    raw label_table[L]                                (sorted int64)
    packed key_offsets[K+1] key_values[V]             key table (CSR)
    packed post_offsets[K+1] post_slots[P] post_counts[P]
    packed dbag_offsets[B+1] dbag_keys[Bv] dbag_counts[Bv]
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, List, Mapping, Tuple

import numpy as _np

from tests.support.packed.intern import default_pool
from tests.support.packed.varint import PackedIntArray, delta_encode_span

Key = Tuple[int, ...]

_MAGIC2 = b"RSEGIDX2"
_HEADER2 = struct.Struct("<7QI4x")
#: 72 bytes, 8-aligned
HEADER2_SIZE = len(_MAGIC2) + _HEADER2.size


def write_segment_file_v2(
    path: str, bags: Mapping[int, Mapping[Key, int]], pool=None
) -> None:
    """Serialize ``tree → bag`` into one ``RSEGIDX2`` segment at
    ``path``, byte for byte as the removed writer did.  Requires numpy."""
    pool = pool or default_pool()
    tree_ids = list(bags)
    tree_sizes = [sum(bags[tree_id].values()) for tree_id in tree_ids]

    # One stored record per *distinct* bag; trees reference it by index.
    signature_of: Dict[object, int] = {}
    bag_refs: List[int] = []
    distinct: List[Mapping[Key, int]] = []
    for tree_id in tree_ids:
        bag = bags[tree_id]
        signature = frozenset(bag.items())
        ref = signature_of.get(signature)
        if ref is None:
            ref = signature_of[signature] = len(distinct)
            distinct.append(bag)
        bag_refs.append(ref)

    # Key universe in fingerprint order (the sweep's probe order); ties
    # (true 61-bit collisions) break deterministically on the tuple.
    universe = {key for bag in distinct for key in bag}
    keys = sorted(universe, key=lambda key: (pool.fingerprint(key), key))
    key_index = {key: position for position, key in enumerate(keys)}
    key_fps = _np.fromiter(
        (pool.fingerprint(key) for key in keys),
        dtype=_np.uint64,
        count=len(keys),
    )
    label_table = sorted({label for key in keys for label in key})
    label_index = {label: position for position, label in enumerate(label_table)}
    key_offsets: List[int] = [0]
    key_values: List[int] = []
    for key in keys:
        key_values.extend(label_index[label] for label in key)
        key_offsets.append(len(key_values))

    # Inverted lists stay per *tree* (dedup applies to bag storage, not
    # to postings); tree order == slot order, so per-key slots arrive
    # sorted and delta-encode to small gaps.
    postings: List[List[Tuple[int, int]]] = [[] for _ in keys]
    for slot, tree_id in enumerate(tree_ids):
        for key, count in bags[tree_id].items():
            postings[key_index[key]].append((slot, count))
    post_offsets: List[int] = [0]
    slot_deltas: List[int] = []
    post_counts: List[int] = []
    for entry in postings:
        slot_deltas.extend(delta_encode_span([slot for slot, _ in entry]))
        post_counts.extend(count for _, count in entry)
        post_offsets.append(post_offsets[-1] + len(entry))

    dbag_offsets: List[int] = [0]
    dbag_key_deltas: List[int] = []
    dbag_counts: List[int] = []
    for bag in distinct:
        items = sorted((key_index[key], count) for key, count in bag.items())
        dbag_key_deltas.extend(
            delta_encode_span([position for position, _ in items])
        )
        dbag_counts.extend(count for _, count in items)
        dbag_offsets.append(dbag_offsets[-1] + len(items))

    chunks: List[bytes] = []
    for values in (tree_ids, tree_sizes, bag_refs):
        PackedIntArray.pack(values).write_into(chunks)
    chunks.append(key_fps.astype("<u8").tobytes())
    chunks.append(_np.asarray(label_table, dtype="<i8").tobytes())
    for values in (
        key_offsets, key_values,
        post_offsets, slot_deltas, post_counts,
        dbag_offsets, dbag_key_deltas, dbag_counts,
    ):
        PackedIntArray.pack(values).write_into(chunks)
    body = b"".join(chunks)

    counts = (
        len(tree_ids), len(keys), len(slot_deltas), len(key_values),
        len(label_table), len(distinct), len(dbag_counts),
    )
    blank = _MAGIC2 + _HEADER2.pack(*counts, 0)
    crc = zlib.crc32(body, zlib.crc32(blank))
    header = _MAGIC2 + _HEADER2.pack(*counts, crc)

    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(body)
