"""Secondary indexes for tables.

- :class:`HashIndex` — exact-match lookup on a composite key,
- :class:`SortedIndex` — range lookup over a composite key.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, Iterator, List, Set, Tuple

Key = Tuple[Any, ...]


class HashIndex:
    """Maps a composite key to the set of row ids carrying it."""

    kind = "hash"

    def __init__(self, key_offsets: Tuple[int, ...]) -> None:
        self._key_offsets = key_offsets
        self._buckets: Dict[Key, Set[int]] = {}

    def key_of(self, row: Tuple[Any, ...]) -> Key:
        """Extract this index's key from a row tuple."""
        return tuple(row[offset] for offset in self._key_offsets)

    def add(self, row_id: int, row: Tuple[Any, ...]) -> None:
        """Register a row."""
        self._buckets.setdefault(self.key_of(row), set()).add(row_id)

    def remove(self, row_id: int, row: Tuple[Any, ...]) -> None:
        """Unregister a row."""
        key = self.key_of(row)
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        bucket.discard(row_id)
        if not bucket:
            del self._buckets[key]

    def find(self, key: Key) -> Iterator[int]:
        """Row ids whose key equals ``key``."""
        return iter(self._buckets.get(key, ()))

    def count(self, key: Key) -> int:
        """Number of rows with this key."""
        return len(self._buckets.get(key, ()))

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class SortedIndex:
    """Keeps ``(key, row_id)`` pairs sorted for range scans.

    ``None`` elements (nullable columns) sort before every real value;
    within one column the schema guarantees a uniform value type, so
    keys stay mutually comparable.
    """

    kind = "sorted"

    def __init__(self, key_offsets: Tuple[int, ...]) -> None:
        self._key_offsets = key_offsets
        self._entries: List[Tuple[Key, int]] = []
        self._dirty = False

    def key_of(self, row: Tuple[Any, ...]) -> Key:
        """Extract this index's (normalized) key from a row tuple."""
        return self.normalize(tuple(row[offset] for offset in self._key_offsets))

    @staticmethod
    def normalize(key: Key) -> Key:
        """Make ``None`` elements comparable: each element becomes a
        (has-value, value) pair with 0 standing in for missing."""
        return tuple(
            (value is not None, 0 if value is None else value) for value in key
        )

    def add(self, row_id: int, row: Tuple[Any, ...]) -> None:
        """Register a row (amortized O(1); the sort is deferred)."""
        # Appending and re-sorting on the next read keeps bulk loads
        # (delta-table builds, Database.load re-inserts) linear:
        # timsort on a sorted-prefix + appended-tail layout is O(n) in
        # the common already-ordered case, where per-row insort is
        # O(n) *each* and quadratic overall.
        self._entries.append((self.key_of(row), row_id))
        self._dirty = True

    def _ensure_sorted(self) -> None:
        if self._dirty:
            self._entries.sort()
            self._dirty = False

    def remove(self, row_id: int, row: Tuple[Any, ...]) -> None:
        """Unregister a row."""
        self._ensure_sorted()
        entry = (self.key_of(row), row_id)
        position = bisect_left(self._entries, entry)
        if (
            position < len(self._entries)
            and self._entries[position] == entry
        ):
            del self._entries[position]

    def find(self, key: Key) -> Iterator[int]:
        """Row ids whose key equals ``key``."""
        self._ensure_sorted()
        key = self.normalize(key)
        lo = bisect_left(self._entries, (key,))
        for stored_key, row_id in self._entries[lo:]:
            if stored_key[: len(key)] != key:
                break
            if len(stored_key) == len(key):
                yield row_id

    def find_range(self, low: Key, high: Key) -> Iterator[int]:
        """Row ids with ``low <= key <= high`` (inclusive both ends)."""
        self._ensure_sorted()
        low = self.normalize(low)
        high = self.normalize(high)
        lo = bisect_left(self._entries, (low,))
        hi = bisect_right(self._entries, (high, float("inf")))
        for _, row_id in self._entries[lo:hi]:
            yield row_id

    def __len__(self) -> int:
        return len(self._entries)
