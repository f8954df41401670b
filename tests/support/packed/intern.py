"""Label-tuple / pq-gram key interning (test-only copy).

:class:`InternPool` keeps one canonical object per distinct key tuple,
assigns each key a dense id and memoizes each key's combined
Karp–Rabin fingerprint — the value
:class:`~tests.support.packed.frozen.CompressedPostings` probes its
sorted key array with.  ``max_entries`` bounds the pool with LRU
eviction of keys that have no dense id.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.hashing.fingerprint import batch_fingerprints, combine_fingerprints

Key = Tuple[int, ...]


class InternPool:
    """Canonical key tuples, dense ids, and memoized fingerprints.

    ``max_entries`` bounds the pool: when set, interning a key beyond
    the cap evicts the least-recently-interned keys *without an
    assigned dense id*.  Id-assigned keys are pinned — the id ↔ key
    mapping stays append-only for the life of the pool — so the pool
    may exceed the cap when every resident key is pinned.
    """

    __slots__ = ("_canon", "_ids", "_keys", "_fps", "_max_entries", "_evictions")

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be positive, got {max_entries}"
            )
        self._canon: Dict[Key, Key] = {}
        self._ids: Dict[Key, int] = {}
        self._keys: List[Key] = []
        self._fps: Dict[Key, int] = {}
        self._max_entries = max_entries
        self._evictions = 0

    def intern(self, key: Key) -> Key:
        """The canonical object equal to ``key`` (registering it)."""
        if self._max_entries is None:
            return self._canon.setdefault(key, key)
        canon = self._canon.get(key)
        if canon is not None:
            # Refresh recency: dicts iterate in insertion order, so
            # re-inserting moves the key to the young end.
            del self._canon[canon]
            self._canon[canon] = canon
            return canon
        self._canon[key] = key
        if len(self._canon) > self._max_entries:
            self._evict(keep=key)
        return key

    def _evict(self, keep: Key) -> None:
        """Drop the oldest unpinned keys until the cap holds (or only
        pinned keys remain).  The key being interned right now is never
        evicted — handing out an object the pool immediately forgot
        would defeat the call."""
        ids = self._ids
        limit = self._max_entries
        assert limit is not None
        for candidate in list(self._canon):
            if len(self._canon) <= limit:
                break
            if candidate is keep or candidate in ids:
                continue
            del self._canon[candidate]
            self._fps.pop(candidate, None)
            self._evictions += 1

    @property
    def evictions(self) -> int:
        """Unreferenced keys evicted by the LRU cap so far."""
        return self._evictions

    @property
    def max_entries(self) -> Optional[int]:
        """The entry cap (None for an unbounded pool)."""
        return self._max_entries

    def id_of(self, key: Key) -> int:
        """Dense int32 id of ``key`` (assigned at first sight)."""
        key = self.intern(key)
        ident = self._ids.get(key)
        if ident is None:
            ident = self._ids.setdefault(key, len(self._keys))
            if ident == len(self._keys):
                self._keys.append(key)
        return ident

    def key_of(self, ident: int) -> Key:
        """Inverse of :meth:`id_of`."""
        return self._keys[ident]

    def fingerprint(self, key: Key) -> int:
        """Memoized ``combine_fingerprints(key)`` — the sweep-side
        probe value for compressed posting arrays."""
        if self._max_entries is not None:
            # Memoize against the canonical entry so the LRU cap bounds
            # the fingerprint table too (eviction drops both together).
            key = self.intern(key)
        fingerprint = self._fps.get(key)
        if fingerprint is None:
            fingerprint = self._fps.setdefault(
                key, combine_fingerprints(key)
            )
        return fingerprint

    def fingerprints(self, keys: Sequence[Key]):
        """:func:`batch_fingerprints` of keys this pool stores, memoized
        for the scalar path.  Probes — keys that are merely looked up —
        go through :func:`batch_fingerprints` directly: remembering
        them would grow the pool by every key ever queried."""
        out = batch_fingerprints(keys)
        memo = self._fps
        if self._max_entries is None:
            for key, value in zip(keys, out.tolist()):
                memo.setdefault(key, value)
        else:
            for key, value in zip(keys, out.tolist()):
                memo.setdefault(self.intern(key), value)
        return out

    def __len__(self) -> int:
        return len(self._canon)

    def stats(self) -> Dict[str, int]:
        return {
            "interned_keys": len(self._canon),
            "assigned_ids": len(self._keys),
            "memoized_fingerprints": len(self._fps),
            "evictions": self._evictions,
            "max_entries": 0 if self._max_entries is None else self._max_entries,
        }


_DEFAULT_POOL = InternPool()


def default_pool() -> InternPool:
    """The process-wide pool the packed structures share by default."""
    return _DEFAULT_POOL
