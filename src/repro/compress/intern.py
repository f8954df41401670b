"""Label-tuple / pq-gram key interning.

Every tree's bag re-materializes its key tuples during construction,
so a 10k-tree forest holds hundreds of thousands of *equal but
distinct* tuple objects — per-tuple header, per-slot pointers, boxed
ints, all duplicated.  The :class:`InternPool` keeps one canonical
object per distinct key: backends intern at their storage boundary, so
bags and inverted lists reference the same tuples, and equal keys
across trees cost one object.

The pool also assigns each key a dense int32 id (the reference the
segment-v2 bag tables store instead of tuples) and memoizes each key's
combined Karp–Rabin fingerprint — the value
:class:`~repro.compress.frozen.CompressedPostings` probes its sorted
key array with, hoisting the per-part modular fold out of every sweep.

One process-wide default pool is shared by everything running with
``REPRO_COMPRESS`` on: interning is only effective when writers agree
on the canonical objects.  All operations are single-dict reads or
``setdefault`` calls, which CPython makes atomic — safe under the
concurrent writers the sharded backend allows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.hashing.fingerprint import (
    DEFAULT_BASE,
    DEFAULT_PRIME,
    combine_fingerprints,
)
from repro.perf.arraybag import HAVE_NUMPY

if HAVE_NUMPY:
    import numpy as _np

Key = Tuple[int, ...]

#: the per-part multiplier of :func:`combine_fingerprints`
_MULT = pow(DEFAULT_BASE, 8, DEFAULT_PRIME)


if HAVE_NUMPY:
    # uint64 constants once — mixing python ints into uint64 arithmetic
    # promotes to float64 on older numpy and loses exactness.
    _U_P = _np.uint64(DEFAULT_PRIME)
    _U_M_HI = _np.uint64(_MULT >> 32)
    _U_M_LO = _np.uint64(_MULT & 0xFFFFFFFF)
    _U_MASK32 = _np.uint64(0xFFFFFFFF)
    _U_MASK29 = _np.uint64((1 << 29) - 1)
    _U_1 = _np.uint64(1)
    _U_3 = _np.uint64(3)
    _U_29 = _np.uint64(29)
    _U_32 = _np.uint64(32)
    _U_61 = _np.uint64(61)

    def _reduce61(values):
        """``x mod (2**61 - 1)`` for ``x < 2**63`` — two shift-adds
        (``2**61 ≡ 1``) and one conditional subtract."""
        values = (values >> _U_61) + (values & _U_P)
        values = (values >> _U_61) + (values & _U_P)
        return _np.where(values >= _U_P, values - _U_P, values)

    def _combine_matrix(matrix):
        """Vectorized :func:`combine_fingerprints` over the rows of a
        ``(n, width)`` uint64 matrix.

        The fold multiplies a 61-bit accumulator by the constant
        multiplier each step; the 122-bit product is formed exactly
        from 32-bit limb products (each fits uint64) and reduced with
        the Mersenne identity ``2**61 ≡ 1`` — no Python-int round trip.
        """
        acc = _np.zeros(len(matrix), dtype=_np.uint64)
        for column in range(matrix.shape[1]):
            part = matrix[:, column]
            part = (part >> _U_61) + (part & _U_P)
            acc_hi = acc >> _U_32              # < 2**29
            acc_lo = acc & _U_MASK32
            low = acc_lo * _U_M_LO             # < 2**64
            mid = acc_lo * _U_M_HI + acc_hi * _U_M_LO   # < 2**62
            high = acc_hi * _U_M_HI            # < 2**58
            # acc*M = high*2**64 + mid*2**32 + low; 2**64 ≡ 8,
            # mid*2**32 ≡ (mid >> 29) + ((mid & mask29) << 32).
            total = (
                (high << _U_3)
                + (mid >> _U_29)
                + ((mid & _U_MASK29) << _U_32)
                + (low >> _U_61)
                + (low & _U_P)
                + part
                + _U_1
            )
            acc = _reduce61(total)
        return acc


def batch_fingerprints(keys: Sequence[Key]):
    """``combine_fingerprints`` of many keys at once, as a uint64 array.

    Bit-identical to the scalar fold, but it runs as a handful of
    vector ops per tuple position instead of a Python loop per key —
    the difference between a cold freeze paying microseconds and
    milliseconds per thousand keys.  Keys of mixed width are grouped
    by length; results land in input order.  Pure: nothing is
    remembered.
    """
    if not HAVE_NUMPY:  # pragma: no cover - guarded by callers
        raise RuntimeError("batch fingerprints require numpy")
    out = _np.empty(len(keys), dtype=_np.uint64)
    by_width: Dict[int, List[int]] = {}
    for position, key in enumerate(keys):
        by_width.setdefault(len(key), []).append(position)
    for width, positions in by_width.items():
        matrix = None
        if width:
            try:
                matrix = _np.fromiter(
                    (part for position in positions for part in keys[position]),
                    dtype=_np.uint64,
                    count=len(positions) * width,
                ).reshape(len(positions), width)
            except (OverflowError, ValueError):
                # parts outside uint64 (never true of label hashes, but
                # the pool accepts any int tuple) — scalar fold instead
                pass
        if matrix is None:
            for position in positions:
                out[position] = combine_fingerprints(keys[position])
        else:
            out[positions] = _combine_matrix(matrix)
    return out


class InternPool:
    """Canonical key tuples, dense ids, and memoized fingerprints.

    ``max_entries`` bounds the pool: when set, interning a key beyond
    the cap evicts the least-recently-interned keys *without an
    assigned dense id*.  Id-assigned keys are pinned — segment-v2 bag
    tables persist the dense ids, so the id ↔ key mapping must stay
    append-only for the life of the process — which means the pool may
    exceed the cap when every resident key is pinned.  Bounded pools
    maintain per-touch recency bookkeeping and therefore give up the
    single-``setdefault`` atomicity of the unbounded pool; keep the
    shared default pool unbounded under concurrent sharded writers.
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


def _default_pool_cap() -> Optional[int]:
    """Entry cap for the process pool, from ``REPRO_INTERN_POOL_MAX``
    (unset or non-positive → unbounded)."""
    import os

    raw = os.environ.get("REPRO_INTERN_POOL_MAX", "").strip()
    if not raw:
        return None
    try:
        cap = int(raw)
    except ValueError:
        return None
    return cap if cap > 0 else None


_DEFAULT_POOL = InternPool(max_entries=_default_pool_cap())


def default_pool() -> InternPool:
    """The process-wide pool every compressed backend shares."""
    return _DEFAULT_POOL


def _reset_default_pool() -> InternPool:
    """Replace the process pool (tests measuring pool growth only)."""
    global _DEFAULT_POOL
    _DEFAULT_POOL = InternPool(max_entries=_default_pool_cap())
    return _DEFAULT_POOL


def intern_bag(bag, pool: Optional[InternPool] = None):
    """``{intern(key): count}`` — the storage-boundary normalization."""
    pool = pool or _DEFAULT_POOL
    intern = pool.intern
    return {intern(key): count for key, count in bag.items()}
