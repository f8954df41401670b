"""Forest-wide subtree dedup: one bag per distinct tree structure.

Real hierarchical corpora are structurally repetitive — replicated
documents, boilerplate fragments, template-generated records.  We
already compute Merkle-style structural fingerprints
(:func:`repro.tree.fingerprint.tree_fingerprint`), so two trees with
equal fingerprints have equal label structures and therefore *equal
pq-gram bags*.  The :class:`DedupTable` exploits that: the forest
looks a new tree's fingerprint up before building its bag, and a hit
returns the already-built :class:`SharedBag` by reference — the bag is
computed once and stored once, however many trees share it.

Ownership protocol: :meth:`DedupTable.acquire` hands the caller one
reference.  A backend that *stores* the bag (the memory/compact
family) keeps that reference until the tree is removed, edited
(copy-on-write materializes a private dict first), or the relation is
wholesale-replaced; a backend that only *copies* the bag (sharded
split, segment seal) releases it immediately.  The table drops an
entry when its last reference dies, so the memo is exactly the live
deduplicated forest — a persistent, ref-counted structure that
maintenance deltas update, not a build-time cache.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Mapping, Optional, Tuple

from tests.support.packed.intern import InternPool, default_pool

Key = Tuple[int, ...]


class SharedBag(dict):
    """A pq-gram bag shared by every tree with one structure.

    A plain dict to every reader (backends, conformance comparisons,
    snapshots), plus a reference count and the structural fingerprint
    it is filed under.  Never mutate one in place — backends
    copy-on-write before applying maintenance deltas.
    """

    __slots__ = ("refs", "fingerprint", "_table")

    def __init__(
        self,
        bag: Mapping[Key, int],
        fingerprint: int,
        table: "Optional[DedupTable]" = None,
    ) -> None:
        super().__init__(bag)
        self.refs = 0
        self.fingerprint = fingerprint
        self._table = table

    def release(self) -> None:
        """Drop one reference; the owning table evicts at zero."""
        table = self._table
        if table is not None:
            table._release(self)
        else:
            self.refs -= 1


def release_if_shared(bag) -> None:
    """Release ``bag`` when it is a :class:`SharedBag` (else no-op) —
    the one-liner backends call when a stored or copied bag leaves."""
    if type(bag) is SharedBag:
        bag.release()


class DedupTable:
    """Ref-counted ``structural fingerprint → SharedBag`` memo."""

    def __init__(self, pool: Optional[InternPool] = None) -> None:
        self._pool = pool or default_pool()
        self._bags: Dict[int, SharedBag] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def acquire(
        self, fingerprint: int, builder: Callable[[], Mapping[Key, int]]
    ) -> Tuple[SharedBag, bool]:
        """One reference to the bag of ``fingerprint``; ``(bag, hit)``.

        ``builder`` runs only on a miss, outside the table lock (bag
        construction is the expensive part); its keys are interned into
        the shared pool on registration.  Two racing misses on the same
        fingerprint both build, and the loser adopts the winner's bag.
        """
        with self._lock:
            bag = self._bags.get(fingerprint)
            if bag is not None:
                bag.refs += 1
                self.hits += 1
                return bag, True
        intern = self._pool.intern
        built = SharedBag(
            {intern(key): count for key, count in builder().items()},
            fingerprint,
            self,
        )
        with self._lock:
            bag = self._bags.setdefault(fingerprint, built)
            bag.refs += 1
            if bag is built:
                self.misses += 1
                return bag, False
            self.hits += 1
            return bag, True

    def _release(self, bag: SharedBag) -> None:
        with self._lock:
            bag.refs -= 1
            if bag.refs <= 0 and self._bags.get(bag.fingerprint) is bag:
                del self._bags[bag.fingerprint]

    def __len__(self) -> int:
        return len(self._bags)

    def __contains__(self, fingerprint: int) -> bool:
        with self._lock:
            return fingerprint in self._bags

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._bags),
                "shared_refs": sum(bag.refs for bag in self._bags.values()),
                "hits": self.hits,
                "misses": self.misses,
            }
