"""The reference backend: plain dict bags and inverted lists.

Exactly the data layout the pre-backend ``ForestIndex`` kept inline —
per-tree bags ``tree → {key: cnt}``, inverted lists
``key → {tree: cnt}`` and per-tree size metadata — now behind the
:class:`~repro.backend.base.ForestBackend` write path.  Every other
backend is conformance-tested against this one.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.backend.base import Admit, Bag, ForestBackend, Key
from repro.errors import IndexConsistencyError, StorageError
from repro.obsv.metrics import NULL_REGISTRY, MetricsRegistry


class MemoryBackend(ForestBackend):
    """Dict-of-dicts postings; the reference for every other backend."""

    name = "memory"

    def __init__(self) -> None:
        self._bags: Dict[int, Bag] = {}
        self._inverted: Dict[Key, Dict[int, int]] = {}
        self._sizes: Dict[int, int] = {}
        self.bind_metrics(NULL_REGISTRY)

    def _bind_instruments(self, registry: MetricsRegistry) -> None:
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
        self._m_deltas = registry.counter(
            "index_deltas_applied_total",
            "apply_tree_delta calls folded into the relation",
        )
        self._m_delta_keys = registry.counter(
            "index_delta_keys_total",
            "distinct keys re-inverted by apply_tree_delta calls",
        )

    # ------------------------------------------------------------------
    # hooks for subclasses maintaining read-optimized views
    # ------------------------------------------------------------------

    def _touching(self, tree_id: int) -> None:
        """Called before every mutation of one tree, while its bag is
        still the one any read-optimized view describes."""

    def _touched(self, tree_id: int, keys: Iterable[Key]) -> None:
        """Called after every mutation with the tree it changed and
        the touched key set."""

    def _reset_views(self) -> None:
        """Called when the whole relation is replaced (restore)."""

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def add_tree_bag(self, tree_id: int, bag: Mapping[Key, int]) -> None:
        if tree_id in self._bags:
            raise StorageError(f"tree id {tree_id} is already indexed")
        self._touching(tree_id)
        stored = dict(bag)
        self._bags[tree_id] = stored
        self._sizes[tree_id] = sum(stored.values())
        for key, count in stored.items():
            self._inverted.setdefault(key, {})[tree_id] = count
        self._touched(tree_id, stored.keys())

    def apply_tree_delta(
        self, tree_id: int, minus: Mapping[Key, int], plus: Mapping[Key, int]
    ) -> None:
        bag = self._bags.get(tree_id)
        if bag is None:
            raise StorageError(f"tree id {tree_id} is not indexed")
        self._touching(tree_id)
        size = self._sizes[tree_id]
        for key, count in minus.items():
            current = bag.get(key, 0)
            if count > current:
                raise IndexConsistencyError(
                    f"removing {count} occurrences of {key} from tree "
                    f"{tree_id} but index holds only {current}"
                )
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
        for key in touched:
            count = bag.get(key, 0)
            if count:
                self._inverted.setdefault(key, {})[tree_id] = count
            else:
                postings = self._inverted.get(key)
                if postings is not None:
                    postings.pop(tree_id, None)
                    if not postings:
                        del self._inverted[key]
        self._touched(tree_id, touched)

    def remove_tree(self, tree_id: int) -> None:
        if tree_id not in self._bags:
            return
        self._touching(tree_id)
        bag = self._bags.pop(tree_id)
        del self._sizes[tree_id]
        for key in bag:
            postings = self._inverted.get(key)
            if postings is not None:
                postings.pop(tree_id, None)
                if not postings:
                    del self._inverted[key]
        self._touched(tree_id, bag.keys())

    def restore(self, bags: Mapping[int, Mapping[Key, int]]) -> None:
        self._bags = {tree_id: dict(bag) for tree_id, bag in bags.items()}
        self._sizes = {
            tree_id: sum(bag.values()) for tree_id, bag in self._bags.items()
        }
        self._inverted = {}
        for tree_id, bag in self._bags.items():
            for key, count in bag.items():
                self._inverted.setdefault(key, {})[tree_id] = count
        self._reset_views()

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def candidates(
        self,
        query_items: Iterable[Tuple[Key, int]],
        admit: Optional[Admit] = None,
    ) -> Dict[int, int]:
        intersections: Dict[int, int] = {}
        keys_swept, postings_touched = self._accumulate(
            query_items, admit, intersections
        )
        self._m_keys_swept.inc(keys_swept)
        self._m_postings_touched.inc(postings_touched)
        self._m_candidates_emitted.inc(len(intersections))
        return intersections

    def _accumulate(
        self,
        query_items: Iterable[Tuple[Key, int]],
        admit: Optional[Admit],
        intersections: Dict[int, int],
    ) -> Tuple[int, int]:
        """The raw dict sweep, folding into ``intersections`` in place.

        Returns ``(keys swept, posting entries touched)`` so callers
        (this class and the compact overlay) report the counters once,
        at their own public entry point.
        """
        inverted = self._inverted
        keys_swept = 0
        postings_touched = 0
        if admit is None:
            for key, query_count in query_items:
                keys_swept += 1
                postings = inverted.get(key)
                if not postings:
                    continue
                postings_touched += len(postings)
                for tree_id, count in postings.items():
                    intersections[tree_id] = intersections.get(
                        tree_id, 0
                    ) + min(query_count, count)
        else:
            # The size filter gates the accumulation, so hopeless trees
            # never even enter the intersection map.
            for key, query_count in query_items:
                keys_swept += 1
                postings = inverted.get(key)
                if not postings:
                    continue
                postings_touched += len(postings)
                for tree_id, count in postings.items():
                    if admit(tree_id):
                        intersections[tree_id] = intersections.get(
                            tree_id, 0
                        ) + min(query_count, count)
        return keys_swept, postings_touched

    def tree_bag(self, tree_id: int) -> Mapping[Key, int]:
        try:
            return self._bags[tree_id]
        except KeyError:
            raise StorageError(f"tree id {tree_id} is not indexed") from None

    def tree_size(self, tree_id: int) -> int:
        try:
            return self._sizes[tree_id]
        except KeyError:
            raise StorageError(f"tree id {tree_id} is not indexed") from None

    def iter_sizes(self) -> Iterable[Tuple[int, int]]:
        return self._sizes.items()

    def postings(self, key: Key) -> Optional[Mapping[int, int]]:
        return self._inverted.get(key)

    def iter_postings(self) -> Iterator[Tuple[Key, Mapping[int, int]]]:
        return iter(self._inverted.items())

    def snapshot(self) -> Dict[int, Bag]:
        return {tree_id: dict(bag) for tree_id, bag in self._bags.items()}

    def __len__(self) -> int:
        return len(self._bags)

    def __contains__(self, tree_id: int) -> bool:
        return tree_id in self._bags

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "backend": self.name,
            "trees": len(self._bags),
            "postings": sum(len(entry) for entry in self._inverted.values()),
            "distinct_keys": len(self._inverted),
        }

    def check_consistency(self) -> None:
        rebuilt: Dict[Key, Dict[int, int]] = {}
        for tree_id, bag in self._bags.items():
            for key, count in bag.items():
                rebuilt.setdefault(key, {})[tree_id] = count
        if rebuilt != self._inverted:
            raise IndexConsistencyError(
                "inverted lists drifted from the per-tree bags"
            )
        sizes = {
            tree_id: sum(bag.values()) for tree_id, bag in self._bags.items()
        }
        if sizes != self._sizes:
            raise IndexConsistencyError(
                "size metadata drifted from the per-tree bags"
            )
