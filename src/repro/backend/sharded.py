"""Hash-partitioned backend: N inner backends, one per postings shard.

Postings are partitioned by pq-gram fingerprint —
``combine_fingerprints(key) % shards`` — so every key (and therefore
every posting list) lives in exactly one shard, writes touch only the
shards their delta keys hash to, and a lookup fans its query keys out
per shard and merges the per-shard overlaps by addition (a tree's
total overlap is the sum of its per-shard overlaps because the key
sets are disjoint).  The final distances still come from the one
shared :func:`~repro.core.distance.distance_from_overlap` kernel in
the facade.

Tree membership and |I| metadata live at the top level; every shard
registers every tree (possibly with an empty sub-bag) so the write
path never has to special-case "first key of this tree in shard k".

When every shard is clean-frozen (the steady state between write
bursts), lookups skip the fan-out entirely: the per-shard CSR
snapshots are concatenated — key disjointness makes the merge a pure
rebase of span offsets — into one merged
:class:`~repro.perf.sweep.CompactPostings` over the shared tree
order, and a lookup is a single sweep over it, exactly what the
single-shard path costs.  The merge is memoized against a write
version, so its lazy rebuild amortizes across the lookups that follow
a compaction.  Dirty shards fall back to the per-shard fan-out with
an additive dict merge.

``parallel=True`` fans :meth:`candidates` and :meth:`compact` out over
a thread pool — worthwhile when the inner backends are numpy-frozen
:class:`~repro.backend.compact.CompactBackend` shards (vector sweeps
release the GIL); pure-dict shards gain little.  Results are identical
either way.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.backend.base import Admit, Bag, ForestBackend, Key
from repro.backend.compact import CompactBackend
from repro.errors import IndexConsistencyError, StorageError
from repro.hashing.fingerprint import combine_fingerprints
from repro.obsv.metrics import NULL_REGISTRY, MetricsRegistry
from repro.perf.arraybag import HAVE_NUMPY

if HAVE_NUMPY:
    import numpy as _np


class ShardedBackend(ForestBackend):
    """Fingerprint-partitioned postings over N inner backends."""

    name = "sharded"

    #: concurrent writers are synchronized by the per-shard locks (plus
    #: the metadata mutex), so the forest facade runs mutations under
    #: its *shared* lock and disjoint-shard writes proceed in parallel.
    supports_concurrent_writes = True

    #: routing-cache entries before a wholesale reset (query keys that
    #: never hit the index would otherwise grow the cache unboundedly)
    ROUTE_CACHE_LIMIT = 1 << 20

    def __init__(
        self,
        shards: int = 4,
        inner_factory: Optional[Callable[[], ForestBackend]] = None,
        parallel: bool = False,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        factory = inner_factory or CompactBackend
        self.shards: List[ForestBackend] = [factory() for _ in range(shards)]
        self._sizes: Dict[int, int] = {}
        self._parallel = parallel and shards > 1
        self._pool = None
        self._route_cache: Dict[Key, int] = {}
        # Merged clean CSR over every shard (the one-sweep fast path).
        # ``_version`` moves on every mutation/compaction; the memo
        # caches the merge — or the fact that no merge is possible —
        # against the version it saw, so the steady state is one int
        # compare per lookup whether the forest is clean or churning.
        self._merged: Optional[object] = None
        self._merged_version = -1
        self._version = 0
        # One mutex per shard (inner backends are single-threaded) plus
        # one for the tree-membership/size metadata.  Locks are only
        # ever held one at a time, so no ordering discipline is needed.
        self._shard_locks = [threading.Lock() for _ in range(shards)]
        self._meta_lock = threading.Lock()
        self._pool_lock = threading.Lock()
        self.bind_metrics(NULL_REGISTRY)

    def _bind_instruments(self, registry: MetricsRegistry) -> None:
        # One shared registry: the inner backends' logical counters
        # (keys swept, postings touched, delta keys) roll up additively
        # because the key partition is disjoint, and the fan-out gets
        # its own per-shard series on top.
        for shard in self.shards:
            shard.bind_metrics(registry)
        self._m_fanout_sweeps = registry.counter(
            "shard_fanout_sweeps_total",
            "per-shard sweep calls fanned out by candidate lookups",
        )
        self._m_shard_keys = [
            registry.counter(
                "shard_keys_routed_total",
                "query keys routed to one shard by the fingerprint partition",
                shard=index,
            )
            for index in range(len(self.shards))
        ]
        self._m_shard_seconds = [
            registry.histogram(
                "shard_sweep_seconds",
                "per-shard candidate sweep latency (fan-out arm wall time)",
                shard=index,
            )
            for index in range(len(self.shards))
        ]
        self._m_merged_sweeps = registry.counter(
            "shard_merged_sweeps_total",
            "lookups answered by one sweep over the merged all-shard CSR",
        )
        # The registry dedups by (name, labels): these resolve to the
        # very same counters the inner backends increment, letting the
        # fan-out account for keys it answers without entering a shard
        # (absent-key pre-checks, merged fast path) while the roll-up
        # invariants keep holding.
        self._m_keys_swept = registry.counter(
            "index_keys_swept_total",
            "query pq-gram keys processed by the candidate sweep",
        )
        self._m_postings_touched = registry.counter(
            "index_postings_touched_total",
            "inverted-list (tree, cnt) entries consulted by sweeps",
        )
        self._m_frozen_keys = registry.counter(
            "compact_frozen_keys_swept_total",
            "query keys answered from the frozen CSR snapshot",
        )
        self._m_candidates_emitted = registry.counter(
            "index_candidates_emitted_total",
            "candidate trees emitted by sweeps (after any admit filter)",
        )
        self._metrics_live = registry is not NULL_REGISTRY

    # ------------------------------------------------------------------
    # partitioning
    # ------------------------------------------------------------------

    def shard_of(self, key: Key) -> int:
        """The shard index owning one pq-gram key.

        ``combine_fingerprints`` is a pure-Python modular fold over the
        key's parts, so routing is memoized — the cache warms during
        builds (every bag key routes through :meth:`_split`) and lookup
        fan-out then routes hot keys with one dict probe.
        """
        cache = self._route_cache
        shard = cache.get(key, -1)
        if shard < 0:
            shard = combine_fingerprints(key) % len(self.shards)
            if len(cache) >= self.ROUTE_CACHE_LIMIT:
                cache.clear()
            cache[key] = shard
        return shard

    def _split(self, bag: Mapping[Key, int]) -> List[Bag]:
        parts: List[Bag] = [{} for _ in self.shards]
        shard_of = self.shard_of
        for key, count in bag.items():
            parts[shard_of(key)][key] = count
        return parts

    def _map(self, calls: List[Callable[[], object]]) -> List[object]:
        """Run one thunk per shard, threaded when ``parallel``.

        The executor is created lazily exactly once (guarded — two
        racing sweeps must not leak a second pool) and reused for every
        subsequent fan-out until :meth:`close` shuts it down.
        """
        if not self._parallel or len(calls) < 2:
            return [call() for call in calls]
        if self._pool is None:
            with self._pool_lock:
                if self._pool is None:
                    from concurrent.futures import ThreadPoolExecutor

                    self._pool = ThreadPoolExecutor(
                        max_workers=len(self.shards),
                        thread_name_prefix="forest-shard",
                    )
        return list(self._pool.map(lambda call: call(), calls))

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def _invalidate_views(self) -> None:
        """Advance the write version: the merged CSR memo is stale."""
        self._version += 1

    def add_tree_bag(self, tree_id: int, bag: Mapping[Key, int]) -> None:
        with self._meta_lock:
            if tree_id in self._sizes:
                raise StorageError(f"tree id {tree_id} is already indexed")
            self._sizes[tree_id] = sum(bag.values())
            self._invalidate_views()
        parts = self._split(bag)
        for index, (shard, part) in enumerate(zip(self.shards, parts)):
            with self._shard_locks[index]:
                shard.add_tree_bag(tree_id, part)

    def apply_tree_delta(
        self, tree_id: int, minus: Mapping[Key, int], plus: Mapping[Key, int]
    ) -> None:
        with self._meta_lock:
            if tree_id not in self._sizes:
                raise StorageError(f"tree id {tree_id} is not indexed")
        minus_parts = self._split(minus)
        plus_parts = self._split(plus)
        for index, (shard, minus_part, plus_part) in enumerate(
            zip(self.shards, minus_parts, plus_parts)
        ):
            if minus_part or plus_part:
                with self._shard_locks[index]:
                    shard.apply_tree_delta(tree_id, minus_part, plus_part)
        with self._meta_lock:
            self._sizes[tree_id] += sum(plus.values()) - sum(minus.values())
            self._invalidate_views()

    def remove_tree(self, tree_id: int) -> None:
        with self._meta_lock:
            if self._sizes.pop(tree_id, None) is None:
                return
            self._invalidate_views()
        for index, shard in enumerate(self.shards):
            with self._shard_locks[index]:
                shard.remove_tree(tree_id)

    def restore(self, bags: Mapping[int, Mapping[Key, int]]) -> None:
        per_shard: List[Dict[int, Bag]] = [{} for _ in self.shards]
        sizes: Dict[int, int] = {}
        for tree_id, bag in bags.items():
            sizes[tree_id] = sum(bag.values())
            for index, part in enumerate(self._split(bag)):
                per_shard[index][tree_id] = part
        for shard, shard_bags in zip(self.shards, per_shard):
            shard.restore(shard_bags)
        self._sizes = sizes
        self._invalidate_views()

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def candidates(
        self,
        query_items: Iterable[Tuple[Key, int]],
        admit: Optional[Admit] = None,
    ) -> Dict[int, int]:
        merged = self._merged_clean()
        if merged is not None:
            return self._sweep_merged(query_items, merged, admit)

        groups: List[List[Tuple[Key, int]]] = [[] for _ in self.shards]
        shard_of = self.shard_of
        for item in query_items:
            groups[shard_of(item[0])].append(item)

        # Absent-key pre-check: a key the owning shard has never seen
        # contributes nothing, so it is accounted (routed + swept with
        # zero postings) without entering the shard, and shards left
        # with no present key skip the fan-out entirely.
        busy: List[Tuple[int, ForestBackend, List[Tuple[Key, int]]]] = []
        absent = 0
        for index, (shard, group) in enumerate(zip(self.shards, groups)):
            if not group:
                continue
            self._m_shard_keys[index].inc(len(group))
            present = [item for item in group if shard.has_key(item[0])]
            absent += len(group) - len(present)
            if present:
                busy.append((index, shard, present))
        if absent:
            self._m_keys_swept.inc(absent)
        self._m_fanout_sweeps.inc(len(busy))
        if not busy:
            return {}

        # A tree admitted by the τ size bound is admitted in every
        # shard (the predicate depends only on the tree), so per-shard
        # filtering composes with the additive merge.  Each fan-out arm
        # times itself so the pool-threaded path attributes latency to
        # the right shard.
        def sweep_arm(index: int, shard: ForestBackend, group: List[Tuple[Key, int]]):
            with self._m_shard_seconds[index].time():
                return shard.candidates(group, admit)

        parts = self._map(
            [
                (lambda i=index, s=shard, g=group: sweep_arm(i, s, g))
                for index, shard, group in busy
            ]
        )
        parts.sort(key=len, reverse=True)  # type: ignore[arg-type]
        result: Dict[int, int] = dict(parts[0])  # type: ignore[arg-type]
        for part in parts[1:]:
            for tree_id, shared in part.items():  # type: ignore[union-attr]
                result[tree_id] = result.get(tree_id, 0) + shared
        return result

    def _merged_clean(self):
        """The cross-shard merged CSR, or None when it cannot exist.

        Keys are disjoint across shards, so concatenating every clean
        per-shard CSR (postings back to back, spans rebased by each
        shard's offset) over the shared top-level tree order yields one
        :class:`~repro.perf.sweep.CompactPostings` whose sweep is
        bit-identical to fanning out and adding — without any per-shard
        work on the hot path.  The merge (or its impossibility: numpy
        missing, a dirty shard) is memoized against ``_version``, so
        both the clean steady state and the churning steady state cost
        one int compare per lookup.
        """
        version = self._version
        if self._merged_version == version:
            return self._merged
        merged = self._build_merged()
        self._merged = merged
        self._merged_version = version
        return merged

    def _build_merged(self):
        if not HAVE_NUMPY:
            return None
        frozens = []
        for shard in self.shards:
            getter = getattr(shard, "frozen_clean", None)
            if getter is None:
                return None
            frozen = getter()
            if frozen is None:
                return None
            frozens.append(frozen)
        order = list(self._sizes)
        for frozen in frozens:
            if frozen.tree_ids != order:
                return None
        if len(frozens) == 1:
            return frozens[0]
        from repro.perf.sweep import CompactPostings

        slots = _np.concatenate([frozen.slots for frozen in frozens])
        counts = _np.concatenate([frozen.counts for frozen in frozens])
        spans: Dict[Key, Tuple[int, int]] = {}
        offset = 0
        for frozen in frozens:
            if offset:
                for key, (start, end) in frozen.spans.items():
                    spans[key] = (start + offset, end + offset)
            else:
                spans.update(frozen.spans)
            offset += len(frozen.slots)
        return CompactPostings(order, frozens[0].sizes, slots, counts, spans)

    def _sweep_merged(
        self, query_items, merged, admit: Optional[Admit]
    ) -> Dict[int, int]:
        """One sweep over the merged CSR — the all-clean fast path.

        Absent keys fall out of the span probe the sweep does anyway,
        so the per-shard routing/pre-check loops are pure accounting
        here; they run only when a live registry is bound (the null
        registry must not tax the hot path).
        """
        items = (
            query_items
            if isinstance(query_items, list)
            else list(query_items)
        )
        if self._metrics_live and items:
            shard_of = self.shard_of
            routed = [0] * len(self.shards)
            for item in items:
                routed[shard_of(item[0])] += 1
            for index, count in enumerate(routed):
                if count:
                    self._m_shard_keys[index].inc(count)
        acc = _np.zeros(len(merged.tree_ids), dtype=_np.int64)
        touched = merged.sweep_into(items, acc)
        self._m_merged_sweeps.inc()
        self._m_keys_swept.inc(len(items))
        self._m_frozen_keys.inc(merged.last_present)
        self._m_postings_touched.inc(touched)
        tree_ids = merged.tree_ids
        result: Dict[int, int] = {}
        if admit is None:
            for slot in _np.nonzero(acc)[0]:
                result[tree_ids[slot]] = int(acc[slot])
        else:
            for slot in _np.nonzero(acc)[0]:
                tree_id = tree_ids[slot]
                if admit(tree_id):
                    result[tree_id] = int(acc[slot])
        self._m_candidates_emitted.inc(len(result))
        return result

    def tree_bag(self, tree_id: int) -> Mapping[Key, int]:
        if tree_id not in self._sizes:
            raise StorageError(f"tree id {tree_id} is not indexed")
        merged: Bag = {}
        for shard in self.shards:
            merged.update(shard.tree_bag(tree_id))
        return merged

    def tree_size(self, tree_id: int) -> int:
        try:
            return self._sizes[tree_id]
        except KeyError:
            raise StorageError(f"tree id {tree_id} is not indexed") from None

    def iter_sizes(self) -> Iterable[Tuple[int, int]]:
        return self._sizes.items()

    def postings(self, key: Key) -> Optional[Mapping[int, int]]:
        return self.shards[self.shard_of(key)].postings(key)

    def iter_postings(self) -> Iterator[Tuple[Key, Mapping[int, int]]]:
        for shard in self.shards:
            yield from shard.iter_postings()

    def snapshot(self) -> Dict[int, Bag]:
        merged: Dict[int, Bag] = {tree_id: {} for tree_id in self._sizes}
        for shard in self.shards:
            for tree_id, bag in shard.snapshot().items():
                merged[tree_id].update(bag)
        return merged

    def __len__(self) -> int:
        return len(self._sizes)

    def __contains__(self, tree_id: int) -> bool:
        return tree_id in self._sizes

    # ------------------------------------------------------------------
    # view maintenance + observability
    # ------------------------------------------------------------------

    def compact(self) -> None:
        # Maintenance calls compact() on every lookup cycle; invalidate
        # the merged-CSR memo only when some shard actually refroze
        # (identity change ⇔ rebuild), not on the no-op steady state.
        def frozen_of(shard):
            getter = getattr(shard, "frozen_clean", None)
            return getter() if getter is not None else None

        before = [frozen_of(shard) for shard in self.shards]
        self._map([shard.compact for shard in self.shards])
        if any(
            frozen_of(shard) is not previous
            for shard, previous in zip(self.shards, before)
        ):
            with self._meta_lock:
                self._invalidate_views()

    def needs_compaction(self) -> bool:
        return any(shard.needs_compaction() for shard in self.shards)

    def freeze_view(self):
        """Compose one immutable inner view per shard (must be called
        with writers excluded, like every ``freeze_view``)."""
        from repro.concurrency.snapshot import ShardSnapshot

        return ShardSnapshot(
            [shard.freeze_view() for shard in self.shards],
            self.shard_of,
            dict(self._sizes),
        )

    def close(self) -> None:
        pool = self._pool
        self._pool = None
        if pool is not None:
            pool.shutdown(wait=True)
        for shard in self.shards:
            shard.close()

    def stats(self) -> Dict[str, object]:
        inner = [shard.stats() for shard in self.shards]
        return {
            "backend": self.name,
            "shards": len(self.shards),
            "trees": len(self._sizes),
            "postings": sum(int(stat["postings"]) for stat in inner),
            "distinct_keys": sum(int(stat["distinct_keys"]) for stat in inner),
            "shard_postings": [int(stat["postings"]) for stat in inner],
        }

    def check_consistency(self) -> None:
        for shard in self.shards:
            shard.check_consistency()
        # Keys must live in exactly the shard their fingerprint picks,
        # and the top-level sizes must equal the sum over shards.
        for index, shard in enumerate(self.shards):
            for key, _ in shard.iter_postings():
                if self.shard_of(key) != index:
                    raise IndexConsistencyError(
                        f"key {key} stored in shard {index} but hashes "
                        f"to shard {self.shard_of(key)}"
                    )
        totals: Dict[int, int] = {tree_id: 0 for tree_id in self._sizes}
        for shard in self.shards:
            for tree_id, size in shard.iter_sizes():
                if tree_id not in totals:
                    raise IndexConsistencyError(
                        f"tree {tree_id} indexed in a shard but not at "
                        "the top level"
                    )
                totals[tree_id] += size
        if totals != self._sizes:
            raise IndexConsistencyError(
                "top-level sizes drifted from the per-shard bags"
            )
