"""The forest index: a facade over the stored relation.

Stores the pq-gram indexes of a whole collection of trees in one
relation ``(treeId, pqg, cnt)`` (paper Fig. 4b).  The relation itself
lives in a :class:`~repro.backend.compact.CompactBackend` — per-tree
bags plus an array snapshot and one overlay — and this class owns
everything the relation deliberately knows nothing about: the gram
configuration, the shared label hasher, index construction,
incremental maintenance, and the τ-aware distance arithmetic over the
relation's candidate sweep.
"""

from __future__ import annotations

import threading
import time
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.backend.compact import Bag, CompactBackend, Key
from repro.concurrency.lock import ForestLock
from repro.concurrency.snapshot import SnapshotHandle
from repro.core.config import GramConfig
from repro.core.batch import BatchTimings, net_delta
from repro.core.index import PQGramIndex, tree_bag
from repro.edits.ops import EditOperation
from repro.errors import StorageError
from repro.hashing.labelhash import LabelHasher
from repro.obsv.metrics import MetricsRegistry, resolve_registry
from repro.tree.tree import Tree


class ForestIndex:
    """pq-gram indexes of a forest, with maintenance and lookups."""

    def __init__(
        self,
        config: Optional[GramConfig] = None,
        metrics: "Optional[MetricsRegistry | bool]" = None,
    ) -> None:
        self.config = config or GramConfig()
        self.hasher = LabelHasher()
        self._backend = CompactBackend()
        self.metrics = resolve_registry(metrics)
        self._backend.bind_metrics(self.metrics)
        self._bind_instruments(self.metrics)
        # Concurrency: one exclusive lock, a monotonically increasing
        # write generation, and the published immutable read view of
        # the latest materialized generation (docs/CONCURRENCY.md).
        self.lock = ForestLock()
        self.lock.bind_metrics(self.metrics)
        self._generation = 0
        self._generation_mutex = threading.Lock()
        self._generation_listeners: List[Callable[[], None]] = []
        self._published: Optional[SnapshotHandle] = None
        self._view_refresh = threading.Lock()

    def _bind_instruments(self, registry: MetricsRegistry) -> None:
        self._m_lookups = registry.counter(
            "lookup_distance_scans_total",
            "forest distance scans (full or tau-pruned)",
        )
        self._m_candidates_total = registry.counter(
            "lookup_candidates_total",
            "trees considered by distance scans "
            "(= pruned by the tau size bound + scored)",
        )
        self._m_candidates_pruned = registry.counter(
            "lookup_candidates_pruned_total",
            "candidate trees discarded by the tau size bound before "
            "any distance was materialized",
        )
        self._m_candidates_scored = registry.counter(
            "lookup_candidates_scored_total",
            "candidate trees whose pq-gram distance was computed",
        )
        self._m_matches = registry.counter(
            "lookup_matches_total",
            "trees returned under the tau threshold",
        )
        # The backends' own sweep counters (the registry dedups by
        # name): array-space scans report their tallies to the executor,
        # which counts them here for live and snapshot readers alike.
        self._m_keys_swept = registry.counter(
            "index_keys_swept_total",
            "query pq-gram keys processed by the candidate sweep",
        )
        self._m_postings_touched = registry.counter(
            "index_postings_touched_total",
            "inverted-list (tree, cnt) entries consulted by sweeps",
        )
        self._m_query_plans = {
            mode: registry.counter(
                "query_plans_total",
                "logical plans executed, by physical strategy for "
                "structural predicates",
                mode=mode,
            )
            for mode in ("plain", "postfilter")
        }
        self._m_maintain_batches = registry.counter(
            "maintain_batches_total", "incremental maintenance calls"
        )
        self._m_maintain_ops = registry.counter(
            "maintain_ops_total",
            "edit operations consumed by maintenance calls (pre-compaction)",
        )
        self._m_maintain_delta_keys = registry.counter(
            "maintain_delta_keys_total",
            "distinct index keys in the net deltas handed to the backend",
        )
        self._m_maintain_seconds = registry.histogram(
            "maintain_seconds",
            "wall seconds per maintenance call (engine + backend apply)",
        )
        self._m_batch_compacted_ops = registry.counter(
            "maintain_batch_compacted_ops_total",
            "operations left after the engine's log compaction",
        )
        self._m_batch_phase_seconds = {
            phase: registry.histogram(
                "maintain_batch_phase_seconds",
                "maintenance wall seconds per phase (BatchTimings)",
                phase=phase,
            )
            for phase in BatchTimings.PHASES
        }

    @property
    def backend(self) -> CompactBackend:
        """The stored index relation."""
        return self._backend

    # ------------------------------------------------------------------
    # concurrency: generations and published read views
    # ------------------------------------------------------------------

    @property
    def generation(self) -> int:
        """The forest's write generation — bumped once per committed
        mutation (add/update/remove), never by compaction, which only
        rebuilds read-optimized views of the same logical relation."""
        return self._generation

    def _bump_generation(self) -> None:
        with self._generation_mutex:
            self._generation += 1
        for listener in self._generation_listeners:
            listener()

    def add_generation_listener(self, listener: Callable[[], None]) -> None:
        """Call ``listener()`` after every generation bump — on the
        mutating thread, inside its write scope, so it must only signal
        (the refreeze worker sets an event).  Every mutation path bumps
        the generation, so none can skip its listeners."""
        self._generation_listeners.append(listener)

    def remove_generation_listener(self, listener: Callable[[], None]) -> None:
        self._generation_listeners.remove(listener)

    @property
    def has_published_view(self) -> bool:
        """Whether :meth:`read_view` can answer without building
        anything: false until the first call published a view (that
        call freezes the CSR), true ever after."""
        return self._published is not None

    def read_view(self) -> SnapshotHandle:
        """An immutable snapshot of the forest at (at least) a recent
        generation, for lock-free reader threads.

        Views are cached per generation: when the published view is
        current it is returned without any locking.  When it is stale,
        exactly one caller refreshes it (materialization takes the
        exclusive lock, which writers hold for O(|Δ|) at a time);
        concurrent callers — and every caller while a background
        :meth:`refreeze` is building — are served the previous view
        immediately instead of queueing behind the refresh: readers
        never block on writers or on a build.  The one exception is
        the very first call, which must wait for a view to exist at
        all (:attr:`has_published_view` tells a caller that must not
        wait).
        """
        while True:
            view = self._published
            generation = self._generation
            if view is not None and view.generation >= generation:
                return view
            if not self._view_refresh.acquire(blocking=view is None):
                # A refresh or a refreeze is in flight: serve the stale
                # view.
                return view  # type: ignore[return-value]
            try:
                view = self._published
                if view is not None and view.generation >= self._generation:
                    return view
                with self.lock.write():
                    return self._publish_view()
            finally:
                self._view_refresh.release()

    def _publish_view(self) -> SnapshotHandle:
        """Materialize and publish the view of the current generation;
        the caller holds the exclusive lock."""
        fresh = self._backend.freeze_view()
        fresh.generation = self._generation
        self._published = fresh
        return fresh

    def close(self) -> None:
        """Nothing to release — the forest holds no thread or file.
        Kept because ``benchmarks/e2e/traced.py`` closes its three
        forests."""

    def sync_metric_gauges(self) -> None:
        """Refresh the snapshot-style gauges (forest shape, backend
        stats, label-hasher memo) in the bound registry.

        Counters are pushed on the hot paths; gauges describing current
        state are pulled here, right before a metrics export, so the
        hot paths never pay for them.  A no-op on the null registry.
        """
        registry = self.metrics
        if not registry.enabled:
            return
        registry.gauge(
            "forest_trees", "trees currently indexed"
        ).set(len(self._backend))
        self.hasher.publish_metrics(registry)
        backend_stats = self.backend_stats()
        registry.gauge(
            "backend_postings", "posting entries stored by the backend"
        ).set(int(backend_stats["postings"]))
        registry.gauge(
            "backend_distinct_keys", "distinct pq-gram keys stored"
        ).set(int(backend_stats["distinct_keys"]))
        registry.gauge(
            "compact_dirty_keys",
            "distinct keys in the overlay of trees written since the freeze",
        ).set(int(backend_stats["dirty_keys"]))

    # ------------------------------------------------------------------
    # building and maintaining
    # ------------------------------------------------------------------

    def add_tree(self, tree_id: int, tree: Tree) -> None:
        """Index a new tree of the forest."""
        self.add_bags([(tree_id, tree_bag(tree, self.config, self.hasher))])

    def add_trees(self, items: Iterable[Tuple[int, Tree]]) -> None:
        """Index a batch of trees, all or none; the ids are checked
        before any bag is built (see :meth:`add_bags`)."""
        items = list(items)
        self._check_new(tree_id for tree_id, _ in items)
        self.add_bags(
            (tree_id, tree_bag(tree, self.config, self.hasher))
            for tree_id, tree in items
        )

    def add_bags(self, items: Iterable[Tuple[int, Bag]]) -> None:
        """Index a batch of trees given by their pq-gram bags — built
        with this forest's configuration and hasher, and owned by the
        forest from here on (the caller must not touch them again).

        The batch is validated up front — against the forest *and*
        against itself — so either every tree is added or none is
        (a duplicate id can never leave a partial commit behind).  It
        is one write: the lock is taken once and the generation (with
        every listener) advances once, however many trees it holds.
        """
        items = list(items)
        self._check_new(tree_id for tree_id, _ in items)
        if not items:
            return
        with self.lock.write():
            try:
                for tree_id, bag in items:
                    self._backend.add_tree_bag(tree_id, bag)
            finally:
                self._bump_generation()

    def _check_new(self, tree_ids: Iterable[int]) -> None:
        """Refuse a batch holding an indexed id, or one id twice."""
        seen: set = set()
        for tree_id in tree_ids:
            if tree_id in self._backend or tree_id in seen:
                raise StorageError(f"tree id {tree_id} is already indexed")
            seen.add(tree_id)

    def remove_tree(self, tree_id: int) -> None:
        """Drop a tree from the forest index."""
        with self.lock.write():
            self._backend.remove_tree(tree_id)
            self._bump_generation()

    def update_tree(
        self,
        tree_id: int,
        tree: Tree,
        log: List[EditOperation],
        engine: str = "batch",
    ) -> Tuple[Bag, Bag]:
        """Incrementally maintain one tree's index after edits.

        ``tree`` is the resulting document and ``log`` the inverse
        operations — the exact inputs of the paper's scenario (Fig. 1).
        The engine (:func:`repro.core.batch.net_delta`) computes the
        net delta bags, and the backend folds them into the relation in
        place, touching only the O(|Δ|) keys whose multiplicity changed;
        no index is copied.  Returns the applied ``(minus, plus)`` —
        the Δ-keys consumers like the standing-query engine route on.
        An unknown tree raises :class:`~repro.errors.StorageError`
        before ``tree`` is walked.

        Thread-safety: the delta is computed outside the structural
        lock (so concurrent maintenance of *different* trees overlaps
        on the CPU-heavy engine work) and applied under it.  Updates to
        the *same* tree must be serialized by the caller — the document
        store's per-document FIFO write queue does exactly that.
        """
        # Not a choice: benchmarks/e2e/traced.py, which is frozen,
        # passes the literal keyword engine="batch".
        if engine != "batch":
            raise ValueError(f"unknown maintenance engine {engine!r}")
        if tree_id not in self._backend:
            raise StorageError(f"tree id {tree_id} is not indexed")
        with (
            self.metrics.span("maintain.batch"),
            self._m_maintain_seconds.time(),
        ):
            minus, plus, timings = net_delta(tree, log, self.config, self.hasher)
            with self.lock.write():
                started = time.perf_counter()
                self._backend.apply_tree_delta(tree_id, minus, plus)
                timings.index_update = time.perf_counter() - started
                self._bump_generation()
            if self.metrics.enabled:
                self._m_batch_compacted_ops.inc(timings.compacted_size)
                timings.record_into(self._m_batch_phase_seconds)
        self._m_maintain_batches.inc()
        self._m_maintain_ops.inc(len(log))
        self._m_maintain_delta_keys.inc(len(minus) + len(plus))
        return minus, plus

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def index_of(self, tree_id: int) -> PQGramIndex:
        """The stored index of one tree.

        A zero-copy view over the backend's bag — treat it as
        read-only, exactly like the live objects the pre-backend
        implementation returned.
        """
        return PQGramIndex.from_bag_view(
            self.config,
            self._backend.tree_bag(tree_id),
            total=self._backend.tree_size(tree_id),
        )

    def size_of(self, tree_id: int) -> int:
        """|I| of one tree, from the per-tree size metadata."""
        return self._backend.tree_size(tree_id)

    def tree_ids(self) -> Iterator[int]:
        """All indexed tree ids."""
        return self._backend.tree_ids()

    def __len__(self) -> int:
        return len(self._backend)

    def __contains__(self, tree_id: int) -> bool:
        return tree_id in self._backend

    def inverted_lists(self) -> Dict[Key, Dict[int, int]]:
        """The inverted lists ``key → {treeId: cnt}``, derived from the
        stored bags — O(total postings); for tests and audits."""
        return self._backend.inverted_lists()

    # ------------------------------------------------------------------
    # distance against the whole forest
    # ------------------------------------------------------------------

    def compact(self) -> None:
        """(Re)build the relation's read-optimized postings view.

        Freezes the postings into CSR arrays (``repro.perf.sweep``)
        — the lookup sweep becomes a handful of vector operations per
        query pq-gram, and later mutations overlay the snapshot instead
        of discarding it.  A no-op without numpy.

        Takes the exclusive lock (reentrantly, so the background
        refreeze worker may already hold it): the CSR swap must not
        interleave with mutations or view materialization.
        """
        with self.lock.write():
            self._backend.compact()

    def refreeze(self) -> None:
        """:meth:`compact`, then republish the read view — what the
        background refreeze worker runs.

        A published view pins the CSR it was materialized over and a
        copy of the overlay of that moment; without republishing, reads
        would keep paying for that overlay until some later write moved
        the generation.  The fresh view carries the *same* generation
        stamp (compaction changes no logical content), so result-cache
        entries keyed on it stay valid.

        The build holds the view-refresh latch (taken before the
        exclusive lock, the order readers use): a reader that finds its
        view stale meanwhile is served the published one instead of
        queueing behind the CSR build on the exclusive lock.
        """
        with self._view_refresh, self.lock.write():
            self._backend.compact()
            if self._published is not None:
                self._publish_view()

    def backend_stats(self) -> Dict[str, object]:
        """The backend's operational counters, read in exclusive mode
        behind the view-refresh latch: they cost O(overlay), which is
        the whole relation before the first freeze."""
        with self._view_refresh, self.lock.write():
            return self._backend.stats()

    def distances(
        self,
        query: PQGramIndex,
        tau: Optional[float] = None,
        *,
        reader: "Optional[CompactBackend | SnapshotHandle]" = None,
    ) -> Dict[int, float]:
        """pq-gram distances of the query index against the forest.

        Without ``tau``: the distance to *every* indexed tree — one
        pass over the query's distinct pq-grams accumulates the bag
        intersections via the backend's candidate sweep, then every
        tree gets its distance (trees sharing no pq-gram fall back to
        the no-overlap distance).

        With ``tau``: exactly the trees with ``distance < tau``.  The
        threshold is pushed into the scan — for ``tau ≤ 1`` trees
        sharing no pq-gram can never qualify, so the final pass runs
        over the co-occurrence candidates only (the index-lookup cost
        becomes nearly independent of the forest size, the paper's
        Fig. 13 claim), and the size filter
        ``min(|I|,|I'|) > (1-τ)/2·(|I|+|I'|)`` discards hopeless
        candidates from the per-tree size metadata before any distance
        is materialized.  Both paths produce identical distances.

        ``reader`` selects what the scan reads: the live backend (the
        default — single-threaded behaviour, unchanged) or an immutable
        :class:`~repro.concurrency.snapshot.SnapshotHandle` from
        :meth:`read_view`, so serving threads scan a frozen generation
        while writers mutate the live relation.  It never compacts: a
        forest no read froze sweeps its overlay of dicts.

        The scan itself lives in :func:`repro.query.executor.scan_distances`
        — this method is the stable facade over it.
        """
        from repro.query.executor import scan_distances

        return scan_distances(self, query, tau=tau, reader=reader)
