"""The approximate lookup service.

Answers "all trees of the forest within distance τ of the query" in
two modes, mirroring the two arms of the Fig. 13 (left) experiment:

- ``lookup`` — against the precomputed :class:`ForestIndex`; the query
  tree is indexed once and intersected with every stored index via the
  inverted lists.  Cost is independent of the number of trees beyond
  the final per-tree distance arithmetic.
- ``lookup_without_index`` — the baseline: every collection tree's
  index is built on the fly before the distances can be computed, so
  cost grows with the total collection size (this construction is
  "clearly the most expensive operation in the lookup process").

One setting picks how indexed lookups read the forest:
``snapshot_reads`` (serving mode, which a document store turns on when
it has ``serve_threads``) scans immutable per-generation read views
and caches results per generation; without it, lookups compact and
scan the live relation.  The cache sizes are class constants.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.config import GramConfig
from repro.core.distance import index_distance
from repro.core.index import PQGramIndex
from repro.hashing.labelhash import LabelHasher
from repro.lookup.forest import ForestIndex
from repro.obsv.metrics import MetricsRegistry
from repro.query.executor import DocumentProvider, execute_plan
from repro.query.plan import ApproxLookup, Plan, TopK, plan_fingerprint
from repro.tree.fingerprint import tree_fingerprint
from repro.tree.tree import Tree


@dataclass
class LookupResult:
    """Matches of one approximate lookup plus timing detail."""

    matches: List[Tuple[int, float]]           # (tree id, distance), ascending
    seconds_total: float = 0.0
    seconds_index_construction: float = 0.0    # on-the-fly arm only
    trees_compared: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    def tree_ids(self) -> List[int]:
        """Matched tree ids, nearest first."""
        return [tree_id for tree_id, _ in self.matches]


class LookupService:
    """Approximate lookups with or without a precomputed index.

    The service memoizes the query's pq-gram index in an LRU of
    :attr:`QUERY_CACHE_SIZE` entries keyed by the query's fingerprint
    (:meth:`_query_bag`) — repeated lookups of the same document
    (polling dashboards, paginated clients) skip the index construction
    entirely — and, when numpy is available, keeps the forest's
    array-backed postings snapshot warm for the sweep: every live-mode
    lookup calls ``forest.compact()``, which freezes the CSR once and
    afterwards re-freezes it only past the overlay threshold.

    ``snapshot_reads=True`` switches the service into serving mode:
    every lookup scans an immutable per-generation
    :class:`~repro.concurrency.snapshot.SnapshotHandle` from
    :meth:`ForestIndex.read_view` instead of the live backend, so
    reader threads never block on concurrent ``apply_edits`` (at worst
    they serve the previous generation — the ``reader_generation_lag``
    gauge records by how much).  The generation stamp also keys a
    result cache of :attr:`RESULT_CACHE_SIZE` entries: repeated
    identical queries between two commits are answered without
    re-scanning, and one committed batch invalidates them all at once
    — per generation, not per call.  Serving mode never compacts: the
    first read view freezes the CSR, and the document store's
    background refreeze worker re-freezes it afterwards.
    """

    #: query pq-gram bags the LRU keeps
    QUERY_CACHE_SIZE = 64
    #: executed plans the per-generation result cache keeps (serving mode)
    RESULT_CACHE_SIZE = 128

    def __init__(self, forest: ForestIndex, snapshot_reads: bool = False) -> None:
        self.forest = forest
        self._query_cache: "OrderedDict[tuple, PQGramIndex]" = OrderedDict()
        self._snapshot_reads = snapshot_reads
        # (plan fingerprint, p, q, generation) → (matches, population);
        # only consulted in serving mode, where the generation stamp
        # makes the entries immutable facts.  The matches are a tuple:
        # every caller gets a list of its own.
        self._result_cache: (
            "OrderedDict[tuple, Tuple[Tuple[Tuple[int, float], ...], int]]"
        ) = OrderedDict()
        self._cache_mutex = threading.Lock()
        self.query_cache_hits = 0
        self.query_cache_misses = 0
        registry = forest.metrics
        self._m_lookup_seconds = registry.histogram(
            "lookup_seconds", "end-to-end indexed lookup latency"
        )
        self._m_cache_hits = registry.counter(
            "query_cache_hits_total", "query pq-gram index LRU hits"
        )
        self._m_cache_misses = registry.counter(
            "query_cache_misses_total", "query pq-gram index LRU misses"
        )
        self._m_result_hits = registry.counter(
            "result_cache_hits_total",
            "per-generation lookup result cache hits (serving mode)",
        )
        self._m_generation_lag = registry.gauge(
            "reader_generation_lag",
            "write generations the served read view trails the forest by",
        )

    def metrics(self) -> Dict[str, object]:
        """One JSON-ready snapshot of every metric this service (and
        its forest, backend, and hasher) recorded.

        Counters cover the hot paths — candidate pruning, backend
        sweeps, maintenance engines — and the gauges are refreshed
        from the live structures at call time.  Empty-ish on a service
        whose forest was built without ``metrics=``.
        """
        self.forest.sync_metric_gauges()
        return self.forest.metrics.snapshot()

    def metrics_prometheus(self) -> str:
        """The same snapshot in Prometheus text exposition format."""
        self.forest.sync_metric_gauges()
        return self.forest.metrics.to_prometheus()

    @classmethod
    def for_collection(
        cls,
        collection: Iterable[Tuple[int, Tree]],
        config: Optional[GramConfig] = None,
        metrics: "Optional[MetricsRegistry | bool]" = None,
        **kwargs: object,
    ) -> "LookupService":
        """Build a forest over ``collection`` and wrap it in a service.

        ``metrics`` (a registry or ``True``) enables observability;
        remaining keyword arguments go to the service constructor.
        """
        forest = ForestIndex(config, metrics=metrics)
        forest.add_trees(collection)
        return cls(forest, **kwargs)  # type: ignore[arg-type]

    def _query_bag(self, query: "Tree | str") -> "Tuple[PQGramIndex, int | bytes]":
        """The retrieval query as ``(pq-gram bag, cache key)``.

        Bracket text is scanned straight into the bag and keyed by a
        16-byte digest of the text — never the text itself, or the LRU
        would pin whole request frames; a ``Tree`` is walked and keyed
        by its structural fingerprint.  Two spellings of one tree key
        apart and match alike.  The LRU is guarded by a mutex —
        serving mode runs this from many reader threads, and an
        OrderedDict reorder is not atomic.
        """
        config, hasher = self.forest.config, self.forest.hasher
        is_text = isinstance(query, str)
        build = PQGramIndex.from_brackets if is_text else PQGramIndex.from_tree
        fingerprint = (
            hashlib.blake2b(query.encode("utf-8"), digest_size=16).digest()
            if is_text
            else tree_fingerprint(query)
        )
        key = (fingerprint, config.p, config.q)
        with self._cache_mutex:
            cached = self._query_cache.get(key)
            if cached is not None:
                self._query_cache.move_to_end(key)
                self.query_cache_hits += 1
                self._m_cache_hits.inc()
                return cached, fingerprint
            self.query_cache_misses += 1
            self._m_cache_misses.inc()
        index = build(query, config, hasher)
        with self._cache_mutex:
            self._query_cache[key] = index
            if len(self._query_cache) > self.QUERY_CACHE_SIZE:
                self._query_cache.popitem(last=False)
        return index, fingerprint

    def backend_stats(self) -> Dict[str, object]:
        """Operational counters of the forest's storage backend
        (posting and key totals, frozen-view state)."""
        return self.forest.backend_stats()

    def _execute(
        self,
        plan: Plan,
        query: "Tree | str",
        documents: Optional[DocumentProvider] = None,
    ) -> Tuple[List[Tuple[int, float]], int]:
        """Execute one logical plan: ``(matches, population)``.

        The shared body of :meth:`lookup`, :meth:`nearest` and
        :meth:`query` — every read is a plan now; the legacy entry
        points just build degenerate single-node plans.  In serving
        mode the scan runs against a pinned read view and the result is
        cached per ``(plan fingerprint, generation)``.
        """
        # One fingerprint keys both caches.
        query_index, fingerprint = self._query_bag(query)
        if not self._snapshot_reads:
            self.forest.compact()
            execution = execute_plan(
                self.forest, plan, query_index=query_index, documents=documents
            )
            return execution.matches, execution.population
        view = self.forest.read_view()
        self._m_generation_lag.set(
            max(0, self.forest.generation - view.generation)
        )
        key = (
            plan_fingerprint(plan, fingerprint),
            self.forest.config.p,
            self.forest.config.q,
            view.generation,
        )
        with self._cache_mutex:
            hit = self._result_cache.get(key)
            if hit is not None:
                self._result_cache.move_to_end(key)
        if hit is not None:
            self._m_result_hits.inc()
            matches, population = hit
            return list(matches), population
        execution = execute_plan(
            self.forest,
            plan,
            query_index=query_index,
            reader=view,
            documents=documents,
        )
        with self._cache_mutex:
            self._result_cache[key] = (
                tuple(execution.matches),
                execution.population,
            )
            while len(self._result_cache) > self.RESULT_CACHE_SIZE:
                self._result_cache.popitem(last=False)
        return execution.matches, execution.population

    def lookup(self, query: "Tree | str", tau: float) -> LookupResult:
        """All forest trees within pq-gram distance ``tau`` of the
        query — a tree, or the bracket text of one, which is never
        parsed into a tree — using the precomputed index.

        ``tau`` is pushed down into the forest scan, so candidates the
        threshold can never admit are pruned before their distances are
        materialized; the result is identical to filtering the full
        distance map.  A thin wrapper building the one-node plan
        ``ApproxLookup(query, tau)``.
        """
        started = time.perf_counter()
        with self.forest.metrics.span("lookup"):
            matches, population = self._execute(ApproxLookup(query, tau), query)
        elapsed = time.perf_counter() - started
        self._m_lookup_seconds.observe(elapsed)
        return LookupResult(
            matches=matches,
            seconds_total=elapsed,
            trees_compared=population,
            extra={"pruned": float(population - len(matches))},
        )

    def nearest(self, query: Tree, k: int = 1) -> LookupResult:
        """The k nearest trees to the query, regardless of threshold.

        Useful for best-match retrieval (e.g. deduplication pipelines
        that always want a candidate to inspect).  A thin wrapper
        building the one-node plan ``TopK(query, k)``.
        """
        if k < 1:
            raise ValueError("k must be positive")
        started = time.perf_counter()
        with self.forest.metrics.span("lookup.nearest"):
            matches, population = self._execute(TopK(query, k), query)
        elapsed = time.perf_counter() - started
        self._m_lookup_seconds.observe(elapsed)
        return LookupResult(
            matches=matches,
            seconds_total=elapsed,
            trees_compared=population,
        )

    def query(
        self, plan: Plan, documents: Optional[DocumentProvider] = None
    ) -> LookupResult:
        """Execute a logical :mod:`repro.query` plan.

        Structural predicates (``HasPath``/``HasLabel``, possibly
        negated) post-filter the retrieval result through
        ``documents``, a ``tree_id → Tree`` provider called once per
        match; a plan with predicates and no provider raises
        :class:`~repro.errors.QueryError`.
        """
        from repro.query.plan import normalize_plan

        normalized = normalize_plan(plan)
        started = time.perf_counter()
        with self.forest.metrics.span("lookup.query"):
            matches, population = self._execute(
                plan, normalized.retrieval.query, documents
            )
        elapsed = time.perf_counter() - started
        self._m_lookup_seconds.observe(elapsed)
        return LookupResult(
            matches=matches, seconds_total=elapsed, trees_compared=population
        )

    def lookup_without_index(
        self,
        query: Tree,
        collection: List[Tuple[int, Tree]],
        tau: float,
        config: Optional[GramConfig] = None,
    ) -> LookupResult:
        """The no-precomputed-index baseline: build every index on the
        fly, then compare."""
        config = config or self.forest.config
        hasher = LabelHasher()
        started = time.perf_counter()
        construction_started = started
        query_index = PQGramIndex.from_tree(query, config, hasher)
        built = [
            (tree_id, PQGramIndex.from_tree(tree, config, hasher))
            for tree_id, tree in collection
        ]
        construction_seconds = time.perf_counter() - construction_started
        matches = []
        for tree_id, index in built:
            distance = index_distance(query_index, index)
            if distance < tau:
                matches.append((tree_id, distance))
        matches.sort(key=lambda pair: (pair[1], pair[0]))
        return LookupResult(
            matches=matches,
            seconds_total=time.perf_counter() - started,
            seconds_index_construction=construction_seconds,
            trees_compared=len(built),
        )
