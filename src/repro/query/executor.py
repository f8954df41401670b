"""The physical executor: plans → candidate sweeps → matches.

Two entry points:

- :func:`scan_distances` — the distance scan that used to live inline
  in ``ForestIndex.distances`` (τ push-down, size-bound pruning, the
  pruned-vs-scored metrics ledger), extended with an optional per-tree
  ``prefilter``.  ``ForestIndex.distances`` is now a thin delegate.
- :func:`execute_plan` — run a logical :mod:`repro.query.plan` against
  a forest.  Structural predicates post-filter the retrieval result by
  walking the source documents of the trees the τ-scan returned (for
  ``TopK``: of the nearest trees, until k have passed): a descendant
  chain is a tree-subsequence test linear in the document, so only
  matches are ever walked and rejected trees never are.

Snapshot reads: the distance sweep honours the ``reader`` (a live
backend or an immutable ``SnapshotHandle``); the post-filter reads the
documents the caller's provider returns.  The serving layer's
per-generation result cache keys on the plan fingerprint.

This module deliberately reaches into ``ForestIndex``'s pre-resolved
metric instruments (``_m_lookups`` and friends): the two form one
read path split across layers, and re-resolving instruments per scan
would tax the hot sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.core.distance import distance_from_overlap, size_bound_admits
from repro.core.index import PQGramIndex
from repro.errors import QueryError
from repro.query.plan import (
    ApproxLookup,
    NormalizedPlan,
    Plan,
    TopK,
    normalize_plan,
)
from repro.query.structural import tree_matches

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.backend.compact import CompactBackend
    from repro.concurrency.snapshot import SnapshotHandle
    from repro.lookup.forest import ForestIndex
    from repro.tree.tree import Tree

Prefilter = Callable[[int], bool]
#: resolves a tree id to its document tree (the structural post-filter)
DocumentProvider = Callable[[int], "Tree"]


# ----------------------------------------------------------------------
# the distance scan (moved here from ForestIndex.distances)
# ----------------------------------------------------------------------


def scan_distances(
    forest: "ForestIndex",
    query: PQGramIndex,
    tau: Optional[float] = None,
    *,
    reader: "Optional[CompactBackend | SnapshotHandle]" = None,
    prefilter: Optional[Prefilter] = None,
) -> Dict[int, float]:
    """pq-gram distances of ``query`` against the forest.

    Without ``tau``: the distance to every indexed tree.  With ``tau``:
    exactly the trees with ``distance < tau``, the threshold pushed
    into the sweep (size-bound pruning for τ ≤ 1).  ``prefilter`` is an
    optional per-tree admission predicate — trees it rejects are
    pruned *before scoring* and land in the pruned side of the
    candidates ledger (``lookup_candidates_total`` stays the exact sum
    of pruned + scored in every mode).  ``reader`` selects the live
    backend (default) or an immutable snapshot view.
    """
    if reader is None:
        reader = forest.backend
    query_size = query.size()
    forest._m_lookups.inc()
    with forest.metrics.span("lookup.distances"):
        if tau is None:
            return _distances_full(forest, query, query_size, reader, prefilter)
        if tau > 1.0:
            # Every tree qualifies at most at the no-overlap distance
            # 1.0 < tau: nothing can be pruned by the size bound.
            full = _distances_full(forest, query, query_size, reader, prefilter)
            result = {
                tree_id: distance
                for tree_id, distance in full.items()
                if distance < tau
            }
        else:
            result = _distances_pruned(
                forest, query, query_size, tau, reader, prefilter
            )
        forest._m_matches.inc(len(result))
        return result


def _distances_full(
    forest: "ForestIndex",
    query: PQGramIndex,
    query_size: int,
    reader: "CompactBackend | SnapshotHandle",
    prefilter: Optional[Prefilter],
) -> Dict[int, float]:
    intersections = reader.candidates(query.items())
    result: Dict[int, float] = {}
    pruned = 0
    for tree_id, size in reader.iter_sizes():
        if prefilter is not None and not prefilter(tree_id):
            pruned += 1
            continue
        result[tree_id] = distance_from_overlap(
            intersections.get(tree_id, 0), query_size + size
        )
    # The full scan scores every admitted tree; only prefilter
    # rejections are pruned.
    forest._m_candidates_total.inc(len(result) + pruned)
    if pruned:
        forest._m_candidates_pruned.inc(pruned)
    forest._m_candidates_scored.inc(len(result))
    return result


def _distances_pruned(
    forest: "ForestIndex",
    query: PQGramIndex,
    query_size: int,
    tau: float,
    reader: "CompactBackend | SnapshotHandle",
    prefilter: Optional[Prefilter],
) -> Dict[int, float]:
    result: Dict[int, float] = {}
    if tau <= 0.0:
        return result  # distance < tau ≤ 0 is impossible
    backend = reader
    if query_size == 0:
        # Degenerate empty query: distance 0 to empty trees (never
        # in any posting list), 1 to everything else.
        pruned = 0
        for tree_id, size in backend.iter_sizes():
            if size == 0:
                if prefilter is not None and not prefilter(tree_id):
                    pruned += 1
                    continue
                result[tree_id] = 0.0
        forest._m_candidates_total.inc(len(result) + pruned)
        if pruned:
            forest._m_candidates_pruned.inc(pruned)
        forest._m_candidates_scored.inc(len(result))
        return result
    if prefilter is None:
        # A reader holding a frozen array form answers sweep, size
        # bound, distance and threshold in array space; the per-tree
        # path below is the reference it equals bit for bit, and the
        # only one for every other reader and for a prefilter.
        scan = backend.tau_scan(query.items(), query_size, tau)
        if scan is not None:
            forest._m_keys_swept.inc(scan.keys_swept)
            forest._m_postings_touched.inc(scan.postings_touched)
            forest._m_candidates_total.inc(scan.candidates)
            forest._m_candidates_pruned.inc(scan.pruned)
            forest._m_candidates_scored.inc(scan.scored)
            return scan.matches
    # The τ size bound (and any prefilter), memoized per tree so
    # backends may consult it as often as their sweep shape requires.
    # The cheap size bound runs first; the prefilter only runs on
    # trees the threshold could admit at all.
    admitted: Dict[int, bool] = {}

    def admit(tree_id: int) -> bool:
        verdict = admitted.get(tree_id)
        if verdict is None:
            verdict = size_bound_admits(
                query_size, backend.tree_size(tree_id), tau
            )
            if verdict and prefilter is not None:
                verdict = prefilter(tree_id)
            admitted[tree_id] = verdict
        return verdict

    candidates = backend.candidates(query.items(), admit=admit)
    for tree_id, shared in candidates.items():
        distance = distance_from_overlap(
            shared, query_size + backend.tree_size(tree_id)
        )
        if distance < tau:
            result[tree_id] = distance
    # The admission memo saw every co-occurring tree exactly once
    # (backends may re-ask; the memo de-duplicates), so it is the
    # exact pruning ledger: total = pruned + scored.
    if forest.metrics.enabled:
        pruned = sum(1 for verdict in admitted.values() if not verdict)
        forest._m_candidates_total.inc(len(admitted))
        forest._m_candidates_pruned.inc(pruned)
        forest._m_candidates_scored.inc(len(candidates))
    return result


# ----------------------------------------------------------------------
# plan execution
# ----------------------------------------------------------------------


@dataclass
class Execution:
    """The result of one executed plan."""

    matches: List[Tuple[int, float]]   # (tree id, distance), ascending
    population: int                    # trees the scan considered
    mode: str                          # "plain" | "postfilter"


def _document_filter(
    predicates, documents: Optional[DocumentProvider]
) -> Prefilter:
    if documents is None:
        raise QueryError(
            "plan has structural predicates, but no document provider "
            "was given to post-filter with"
        )

    def accept(tree_id: int) -> bool:
        tree = documents(tree_id)
        for predicate, negated in predicates:
            if tree_matches(tree, predicate) == negated:
                return False
        return True

    return accept


def execute_plan(
    forest: "ForestIndex",
    plan: "Plan | NormalizedPlan",
    *,
    query_index: Optional[PQGramIndex] = None,
    reader: "Optional[CompactBackend | SnapshotHandle]" = None,
    documents: Optional[DocumentProvider] = None,
) -> Execution:
    """Execute a logical plan against ``forest``.

    The plan is normalized (validated) and its retrieval root run
    through :func:`scan_distances`; structural predicates then
    post-filter the matches through ``documents``, which supplies the
    source tree of a matched id and is only called for matches — for
    ``TopK``, for the trees in ``(distance, id)`` order until k passed.
    """
    normalized = normalize_plan(plan)
    retrieval = normalized.retrieval
    predicates = normalized.predicates
    if query_index is None:
        query_index = PQGramIndex.from_tree(
            retrieval.query, forest.config, forest.hasher  # type: ignore[attr-defined]
        )
    scan_reader = reader if reader is not None else forest.backend

    postfilter = _document_filter(predicates, documents) if predicates else None

    if isinstance(retrieval, ApproxLookup):
        distances = scan_distances(
            forest, query_index, tau=retrieval.tau, reader=scan_reader
        )
        population = len(scan_reader)
    else:
        distances = scan_distances(forest, query_index, reader=scan_reader)
        population = len(distances)
    ranked: Iterable[Tuple[int, float]] = sorted(
        distances.items(), key=lambda pair: (pair[1], pair[0])
    )
    if postfilter is not None:
        ranked = (pair for pair in ranked if postfilter(pair[0]))
    if isinstance(retrieval, TopK):
        # Nearest first: the filter walks trees only until k passed.
        ranked = islice(ranked, retrieval.k)
    matches = list(ranked)
    mode = "postfilter" if predicates else "plain"
    forest._m_query_plans[mode].inc()
    return Execution(matches=matches, population=population, mode=mode)
