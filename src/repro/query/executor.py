"""The physical executor: plans → candidate sweeps → matches.

Two entry points:

- :func:`scan_distances` — the distance scan that used to live inline
  in ``ForestIndex.distances`` (τ push-down, size-bound pruning, the
  pruned-vs-scored metrics ledger), extended with an optional per-tree
  ``prefilter``.  ``ForestIndex.distances`` is now a thin delegate.
- :func:`execute_plan` — run a logical :mod:`repro.query.plan` against
  a forest.  Structural predicates are *pushed down* into the sweep
  when the backend stores the pre/post encoding (they join the τ size
  bound inside the admission predicate, so rejected trees are pruned
  before any distance is materialized and counted in the existing
  pruned ledger); otherwise they are applied as a bit-identical
  post-filter over the retrieval result — via the backend's matchers
  when available, else by walking the source documents.

Pushdown and post-filter return identical matches because per-tree
distances are independent: filtering before or after scoring selects
the same ``(tree, distance)`` set, and ``TopK`` truncates only after
filtering in both modes.

Snapshot reads: the distance sweep honours the ``reader`` (a live
backend or an immutable ``SnapshotHandle``), but structural matchers
always consult the live backend's node tables — snapshots carry no
structural capability.  Under the single-writer commit protocol both
describe the same generation for any cacheable read; the serving
layer's per-generation result cache keys on the plan fingerprint.

This module deliberately reaches into ``ForestIndex``'s pre-resolved
metric instruments (``_m_lookups`` and friends): the two form one
read path split across layers, and re-resolving instruments per scan
would tax the hot sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
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
    from repro.backend.base import ForestBackend
    from repro.concurrency.snapshot import SnapshotHandle
    from repro.lookup.forest import ForestIndex
    from repro.tree.tree import Tree

Prefilter = Callable[[int], bool]
#: resolves a tree id to its document tree (post-filter fallback)
DocumentProvider = Callable[[int], "Tree"]


# ----------------------------------------------------------------------
# the distance scan (moved here from ForestIndex.distances)
# ----------------------------------------------------------------------


def scan_distances(
    forest: "ForestIndex",
    query: PQGramIndex,
    tau: Optional[float] = None,
    *,
    reader: "Optional[ForestBackend | SnapshotHandle]" = None,
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
    reader: "ForestBackend | SnapshotHandle",
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
    reader: "ForestBackend | SnapshotHandle",
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
        # only one for every other reader and for structural pushdown.
        scan = backend.tau_scan(query.items(), query_size, tau)
        if scan is not None:
            forest._m_keys_swept.inc(scan.keys_swept)
            forest._m_postings_touched.inc(scan.postings_touched)
            forest._m_candidates_total.inc(scan.candidates)
            forest._m_candidates_pruned.inc(scan.pruned)
            forest._m_candidates_scored.inc(scan.scored)
            return scan.matches
    # The τ size bound (and any structural prefilter), memoized per
    # tree so backends may consult it as often as their sweep shape
    # requires.  The cheap size bound runs first; the structural check
    # only runs on trees the threshold could admit at all.
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
    mode: str                          # "plain" | "pushdown" | "postfilter"


def _combine(matchers: List[Tuple[Prefilter, bool]]) -> Prefilter:
    def accept(tree_id: int) -> bool:
        for matcher, negated in matchers:
            if bool(matcher(tree_id)) == negated:
                return False
        return True

    return accept


def _backend_matchers(
    backend: "ForestBackend", predicates
) -> Optional[List[Tuple[Prefilter, bool]]]:
    """Per-tree matchers from the backend's node tables, or None when
    the backend cannot evaluate every predicate."""
    if not backend.supports_structural_predicates:
        return None
    if not backend.structures_complete():
        return None
    matchers: List[Tuple[Prefilter, bool]] = []
    for predicate, negated in predicates:
        matcher = backend.structural_matcher(predicate)
        if matcher is None:
            return None
        matchers.append((matcher, negated))
    return matchers


def _document_filter(
    predicates, documents: Optional[DocumentProvider]
) -> Prefilter:
    if documents is None:
        raise QueryError(
            "plan has structural predicates, but the backend stores no "
            "pre/post encoding and no document provider was given to "
            "post-filter with"
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
    reader: "Optional[ForestBackend | SnapshotHandle]" = None,
    documents: Optional[DocumentProvider] = None,
    force_mode: Optional[str] = None,
) -> Execution:
    """Execute a logical plan against ``forest``.

    The plan is normalized (validated), rewritten against the
    backend's capabilities, and run through :func:`scan_distances`.
    ``documents`` supplies source trees for the post-filter fallback;
    ``force_mode`` (``"pushdown"`` / ``"postfilter"``) pins the
    physical strategy for equivalence tests and benchmarks — forcing
    pushdown on a backend that cannot raise it is a
    :class:`~repro.errors.QueryError`.
    """
    if force_mode not in (None, "pushdown", "postfilter"):
        raise QueryError(f"unknown force_mode {force_mode!r}")
    normalized = normalize_plan(plan)
    retrieval = normalized.retrieval
    predicates = normalized.predicates
    if query_index is None:
        query_index = PQGramIndex.from_tree(
            retrieval.query, forest.config, forest.hasher  # type: ignore[attr-defined]
        )
    live = forest.backend
    scan_reader = reader if reader is not None else live

    mode = "plain"
    prefilter: Optional[Prefilter] = None
    postfilter: Optional[Prefilter] = None
    if predicates:
        matchers = (
            None
            if force_mode == "postfilter"
            else _backend_matchers(live, predicates)
        )
        if matchers is not None:
            mode = "pushdown"
            prefilter = _combine(matchers)
        else:
            if force_mode == "pushdown":
                raise QueryError(
                    f"backend {live.name!r} cannot push structural "
                    "predicates down (no complete pre/post encoding)"
                )
            mode = "postfilter"
            fallback = _backend_matchers(live, predicates)
            postfilter = (
                _combine(fallback)
                if fallback is not None
                else _document_filter(predicates, documents)
            )

    if isinstance(retrieval, ApproxLookup):
        distances = scan_distances(
            forest,
            query_index,
            tau=retrieval.tau,
            reader=scan_reader,
            prefilter=prefilter,
        )
        population = len(scan_reader)
    else:
        distances = scan_distances(
            forest, query_index, tau=None, reader=scan_reader, prefilter=prefilter
        )
        population = len(distances)
    if postfilter is not None:
        distances = {
            tree_id: distance
            for tree_id, distance in distances.items()
            if postfilter(tree_id)
        }
    matches = sorted(distances.items(), key=lambda pair: (pair[1], pair[0]))
    if isinstance(retrieval, TopK):
        population = len(matches)
        matches = matches[: retrieval.k]
    forest._m_query_plans[mode].inc()
    return Execution(matches=matches, population=population, mode=mode)
