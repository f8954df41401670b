"""The physical executor: plans → candidate sweeps → matches.

Two entry points:

- :func:`scan_distances` — the distance scan behind
  ``ForestIndex.distances``: τ push-down, size-bound pruning, scoring
  and the pruned-vs-scored metrics ledger, in one place.  Readers
  (the live backend, a snapshot view) only sweep.
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

import math
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

#: a per-tree verdict: True keeps the tree
TreeFilter = Callable[[int], bool]
#: resolves a tree id to its document tree (the structural post-filter)
DocumentProvider = Callable[[int], "Tree"]


# ----------------------------------------------------------------------
# the distance scan
# ----------------------------------------------------------------------


def scan_distances(
    forest: "ForestIndex",
    query: PQGramIndex,
    tau: Optional[float] = None,
    *,
    reader: "Optional[CompactBackend | SnapshotHandle]" = None,
) -> Dict[int, float]:
    """pq-gram distances of ``query`` against the forest.

    Without ``tau``: the distance to every indexed tree.  With ``tau``:
    exactly the trees with ``distance < tau``, the threshold pushed
    into the scan.  ``reader`` selects the live backend (default) or an
    immutable snapshot view.  Readers only sweep: the size bound and
    the distances are applied here — by the reader's array-space
    :meth:`tau_scan` where it offers one, otherwise by :func:`_score` —
    and every tree considered lands in the candidates ledger
    (``lookup_candidates_total`` = pruned + scored).
    """
    if reader is None:
        reader = forest.backend
    query_size = query.size()
    forest._m_lookups.inc()
    with forest.metrics.span("lookup.distances"):
        if tau is not None and tau <= 0.0:
            result: Dict[int, float] = {}  # distance < tau ≤ 0 is impossible
        else:
            scan = None
            if tau is not None and tau <= 1.0 and query_size:
                scan = reader.tau_scan(query.items(), query_size, tau)
            if scan is None:
                result = _score(forest, query, query_size, tau, reader)
            else:
                forest._m_keys_swept.inc(scan.keys_swept)
                forest._m_postings_touched.inc(scan.postings_touched)
                _count_candidates(forest, scan.pruned, scan.scored)
                result = scan.matches
        if tau is not None:
            forest._m_matches.inc(len(result))
        return result


def _score(
    forest: "ForestIndex",
    query: PQGramIndex,
    query_size: int,
    tau: Optional[float],
    reader: "CompactBackend | SnapshotHandle",
) -> Dict[int, float]:
    """One sweep, then the size bound and the distance of every tree
    the threshold leaves in play: the scorer of every reader without
    an array form, and the reference :meth:`tau_scan` equals bit for
    bit.

    A tree sharing no pq-gram with the query is at distance 1 (0 when
    both bags are empty), so for ``tau ≤ 1`` only the co-occurring
    trees can match — for an empty query, only the empty trees; with
    no ``tau`` or ``tau > 1`` every tree is scored.
    """
    overlaps = reader.candidates(query.items())
    limit = math.inf if tau is None else tau
    # Above 1 every distance (at most 1) is under the limit: every tree
    # is scored, and the size bound could prune none.
    bounded = limit <= 1.0
    trees: Iterable[Tuple[int, int]]
    if not bounded:
        trees = reader.iter_sizes()
    elif query_size:
        trees = ((tree_id, reader.tree_size(tree_id)) for tree_id in overlaps)
    else:
        trees = ((tree_id, size) for tree_id, size in reader.iter_sizes() if not size)
    result: Dict[int, float] = {}
    pruned = scored = 0
    for tree_id, size in trees:
        if bounded and not size_bound_admits(query_size, size, limit):
            pruned += 1
            continue
        scored += 1
        distance = distance_from_overlap(
            overlaps.get(tree_id, 0), query_size + size
        )
        if distance < limit:
            result[tree_id] = distance
    _count_candidates(forest, pruned, scored)
    return result


def _count_candidates(forest: "ForestIndex", pruned: int, scored: int) -> None:
    """The candidates ledger of one scan: total = pruned + scored."""
    forest._m_candidates_total.inc(pruned + scored)
    forest._m_candidates_pruned.inc(pruned)
    forest._m_candidates_scored.inc(scored)


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
) -> TreeFilter:
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
