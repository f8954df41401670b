"""Approximate similarity joins between forests.

The approximate XML join of the related work (Guha et al.): given two
collections, return all pairs within pq-gram distance τ.

Strategy: every left tree is a query against the right forest's
relation — one candidate sweep (``right.backend.candidates``, the sweep
a live lookup runs, over the CSR base the join freezes first) yields
the bag intersection ``Σ_key min(cnt_l, cnt_r)`` of that tree with
every right tree sharing a pq-gram, so each pair's distance falls out
with O(1) arithmetic and *pairs sharing no pq-gram are never
materialized at all*.  A size filter (from ``dist < τ`` follows
``min(|I|,|I'|) ≥ (1-τ)/2 · (|I|+|I'|)``) discards hopeless candidates
before the final arithmetic.

Complexity: ``Σ_left Σ_key∈left |postings_right(key)|`` posting reads,
done in array space — excellent for heterogeneous collections where
most pairs share nothing, but no better than the naive all-pairs loop
for homogeneous collections whose schema pq-grams co-occur everywhere
(ablation A4 quantifies both regimes).  ``similarity_join`` picks the
sweep strategy; ``similarity_join_allpairs`` is the dense fallback and
the oracle the sweep is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.distance import (
    distance_from_overlap,
    index_distance,
    size_bound_admits,
)
from repro.errors import GramConfigError
from repro.lookup.forest import ForestIndex


@dataclass
class JoinStats:
    """Work counters of one similarity join (for the pruning bench)."""

    total_pairs: int = 0          # |A| x |B| (or n(n-1)/2 for self-join)
    candidate_pairs: int = 0      # pairs sharing >= 1 pq-gram
    size_filtered: int = 0        # candidates discarded by the tau pruning
    results: int = 0              # pairs within tau


def _check(left: ForestIndex, right: ForestIndex, tau: float) -> None:
    if left.config != right.config:
        raise GramConfigError(
            f"cannot join a {left.config} forest with a {right.config} forest"
        )
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must be in (0, 1]")


def similarity_join(
    left: ForestIndex,
    right: ForestIndex,
    tau: float,
) -> Tuple[List[Tuple[int, int, float]], JoinStats]:
    """All (left id, right id, distance) with distance < τ, sorted by
    ``(distance, left id, right id)``: one candidate sweep of the right
    forest per left tree.  Passing the same object twice performs a
    self-join over unordered distinct pairs."""
    _check(left, right, tau)
    self_mode = left is right
    stats = JoinStats()
    left_count, right_count = len(left), len(right)
    stats.total_pairs = (
        left_count * (left_count - 1) // 2 if self_mode else left_count * right_count
    )
    right.compact()

    results: List[Tuple[int, int, float]] = []
    for left_id in left.tree_ids():
        left_size = left.size_of(left_id)
        query = list(left.backend.tree_bag(left_id).items())
        for right_id, shared in right.backend.candidates(query).items():
            if self_mode and left_id >= right_id:
                continue
            stats.candidate_pairs += 1
            right_size = right.size_of(right_id)
            # The same τ kernel the forest lookup uses: prune from sizes
            # alone (no distance materialized), then decide on the overlap.
            if not size_bound_admits(left_size, right_size, tau):
                stats.size_filtered += 1
                continue
            distance = distance_from_overlap(shared, left_size + right_size)
            if distance < tau:
                results.append((left_id, right_id, distance))
            else:
                stats.size_filtered += 1
    stats.results = len(results)
    results.sort(key=lambda row: (row[2], row[0], row[1]))
    return results, stats


def similarity_join_allpairs(
    left: ForestIndex,
    right: ForestIndex,
    tau: float,
) -> Tuple[List[Tuple[int, int, float]], JoinStats]:
    """The dense strategy: exact distance for every pair.  Preferable
    for homogeneous collections with near-total pq-gram co-occurrence."""
    _check(left, right, tau)
    self_mode = left is right
    stats = JoinStats()
    results: List[Tuple[int, int, float]] = []
    left_ids = sorted(left.tree_ids())
    right_ids = sorted(right.tree_ids())
    for left_id in left_ids:
        left_index = left.index_of(left_id)
        for right_id in right_ids:
            if self_mode and left_id >= right_id:
                continue
            stats.total_pairs += 1
            stats.candidate_pairs += 1
            distance = index_distance(left_index, right.index_of(right_id))
            if distance < tau:
                results.append((left_id, right_id, distance))
    stats.results = len(results)
    results.sort(key=lambda row: row[2])
    return results, stats


def self_join(forest: ForestIndex, tau: float):
    """Convenience wrapper: all near-duplicate pairs within a forest."""
    return similarity_join(forest, forest, tau)
