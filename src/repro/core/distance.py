"""The pq-gram distance (Section 3.2).

``dist(T, T') = 1 - 2 * |I(T) ∩ I(T')| / |I(T) ⊎ I(T')|`` with bag
semantics.  The distance is a pseudo-metric on trees: 0 for identical
label structures, approaching 1 for unrelated ones, and it lower-bounds
a constant multiple of the fanout-weighted tree edit distance (Augsten
et al. 2005) — an approximation quality our ablation bench A1 measures
against exact Zhang–Shasha.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import GramConfig
from repro.core.index import PQGramIndex
from repro.errors import GramConfigError
from repro.hashing.labelhash import LabelHasher
from repro.tree.tree import Tree

try:  # only the vector twins below need it
    import numpy as _np
except ImportError:  # pragma: no cover - environment without numpy
    _np = None


def distance_from_overlap(shared: int, union: int) -> float:
    """pq-gram distance from ``|I ∩ I'|`` and ``|I ⊎ I'|``.

    This is *the* distance expression of the whole code base: every
    path that turns an accumulated bag overlap into a distance (pairwise
    compare, forest sweep, similarity join) must go through it so that
    pruned and unpruned paths agree bit for bit.
    """
    if union == 0:
        return 0.0
    return 1.0 - 2.0 * shared / union


def size_bound_admits(left_size: int, right_size: int, tau: float) -> bool:
    """Candidate filter from bag sizes alone.

    ``dist < τ`` needs ``|I ∩ I'| > (1-τ)/2 · (|I| + |I'|)`` and the
    overlap is at most ``min(|I|, |I'|)``, so a pair whose *best
    possible* distance already reaches τ can be discarded before its
    overlap is even looked at.  The bound is evaluated with exactly the
    float expression of :func:`distance_from_overlap` — which is
    monotone in the overlap under IEEE rounding — so pruning can never
    disagree with the final ``distance < tau`` comparison.
    """
    return distance_from_overlap(
        min(left_size, right_size), left_size + right_size
    ) < tau


def distances_from_overlaps(shared, union):
    """Vector twin of :func:`distance_from_overlap`: int64 arrays in,
    one float64 distance per element out.

    Same operations in the same order — ``1.0 - 2.0 * shared / union``
    in IEEE doubles — so every element equals the scalar expression bit
    for bit (property-tested); the array-space lookup kernel
    (:func:`repro.perf.sweep.tau_scan`) scores through this and through
    nothing else.
    """
    return _np.where(
        union == 0, 0.0, 1.0 - 2.0 * shared / _np.maximum(union, 1)
    )


def size_bounds_admit(left_size: int, right_sizes, tau: float):
    """Vector twin of :func:`size_bound_admits`: one query size against
    an int64 array of tree sizes, one verdict per tree."""
    return distances_from_overlaps(
        _np.minimum(left_size, right_sizes), left_size + right_sizes
    ) < tau


def index_distance(left: PQGramIndex, right: PQGramIndex) -> float:
    """pq-gram distance between two prebuilt indexes (the bag
    intersection is a probe of the smaller dict bag into the larger)."""
    if left.config != right.config:
        raise GramConfigError(
            f"cannot compare a {left.config} index with a {right.config} index"
        )
    union = left.bag_union_size(right)
    if union == 0:
        return 0.0
    return distance_from_overlap(left.bag_intersection_size(right), union)


def pq_gram_distance(
    left: Tree,
    right: Tree,
    config: Optional[GramConfig] = None,
    hasher: Optional[LabelHasher] = None,
) -> float:
    """pq-gram distance between two trees (indexes built on the fly).

    Building the indexes dominates the cost — which is exactly why the
    paper precomputes and incrementally maintains them (Section 9.1).
    """
    config = config or GramConfig()
    hasher = hasher or LabelHasher()
    return index_distance(
        PQGramIndex.from_tree(left, config, hasher),
        PQGramIndex.from_tree(right, config, hasher),
    )
