"""Parallel forest construction and parallel maintenance deltas.

From-scratch index construction is the single most expensive operation
of the lookup workflow (paper Section 9.1) and is embarrassingly
parallel across trees: every tree's bag only needs the tree itself and
a label hasher.  Workers therefore build bags with private
:class:`~repro.hashing.labelhash.LabelHasher` instances — Karp–Rabin
fingerprints are deterministic, so every worker maps equal labels to
equal hashes — and the parent merges the label memos afterwards so
later incremental updates keep their O(1) label lookups warm.

The same worker shape serves the batched maintenance engine
(:mod:`repro.core.batch`): the per-operation δ bags of one commuting
group are all evaluated against the same tree version, so
:func:`delta_bags_parallel` fans them out across processes.  The tree
is shipped to every worker, which only pays off for large groups over
large documents — the engine gates the fan-out on group size.

Falls back to the serial loop for tiny inputs, ``jobs <= 1``, or when
the platform cannot spawn workers.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import GramConfig
from repro.core.index import Bag, PQGramIndex
from repro.hashing.labelhash import LabelHasher
from repro.tree.tree import Tree

Item = Tuple[int, Tree]


def _build_bags(payload: Tuple[GramConfig, List[Item]]):
    """Worker: bags + label memo for one chunk of trees."""
    config, items = payload
    hasher = LabelHasher()
    bags = [
        (tree_id, dict(PQGramIndex.from_tree(tree, config, hasher).items()))
        for tree_id, tree in items
    ]
    return bags, hasher.memo_snapshot()


def build_bags_parallel(
    items: List[Item],
    config: GramConfig,
    jobs: Optional[int] = None,
) -> Tuple[List[Tuple[int, Bag]], Dict[str, int]]:
    """Bags of every tree, built across worker processes.

    Returns the ``(tree_id, bag)`` list (input order) and the merged
    label memo of all workers.  Runs serially when parallelism cannot
    help or is unavailable.
    """
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    jobs = min(jobs, len(items))
    if jobs <= 1 or len(items) < 2:
        return _build_bags((config, items))
    chunks: List[List[Item]] = [items[rank::jobs] for rank in range(jobs)]
    try:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            parts = pool.map(
                _build_bags, [(config, chunk) for chunk in chunks]
            )
    except (ImportError, OSError):  # pragma: no cover - restricted platforms
        return _build_bags((config, items))
    by_id: Dict[int, Bag] = {}
    memo: Dict[str, int] = {}
    for bags, part_memo in parts:
        for tree_id, bag in bags:
            by_id[tree_id] = bag
        memo.update(part_memo)
    return [(tree_id, by_id[tree_id]) for tree_id, _ in items], memo


def _build_delta_bags(payload):
    """Worker: δ bags + label memo for one chunk of a commuting group."""
    tree, config, indexed_ops = payload
    from repro.core.localdelta import delta_label_bag

    hasher = LabelHasher()
    bags = [
        (position, delta_label_bag(tree, operation, config, hasher))
        for position, operation in indexed_ops
    ]
    return bags, hasher.memo_snapshot()


def delta_bags_parallel(
    tree: Tree,
    operations: Sequence,
    config: GramConfig,
    jobs: Optional[int] = None,
) -> Tuple[List[Bag], Dict[str, int]]:
    """λ(δ(tree, op)) for every operation, fanned out over workers.

    All operations must be applicable on this exact tree version (the
    commuting-group contract of :mod:`repro.core.batch`).  Returns the
    bags in input order plus the merged label memo of all workers;
    runs serially when parallelism cannot help or is unavailable.
    """
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    jobs = min(jobs, len(operations))
    indexed = list(enumerate(operations))
    if jobs <= 1 or len(operations) < 2:
        bags, memo = _build_delta_bags((tree, config, indexed))
        return [bag for _, bag in bags], memo
    chunks = [indexed[rank::jobs] for rank in range(jobs)]
    try:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            parts = pool.map(
                _build_delta_bags,
                [(tree, config, chunk) for chunk in chunks],
            )
    except (ImportError, OSError):  # pragma: no cover - restricted platforms
        bags, memo = _build_delta_bags((tree, config, indexed))
        return [bag for _, bag in bags], memo
    by_position: Dict[int, Bag] = {}
    memo: Dict[str, int] = {}
    for bags, part_memo in parts:
        for position, bag in bags:
            by_position[position] = bag
        memo.update(part_memo)
    return [by_position[position] for position in range(len(operations))], memo


def build_forest_parallel(
    collection: Iterable[Item],
    config: Optional[GramConfig] = None,
    jobs: Optional[int] = None,
    backend: str = "compact",
):
    """A :class:`~repro.lookup.forest.ForestIndex` over ``collection``,
    with the per-tree index construction fanned out over ``jobs``
    worker processes (default: all cores).  ``backend`` picks the
    forest's storage engine.  Identical to the serial ``add_tree`` loop
    in every observable way."""
    from repro.lookup.forest import ForestIndex

    forest = ForestIndex(config, backend=backend)
    forest.add_trees(collection, jobs=jobs)
    return forest
