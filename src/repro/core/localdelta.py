"""Streaming per-operation delta bags.

``delta_label_bag(tree, op)`` returns λ(δ(tree, op)) — the bag of hashed
label tuples of the pq-grams of ``tree`` affected by ``op`` — without
building persistent (P, Q) rows.  It is the work-horse of the
maintenance engine (see :mod:`repro.core.batch`), which needs only
the label bags of each step's old and new pq-grams, never a transported
set representation.

The enumeration follows the δ rows of Table 1 exactly:

- ``REN(n, ·)`` / ``DEL(n)`` → ``P(v) ∘ Q^{k..k}(v)`` plus every
  pq-gram anchored in ``desc_{p-1}(n)``,
- ``INS(n, v, k, m)`` → ``P(v) ∘ Q^{k..m}(v)`` plus every pq-gram
  anchored in ``desc_{p-2}(c_k .. c_m)``,

with the Section 7.2 special rows for leaf anchors.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.config import GramConfig
from repro.edits.move import Move
from repro.edits.ops import Delete, EditOperation, Insert, Rename
from repro.errors import InvalidLogError
from repro.hashing.labelhash import NULL_HASH, LabelHasher
from repro.tree.traversal import descendants_within
from repro.tree.tree import Tree

Bag = Dict[Tuple[int, ...], int]


def _p_part_hashes(
    tree: Tree, node_id: int, p: int, hasher: LabelHasher
) -> Tuple[int, ...]:
    chain: List[int] = []
    for ancestor in reversed(tree.ancestors(node_id, p - 1)):
        chain.append(
            NULL_HASH if ancestor is None else hasher.hash_label(tree.label(ancestor))
        )
    chain.append(hasher.hash_label(tree.label(node_id)))
    return tuple(chain)


def _add_window_grams(
    bag: Bag,
    tree: Tree,
    anchor: int,
    k: int,
    m: int,
    config: GramConfig,
    hasher: LabelHasher,
) -> None:
    """Add P(anchor) ∘ Q^{k..m}(anchor) to the bag (leaf special case
    included)."""
    p_part = _p_part_hashes(tree, anchor, config.p, hasher)
    q = config.q
    if tree.is_leaf(anchor):
        key = p_part + (NULL_HASH,) * q
        bag[key] = bag.get(key, 0) + 1
        return
    window = tree.child_slice(anchor, k - q + 1, m + q - 1)
    hashes = [
        NULL_HASH if child is None else hasher.hash_label(tree.label(child))
        for child in window
    ]
    for offset in range(m - k + q):
        key = p_part + tuple(hashes[offset : offset + q])
        bag[key] = bag.get(key, 0) + 1


def _add_anchor_grams(
    bag: Bag, tree: Tree, anchor: int, config: GramConfig, hasher: LabelHasher
) -> None:
    """Add P(anchor) ∘ Q(anchor) — all pq-grams anchored at the node."""
    _add_window_grams(
        bag, tree, anchor, 1, max(tree.fanout(anchor), 0), config, hasher
    )


def delta_label_bag(
    tree: Tree,
    operation: EditOperation,
    config: GramConfig,
    hasher: LabelHasher,
) -> Bag:
    """λ(δ(tree, operation)) — raises :class:`InvalidLogError` if the
    operation is not applicable (the maintenance engine only evaluates
    operations at the tree version they are defined on, where a valid
    log is always applicable)."""
    bag: Bag = {}
    _check(tree, operation)
    if isinstance(operation, (Rename, Delete)):
        node_id = operation.node_id
        parent = tree.parent(node_id)
        position = tree.sibling_position(node_id)
        _add_window_grams(  # type: ignore[arg-type]
            bag, tree, parent, position, position, config, hasher
        )
        for anchor in descendants_within(tree, node_id, config.p - 1):
            _add_anchor_grams(bag, tree, anchor, config, hasher)
    elif isinstance(operation, Insert):
        parent, k, m = operation.parent_id, operation.k, operation.m
        _add_window_grams(bag, tree, parent, k, m, config, hasher)
        for child_position in range(k, m + 1):
            child = tree.child(parent, child_position)
            for anchor in descendants_within(tree, child, config.p - 2):
                _add_anchor_grams(bag, tree, anchor, config, hasher)
    elif isinstance(operation, Move):
        _add_move_grams(bag, tree, operation, config, hasher)
    else:  # pragma: no cover - exhaustive over the union type
        raise TypeError(f"unknown operation {operation!r}")
    return bag


def _add_move_grams(
    bag: Bag, tree: Tree, operation: Move, config: GramConfig, hasher: LabelHasher
) -> None:
    """The delta enumeration of a subtree move.

    A move can change (a) the window pq-grams of the source and
    destination parents and (b) the pq-grams anchored at the moved root
    or its descendants within p − 2 (their ancestor chains gain new
    nodes above the subtree).  The rule deliberately enumerates *all*
    windows of both parents: the maintenance engine's signed-bag arithmetic
    requires the same structural rule on both sides of the step so
    that unchanged pq-grams cancel exactly — tight per-position ranges
    would enumerate them asymmetrically when source and destination
    share the parent.
    """
    source_parent = tree.parent(operation.node_id)
    for parent in {source_parent, operation.parent_id}:
        _add_anchor_grams(bag, tree, parent, config, hasher)  # type: ignore[arg-type]
    for anchor in descendants_within(tree, operation.node_id, config.p - 2):
        _add_anchor_grams(bag, tree, anchor, config, hasher)


def _check(tree: Tree, operation: EditOperation) -> None:
    """Raise :class:`InvalidLogError` unless the operation applies.

    The maintenance engine evaluates every log operation at exactly the tree
    version it was defined on; inapplicability there means the log does
    not belong to the tree.
    """
    from repro.errors import EditError

    try:
        operation.check(tree)
    except EditError as exc:
        raise InvalidLogError(
            f"log operation {operation} is not applicable at this tree "
            f"version: {exc}"
        ) from exc
