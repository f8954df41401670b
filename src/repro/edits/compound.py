"""Compound (subtree) operations lowered to node edit sequences.

Section 10 of the paper: "Operations on subtrees, e.g., subtree move,
insertion or deletion, are simulated by a sequence of node edit
operations."  These helpers produce exactly such sequences, so subtree
operations flow through the same incremental maintenance machinery.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.edits.ops import Delete, EditOperation, Insert
from repro.tree.builder import Nested, tree_to_nested
from repro.tree.traversal import postorder
from repro.tree.tree import Tree


def insert_subtree_ops(
    tree: Tree,
    spec: Nested,
    parent_id: int,
    position: int,
    first_id: Optional[int] = None,
) -> List[EditOperation]:
    """Node edits inserting a whole subtree (given as nested tuples)
    as the ``position``-th child of ``parent_id``.

    Nodes get consecutive fresh ids starting at ``first_id`` (default:
    the tree's next fresh id).  The sequence inserts top-down and left
    to right: every insertion is a leaf insertion under an already
    inserted node, so each step is applicable.
    """
    next_id = tree.fresh_id() if first_id is None else first_id
    operations: List[EditOperation] = []
    # Preorder with an explicit stack: ids are handed out in the order
    # the insertions are emitted.
    stack = [(spec, parent_id, position)]
    while stack:
        (label, children), parent, k = stack.pop()
        node_id = next_id
        next_id += 1
        operations.append(Insert(node_id, label, parent, k, k - 1))
        stack.extend(
            (child, node_id, child_position)
            for child_position, child in reversed(
                list(enumerate(children, start=1))
            )
        )
    return operations


def delete_subtree_ops(tree: Tree, node_id: int) -> List[EditOperation]:
    """Node edits deleting the whole subtree rooted at ``node_id``.

    Deletes bottom-up (postorder), so every deleted node is a leaf at
    the time of its deletion only in effect — DEL splices children, so
    deleting parents first would orphan descendants into the parent's
    place; bottom-up keeps every step local and applicable.
    """
    return [Delete(current) for current in postorder(tree, node_id)]


def move_subtree_ops(
    tree: Tree,
    node_id: int,
    new_parent_id: int,
    position: int,
) -> Tuple[List[EditOperation], int]:
    """Node edits moving the subtree at ``node_id`` below
    ``new_parent_id`` at ``position``.

    A move is simulated as delete-then-reinsert with *fresh* ids (the
    paper's edit model has no node identity across a delete/insert
    pair).  The new parent must not lie inside the moved subtree.
    Returns ``(operations, new_root_id)`` where ``new_root_id`` is the
    id the subtree's root gets after the move.
    """
    subtree_ids = set(tree.subtree_ids(node_id))
    if new_parent_id in subtree_ids:
        raise ValueError("cannot move a subtree below itself")

    spec = tree_to_nested(tree, node_id)
    operations = delete_subtree_ops(tree, node_id)
    first_id = tree.fresh_id()
    # If the source precedes the target under the same parent, deleting
    # the source shifts the target position left by one.
    adjusted = position
    if tree.parent(node_id) == new_parent_id:
        source_position = tree.sibling_position(node_id)
        if source_position < position:
            adjusted -= 1
    operations.extend(
        insert_subtree_ops(tree, spec, new_parent_id, adjusted, first_id=first_id)
    )
    return operations, first_id
