"""The delta function δ(T, ē) — Algorithm 2 and the δ rows of Table 1.

Given the resulting tree and one inverse edit operation from the log,
the delta function collects the pq-grams of the tree that the operation
affects, as (P, Q) table rows:

- ``REN(n, l')`` / ``DEL(n)``: the parent's window around n (rows
  ``Q^{k..k}(v)``) plus all pq-grams anchored at n or a descendant
  within distance p-1 — exactly the pq-grams containing n (Lemma 1,
  Eq. 8),
- ``INS(n, v, k, m)``: the parent's windows around children k..m (rows
  ``Q^{k..m}(v)``) plus all pq-grams anchored at a child k..m or its
  descendants within distance p-2 — the pq-grams containing v together
  with a moved child (Lemma 1, Eq. 7), with the paper's special rows
  for leaf insertions.

An operation that is not applicable to the tree contributes nothing
(Definition 4's "otherwise ∅" case): inverse operations of the log are
defined against intermediate tree versions and need not apply to T_n.
"""

from __future__ import annotations

from repro.edits.ops import Delete, EditOperation, Insert, Rename, is_applicable
from repro.errors import InvalidLogError
from repro.hashing.labelhash import LabelHasher
from repro.tree.traversal import descendants_within
from repro.tree.tree import Tree

from tests.support.reference.tables import DeltaTables


def delta_into_tables(
    tree: Tree,
    operation: EditOperation,
    tables: DeltaTables,
    hasher: LabelHasher,
) -> bool:
    """Accumulate δ(tree, operation) into the (P, Q) pair.

    Returns whether the operation was applicable (i.e. contributed a
    delta).  Rows already present from earlier deltas are deduplicated;
    all deltas are computed against the same tree, so duplicates always
    agree.
    """
    if not is_applicable(tree, operation):
        return False
    if isinstance(operation, (Rename, Delete)):
        _delta_node_op(tree, operation.node_id, tables, hasher)
    elif isinstance(operation, Insert):
        _delta_insert(tree, operation, tables, hasher)
    else:
        # Subtree moves (repro.edits.move) exist only for the
        # maintenance engine; the paper's Algorithms 1-4 have no move case.
        raise InvalidLogError(
            f"the tablewise engine supports INS/DEL/REN only, got "
            f"{operation}"
        )
    return True


def _delta_node_op(
    tree: Tree, node_id: int, tables: DeltaTables, hasher: LabelHasher
) -> None:
    """δ for REN(n, ·) and DEL(n): all pq-grams containing n."""
    parent = tree.parent(node_id)
    position = tree.sibling_position(node_id)
    tables.add_p_row_from_tree(tree, parent, hasher)  # type: ignore[arg-type]
    tables.add_q_rows_from_tree(tree, parent, position, position, hasher)  # type: ignore[arg-type]
    for anchor in descendants_within(tree, node_id, tables.config.p - 1):
        tables.add_p_row_from_tree(tree, anchor, hasher)
        tables.add_all_q_rows_from_tree(tree, anchor, hasher)


def _delta_insert(
    tree: Tree, operation: Insert, tables: DeltaTables, hasher: LabelHasher
) -> None:
    """δ for INS(n, v, k, m): the parent's windows over the adopted
    range plus the pq-grams whose p-part will gain n."""
    parent, k, m = operation.parent_id, operation.k, operation.m
    tables.add_p_row_from_tree(tree, parent, hasher)
    tables.add_q_rows_from_tree(tree, parent, k, m, hasher)
    depth = tables.config.p - 2
    for child_position in range(k, m + 1):
        child = tree.child(parent, child_position)
        for anchor in descendants_within(tree, child, depth):
            tables.add_p_row_from_tree(tree, anchor, hasher)
            tables.add_all_q_rows_from_tree(tree, anchor, hasher)
