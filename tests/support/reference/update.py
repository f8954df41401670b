"""The profile update function U — Algorithm 3 (with Algorithm 4) and
the U rows of Table 1.

``apply_update(tables, ē)`` rewrites the stored delta pq-grams from the
tree state *after* ē's forward operation to the state *before* it,
using only the stored rows and the operation — never a tree.  Applied
for every log entry from ē_n down to ē_1, it turns Δ⁺ into Δ⁻
(Theorem 2).

Every case follows the same grammar:

1. rewrite the parent's q-matrix window (the ``A // B`` operators),
2. rewrite the affected p-parts level by level (``changePParts``),
3. maintain the structural bookkeeping: row numbers, sibling
   positions and parent ids of stored rows (Section 8.4).
"""

from __future__ import annotations

from typing import Tuple

from repro.edits.ops import Delete, EditOperation, Insert, Rename
from repro.errors import InvalidLogError
from repro.hashing.labelhash import NULL_HASH, LabelHasher

from tests.support.reference.tables import NO_PARENT, DeltaTables


def apply_update(
    tables: DeltaTables, operation: EditOperation, hasher: LabelHasher
) -> None:
    """U(P, Q, ē) of Algorithm 3: transform the stored pq-grams one edit
    step backwards."""
    if isinstance(operation, Rename):
        _update_rename(tables, operation, hasher)
    elif isinstance(operation, Delete):
        _update_delete(tables, operation)
    elif isinstance(operation, Insert):
        _update_insert(tables, operation, hasher)
    else:
        raise InvalidLogError(
            f"the tablewise engine supports INS/DEL/REN only, got {operation}"
        )


def _update_rename(
    tables: DeltaTables, operation: Rename, hasher: LabelHasher
) -> None:
    """ē = REN(n, l'): every stored pq-gram containing n gets n's label
    replaced by l' — in the parent's window diagonal and in the p-parts
    of n and its stored descendants within p-1."""
    p = tables.config.p
    anchor_row = tables.require_p(operation.node_id)
    parent: int = anchor_row["parId"]
    position: int = anchor_row["sibPos"]
    new_hash = hasher.hash_label(operation.label)
    if parent != NO_PARENT:
        tables.update_q_diagonal(parent, position, new_hash)
    ppart: Tuple[int, ...] = anchor_row["ppart"]
    s = ppart[: p - 1] + (new_hash,)
    tables.change_p_parts(operation.node_id, s, p - 1)


def _update_delete(tables: DeltaTables, operation: Delete) -> None:
    """ē = DEL(n): n disappears — its children take its place in the
    parent's window, n drops out of the stored p-parts below it, and
    n's own pq-grams are removed."""
    p = tables.config.p
    node_id = operation.node_id
    anchor_row = tables.require_p(node_id)
    parent: int = anchor_row["parId"]
    position: int = anchor_row["sibPos"]
    if parent == NO_PARENT:
        raise InvalidLogError("DEL of the root is not admissible")
    kid_hashes = tables.decode_anchor_children(node_id)
    # 1. Parent window: Q^{k..k}(v) // Q(n) — n's diagonal becomes n's
    #    children; tail rows of v renumber by fanout(n) - 1.
    parent_row = tables.require_p(parent)
    new_parent_fanout = parent_row["fanout"] + len(kid_hashes) - 1
    window = tables.read_child_window(parent, position, position)
    tables.replace_children(window, kid_hashes, new_parent_fanout)
    tables.update_p(parent, fanout=new_parent_fanout)
    # 2. Drop n's own q-matrix.
    tables.delete_anchor_rows(node_id)
    # 3. p-parts: n vanishes from the chains of its stored descendants
    #    within p-1; a null enters at the top.
    ppart: Tuple[int, ...] = anchor_row["ppart"]
    s = (NULL_HASH,) + ppart[: p - 1]
    tables.change_p_parts(node_id, s, p - 1)
    # 4. Bookkeeping: old right siblings of n shift by fanout(n) - 1;
    #    n's children become children of v at positions k .. k+f-1.
    tables.shift_sib_positions(parent, position, len(kid_hashes) - 1)
    for child_row in tables.children_p_rows(node_id):
        tables.update_p(
            child_row["anchId"],
            parId=parent,
            sibPos=child_row["sibPos"] + position - 1,
        )
    # 5. Remove n's anchor row (σ_{anchId≠n} of Algorithm 3 line 13).
    tables.delete_p(node_id)


def _update_insert(
    tables: DeltaTables, operation: Insert, hasher: LabelHasher
) -> None:
    """ē = INS(n, v, k, m): n appears between v and the children k..m —
    the parent's windows over the adopted range collapse to one diagonal
    (n), n gets its own q-matrix over the adopted children, and n enters
    the stored p-parts below the adopted children."""
    p = tables.config.p
    parent, k, m = operation.parent_id, operation.k, operation.m
    parent_row = tables.require_p(parent)
    new_hash = hasher.hash_label(operation.label)
    # 1. Parent windows: Q^{k..m}(v) // D(n); remember the adopted
    #    children's hashes first.
    new_parent_fanout = parent_row["fanout"] - (m - k)
    window = tables.read_child_window(parent, k, m)
    adopted_hashes = window.kids
    tables.replace_children(window, (new_hash,), new_parent_fanout)
    tables.update_p(parent, fanout=new_parent_fanout)
    # 2. n's q-matrix: D(•) // Q^{k..m}(v) — windows over the adopted
    #    children (the leaf row if none).
    tables.write_anchor_rows(operation.node_id, adopted_hashes)
    # 3. p-parts: s is n's new p-part (v's chain shifted up, n appended).
    parent_ppart: Tuple[int, ...] = parent_row["ppart"]
    s = parent_ppart[1:] + (new_hash,)
    adopted_rows = tables.children_p_rows(parent, k, m)
    for child_row in adopted_rows:
        child_ppart: Tuple[int, ...] = child_row["ppart"]
        s_child = s[1:] + (child_ppart[p - 1],)
        tables.change_p_parts(child_row["anchId"], s_child, p - 2)
    # 4. Bookkeeping: right siblings of the adopted range shift left by
    #    (m - k); adopted children become children of n at 1..(m-k+1);
    #    n itself becomes the k-th child of v.
    tables.shift_sib_positions(parent, m, k - m)
    for child_row in adopted_rows:
        # Only a subset of the adopted children may be stored; their new
        # position below n is relative to the start of the adopted range.
        tables.update_p(
            child_row["anchId"],
            parId=operation.node_id,
            sibPos=child_row["sibPos"] - k + 1,
        )
    tables.add_p_row(operation.node_id, k, parent, m - k + 1, s)
