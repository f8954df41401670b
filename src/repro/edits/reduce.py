"""Log preprocessing: eliminate redundant edit operations.

Section 10 of the paper names this as future work: "Later edit
operations in the log might undo earlier ones.  In future we will
investigate how the log can be preprocessed in order to eliminate
redundant edit operations."  We implement two safe reductions on
*scripts* (forward direction):

1. **Rename-chain collapse** — consecutive renames of the same node
   keep only the last one; a chain that restores the node's original
   label disappears entirely.
2. **Insert/delete annihilation** — a node that is inserted as a leaf
   and later deleted, with no operation in between touching it, is
   dropped together with its deletion.

Both preserve the final tree exactly (asserted property-based), so a
reduced script produces a log that maintains the index to the same
state with less work.  The ablation bench A3 quantifies the gain.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.edits.ops import Delete, EditOperation, Insert, Rename
from repro.tree.tree import Tree


def _collapse_renames(
    tree: Tree, operations: Sequence[EditOperation]
) -> List[Optional[EditOperation]]:
    """Keep only the last rename of any uninterrupted rename chain.

    The scan tracks labels through a lazy overlay on the (unmodified)
    input tree instead of mutating a deep copy — reduction is O(script)
    regardless of tree size.  Operations on unknown node ids are kept
    verbatim and left for the maintenance engines to reject.
    """
    result: List[Optional[EditOperation]] = list(operations)
    last_rename: Dict[int, int] = {}  # node id -> position of pending rename
    original_label: Dict[int, str] = {}
    overlay: Dict[int, Optional[str]] = {}  # labels changed by the prefix

    def current_label(node_id: int) -> Optional[str]:
        if node_id in overlay:
            return overlay[node_id]
        if node_id in tree:
            return tree.label(node_id)
        return None

    for position, operation in enumerate(operations):
        if isinstance(operation, Rename):
            node_id = operation.node_id
            if node_id in last_rename:
                result[last_rename[node_id]] = None
            else:
                known = current_label(node_id)
                if known is None:
                    # Invalid script; don't reduce around the bad op.
                    overlay[node_id] = operation.label
                    continue
                original_label[node_id] = known
            if operation.label == original_label.get(node_id):
                # Chain restored the original label: drop it entirely.
                result[position] = None
                del last_rename[node_id]
                del original_label[node_id]
            else:
                last_rename[node_id] = position
            overlay[node_id] = operation.label
        elif isinstance(operation, Insert):
            # Structural ops may move the node or change its context;
            # renames across them are kept (conservative).
            last_rename.clear()
            original_label.clear()
            overlay[operation.node_id] = operation.label
        elif isinstance(operation, Delete):
            last_rename.clear()
            original_label.clear()
            overlay[operation.node_id] = None
    return result


def _annihilate_insert_delete(
    operations: List[Optional[EditOperation]],
) -> List[Optional[EditOperation]]:
    """Drop leaf insertions that a later delete removes untouched."""
    pending_leaf_insert: Dict[int, int] = {}
    result = list(operations)
    for position, operation in enumerate(operations):
        if operation is None:
            continue
        if isinstance(operation, Insert):
            if operation.m == operation.k - 1:  # leaf insertion
                pending_leaf_insert[operation.node_id] = position
            else:
                # Adopting children may involve previously inserted nodes.
                pending_leaf_insert.clear()
        elif isinstance(operation, Delete):
            insert_position = pending_leaf_insert.pop(operation.node_id, None)
            if insert_position is not None and _untouched_between(
                operations, insert_position, position, operation.node_id
            ):
                result[insert_position] = None
                result[position] = None
            else:
                pending_leaf_insert.clear()
        elif isinstance(operation, Rename):
            pending_leaf_insert.pop(operation.node_id, None)
    return result


def _untouched_between(
    operations: Sequence[Optional[EditOperation]],
    start: int,
    stop: int,
    node_id: int,
) -> bool:
    """True iff dropping the leaf insert of ``node_id`` cannot affect
    any operation strictly between start and stop.

    Two hazards: an operation may *refer* to the node, or it may be
    positionally addressed under the same parent (removing the leaf
    shifts sibling positions).  Renames are position-free; inserts
    under a provably different parent are safe; everything else —
    deletes (their parent is unknown statically), moves, same-parent
    inserts — conservatively blocks the annihilation.
    """
    insert = operations[start]
    assert isinstance(insert, Insert)
    for operation in operations[start + 1 : stop]:
        if operation is None:
            continue
        if isinstance(operation, Rename):
            if operation.node_id == node_id:
                return False
        elif isinstance(operation, Insert):
            if (
                operation.node_id == node_id
                or operation.parent_id == node_id
                or operation.parent_id == insert.parent_id
            ):
                return False
        else:
            # Delete, Move, or an unknown extension: positions may shift.
            return False
    return True


def reduce_script(tree: Tree, operations: Sequence[EditOperation]) -> List[EditOperation]:
    """Return an equivalent, possibly shorter script for ``tree``.

    Equivalence means the reduced script applied to ``tree`` yields a
    structurally identical final tree.
    """
    collapsed = _collapse_renames(tree, operations)
    annihilated = _annihilate_insert_delete(collapsed)
    return [operation for operation in annihilated if operation is not None]


def reduce_log(tree: Tree, operations: Sequence[EditOperation]) -> List[EditOperation]:
    """Alias of :func:`reduce_script` named from the paper's viewpoint.

    Reducing the forward script before computing its inverse log is
    equivalent to reducing the log itself.
    """
    return reduce_script(tree, operations)


def compact_inverse_log(
    tree: Tree, log: Sequence[EditOperation]
) -> List[EditOperation]:
    """Reduce an inverse log ``(ē_1, .., ē_n)`` against ``tree`` = T_n.

    The log applied in reverse order is itself a script on T_n (it
    rebuilds T_0), so :func:`reduce_script` applies verbatim; the
    result is returned back in *log order* (ē'_1, .., ē'_k with k ≤ n)
    so it slots into every maintenance engine unchanged.

    Maintenance is invariant under this rewrite: the engine's
    net signed bag telescopes to λ(P(T_n)) − λ(P(T_0)), which depends
    only on the two endpoint versions — and reduction preserves T_0
    exactly.
    """
    backward = reduce_script(tree, list(reversed(list(log))))
    backward.reverse()
    return backward
