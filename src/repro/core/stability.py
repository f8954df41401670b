"""Address stability of edit logs.

The paper's Algorithm 1 evaluates every inverse operation of the log on
the *resulting* tree T_n (Theorem 1).  Rename and delete operations
address nodes by id, which is stable across versions; insert operations
address a *position range* (v, k, m), which is stable only if no other
structural operation of the log shifts v's child list between the
operation's own version and T_n.  When that assumption is violated the
union of deltas can differ from Δ⁺ (see ``tests/test_paper_gap.py``),
and the tablewise engine may detect an inconsistency or — rarely —
compute a wrong index.

:func:`is_address_stable` is a *conservative* static check: ``True``
guarantees the tablewise engine computes the exact index; ``False``
means safety cannot be established cheaply (use
:func:`~repro.core.update_index`).
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

from repro.edits.ops import Delete, EditOperation, Insert, Rename
from repro.tree.tree import Tree


def _structural_scope(tree: Tree, operation: EditOperation) -> Optional[int]:
    """The id of the parent whose child list the operation shifts, or
    ``None`` when it cannot be determined from T_n alone."""
    if isinstance(operation, Insert):
        return operation.parent_id
    if isinstance(operation, Delete):
        if operation.node_id in tree:
            return tree.parent(operation.node_id)
        return None
    raise TypeError(f"not a structural operation: {operation!r}")


def is_address_stable(tree: Tree, log: Sequence[EditOperation]) -> bool:
    """Whether the log is conservatively safe for the tablewise engine.

    ``tree`` is T_n.  The check passes when every inverse-INS operation
    of the log targets a parent that (a) exists in T_n and (b) is the
    structural scope of no other operation in the log — then no
    position in any INS address can have drifted.  Logs of renames and
    inverse-DELs only (documents that only *grew*) are always stable.
    """
    if any(
        not isinstance(op, (Insert, Delete, Rename)) for op in log
    ):
        # Subtree moves (or other extensions) are outside the paper's
        # operation model; only the maintenance engine handles them.
        return False
    structural = [op for op in log if not isinstance(op, Rename)]
    insert_parents = {
        op.parent_id for op in structural if isinstance(op, Insert)
    }
    if not insert_parents:
        return True
    scope_counts: Counter[Optional[int]] = Counter()
    for operation in structural:
        scope = _structural_scope(tree, operation)
        if scope is None:
            # A delete of a node unknown to T_n: its scope cannot be
            # located without replaying, so assume the worst.
            return False
        scope_counts[scope] += 1
    for parent in insert_parents:
        if parent not in tree:
            return False
        if scope_counts[parent] > 1:
            return False
    return True
