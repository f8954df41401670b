"""Edit-script workloads for the update experiments.

The paper's DBLP update experiment (Fig. 14 right, Table 2) applies
logs of node edit operations to the bibliography.  Realistic DBLP
maintenance is record-local: new publications are appended, typos in
fields are corrected, withdrawn records disappear.  The generators here
produce such scripts; because each structural operation targets a
distinct record subtree (or a fresh position under the root), the
resulting logs are *address-stable*, which is the regime the paper's
tablewise algorithm is exact in (see ``tests.support.reference.stability``).
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.datasets.dblp import add_record
from repro.edits.compound import delete_subtree_ops
from repro.edits.ops import EditOperation, Insert, Rename
from repro.edits.script import EditScript
from repro.tree.tree import Tree

_CORRECTION_LABELS = (
    "J. Data Eng. (2nd ser.)", "Proc. DMSys (rev.)", "2007", "2005",
    "B. Fixed-Author", "Corrected Title Words",
)


def record_edit_script(
    tree: Tree,
    operations: int,
    seed: int = 0,
    insert_share: float = 0.4,
    delete_share: float = 0.2,
) -> EditScript:
    """A DBLP-style maintenance script with ``operations`` node edits.

    Mix: record insertions (each a short run of INS operations building
    one record), record deletions (bottom-up DEL runs), and field
    corrections (single RENs of text leaves).  Shares are by *node
    operation* count.  Deterministic in ``(tree, operations, seed)``.
    """
    rng = random.Random(seed)
    working = tree.copy()
    script = EditScript()
    touched_records: set[int] = set()

    def insert_record() -> List[EditOperation]:
        # Build the record in a scratch copy to learn its node ops.
        scratch = working.copy()
        record = add_record(scratch, rng)
        ops = _subtree_as_inserts(scratch, record, working)
        return ops

    def delete_record() -> Optional[List[EditOperation]]:
        candidates = [
            record
            for record in working.children(working.root_id)
            if record not in touched_records
        ]
        if not candidates:
            return None
        record = rng.choice(candidates)
        touched_records.add(record)
        return delete_subtree_ops(working, record)

    def correct_field() -> Optional[EditOperation]:
        records = working.children(working.root_id)
        if not records:
            return None
        record = rng.choice(records)
        fields = working.children(record)
        if not fields:
            return None
        field = rng.choice(fields)
        leaves = working.children(field)
        target = leaves[0] if leaves else field
        new_label = rng.choice(_CORRECTION_LABELS)
        if working.label(target) == new_label:
            new_label = new_label + " (dup)"
        return Rename(target, new_label)

    # A record insertion/deletion contributes ~11 node operations, a
    # correction exactly one; weight the branch draw accordingly so the
    # share parameters hold for *operation counts*, not batch counts.
    average_batch = 11.0
    correction_share = max(1.0 - insert_share - delete_share, 0.0)
    weights = [
        insert_share / average_batch,
        delete_share / average_batch,
        correction_share,
    ]
    while len(script) < operations:
        kind = rng.choices(("insert", "delete", "correct"), weights=weights)[0]
        batch: List[EditOperation] = []
        if kind == "insert":
            batch = insert_record()
        elif kind == "delete":
            deletion = delete_record()
            batch = deletion or []
        else:
            correction = correct_field()
            batch = [correction] if correction else []
        for operation in batch:
            if len(script) >= operations:
                break
            operation.apply(working)
            script.append(operation)
    return script


def _subtree_as_inserts(
    scratch: Tree, subtree_root: int, target: Tree
) -> List[EditOperation]:
    """Express a freshly built subtree of ``scratch`` as leaf INS
    operations against ``target`` (ids continue target's id space)."""
    operations: List[EditOperation] = []

    def emit(node_id: int, parent_id: int, position: int) -> None:
        operations.append(
            Insert(node_id, scratch.label(node_id), parent_id, position, position - 1)
        )
        for child_position, child in enumerate(scratch.children(node_id), start=1):
            emit(child, node_id, child_position)

    emit(
        subtree_root,
        scratch.parent(subtree_root),  # type: ignore[arg-type]
        scratch.sibling_position(subtree_root),
    )
    return operations


def dblp_update_script(
    tree: Tree, operations: int, seed: int = 0, stable: bool = False
) -> EditScript:
    """The default DBLP maintenance workload (40% insert, 20% delete,
    40% correction node operations).

    With ``stable=True`` record deletions are dropped (pure accretion +
    corrections, the dominant real-world DBLP update pattern).  The
    inverse log of such a script contains only DEL and REN operations —
    node-addressed, hence *address-stable* — so the paper's tablewise
    engine is guaranteed exact on it (see ``tests.support.reference.stability``).
    """
    if stable:
        return record_edit_script(
            tree, operations, seed, insert_share=0.6, delete_share=0.0
        )
    return record_edit_script(tree, operations, seed)
