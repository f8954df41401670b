"""A first-class subtree move operation.

Section 10 of the paper: "Operations on subtrees, e.g., subtree move
... are simulated by a sequence of node edit operations.  Future work
will investigate index updates for subtree operations."  This module
implements that future work for the maintenance engine
(:mod:`repro.core.batch`): a ``Move`` is one log entry whose delta
touches only

- the source parent's windows around the vacated position,
- the destination parent's windows around the gap,
- the pq-grams anchored at the moved root or its descendants within
  p − 1 (their ancestor chains change),

instead of the O(|subtree|) delete + re-insert cascade of the node-op
lowering — the moved subtree's *interior* pq-grams are untouched by a
move, which is precisely what the lowering cannot express.

``Move`` composes with everything log-shaped: scripts, inverse logs,
text serialization (``MOV`` lines) and the maintenance engine.  The
paper's Algorithms 1–4, kept verbatim as test-only reference code
(``tests/support/reference/``), have no move case; a log with moves
makes them raise :class:`~repro.errors.InvalidLogError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EditError, RootEditError
from repro.tree.tree import Tree


@dataclass(frozen=True, slots=True)
class Move:
    """MOV(n, v, k): move the subtree rooted at ``node_id`` to become
    the k-th child of ``parent_id``.

    The destination position ``k`` is interpreted against the child
    list of the destination parent *after* the subtree has been
    detached (so moving a node rightwards within its own parent uses
    the post-detach numbering, and the inverse is again a single Move).
    """

    node_id: int
    parent_id: int
    k: int

    def check(self, tree: Tree) -> None:
        """Raise :class:`EditError` unless this MOV applies to ``tree``."""
        if self.node_id not in tree:
            raise EditError(f"MOV: node {self.node_id} does not exist")
        if self.node_id == tree.root_id:
            raise RootEditError("MOV: the root must not be edited")
        if self.parent_id not in tree:
            raise EditError(f"MOV: parent {self.parent_id} does not exist")
        if self.parent_id in tree.subtree_ids(self.node_id):
            raise EditError(
                f"MOV: cannot move node {self.node_id} below itself"
            )
        fanout = tree.fanout(self.parent_id)
        if tree.parent(self.node_id) == self.parent_id:
            fanout -= 1  # post-detach numbering
        if not 1 <= self.k <= fanout + 1:
            raise EditError(
                f"MOV: position {self.k} invalid for fanout {fanout}"
            )

    def apply(self, tree: Tree) -> None:
        """Mutate ``tree`` by this move (detach, then attach)."""
        self.check(tree)
        old_parent = tree.parent(self.node_id)
        old_position = tree.sibling_position(self.node_id)
        detach_and_attach(
            tree, self.node_id, old_parent, old_position, self.parent_id, self.k
        )

    def inverse(self, tree: Tree) -> "Move":
        """The MOV restoring the current location; compute before
        applying."""
        self.check(tree)
        return Move(
            self.node_id,
            tree.parent(self.node_id),  # type: ignore[arg-type]  (root excluded)
            tree.sibling_position(self.node_id),
        )

    def __str__(self) -> str:
        return f"MOV({self.node_id},{self.parent_id},{self.k})"


def detach_and_attach(
    tree: Tree,
    node_id: int,
    old_parent: int,
    old_position: int,
    new_parent: int,
    new_position: int,
) -> None:
    """Splice a subtree out of one child list and into another,
    preserving the subtree itself."""
    # Reach into the tree's records: a move is not expressible through
    # the public single-node edit methods without destroying ids.  Every
    # write goes through the owning accessor (copies share records).
    tree._own(old_parent).children.remove(node_id)
    tree._own(new_parent).children.insert(new_position - 1, node_id)
    tree._own(node_id).parent = new_parent
