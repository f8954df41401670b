"""The mutable ordered labelled tree.

Design notes
------------
Nodes are stored in a dictionary keyed by integer id.  Each record keeps
the label, the parent id, and the ordered child ids in a plain list, so
parent, label, fanout and the i-th child are O(1); the other positional
operations the edit model leans on — sibling-position lookup and
child-range splices — are C-speed O(f) list operations.  Under a huge
fanout (the DBLP root has millions of children) those grow with the
fanout, but a q-wide window read by the delta function (paper Alg. 2)
stays a slice of O(q).

:meth:`Tree.copy` is copy-on-write: a clone shares the record objects
of its source and each side clones a record (label, parent, child
list) the first time it writes it, so copying costs one C-level dict
copy and an edit costs what it touches.  Every write reaches its record
through :meth:`Tree._own`; code that mutates a record obtained any
other way corrupts the trees that share it.

The tree enforces the paper's model: non-empty, single root, ordered
siblings, ids unique within the tree.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import (
    DuplicateNodeError,
    InvalidPositionError,
    TreeError,
    UnknownNodeError,
)
from repro.tree.node import Node


class _Record:
    """Internal per-node storage: label, parent id, ordered child ids.

    ``owner`` is the token of the one tree allowed to write this record
    in place; every other tree holding it clones it first.  ``None`` is
    nobody's token, so a record built by hand is cloned on first write.
    """

    __slots__ = ("label", "parent", "children", "owner")

    def __init__(
        self, label: str, parent: Optional[int], owner: object = None
    ) -> None:
        self.label = label
        self.parent = parent
        self.children: List[int] = []
        self.owner = owner


class Tree:
    """A rooted ordered tree with integer node ids and string labels.

    Create a tree with a root, then grow it with :meth:`add_child`::

        t = Tree("article")
        author = t.add_child(t.root_id, "author")
        t.add_child(author, "A. Author")

    Ids are assigned by an internal counter unless given explicitly.
    """

    def __init__(self, root_label: str, root_id: Optional[int] = None) -> None:
        self._records: Dict[int, _Record] = {}
        self._owner = object()
        self._next_id = 0
        self._root_id = self._claim_id(root_id)
        self._records[self._root_id] = _Record(root_label, None, self._owner)

    # ------------------------------------------------------------------
    # id management
    # ------------------------------------------------------------------

    def _claim_id(self, wanted: Optional[int]) -> int:
        if wanted is None:
            wanted = self._next_id
        if wanted in self._records:
            raise DuplicateNodeError(wanted)
        if wanted >= self._next_id:
            self._next_id = wanted + 1
        return wanted

    def fresh_id(self) -> int:
        """Return an id that is guaranteed not to be in use."""
        return self._next_id

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def root_id(self) -> int:
        """Id of the root node."""
        return self._root_id

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._records

    def node_ids(self) -> Iterator[int]:
        """Iterate over all node ids (no particular order)."""
        return iter(self._records)

    def _record(self, node_id: int) -> _Record:
        try:
            return self._records[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def _own(self, node_id: int) -> _Record:
        """The record of ``node_id`` for writing: cloned into this tree
        first when a :meth:`copy` still shares it."""
        record = self._record(node_id)
        if record.owner is not self._owner:
            shared = record
            record = _Record(shared.label, shared.parent, self._owner)
            record.children = list(shared.children)
            self._records[node_id] = record
        return record

    def label(self, node_id: int) -> str:
        """Label of the node."""
        return self._record(node_id).label

    def node(self, node_id: int) -> Node:
        """The (id, label) pair of the node, as used inside pq-grams."""
        return Node(node_id, self._record(node_id).label)

    def parent(self, node_id: int) -> Optional[int]:
        """Parent id, or ``None`` for the root."""
        return self._record(node_id).parent

    def children(self, node_id: int) -> Tuple[int, ...]:
        """Ordered child ids of the node."""
        return tuple(self._record(node_id).children)

    def child(self, node_id: int, position: int) -> int:
        """The ``position``-th child (1-based, as in the paper)."""
        kids = self._record(node_id).children
        if not 1 <= position <= len(kids):
            raise InvalidPositionError(
                f"node {node_id} has {len(kids)} children, "
                f"position {position} is out of range"
            )
        return kids[position - 1]

    def fanout(self, node_id: int) -> int:
        """Number of children of the node."""
        return len(self._record(node_id).children)

    def is_leaf(self, node_id: int) -> bool:
        """True iff the node has no children."""
        return not self._record(node_id).children

    def sibling_position(self, node_id: int) -> int:
        """1-based position of the node among its siblings — O(fanout).

        The root is defined to be at position 1.
        """
        record = self._record(node_id)
        if record.parent is None:
            return 1
        return self._records[record.parent].children.index(node_id) + 1

    def depth(self, node_id: int) -> int:
        """Number of edges from the root to the node."""
        depth = 0
        parent = self._record(node_id).parent
        while parent is not None:
            depth += 1
            parent = self._records[parent].parent
        return depth

    def ancestors(self, node_id: int, count: int) -> List[Optional[int]]:
        """Ids of the ``count`` nearest ancestors, nearest first.

        Missing ancestors above the root are reported as ``None``; this
        directly feeds the null padding of p-parts.
        """
        result: List[Optional[int]] = []
        current: Optional[int] = self._record(node_id).parent
        for _ in range(count):
            result.append(current)
            if current is not None:
                current = self._records[current].parent
        return result

    # ------------------------------------------------------------------
    # construction and structural edits
    # ------------------------------------------------------------------

    def add_child(
        self,
        parent_id: int,
        label: str,
        node_id: Optional[int] = None,
        position: Optional[int] = None,
    ) -> int:
        """Append (or insert at 1-based ``position``) a new leaf child."""
        record = self._own(parent_id)
        new_id = self._claim_id(node_id)
        if position is None:
            position = len(record.children) + 1
        if not 1 <= position <= len(record.children) + 1:
            raise InvalidPositionError(
                f"cannot insert at position {position} under node "
                f"{parent_id} with {len(record.children)} children"
            )
        self._records[new_id] = _Record(label, parent_id, self._owner)
        record.children.insert(position - 1, new_id)
        return new_id

    def insert_node(
        self, node_id: int, label: str, parent_id: int, k: int, m: int
    ) -> None:
        """INS(n, v, k, m) of the paper: insert ``node_id`` as the k-th
        child of ``parent_id`` and move children k..m below it.

        ``m == k - 1`` inserts a leaf.  Positions are 1-based and the
        moved range keeps its order (Section 3.1).
        """
        record = self._own(parent_id)
        fanout = len(record.children)
        if not (1 <= k and k - 1 <= m <= fanout):
            raise InvalidPositionError(
                f"INS range k={k}, m={m} invalid for fanout {fanout}"
            )
        new_id = self._claim_id(node_id)
        moved = record.children[k - 1 : m]
        new_record = _Record(label, parent_id, self._owner)
        new_record.children = moved
        self._records[new_id] = new_record
        record.children[k - 1 : m] = [new_id]
        for child_id in moved:
            self._own(child_id).parent = new_id

    def delete_node(self, node_id: int) -> None:
        """DEL(n) of the paper: splice the node's children into its place."""
        record = self._record(node_id)
        if record.parent is None:
            raise TreeError("cannot delete the root node")
        parent_record = self._own(record.parent)
        position = parent_record.children.index(node_id)
        parent_record.children[position : position + 1] = record.children
        for child_id in record.children:
            self._own(child_id).parent = record.parent
        del self._records[node_id]

    def rename_node(self, node_id: int, label: str) -> None:
        """REN(n, l'): change the node's label."""
        self._own(node_id).label = label

    # ------------------------------------------------------------------
    # whole-tree operations
    # ------------------------------------------------------------------

    def copy(self) -> "Tree":
        """An independent copy preserving ids and order — O(1) Python
        work: the records are shared until either side writes them.

        Both sides get a fresh owner token, the source included, so
        every record that exists now belongs to neither and is cloned
        by whichever tree writes it first.
        """
        clone = Tree.__new__(Tree)
        clone._records = dict(self._records)
        clone._owner = object()
        self._owner = object()
        clone._next_id = self._next_id
        clone._root_id = self._root_id
        return clone

    def structural_key(self) -> Tuple:
        """A hashable value equal for structurally identical trees.

        Two trees are structurally identical when they have the same
        node ids with the same labels, parents and child order.  The
        key is flat — ``(node id, label, child ids)`` per node in
        preorder — so building, comparing and hashing it never recurse.
        """
        records = self._records
        key = []
        stack = [self._root_id]
        while stack:
            node_id = stack.pop()
            record = records[node_id]
            children = tuple(record.children)
            key.append((node_id, record.label, children))
            stack.extend(reversed(children))
        return tuple(key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self.structural_key() == other.structural_key()

    def __hash__(self) -> int:  # Trees are mutable; hash by identity.
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Tree root={self._root_id} size={len(self._records)}>"

    # ------------------------------------------------------------------
    # bulk constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        root: Tuple[int, str],
        edges: Iterable[Tuple[int, int, str]],
    ) -> "Tree":
        """Build a tree from ``(parent_id, child_id, child_label)`` rows.

        Rows must be given in an order where parents precede children;
        children of the same parent are attached in row order.
        """
        root_id, root_label = root
        tree = cls(root_label, root_id)
        for parent_id, child_id, label in edges:
            tree.add_child(parent_id, label, node_id=child_id)
        return tree

    @classmethod
    def from_preorder(
        cls,
        node_ids: Sequence[int],
        labels: Sequence[str],
        parents: Sequence[int],
    ) -> "Tree":
        """Build a tree from preorder arrays: node ``i`` has id
        ``node_ids[i]``, label ``labels[i]`` and, unless it is the root
        (``i == 0``), the parent at preorder position ``parents[i] <
        i``; children attach in preorder.  The caller guarantees
        distinct ids — equal to :meth:`add_child` per node, without
        its per-node checks."""
        tree = cls.__new__(cls)
        owner = tree._owner = object()
        root = _Record(labels[0], None, owner)
        records = {node_ids[0]: root}
        by_position = [root]
        for position in range(1, len(node_ids)):
            node_id = node_ids[position]
            parent = parents[position]
            record = _Record(labels[position], node_ids[parent], owner)
            by_position[parent].children.append(node_id)
            records[node_id] = record
            by_position.append(record)
        tree._records = records
        tree._root_id = node_ids[0]
        tree._next_id = max(0, max(node_ids) + 1)
        return tree

    def subtree_ids(self, node_id: int) -> List[int]:
        """All ids in the subtree rooted at ``node_id`` (preorder)."""
        result: List[int] = []
        stack = [node_id]
        while stack:
            current = stack.pop()
            result.append(current)
            stack.extend(reversed(self._records[current].children))
        return result

    def child_slice(
        self, node_id: int, start: int, stop: int
    ) -> Sequence[Optional[int]]:
        """Children at 1-based positions ``start..stop`` with ``None``
        padding for positions outside ``1..fanout``.

        This is the raw material of q-part windows.
        """
        kids = self._record(node_id).children
        fanout = len(kids)
        low = max(start, 1)
        high = min(stop, fanout)
        if high < low:
            return [None] * (stop - start + 1)
        return [None] * (low - start) + kids[low - 1 : high] + [None] * (stop - high)
