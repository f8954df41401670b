"""pq-gram bags (Definitions 2 and 3) computed without node-level pq-grams.

Three computations of the hashed label-tuple bag of a tree are provided:

- :func:`iter_label_hash_tuples` — a streaming generator of hashed
  label tuples, used to build indexes of large trees without ever
  materializing node-level pq-grams (the paper's from-scratch index
  construction, following Augsten et al. 2005).
- :class:`GramEmitter` — the same bag from ``open(label)`` / ``close()``
  events in document order, for sources that are text and never become
  a tree: a query's bracket notation, an XML token stream.
- :func:`preorder_bag` — the same bag from a tree given as preorder
  arrays (parent position and label hash per node), for a stored
  record that is never decoded into a tree.

All run in O(n · (p + q)) time: the ancestor chain is carried down a
DFS stack and each child window costs O(q).  The node-level profile the
paper's proofs use (``compute_profile``) is test-only reference code,
``tests/support/reference/profile.py``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from repro.core.config import GramConfig
from repro.hashing.labelhash import NULL_HASH, LabelHasher
from repro.tree.tree import Tree


def iter_label_hash_tuples(
    tree: Tree, config: GramConfig, hasher: LabelHasher
) -> Iterator[Tuple[int, ...]]:
    """Stream the hashed label tuples of all pq-grams of a tree.

    Equivalent to hashing every pq-gram of the node-level profile
    (Definition 2) but without building node-level objects; this is the
    hot path of index construction.
    """
    p, q = config.p, config.q
    # DFS with an explicit stack of (node_id, hashed ancestor chain).
    root_chain = (NULL_HASH,) * (p - 1) + (hasher.hash_label(tree.label(tree.root_id)),)
    stack: List[Tuple[int, Tuple[int, ...]]] = [(tree.root_id, root_chain)]
    while stack:
        node_id, chain = stack.pop()
        children = tree.children(node_id)
        if not children:
            yield chain + (NULL_HASH,) * q
            continue
        hashes = [hasher.hash_label(tree.label(child)) for child in children]
        extended = [NULL_HASH] * (q - 1) + hashes + [NULL_HASH] * (q - 1)
        for start in range(len(children) + q - 1):
            yield chain + tuple(extended[start : start + q])
        for child, child_hash in zip(reversed(children), reversed(hashes)):
            stack.append((child, chain[1:] + (child_hash,)))


def preorder_bag(
    parents: Sequence[int], hashes: Sequence[int], config: GramConfig
) -> Dict[Tuple[int, ...], int]:
    """The hashed pq-gram bag of a tree given in preorder: node ``i``
    has label hash ``hashes[i]`` and, unless it is the root (``i ==
    0``), the parent at preorder position ``parents[i] < i``.

    Equal to folding :func:`iter_label_hash_tuples` of the same tree,
    key for key and in the same insertion order (nodes in preorder,
    each node's rows left to right).
    """
    p, q = config.p, config.q
    size = len(hashes)
    children: List[List[int]] = [[] for _ in range(size)]
    for position in range(1, size):
        children[parents[position]].append(position)
    pad = (NULL_HASH,) * (q - 1)
    leaf_row = (NULL_HASH,) * q
    chains: List[Tuple[int, ...]] = [()] * size
    chains[0] = (NULL_HASH,) * (p - 1) + (hashes[0],)
    counts: Dict[Tuple[int, ...], int] = {}
    get = counts.get
    for position in range(size):
        chain = chains[position]
        kids = children[position]
        if not kids:
            key = chain + leaf_row
            counts[key] = get(key, 0) + 1
            continue
        row = pad + tuple([hashes[child] for child in kids]) + pad
        for start in range(len(kids) + q - 1):
            key = chain + row[start : start + q]
            counts[key] = get(key, 0) + 1
        tail = chain[1:]
        for child in kids:
            chains[child] = tail + (hashes[child],)
    return counts


class GramEmitter:
    """Folds ``open(label)`` / ``close()`` events into a pq-gram bag.

    A shift register per open node — its p-part, and a window over its
    last q children — is all the state: child i completes row i of its
    parent's q-matrix the moment its label is read, and a node's own
    trailing rows (or a leaf's one all-null row) follow when it closes.
    Memory is O(depth · (p + q)) beside ``counts``, the bag being built.
    """

    __slots__ = ("counts", "_hash", "_q", "_nulls", "_chains", "_windows")

    def __init__(self, config: GramConfig, hasher: LabelHasher) -> None:
        self.counts: Dict[Tuple[int, ...], int] = {}
        self._hash = hasher.hash_label
        self._q = config.q
        self._nulls = (NULL_HASH,) * config.q
        # Parallel stacks over the open nodes; the bottom chain is the
        # all-null p-part above the root, which has no window.
        self._chains: List[Tuple[int, ...]] = [(NULL_HASH,) * config.p]
        self._windows: List[Tuple[int, ...]] = []

    @property
    def depth(self) -> int:
        """Number of currently open nodes."""
        return len(self._windows)

    def open(self, label: str) -> None:
        """A node starts; it is the next child of the open node."""
        label_hash = self._hash(label)
        chain = self._chains[-1]
        windows = self._windows
        if windows:
            window = windows[-1] = windows[-1][1:] + (label_hash,)
            counts = self.counts
            key = chain + window
            counts[key] = counts.get(key, 0) + 1
        self._chains.append(chain[1:] + (label_hash,))
        windows.append(self._nulls)

    def close(self) -> None:
        """The open node ends: its window slides out over q - 1 nulls."""
        chain = self._chains.pop()
        window = self._windows.pop()
        counts = self.counts
        # Only a leaf still holds the very tuple it was opened with.
        for _ in range(1 if window is self._nulls else self._q - 1):
            window = window[1:] + (NULL_HASH,)
            key = chain + window
            counts[key] = counts.get(key, 0) + 1
