"""pq-gram profiles (Definition 2) and their computation.

Four computations are provided:

- :func:`compute_profile` — node-level profile as a set of
  :class:`~repro.core.gram.PQGram`.  This is the definitional object of
  the paper's proofs; tests and the oracle use it, and the incremental
  machinery's correctness is asserted against it.
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
DFS stack and each child window costs O(q).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Set, Tuple

from repro.core.config import GramConfig
from repro.core.gram import PQGram
from repro.hashing.labelhash import LabelHasher, NULL_HASH
from repro.tree.node import NULL_NODE, Node
from repro.tree.tree import Tree


class Profile:
    """A set of pq-grams of one tree, with the paper's set algebra."""

    def __init__(self, grams: Set[PQGram], config: GramConfig) -> None:
        self._grams = grams
        self.config = config

    @property
    def grams(self) -> Set[PQGram]:
        """The underlying set of pq-grams."""
        return self._grams

    def __len__(self) -> int:
        return len(self._grams)

    def __contains__(self, gram: PQGram) -> bool:
        return gram in self._grams

    def __iter__(self) -> Iterator[PQGram]:
        return iter(self._grams)

    def difference(self, other: "Profile") -> Set[PQGram]:
        """``P_self \\ P_other`` — used by the delta-function oracle."""
        return self._grams - other._grams

    def intersection(self, other: "Profile") -> Set[PQGram]:
        """``P_self ∩ P_other``."""
        return self._grams & other._grams

    def label_bag(self, hasher: LabelHasher) -> Dict[Tuple[int, ...], int]:
        """λ(P): the bag of hashed label tuples (Definition 3)."""
        bag: Dict[Tuple[int, ...], int] = {}
        for gram in self._grams:
            key = gram.hash_tuple(hasher)
            bag[key] = bag.get(key, 0) + 1
        return bag

    def grams_with_node(self, node_id: int) -> Set[PQGram]:
        """All pq-grams containing the node — the δ set of a rename or
        delete (Lemma 1, Eq. 8)."""
        return {gram for gram in self._grams if gram.contains_node(node_id)}


def _p_part_of(tree: Tree, node_id: int, p: int) -> Tuple[Node, ...]:
    """Ancestor chain of length p ending in the node, null-padded."""
    chain: List[Node] = []
    for ancestor in reversed(tree.ancestors(node_id, p - 1)):
        chain.append(NULL_NODE if ancestor is None else tree.node(ancestor))
    chain.append(tree.node(node_id))
    return tuple(chain)


def q_windows(children: Tuple[int, ...], q: int) -> Iterator[Tuple[int, ...]]:
    """1-based window start → not returned; yields windows row by row.

    For a non-empty child id sequence, yields the f + q - 1 windows of
    the extended sequence (q - 1 nulls on each side); ``None`` marks a
    null position.  For an empty sequence yields the single all-null
    window.
    """
    if not children:
        yield (None,) * q  # type: ignore[misc]
        return
    extended: List[object] = [None] * (q - 1) + list(children) + [None] * (q - 1)
    for start in range(len(children) + q - 1):
        yield tuple(extended[start : start + q])  # type: ignore[misc]


def compute_profile(tree: Tree, config: GramConfig) -> Profile:
    """The node-level pq-gram profile of a tree (Definition 2)."""
    grams: Set[PQGram] = set()
    p, q = config.p, config.q
    for node_id in _preorder(tree):
        p_part = _p_part_of(tree, node_id, p)
        for window in q_windows(tree.children(node_id), q):
            q_part = tuple(
                NULL_NODE if child is None else tree.node(child)
                for child in window
            )
            grams.add(PQGram(p_part + q_part, p, q))
    return Profile(grams, config)


def _preorder(tree: Tree) -> Iterator[int]:
    stack = [tree.root_id]
    while stack:
        node_id = stack.pop()
        yield node_id
        stack.extend(reversed(tree.children(node_id)))


def iter_label_hash_tuples(
    tree: Tree, config: GramConfig, hasher: LabelHasher
) -> Iterator[Tuple[int, ...]]:
    """Stream the hashed label tuples of all pq-grams of a tree.

    Equivalent to hashing every pq-gram of :func:`compute_profile` but
    without building node-level objects; this is the hot path of index
    construction.
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


def profile_size(tree: Tree, config: GramConfig) -> int:
    """Closed-form size of the profile: Σ over nodes of f + q - 1
    (leaves count 1) — used as a cross-check in tests."""
    total = 0
    for node_id in _preorder(tree):
        total += config.grams_per_node(tree.fanout(node_id))
    return total
