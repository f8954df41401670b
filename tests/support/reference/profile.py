"""Node-level pq-gram profiles (Definition 2).

:func:`compute_profile` builds the profile of a tree as a set of
:class:`~tests.support.reference.gram.PQGram` — the definitional object of
the paper's proofs.  Tests assert the hashed bags of
:mod:`repro.core.profile` and the incremental machinery against it;
nothing in ``src/repro`` uses it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro.core.config import GramConfig
from repro.hashing.labelhash import LabelHasher
from repro.tree.node import NULL_NODE, Node
from repro.tree.tree import Tree

from tests.support.reference.gram import PQGram


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


def profile_size(tree: Tree, config: GramConfig) -> int:
    """Closed-form size of the profile: Σ over nodes of f + q - 1
    (leaves count 1) — used as a cross-check in tests."""
    total = 0
    for node_id in _preorder(tree):
        total += config.grams_per_node(tree.fanout(node_id))
    return total
