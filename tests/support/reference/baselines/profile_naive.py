"""A deliberately naive, definition-following profile computation.

Builds the extended tree T' of Definition 1 explicitly — p-1 null
ancestors above the root, q-1 null children around every child list, q
null children below every leaf — and then reads off every pq-gram by
walking ancestor chains.  Slow and memory-hungry by design; its only
job is to cross-check :func:`tests.support.reference.profile.compute_profile`
(which never materializes T') in tests.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.core.config import GramConfig
from repro.tree.node import NULL_NODE, Node
from repro.tree.tree import Tree

from tests.support.reference.gram import PQGram
from tests.support.reference.profile import Profile


class _XNode:
    """A node of the extended tree: a real (id, label) pair or null."""

    __slots__ = ("value", "children", "parent")

    def __init__(self, value: Node, parent: Optional["_XNode"]) -> None:
        self.value = value
        self.parent = parent
        self.children: List["_XNode"] = []


def _build_extended(tree: Tree, config: GramConfig) -> _XNode:
    """Materialize T' of Definition 1."""
    q = config.q

    def expand(node_id: int, parent: Optional[_XNode]) -> _XNode:
        xnode = _XNode(tree.node(node_id), parent)
        children = tree.children(node_id)
        if not children:
            xnode.children = [_XNode(NULL_NODE, xnode) for _ in range(q)]
            return xnode
        pads = [_XNode(NULL_NODE, xnode) for _ in range(q - 1)]
        xnode.children.extend(pads)
        for child in children:
            xnode.children.append(expand(child, xnode))
        xnode.children.extend(_XNode(NULL_NODE, xnode) for _ in range(q - 1))
        return xnode

    root = expand(tree.root_id, None)
    # p-1 null ancestors above the root.
    top = root
    for _ in range(config.p - 1):
        above = _XNode(NULL_NODE, None)
        above.children = [top]
        top.parent = above
        top = above
    return root


def naive_profile(tree: Tree, config: GramConfig) -> Profile:
    """The pq-gram profile read directly off the extended tree."""
    p, q = config.p, config.q
    root = _build_extended(tree, config)
    grams: Set[PQGram] = set()

    def ancestors(xnode: _XNode) -> Tuple[Node, ...]:
        chain: List[Node] = []
        current: Optional[_XNode] = xnode
        for _ in range(p):
            if current is None:
                chain.append(NULL_NODE)
            else:
                chain.append(current.value)
                current = current.parent
        return tuple(reversed(chain))

    def visit(xnode: _XNode) -> None:
        if xnode.value.is_null:
            return
        p_part = ancestors(xnode)
        for start in range(len(xnode.children) - q + 1):
            window = tuple(
                child.value for child in xnode.children[start : start + q]
            )
            grams.add(PQGram(p_part + window, p, q))
        for child in xnode.children:
            visit(child)

    visit(root)
    return Profile(grams, config)
