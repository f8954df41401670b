"""Structural predicates evaluated against a document tree.

The executor post-filters a plan's matches with :func:`tree_matches`:

- :func:`tree_has_label` — whether any node carries a label,
- :func:`tree_has_path` — whether a descendant chain of labels exists,
  a tree-subsequence test in one walk, linear in the document.

Only the trees the τ-scan returned are walked, so a rare label or path
costs nothing on the trees the threshold already rejected.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.query.plan import HasLabel, HasPath, Plan
from repro.tree.tree import Tree


def tree_has_label(tree: Tree, label: str) -> bool:
    """Whether any node of ``tree`` carries ``label``."""
    return any(tree.label(node_id) == label for node_id in tree.node_ids())


def tree_has_path(tree: Tree, labels: Sequence[str]) -> bool:
    """Whether ``tree`` contains a descendant chain matching ``labels``.

    Greedy DFS: each node extends the longest prefix matched along its
    root path when its label is the next one needed.  Greedy prefix
    matching is optimal for subsequence containment, so no backtracking
    is required.
    """
    depth = len(labels)
    if depth == 0:
        return True
    stack: List[Tuple[int, int]] = [(tree.root_id, 0)]
    while stack:
        node_id, matched = stack.pop()
        if tree.label(node_id) == labels[matched]:
            matched += 1
            if matched == depth:
                return True
        for child in tree.children(node_id):
            stack.append((child, matched))
    return False


def tree_matches(tree: Tree, predicate: Plan) -> bool:
    """Evaluate one structural predicate directly against a tree."""
    if isinstance(predicate, HasLabel):
        return tree_has_label(tree, predicate.label)
    if isinstance(predicate, HasPath):
        return tree_has_path(tree, predicate.labels)
    from repro.errors import QueryError

    raise QueryError(f"not a structural predicate: {predicate!r}")
