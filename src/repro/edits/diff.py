"""Tree diff: derive an edit script between two document versions.

The paper assumes the edit log is given (e.g. recorded by the editing
application).  When only two versions of a document exist — the change
detection setting of the related work (Cobéna et al., Lee et al.) —
``diff_trees`` computes an applicable node-edit script transforming
the old version into (a tree label-structurally identical to) the new
one, so that incremental index maintenance works from plain snapshots:

    script = diff_trees(old, new)
    edited, log = apply_script(old, script)   # edited ≅ new
    index = update_index(index, edited, log)

Algorithm, per node (top-down):

1. rename the node if the labels differ;
2. match the children order-preservingly: first a longest common
   subsequence over structural subtree fingerprints (equal-fingerprint
   subtrees are identical and need no recursion), then, inside each
   LCS gap, greedy same-label pairs and positional pairs (both
   recursed into);
3. delete every unmatched old child (whole subtree, right to left);
4. walk the new child list left to right: matched children are now at
   exactly their target positions (the matching is order-preserving),
   unmatched ones are inserted as whole subtrees at their position.

The script is not guaranteed minimal — optimal diffing *is* the tree
edit distance problem (:mod:`repro.baselines.tree_edit_distance`) —
but it is sound for every input pair, and near-minimal on typical
document churn because unchanged subtrees are matched wholesale.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.edits.compound import delete_subtree_ops, insert_subtree_ops
from repro.edits.ops import EditOperation, Rename
from repro.tree.builder import tree_to_nested
from repro.tree.fingerprint import subtree_fingerprints
from repro.tree.tree import Tree


def diff_trees(old: Tree, new: Tree) -> List[EditOperation]:
    """An applicable edit script turning ``old`` into ``new``'s label
    structure.  The root is never edited (the paper's assumption), so
    differing root labels are not supported."""
    if old.label(old.root_id) != new.label(new.root_id):
        raise ValueError(
            "the paper's edit model never edits the root; "
            f"root labels differ: {old.label(old.root_id)!r} vs "
            f"{new.label(new.root_id)!r}"
        )
    differ = _Differ(old.copy(), new)
    differ.sync(differ.work.root_id, new.root_id)
    return differ.script


class _Differ:
    """Holds the working tree (mutated as operations are emitted) and
    the target tree, each with its subtree fingerprints.

    The working tree's fingerprints are taken once, up front: a work
    node's subtree is untouched until its own :meth:`_enter` — edits
    before that rename ancestors, delete or insert whole sibling
    subtrees, or sync earlier siblings — so its children's
    fingerprints are still exact when they are matched.
    """

    def __init__(self, work: Tree, target: Tree) -> None:
        self.work = work
        self.target = target
        self.work_fp = subtree_fingerprints(work)
        self.target_fp = subtree_fingerprints(target)
        self.script: List[EditOperation] = []

    def _emit(self, operations: List[EditOperation]) -> None:
        for operation in operations:
            operation.apply(self.work)
            self.script.append(operation)

    # ------------------------------------------------------------------

    def sync(self, work_root: int, target_root: int) -> None:
        """Make the working subtree at ``work_root`` structurally equal
        to the target subtree at ``target_root``.

        Depth-first with an explicit stack of half-walked child lists,
        so the script comes out in the order a recursive walk would
        emit it, at any depth."""
        stack: List[_Frame] = []
        self._enter(work_root, target_root, stack)
        while stack:
            frame = stack[-1]
            position = frame.position
            if position == len(frame.target_children):
                stack.pop()
                continue
            frame.position = position + 1
            work_child = frame.match[position]
            target_child = frame.target_children[position]
            if work_child is None:
                spec = tree_to_nested(self.target, target_child)
                self._emit(
                    insert_subtree_ops(
                        self.work, spec, frame.work_node, position + 1
                    )
                )
            elif frame.recurse[position]:
                self._enter(work_child, target_child, stack)

    def _enter(
        self, work_node: int, target_node: int, stack: List["_Frame"]
    ) -> None:
        """Rename ``work_node``, match its children against the
        target's, delete the unmatched ones, and push the walk over the
        target children."""
        if self.work.label(work_node) != self.target.label(target_node):
            self._emit([Rename(work_node, self.target.label(target_node))])

        work_children = list(self.work.children(work_node))
        target_children = list(self.target.children(target_node))
        if not work_children and not target_children:
            return

        # Order-preserving matching.  ``match[j]`` is the work child
        # matched to target child j (or None → insert), ``recurse[j]``
        # whether that pair needs a recursive sync.
        match, recurse = self._match_children(work_children, target_children)

        matched_work = {work_id for work_id in match if work_id is not None}
        for work_child in reversed(work_children):
            if work_child not in matched_work:
                self._emit(delete_subtree_ops(self.work, work_child))

        # The surviving work children now appear in exactly the order
        # of their target counterparts, so positions align as the walk
        # goes over the target list left to right, inserting the
        # missing ones.
        stack.append(_Frame(work_node, target_children, match, recurse))

    def _match_children(
        self, work_children: List[int], target_children: List[int]
    ) -> Tuple[List[Optional[int]], List[bool]]:
        """Match children order-preservingly (see module docstring)."""
        work_fp = [self.work_fp[child] for child in work_children]
        target_fp = [self.target_fp[child] for child in target_children]
        lcs = _lcs_pairs(work_fp, target_fp)

        match: List[Optional[int]] = [None] * len(target_children)
        recurse: List[bool] = [False] * len(target_children)
        for work_index, target_index in lcs:
            match[target_index] = work_children[work_index]

        # Reconcile each gap between consecutive LCS matches.
        boundaries = lcs + [(len(work_children), len(target_children))]
        previous = (-1, -1)
        for work_bound, target_bound in boundaries:
            work_run = list(range(previous[0] + 1, work_bound))
            target_run = list(range(previous[1] + 1, target_bound))
            previous = (work_bound, target_bound)
            self._pair_gap(
                work_children, target_children, work_run, target_run,
                match, recurse,
            )
        return match, recurse

    def _pair_gap(
        self,
        work_children: List[int],
        target_children: List[int],
        work_run: List[int],
        target_run: List[int],
        match: List[Optional[int]],
        recurse: List[bool],
    ) -> None:
        """Pair the unmatched children of one LCS gap, strictly
        order-preservingly: an LCS over the *labels* of the run first
        (pairs recursed into keep their subtrees), then positional
        pairing inside each label-LCS sub-gap."""
        work_labels = [self.work.label(work_children[i]) for i in work_run]
        target_labels = [self.target.label(target_children[j]) for j in target_run]
        label_lcs = _lcs_pairs_generic(work_labels, target_labels)

        def pair(work_index: int, target_index: int) -> None:
            match[target_index] = work_children[work_index]
            recurse[target_index] = True

        boundaries = label_lcs + [(len(work_run), len(target_run))]
        previous = (-1, -1)
        for work_bound, target_bound in boundaries:
            sub_work = work_run[previous[0] + 1 : work_bound]
            sub_target = target_run[previous[1] + 1 : target_bound]
            for work_index, target_index in zip(sub_work, sub_target):
                pair(work_index, target_index)
            previous = (work_bound, target_bound)
        for work_position, target_position in label_lcs:
            pair(work_run[work_position], target_run[target_position])


class _Frame:
    """One node of :meth:`_Differ.sync`'s walk: its matched children
    and how far along the target child list the walk is."""

    __slots__ = ("work_node", "target_children", "match", "recurse", "position")

    def __init__(
        self,
        work_node: int,
        target_children: List[int],
        match: List[Optional[int]],
        recurse: List[bool],
    ) -> None:
        self.work_node = work_node
        self.target_children = target_children
        self.match = match
        self.recurse = recurse
        self.position = 0


def _lcs_pairs_generic(left: List, right: List) -> List[Tuple[int, int]]:
    """Index pairs of a longest common subsequence (any value type)."""
    return _lcs_pairs(left, right)  # type: ignore[arg-type]


def _lcs_pairs(left: List[int], right: List[int]) -> List[Tuple[int, int]]:
    """Index pairs of a longest common subsequence of two sequences."""
    rows = len(left) + 1
    cols = len(right) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(len(left) - 1, -1, -1):
        for j in range(len(right) - 1, -1, -1):
            if left[i] == right[j]:
                table[i][j] = table[i + 1][j + 1] + 1
            else:
                table[i][j] = max(table[i + 1][j], table[i][j + 1])
    pairs: List[Tuple[int, int]] = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] == right[j]:
            pairs.append((i, j))
            i += 1
            j += 1
        elif table[i + 1][j] >= table[i][j + 1]:
            i += 1
        else:
            j += 1
    return pairs
