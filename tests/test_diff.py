"""Tree diff tests: soundness, integration with index maintenance."""

import pytest
from hypothesis import given, settings

from repro.core import GramConfig, PQGramIndex, update_index
from repro.edits import Delete, Insert, Rename, apply_script, diff_trees
from repro.edits.diff import _Differ
from repro.edits.serialize import format_operations
from repro.hashing import LabelHasher
from repro.tree.fingerprint import _mix
from repro.tree import tree_from_brackets, tree_to_brackets, validate_tree

from tests.conftest import trees, trees_with_scripts


class TestBasicCases:
    @pytest.mark.parametrize(
        "old,new,max_ops",
        [
            ("a", "a", 0),
            ("a(b)", "a", 1),
            ("a", "a(b)", 1),
            ("a(b)", "a(c)", 1),
            ("a(b,c)", "a(c,b)", 2),
            ("a(b,b,b)", "a(b,b)", 1),
            ("a(b(c,d),e)", "a(b(c,d),e)", 0),
            ("a(b(c(d(e))))", "a(b(c(d(e))))", 0),
        ],
    )
    def test_small_diffs(self, old, new, max_ops):
        old_tree = tree_from_brackets(old)
        new_tree = tree_from_brackets(new)
        script = diff_trees(old_tree, new_tree)
        assert len(script) <= max_ops
        edited, _ = apply_script(old_tree, script)
        assert tree_to_brackets(edited) == new

    def test_unchanged_subtrees_matched_wholesale(self):
        # A big common subtree must not be touched at all.
        common = "x(y(z,w),v(u))"
        old_tree = tree_from_brackets(f"a({common},b)")
        new_tree = tree_from_brackets(f"a({common},c)")
        script = diff_trees(old_tree, new_tree)
        assert len(script) == 1  # just the rename of b

    def test_differing_roots_rejected(self):
        with pytest.raises(ValueError):
            diff_trees(tree_from_brackets("a"), tree_from_brackets("b"))

    def test_inputs_not_mutated(self):
        old_tree = tree_from_brackets("a(b,c)")
        new_tree = tree_from_brackets("a(x(y))")
        old_key = old_tree.structural_key()
        new_key = new_tree.structural_key()
        diff_trees(old_tree, new_tree)
        assert old_tree.structural_key() == old_key
        assert new_tree.structural_key() == new_key


class TestSoundness:
    @settings(max_examples=150, deadline=None)
    @given(trees(max_size=20), trees(max_size=20))
    def test_diff_reproduces_target_structure(self, old_tree, new_tree):
        new_tree.rename_node(new_tree.root_id, old_tree.label(old_tree.root_id))
        script = diff_trees(old_tree, new_tree)
        edited, _ = apply_script(old_tree, script)
        validate_tree(edited)
        assert tree_to_brackets(edited) == tree_to_brackets(new_tree)

    @settings(max_examples=60, deadline=None)
    @given(trees_with_scripts(max_size=20, max_ops=6))
    def test_diff_length_bounded_by_tree_sizes(self, tree_and_script):
        """The diff never degenerates beyond rebuilding both trees —
        its length is bounded by the total node count (adopting inserts
        can force the diff to delete and re-insert whole regions)."""
        tree, script = tree_and_script
        edited, _ = apply_script(tree, script)
        recovered = diff_trees(tree, edited)
        assert len(recovered) <= 2 * (len(tree) + len(edited))

    @pytest.mark.parametrize(
        "brackets,node,new_label",
        [
            ("a(b,c(d,e),f)", 2, "z"),        # inner node
            ("a(b,c(d,e),f)", 3, "z"),        # deep leaf
            ("a(b,c(d,e),f)", 5, "z"),        # top-level leaf
            ("a(b(c(d(e))))", 3, "z"),        # deep chain
        ],
    )
    def test_single_rename_diffs_to_one_op(self, brackets, node, new_label):
        """On trees with distinct sibling structures, a single rename
        diffs back to exactly one operation.  (With duplicate siblings
        the heuristic matching may pick a costlier but still sound
        alignment — minimal diffing is the tree-edit-distance problem.)
        """
        from repro.edits import Rename

        tree = tree_from_brackets(brackets)
        edited, _ = apply_script(tree, [Rename(node, new_label)])
        recovered = diff_trees(tree, edited)
        assert len(recovered) == 1
        assert isinstance(recovered[0], Rename)


class TestMaintenanceIntegration:
    @settings(max_examples=60, deadline=None)
    @given(trees(max_size=18), trees(max_size=18))
    def test_index_maintenance_from_snapshots(self, old_tree, new_tree):
        """The paper's scenario bootstrapped from two snapshots: diff,
        apply, maintain — must equal the rebuilt index."""
        new_tree.rename_node(new_tree.root_id, old_tree.label(old_tree.root_id))
        hasher = LabelHasher()
        config = GramConfig(2, 2)
        old_index = PQGramIndex.from_tree(old_tree, config, hasher)
        script = diff_trees(old_tree, new_tree)
        edited, log = apply_script(old_tree, script)
        maintained = update_index(old_index, edited, log, hasher)
        assert maintained == PQGramIndex.from_tree(edited, config, hasher)


# ----------------------------------------------------------------------
# the explicit-stack walk against the recursive one it replaced
# ----------------------------------------------------------------------


class _LiveFingerprints:
    """Fingerprint of a working subtree as it is *now*, recomputed on
    every read — what the recursive differ did at every level."""

    def __init__(self, tree):
        self.tree = tree

    def __getitem__(self, node_id):
        return _mix(
            self.tree.label(node_id),
            [self[child] for child in self.tree.children(node_id)],
        )


class _RecursiveDiffer(_Differ):
    """The differ as it was written recursively: the oracle the
    iterative walk must reproduce operation for operation."""

    def __init__(self, work, target):
        super().__init__(work, target)
        self.work_fp = _LiveFingerprints(work)

    def sync(self, work_node, target_node):
        if self.work.label(work_node) != self.target.label(target_node):
            self._emit([Rename(work_node, self.target.label(target_node))])
        work_children = list(self.work.children(work_node))
        target_children = list(self.target.children(target_node))
        if not work_children and not target_children:
            return
        match, recurse = self._match_children(work_children, target_children)
        matched_work = {work_id for work_id in match if work_id is not None}
        for work_child in reversed(work_children):
            if work_child not in matched_work:
                self._emit(self._delete(work_child))
        for position, target_child in enumerate(target_children, start=1):
            work_child = match[position - 1]
            if work_child is None:
                self._emit(self._insert(target_child, work_node, position))
            elif recurse[position - 1]:
                self.sync(work_child, target_child)

    def _delete(self, node_id):
        operations = []

        def walk(current):
            for child in self.work.children(current):
                walk(child)
            operations.append(Delete(current))

        walk(node_id)
        return operations

    def _insert(self, target_node, parent_id, position):
        operations = []
        next_id = self.work.fresh_id()

        def emit(node, parent, k):
            nonlocal next_id
            node_id = next_id
            next_id += 1
            operations.append(
                Insert(node_id, self.target.label(node), parent, k, k - 1)
            )
            for child_position, child in enumerate(
                self.target.children(node), start=1
            ):
                emit(child, node_id, child_position)

        emit(target_node, parent_id, position)
        return operations


def _recursive_diff(old, new):
    differ = _RecursiveDiffer(old.copy(), new)
    differ.sync(differ.work.root_id, new.root_id)
    return differ.script


class TestIterativeWalk:
    @settings(max_examples=150, deadline=None)
    @given(trees_with_scripts(max_size=24, max_ops=14))
    def test_scripts_byte_identical_to_the_recursive_walk(self, pair):
        old, script = pair
        new, _ = apply_script(old, script)
        if old.label(old.root_id) != new.label(new.root_id):
            new.rename_node(new.root_id, old.label(old.root_id))
        assert format_operations(diff_trees(old, new)) == format_operations(
            _recursive_diff(old, new)
        )

    @settings(max_examples=100, deadline=None)
    @given(trees(max_size=20), trees(max_size=20))
    def test_unrelated_trees_byte_identical(self, old, new):
        new.rename_node(new.root_id, old.label(old.root_id))
        assert format_operations(diff_trees(old, new)) == format_operations(
            _recursive_diff(old, new)
        )
