"""Baseline tests: rebuild, naive profile, Zhang–Shasha distance."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GramConfig, index_of_tree
from repro.edits.generator import EditScriptGenerator
from repro.edits.script import apply_script
from repro.tree import Tree, tree_from_brackets

from tests.conftest import trees
from tests.support.reference.baselines import (
    rebuild_forest_index,
    rebuild_index,
    tree_edit_distance,
)


class TestRebuild:
    def test_rebuild_matches_index_of_tree(self, paper_tree_t0):
        assert rebuild_index(paper_tree_t0) == index_of_tree(paper_tree_t0)

    def test_forest_rebuild(self):
        forest = [(i, tree_from_brackets("a(b,c)")) for i in range(3)]
        indexes = rebuild_forest_index(forest, GramConfig(2, 2))
        assert set(indexes) == {0, 1, 2}
        assert indexes[0] == indexes[1] == indexes[2]


class TestTreeEditDistance:
    def test_identity(self):
        tree = tree_from_brackets("a(b(c),d)")
        assert tree_edit_distance(tree, tree.copy()) == 0

    def test_single_rename(self):
        left = tree_from_brackets("a(b,c)")
        right = tree_from_brackets("a(b,x)")
        assert tree_edit_distance(left, right) == 1

    def test_single_insert(self):
        left = tree_from_brackets("a(b)")
        right = tree_from_brackets("a(b,c)")
        assert tree_edit_distance(left, right) == 1

    def test_inner_insert(self):
        left = tree_from_brackets("a(b,c)")
        right = tree_from_brackets("a(x(b,c))")
        assert tree_edit_distance(left, right) == 1

    def test_known_textbook_case(self):
        # Root relabel + leaf changes.
        left = tree_from_brackets("f(d(a,c(b)),e)")
        right = tree_from_brackets("f(c(d(a,b)),e)")
        assert tree_edit_distance(left, right) == 2

    def test_completely_different(self):
        left = tree_from_brackets("a")
        right = tree_from_brackets("x(y,z)")
        assert tree_edit_distance(left, right) == 3

    def test_symmetry(self):
        left = tree_from_brackets("a(b(c,d),e)")
        right = tree_from_brackets("a(e,b(d))")
        assert tree_edit_distance(left, right) == tree_edit_distance(right, left)

    @settings(max_examples=30, deadline=None)
    @given(trees(max_size=10), st.integers(0, 2**31))
    def test_script_length_upper_bounds_distance(self, tree, seed):
        """Applying k node edits can raise the edit distance by at most
        k (the script itself is an edit path)."""
        generator = EditScriptGenerator(rng=random.Random(seed))
        script = generator.generate(tree, 3)
        edited, _ = apply_script(tree, script)
        assert tree_edit_distance(tree, edited) <= len(script)

    @settings(max_examples=30, deadline=None)
    @given(trees(max_size=10), trees(max_size=10))
    def test_triangle_with_identity(self, left, right):
        distance = tree_edit_distance(left, right)
        assert distance >= 0
        if left == right:
            assert distance == 0

    def test_distance_zero_iff_equal_label_structure(self):
        left = tree_from_brackets("a(b,c)")
        right = tree_from_brackets("a(b,c)")
        assert tree_edit_distance(left, right) == 0
        right.rename_node(2, "z")
        assert tree_edit_distance(left, right) > 0
