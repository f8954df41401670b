"""Profile computation tests (Definitions 1–2, Section 7.1 counts)."""

from hypothesis import given, settings

from repro.core import GramConfig, iter_label_hash_tuples
from repro.hashing import LabelHasher
from repro.tree import tree_from_brackets

from tests.conftest import gram_configs, trees
from tests.support.reference import compute_profile, profile_size
from tests.support.reference.baselines import naive_profile


class TestPaperExample:
    def test_t0_has_13_pq_grams(self, paper_tree_t0):
        """Example 1: the tree of Fig. 2 has 13 3,3-grams."""
        profile = compute_profile(paper_tree_t0, GramConfig(3, 3))
        assert len(profile) == 13

    def test_example_profile_contents(self, paper_tree_t0):
        """Example 2 lists P_0 explicitly; spot-check members."""
        profile = compute_profile(paper_tree_t0, GramConfig(3, 3))
        label_tuples = {gram.label_tuple() for gram in profile}
        assert ("*", "*", "a", "*", "*", "c") in label_tuples
        assert ("*", "a", "b", "*", "*", "e") in label_tuples
        assert ("a", "b", "e", "*", "*", "*") in label_tuples
        # The two leaves labelled c yield the same label tuple — the
        # profile keeps both pq-grams, the index merges them.
        c_leaf_grams = [
            gram for gram in profile
            if gram.label_tuple() == ("*", "a", "c", "*", "*", "*")
        ]
        assert len(c_leaf_grams) == 2

    def test_anchor_and_parts(self, paper_tree_t0):
        profile = compute_profile(paper_tree_t0, GramConfig(3, 3))
        gram = next(iter(profile))
        assert gram.anchor == gram.p_part[-1]
        assert len(gram.p_part) == 3
        assert len(gram.q_part) == 3


class TestCounts:
    def test_single_node(self):
        tree = tree_from_brackets("a")
        assert len(compute_profile(tree, GramConfig(2, 3))) == 1

    def test_count_formula_simple(self):
        # A node with fanout f anchors f + q - 1 grams; a leaf anchors 1.
        tree = tree_from_brackets("a(b,c,d)")
        config = GramConfig(2, 3)
        expected = (3 + 3 - 1) + 3  # root + three leaves
        assert len(compute_profile(tree, config)) == expected
        assert profile_size(tree, config) == expected

    @settings(max_examples=60)
    @given(trees(), gram_configs())
    def test_count_formula_matches(self, tree, config):
        assert len(compute_profile(tree, config)) == profile_size(tree, config)


class TestAgainstNaive:
    @settings(max_examples=50)
    @given(trees(max_size=16), gram_configs())
    def test_optimized_equals_definitional(self, tree, config):
        assert compute_profile(tree, config).grams == naive_profile(tree, config).grams


class TestStreaming:
    @settings(max_examples=50)
    @given(trees(max_size=16), gram_configs())
    def test_streaming_matches_profile_bag(self, tree, config):
        hasher = LabelHasher()
        streamed = {}
        for key in iter_label_hash_tuples(tree, config, hasher):
            streamed[key] = streamed.get(key, 0) + 1
        assert streamed == compute_profile(tree, config).label_bag(hasher)


class TestProfileAlgebra:
    def test_grams_with_node(self, paper_tree_t0):
        profile = compute_profile(paper_tree_t0, GramConfig(3, 3))
        with_b = profile.grams_with_node(3)  # node b
        # b appears in 3 windows of its parent, 4 grams anchored at b
        # itself, and the p-parts of the leaves e and f: 9 in total
        # (count them in the paper's Example 2 listing of P_0).
        assert all(gram.contains_node(3) for gram in with_b)
        assert len(with_b) == 9

    def test_difference_and_intersection(self, paper_tree_t0):
        config = GramConfig(3, 3)
        profile = compute_profile(paper_tree_t0, config)
        other = compute_profile(paper_tree_t0, config)
        assert profile.difference(other) == set()
        assert len(profile.intersection(other)) == len(profile)
