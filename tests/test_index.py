"""pq-gram index tests (Definition 3, bag algebra, persistence)."""

import pytest
from hypothesis import given, settings

from repro.core import GramConfig, PQGramIndex, index_of_tree
from repro.errors import IndexConsistencyError

from tests.conftest import gram_configs, trees
from tests.support.reference import compute_profile


class TestConstruction:
    def test_from_tree_matches_profile_bag(self, paper_tree_t0, hasher):
        config = GramConfig(3, 3)
        index = PQGramIndex.from_tree(paper_tree_t0, config, hasher)
        profile_bag = compute_profile(paper_tree_t0, config).label_bag(hasher)
        assert dict(index.items()) == profile_bag
        assert index.size() == 13

    def test_duplicate_label_tuples_counted(self, paper_tree_t0, hasher):
        """Example 3: the label tuple (*,a,c,*,*,*) occurs twice."""
        config = GramConfig(3, 3)
        index = PQGramIndex.from_tree(paper_tree_t0, config, hasher)
        key = tuple(
            hasher.hash_optional(label if label != "*" else None)
            for label in ("*", "a", "c", "*", "*", "*")
        )
        assert index.count(key) == 2
        assert index.distinct_size() == 12

    def test_copy_is_independent(self, paper_tree_t0, hasher):
        index = PQGramIndex.from_tree(paper_tree_t0, GramConfig(), hasher)
        clone = index.copy()
        clone.apply_delta({}, {(9, 9, 9, 9, 9, 9): 1})
        assert clone != index


class TestBagAlgebra:
    def test_intersection_and_union(self):
        config = GramConfig(1, 1)
        left = PQGramIndex(config, {(1, 2): 2, (3, 4): 1})
        right = PQGramIndex(config, {(1, 2): 1, (5, 6): 4})
        assert left.bag_intersection_size(right) == 1
        assert left.bag_union_size(right) == 8

    def test_self_intersection_is_size(self):
        config = GramConfig(1, 1)
        index = PQGramIndex(config, {(1, 2): 2, (3, 4): 1})
        assert index.bag_intersection_size(index) == index.size() == 3

    def test_apply_delta(self):
        config = GramConfig(1, 1)
        index = PQGramIndex(config, {(1, 2): 2})
        index.apply_delta({(1, 2): 1}, {(3, 4): 2})
        assert dict(index.items()) == {(1, 2): 1, (3, 4): 2}

    def test_apply_delta_removes_exhausted_keys(self):
        config = GramConfig(1, 1)
        index = PQGramIndex(config, {(1, 2): 1})
        index.apply_delta({(1, 2): 1}, {})
        assert index.distinct_size() == 0

    def test_negative_counts_rejected(self):
        config = GramConfig(1, 1)
        index = PQGramIndex(config, {(1, 2): 1})
        with pytest.raises(IndexConsistencyError):
            index.apply_delta({(1, 2): 2}, {})


class TestPersistence:
    def test_store_load_roundtrip(self, paper_tree_t0, hasher):
        """What a forest stores of an index is its bag and size: an
        index read back from them is the index."""
        config = GramConfig(3, 3)
        index = PQGramIndex.from_tree(paper_tree_t0, config, hasher)
        bag = dict(index.items())
        assert PQGramIndex(config, bag) == index
        assert PQGramIndex.from_bag_view(config, bag, total=index.size()) == index

    def test_store_replaces_rows(self):
        """The per-index relstore form is gone with every reader of it:
        the index has no ``storage_schema`` / ``store`` / ``load``."""
        for name in ("storage_schema", "store", "load"):
            assert not hasattr(PQGramIndex, name)

    def test_serialized_size_tracks_distinct(self):
        config = GramConfig(1, 1)
        index = PQGramIndex(config, {(1, 2): 50, (3, 4): 1})
        assert index.serialized_size_bytes() == 2 * 12

    def test_fingerprints_unique_per_key(self, paper_tree_t0, hasher):
        index = PQGramIndex.from_tree(paper_tree_t0, GramConfig(), hasher)
        prints = dict(index.fingerprints())
        assert len(prints) == index.distinct_size()


@settings(max_examples=40)
@given(trees(), gram_configs())
def test_index_size_equals_profile_size(tree, config):
    index = index_of_tree(tree, config)
    assert index.size() == len(compute_profile(tree, config))


@settings(max_examples=40)
@given(trees())
def test_index_deterministic(tree):
    assert index_of_tree(tree) == index_of_tree(tree)
