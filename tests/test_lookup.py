"""Forest index and lookup-service tests."""

import pytest

from repro.core import GramConfig, PQGramIndex
from repro.datasets import dblp_tree
from repro.edits import Rename, apply_script
from repro.errors import StorageError
from repro.lookup import ForestIndex, LookupService
from repro.service import DocumentStore
from repro.tree import tree_from_brackets


def small_forest():
    forest = ForestIndex(GramConfig(2, 2))
    trees = {
        0: tree_from_brackets("a(b,c(d))"),
        1: tree_from_brackets("a(b,c(e))"),
        2: tree_from_brackets("x(y,z)"),
    }
    for tree_id, tree in trees.items():
        forest.add_tree(tree_id, tree)
    return forest, trees


class TestForestIndex:
    def test_add_and_access(self):
        forest, _ = small_forest()
        assert len(forest) == 3
        assert 1 in forest
        assert sorted(forest.tree_ids()) == [0, 1, 2]
        assert forest.index_of(0).size() > 0

    def test_duplicate_id_rejected(self):
        forest, trees = small_forest()
        with pytest.raises(StorageError):
            forest.add_tree(0, trees[0])

    def test_missing_id_rejected(self):
        forest, _ = small_forest()
        with pytest.raises(StorageError):
            forest.index_of(99)

    def test_remove_tree(self):
        forest, _ = small_forest()
        forest.remove_tree(2)
        assert len(forest) == 2
        distances = forest.distances(forest.index_of(0))
        assert set(distances) == {0, 1}

    def test_distances_match_pairwise(self):
        from repro.core import index_distance

        forest, trees = small_forest()
        query_index = forest.index_of(0)
        distances = forest.distances(query_index)
        for tree_id in trees:
            expected = index_distance(query_index, forest.index_of(tree_id))
            assert distances[tree_id] == pytest.approx(expected)

    def test_update_tree_incrementally(self):
        forest, trees = small_forest()
        tree = trees[1]
        edited, log = apply_script(tree, [Rename(1, "q")])
        forest.update_tree(1, edited, log)
        expected = PQGramIndex.from_tree(edited, forest.config, forest.hasher)
        assert forest.index_of(1) == expected
        # The inverted lists follow the update.
        distances = forest.distances(expected)
        assert distances[1] == 0.0

    def test_update_tree_property(self):
        """Forest maintenance equals rebuild for random edit batches."""
        import random

        from repro.datasets import dblp_tree
        from benchmarks.dblp_workloads import dblp_update_script

        forest = ForestIndex(GramConfig(2, 3))
        documents = {i: dblp_tree(15, seed=i) for i in range(4)}
        for tree_id, tree in documents.items():
            forest.add_tree(tree_id, tree)
        rng = random.Random(9)
        for round_number in range(6):
            tree_id = rng.randrange(4)
            document = documents[tree_id]
            script = dblp_update_script(document, 12, seed=round_number)
            edited, log = apply_script(document, script)
            forest.update_tree(tree_id, edited, log)
            documents[tree_id] = edited
            expected = PQGramIndex.from_tree(edited, forest.config, forest.hasher)
            assert forest.index_of(tree_id) == expected
            # Inverted lists stay consistent: self-distance is zero.
            assert forest.distances(expected)[tree_id] == 0.0

    def test_persistence_roundtrip(self, tmp_path):
        """The index has no durable form of its own: the round trip is
        a store reopen, which rebuilds the forest from the documents."""
        forest, trees = small_forest()
        directory = str(tmp_path / "store")
        with DocumentStore(directory, forest.config) as store:
            store.add_documents(trees.items())
        with DocumentStore(directory) as reopened:
            loaded = reopened._forest
            assert loaded.config == forest.config
            assert len(loaded) == len(forest)
            for tree_id in forest.tree_ids():
                assert loaded.index_of(tree_id) == forest.index_of(tree_id)
            # Inverted lists are rebuilt: distances agree.
            query = forest.index_of(0)
            assert loaded.distances(query) == forest.distances(query)

    def test_load_missing_file(self, tmp_path):
        """No file holds a forest, so there is none to load: the forest
        has no ``save`` / ``load``, and a store directory without a
        snapshot opens empty."""
        for name in ("save", "load", "serialized_size_bytes"):
            assert not hasattr(ForestIndex, name)
        with DocumentStore(str(tmp_path / "nope")) as store:
            assert len(store) == 0 and len(store._forest) == 0


class TestLookupService:
    def test_exact_match_found_first(self):
        forest, trees = small_forest()
        service = LookupService(forest)
        result = service.lookup(trees[0], tau=0.9)
        assert result.matches[0] == (0, 0.0)
        assert result.trees_compared == 3

    def test_threshold_filters(self):
        forest, trees = small_forest()
        service = LookupService(forest)
        strict = service.lookup(trees[0], tau=0.05)
        assert strict.tree_ids() == [0]
        loose = service.lookup(trees[0], tau=1.1)
        assert len(loose.matches) == 3

    def test_with_and_without_index_agree(self):
        forest, trees = small_forest()
        service = LookupService(forest)
        query = trees[1]
        with_index = service.lookup(query, tau=0.8)
        without_index = service.lookup_without_index(
            query, list(trees.items()), tau=0.8
        )
        assert with_index.matches == pytest.approx(without_index.matches)

    def test_without_index_reports_construction_time(self):
        forest, trees = small_forest()
        service = LookupService(forest)
        result = service.lookup_without_index(trees[0], list(trees.items()), tau=1.0)
        assert result.seconds_index_construction > 0.0
        assert result.seconds_total >= result.seconds_index_construction

    def test_nearest_returns_k_best(self):
        forest, trees = small_forest()
        service = LookupService(forest)
        result = service.nearest(trees[0], k=2)
        assert len(result.matches) == 2
        assert result.matches[0] == (0, 0.0)
        assert result.matches[0][1] <= result.matches[1][1]

    def test_nearest_k_larger_than_forest(self):
        forest, trees = small_forest()
        service = LookupService(forest)
        assert len(service.nearest(trees[0], k=99).matches) == 3

    def test_nearest_invalid_k(self):
        forest, trees = small_forest()
        service = LookupService(forest)
        with pytest.raises(ValueError):
            service.nearest(trees[0], k=0)

    def test_similar_dblp_records_cluster(self):
        """Similar bibliographies rank closer than dissimilar ones."""
        forest = ForestIndex(GramConfig(3, 3))
        base = dblp_tree(30, seed=11)
        similar, _ = apply_script(
            base, [Rename(base.children(base.root_id)[0], "misc")]
        )
        different = dblp_tree(30, seed=99)
        forest.add_tree(0, similar)
        forest.add_tree(1, different)
        service = LookupService(forest)
        result = service.lookup(base, tau=1.1)
        assert result.matches[0][0] == 0
        assert result.matches[0][1] < result.matches[1][1]
