"""Performance-layer tests: array bags, compact postings, parallel build.

Every accelerated path in :mod:`repro.perf` must be *byte-identical*
to the dict reference path — these tests assert exactly that on
randomized inputs, plus the `__slots__` memory satellite.
"""

import pytest

from repro.core import GramConfig, PQGramIndex, index_distance
from repro.core.distance import distance_from_overlap, size_bound_admits
from repro.datasets import dblp_tree, random_labelled_tree, xmark_tree
from repro.lookup import ForestIndex
from repro.perf import HAVE_NUMPY, ArrayBag, build_forest_parallel
from repro.perf.sweep import CompactPostings


from repro.hashing import LabelHasher

HASHER = LabelHasher()


def build_index(tree, config=GramConfig(2, 3)):
    return PQGramIndex.from_tree(tree, config, HASHER)


def random_indexes(count=8, config=GramConfig(2, 3)):
    return [
        build_index(random_labelled_tree(5 + 7 * i, seed=100 + i), config)
        for i in range(count)
    ]


class TestArrayBag:
    def test_preserves_total(self):
        for index in random_indexes():
            bag = ArrayBag.from_index(index)
            assert bag.total == index.size()

    def test_intersection_matches_dict(self):
        indexes = random_indexes(8)
        for left in indexes:
            for right in indexes:
                expected = left.bag_intersection_size(right)
                got = ArrayBag.from_index(left).intersection_size(
                    ArrayBag.from_index(right)
                )
                assert got == expected

    def test_union_size(self):
        left, right = random_indexes(2)
        bag_left = ArrayBag.from_index(left)
        bag_right = ArrayBag.from_index(right)
        assert bag_left.union_size(bag_right) == left.size() + right.size()

    def test_empty_bag(self):
        empty = PQGramIndex(GramConfig(2, 2), {})
        other = random_indexes(1)[0]
        bag = ArrayBag.from_index(empty)
        assert bag.total == 0
        assert bag.intersection_size(ArrayBag.from_index(other)) == 0

    def test_merge_fallback_matches_numpy(self):
        """The pure-python two-pointer merge equals the numpy path."""
        if not HAVE_NUMPY:
            pytest.skip("numpy unavailable; only one path exists")
        left, right = random_indexes(2)
        bag_left = ArrayBag.from_index(left)
        bag_right = ArrayBag.from_index(right)
        fast = bag_left.intersection_size(bag_right)
        # Rebuild both bags as plain python lists to force the merge.
        plain_left = ArrayBag(
            [int(k) for k in bag_left.keys],
            [int(c) for c in bag_left.counts],
            bag_left.total,
        )
        plain_right = ArrayBag(
            [int(k) for k in bag_right.keys],
            [int(c) for c in bag_right.counts],
            bag_right.total,
        )
        assert plain_left.intersection_size(plain_right) == fast


class TestIndexDistanceBackends:
    def test_backend_parity(self):
        indexes = random_indexes(6)
        for left in indexes:
            for right in indexes:
                reference = index_distance(left, right, backend="dict")
                assert index_distance(left, right, backend="array") == reference
                assert index_distance(left, right, backend="auto") == reference

    def test_auto_uses_cached_array_bags(self):
        left, right = random_indexes(2)
        assert not left.has_array_bag()
        left.as_array_bag()
        right.as_array_bag()
        assert left.has_array_bag() and right.has_array_bag()
        assert index_distance(left, right, backend="auto") == index_distance(
            left, right, backend="dict"
        )

    def test_array_bag_invalidated_by_delta(self):
        left = random_indexes(1)[0]
        left.as_array_bag()
        updated = left.copy()
        some_key = next(iter(dict(left.items())))
        updated.apply_delta({some_key: 1}, {})
        assert not updated.has_array_bag()
        rebuilt = ArrayBag.from_index(updated)
        assert rebuilt.total == updated.size()

    def test_unknown_backend_rejected(self):
        left, right = random_indexes(2)
        with pytest.raises(ValueError):
            index_distance(left, right, backend="gpu")


@pytest.mark.skipif(not HAVE_NUMPY, reason="CompactPostings requires numpy")
class TestCompactPostings:
    def forest(self, backend="compact"):
        forest = ForestIndex(GramConfig(2, 3), backend=backend)
        for i in range(10):
            forest.add_tree(i, random_labelled_tree(4 + 5 * i, seed=300 + i))
        return forest

    def test_sweep_matches_dict_sweep(self):
        reference = self.forest(backend="memory")
        frozen = self.forest(backend="compact")
        frozen.compact()
        assert frozen.backend._frozen is not None
        queries = [
            build_index(random_labelled_tree(12, seed=s)) for s in range(5)
        ]
        for query in queries:
            assert frozen._sweep(query) == reference._sweep(query)

    def test_snapshot_overlaid_by_mutation(self):
        """Mutations after a freeze mask the tree they wrote and land
        in the overlay: the snapshot survives, and sweeps stay exact."""
        reference = self.forest(backend="memory")
        forest = self.forest(backend="compact")
        forest.compact()
        backend = forest.backend
        snapshot = backend._frozen
        assert snapshot is not None and not backend._masked.trees
        extra = random_labelled_tree(9, seed=9)
        forest.add_tree(99, extra)
        reference.add_tree(99, extra)
        # Snapshot kept, the new tree masked and overlaid, results identical.
        assert backend._frozen is snapshot
        assert backend._masked.trees == {99}
        assert backend.stats()["dirty_keys"] == len(dict(forest.index_of(99).items()))
        query = build_index(random_labelled_tree(14, seed=44))
        assert forest._sweep(query) == reference._sweep(query)
        backend.check_consistency()
        forest.remove_tree(99)
        reference.remove_tree(99)
        assert backend._frozen is snapshot
        # The emptied keys still count as written since the freeze.
        assert backend.stats()["dirty_keys"] > 0
        assert forest._sweep(query) == reference._sweep(query)
        backend.check_consistency()

    def test_refreeze_past_dirty_threshold(self):
        forest = self.forest(backend="compact")
        forest.backend.REFREEZE_MIN_DIRTY = 1
        forest.backend.REFREEZE_FRACTION = 0.0
        forest.compact()
        first = forest.backend._frozen
        forest.add_tree(99, random_labelled_tree(9, seed=9))
        assert forest.backend.stats()["dirty_keys"] > 1
        forest.compact()
        assert forest.backend._frozen is not first
        assert not forest.backend._masked.trees
        assert forest.backend.stats()["dirty_keys"] == 0
        forest.backend.check_consistency()

    def test_distances_identical_with_and_without_compact(self):
        forest = self.forest()
        query = build_index(random_labelled_tree(20, seed=77))
        plain = forest.distances(query)
        plain_pruned = forest.distances(query, tau=0.7)
        forest.compact()
        assert forest.distances(query) == plain
        assert forest.distances(query, tau=0.7) == plain_pruned

    def test_build_shapes(self):
        forest = self.forest()
        forest.compact()
        compact = forest.backend._frozen
        assert len(compact.tree_ids) == len(forest)
        total_postings = sum(
            len(postings) for _, postings in forest.iter_postings()
        )
        assert len(compact.slots) == len(compact.counts)
        assert len(compact.slots) == total_postings


class TestParallelBuild:
    def collection(self, count=6):
        return [
            (i, dblp_tree(6 + i, seed=500 + i)) for i in range(count)
        ]

    def test_parallel_equals_serial(self):
        collection = self.collection()
        serial = ForestIndex(GramConfig(2, 3))
        serial.add_trees(collection)
        parallel = build_forest_parallel(collection, GramConfig(2, 3), jobs=2)
        assert len(parallel) == len(serial)
        for tree_id, _ in collection:
            assert parallel.index_of(tree_id) == serial.index_of(tree_id)
            assert parallel.size_of(tree_id) == serial.size_of(tree_id)
        query = build_index(xmark_tree(40, seed=1), GramConfig(2, 3))
        assert parallel.distances(query) == serial.distances(query)
        assert parallel.distances(query, tau=0.9) == serial.distances(
            query, tau=0.9
        )

    def test_add_trees_jobs_merges_memo(self):
        """Worker label hashes land in the parent hasher (decodable)."""
        collection = self.collection(4)
        forest = ForestIndex(GramConfig(2, 2))
        forest.add_trees(collection, jobs=2)
        # Every label of every tree must now hash consistently via the
        # forest's own hasher: re-indexing serially changes nothing.
        for tree_id, tree in collection:
            rebuilt = PQGramIndex.from_tree(tree, forest.config, forest.hasher)
            assert rebuilt == forest.index_of(tree_id)

    def test_add_trees_rejects_duplicates_before_work(self):
        from repro.errors import StorageError

        collection = self.collection(3)
        forest = ForestIndex(GramConfig(2, 2))
        forest.add_trees(collection)
        with pytest.raises(StorageError):
            forest.add_trees([(1, dblp_tree(5, seed=1))], jobs=2)

    def test_jobs_one_is_serial(self):
        collection = self.collection(3)
        forest = ForestIndex(GramConfig(2, 2))
        forest.add_trees(collection, jobs=1)
        assert len(forest) == 3


class TestPruningKernel:
    def test_distance_from_overlap(self):
        assert distance_from_overlap(0, 0) == 0.0
        assert distance_from_overlap(0, 10) == 1.0
        assert distance_from_overlap(5, 10) == 0.0

    def test_size_bound_is_float_exact(self):
        """The size bound uses the *same* float expression as the final
        distance, so bound-rejected pairs can never pass the distance
        test — even under IEEE rounding."""
        for left_size in range(0, 40):
            for right_size in range(0, 40):
                for tau in (0.05, 0.2, 0.5, 0.8, 1.0):
                    admitted = size_bound_admits(left_size, right_size, tau)
                    best = distance_from_overlap(
                        min(left_size, right_size), left_size + right_size
                    )
                    # Rejected ⇒ even a maximal overlap misses tau.
                    if not admitted:
                        assert best >= tau
                    else:
                        assert best < tau


class TestSlots:
    def test_hot_classes_have_no_dict(self):
        from repro.core.gram import PQGram
        from repro.edits.move import Move
        from repro.edits.ops import Delete, Insert, Rename
        from repro.tree.node import Node

        node = Node(1, "a")
        gram = PQGram((Node(None, "*"), Node(1, "a")), 1, 1)
        instances = [
            node,
            gram,
            Insert(1, "a", 0, 1, 0),
            Delete(1),
            Rename(1, "b"),
            Move(1, 0, 1),
        ]
        for instance in instances:
            assert not hasattr(instance, "__dict__"), type(instance)

    def test_node_still_behaves(self):
        from repro.tree.node import NULL_NODE, Node

        node = Node(3, "label")
        assert node.id == 3 and node.label == "label"
        assert not node.is_null
        assert NULL_NODE.is_null
        assert Node(3, "label") == node
        assert hash(Node(3, "label")) == hash(node)
        with pytest.raises(Exception):
            node.label = "other"  # frozen
