"""Performance-layer tests: compact postings, batch build, distances.

The frozen sweep of :mod:`repro.perf` must be *byte-identical* to the
dict reference path — these tests assert exactly that on randomized
inputs, plus the `__slots__` memory satellite and the removal of the
process-pool build and the array-bag distance path.
"""

import pytest

from repro.core import GramConfig, PQGramIndex, index_distance
from repro.core.distance import distance_from_overlap, size_bound_admits
from repro.datasets import dblp_tree, random_labelled_tree, xmark_tree
from repro.lookup import ForestIndex
from repro.perf import HAVE_NUMPY


from repro.hashing import LabelHasher

HASHER = LabelHasher()


def build_index(tree, config=GramConfig(2, 3)):
    return PQGramIndex.from_tree(tree, config, HASHER)


def random_indexes(count=8, config=GramConfig(2, 3)):
    return [
        build_index(random_labelled_tree(5 + 7 * i, seed=100 + i), config)
        for i in range(count)
    ]


class TestIndexDistanceBackends:
    """``index_distance`` has one path, the dict intersection; the
    forest sweeps are the other code that computes the same distance."""

    def test_backend_parity(self):
        """Pairwise ``index_distance`` equals the forest's sweep, frozen
        or not."""
        trees = [random_labelled_tree(5 + 7 * i, seed=100 + i) for i in range(6)]
        indexes = [build_index(tree) for tree in trees]
        for frozen in (False, True):
            forest = ForestIndex(GramConfig(2, 3))
            forest.add_trees(enumerate(trees))
            if frozen:
                forest.compact()
            for left in indexes:
                expected = {
                    tree_id: index_distance(left, right)
                    for tree_id, right in enumerate(indexes)
                }
                assert forest.distances(left) == expected

    def test_unknown_backend_rejected(self):
        """No backend name is accepted any more, not even the ones that
        once selected a path."""
        left, right = random_indexes(2)
        for backend in ("gpu", "array", "auto"):
            with pytest.raises(TypeError, match="backend"):
                index_distance(left, right, backend=backend)


@pytest.mark.skipif(not HAVE_NUMPY, reason="CompactPostings requires numpy")
class TestCompactPostings:
    def forest(self):
        forest = ForestIndex(GramConfig(2, 3))
        for i in range(10):
            forest.add_tree(i, random_labelled_tree(4 + 5 * i, seed=300 + i))
        return forest

    def test_sweep_matches_dict_sweep(self):
        reference = self.forest()
        frozen = self.forest()
        frozen.compact()
        assert frozen.backend._frozen is not None
        queries = [
            build_index(random_labelled_tree(12, seed=s)) for s in range(5)
        ]
        for query in queries:
            assert frozen.backend.candidates(query.items()) == reference.backend.candidates(
                query.items()
            )

    def test_snapshot_overlaid_by_mutation(self):
        """Mutations after a freeze mask the tree they wrote and land
        in the overlay: the snapshot survives, and sweeps stay exact."""
        reference = self.forest()
        forest = self.forest()
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
        assert forest.backend.candidates(query.items()) == reference.backend.candidates(
            query.items()
        )
        backend.check_consistency()
        forest.remove_tree(99)
        reference.remove_tree(99)
        assert backend._frozen is snapshot
        # The emptied keys still count as written since the freeze.
        assert backend.stats()["dirty_keys"] > 0
        assert forest.backend.candidates(query.items()) == reference.backend.candidates(
            query.items()
        )
        backend.check_consistency()

    def test_refreeze_past_dirty_threshold(self):
        forest = self.forest()
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
            len(postings) for postings in forest.inverted_lists().values()
        )
        assert len(compact.slots) == len(compact.counts)
        assert len(compact.slots) == total_postings

    def test_first_freeze_does_not_grow_the_heap(self):
        """The first freeze turns the overlay, which holds every posting
        until then, into the CSR base and drops it: the relation keeps
        its postings once in the bags and once in the arrays, so the
        heap after ``compact()`` is no larger than after the adds."""
        import gc
        import tracemalloc

        # The read_small collection of the end-to-end benchmark: one
        # DBLP record (~14 nodes) per document.
        documents = [(index, dblp_tree(1, seed=index)) for index in range(1000)]
        forest = ForestIndex()
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            forest.add_trees(documents)
            gc.collect()
            added = tracemalloc.get_traced_memory()[0] - start
            forest.compact()
            gc.collect()
            frozen = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert forest.backend._frozen is not None
        assert frozen <= added, (added, frozen)


class TestParallelBuild:
    """``add_trees``, the batch build: one serial loop, validated
    before any work."""

    def collection(self, count=6):
        return [
            (i, dblp_tree(6 + i, seed=500 + i)) for i in range(count)
        ]

    def test_parallel_equals_serial(self):
        """A batch build equals the one-tree-at-a-time loop in indexes,
        sizes and distances, frozen or not."""
        collection = self.collection()
        query = build_index(xmark_tree(40, seed=1), GramConfig(2, 3))
        for frozen in (False, True):
            looped = ForestIndex(GramConfig(2, 3))
            for tree_id, tree in collection:
                looped.add_tree(tree_id, tree)
            batch = ForestIndex(GramConfig(2, 3))
            batch.add_trees(collection)
            if frozen:
                looped.compact()
                batch.compact()
            assert len(batch) == len(looped)
            for tree_id, _ in collection:
                assert batch.index_of(tree_id) == looped.index_of(tree_id)
                assert batch.size_of(tree_id) == looped.size_of(tree_id)
            assert batch.distances(query) == looped.distances(query)
            assert batch.distances(query, tau=0.9) == looped.distances(
                query, tau=0.9
            )

    def test_add_trees_jobs_merges_memo(self):
        """A batch build leaves every label in the forest's own hasher:
        re-indexing serially through it changes nothing and misses no
        label."""
        collection = self.collection(4)
        forest = ForestIndex(GramConfig(2, 2))
        forest.add_trees(collection)
        misses = forest.hasher.memo_misses
        for tree_id, tree in collection:
            rebuilt = PQGramIndex.from_tree(tree, forest.config, forest.hasher)
            assert rebuilt == forest.index_of(tree_id)
        assert forest.hasher.memo_misses == misses

    def test_add_trees_rejects_duplicates_before_work(self):
        from repro.errors import StorageError

        collection = self.collection(3)
        forest = ForestIndex(GramConfig(2, 2))
        forest.add_trees(collection)
        before = forest.inverted_lists()
        generation = forest.generation
        misses = forest.hasher.memo_misses
        with pytest.raises(StorageError):
            forest.add_trees([(7, xmark_tree(30, seed=7)), (1, dblp_tree(5, seed=1))])
        # Refused before the first bag: nothing indexed, nothing hashed.
        assert len(forest) == 3
        assert forest.inverted_lists() == before
        assert forest.generation == generation
        assert forest.hasher.memo_misses == misses

    def test_jobs_one_is_serial(self):
        """The batch is read once, so a generator works."""
        collection = self.collection(3)
        forest = ForestIndex(GramConfig(2, 2))
        forest.add_trees(item for item in collection)
        assert len(forest) == 3
        assert sorted(forest.tree_ids()) == [tree_id for tree_id, _ in collection]


def _former_jobs_signatures(tmp_path):
    """One call per signature that used to take ``jobs=``, each
    passing it; the former ``backend=`` of ``index_distance`` too."""
    from repro.core import update_index
    from repro.core.batch import (
        net_delta,
        update_index_batch,
        update_index_batch_delta,
    )
    from repro.lookup import LookupService
    from repro.service import DocumentStore

    tree = dblp_tree(3, seed=1)
    index = build_index(tree)

    def add_documents():
        store = DocumentStore(str(tmp_path / "store"))
        try:
            store.add_documents([(0, tree)], jobs=2)
        finally:
            store.close()

    return {
        "DocumentStore.add_documents": add_documents,
        "ForestIndex.add_trees": lambda: ForestIndex().add_trees(
            [(0, tree)], jobs=2
        ),
        "LookupService.for_collection": lambda: LookupService.for_collection(
            [(0, tree)], jobs=2
        ),
        "update_index": lambda: update_index(index, tree, [], jobs=2),
        "update_index_batch": lambda: update_index_batch(
            index, tree, [], jobs=2
        ),
        "update_index_batch_delta": lambda: update_index_batch_delta(
            index, tree, [], HASHER, jobs=2
        ),
        # The id names the engine's former instrumented entry point.
        "update_index_batch_timed": lambda: net_delta(
            tree, [], index.config, HASHER, jobs=2
        ),
        "index_distance": lambda: index_distance(index, index, backend="dict"),
    }


@pytest.mark.parametrize(
    "signature",
    [
        "DocumentStore.add_documents",
        "ForestIndex.add_trees",
        "LookupService.for_collection",
        "update_index",
        "update_index_batch",
        "update_index_batch_delta",
        "update_index_batch_timed",
        "index_distance",
    ],
)
def test_removed_options_are_type_errors(signature, tmp_path):
    """The process-pool build and the array-bag distance path are gone
    with every option that reached them."""
    with pytest.raises(TypeError, match="jobs|backend"):
        _former_jobs_signatures(tmp_path)[signature]()


def test_perf_exports_only_the_sweep():
    import importlib.util

    import repro
    import repro.perf
    from repro.hashing import LabelHasher

    assert sorted(repro.perf.__all__) == ["CompactPostings", "HAVE_NUMPY"]
    for name in ("ArrayBag", "build_forest_parallel", "delta_bags_parallel"):
        assert not hasattr(repro.perf, name)
    assert not hasattr(repro, "build_forest_parallel")
    for module in ("repro.perf.parallel", "repro.perf.arraybag"):
        assert importlib.util.find_spec(module) is None
    for name in ("memo_snapshot", "absorb_memo"):
        assert not hasattr(LabelHasher, name)
    for name in ("has_array_bag", "as_array_bag"):
        assert not hasattr(PQGramIndex, name)


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
