"""RelBackend write path + structural encoding, and its place in the
store's one recovery protocol (built from the documents on every open,
never read back from disk).  The bounded intern pool tests at the end
pin the test-only copy of the packed layer (:mod:`tests.support.packed`)
until their ids retire."""

import os
import random

import pytest

from repro.backend.memory import MemoryBackend
from repro.backend.rel import RelBackend
from repro.core import GramConfig, index_of_tree
from repro.hashing import LabelHasher
from repro.datasets import random_labelled_tree
from repro.errors import IndexConsistencyError, StorageError
from repro.query import And, ApproxLookup, HasLabel, HasPath
from repro.query.structural import tree_has_label, tree_has_path
from tests.support.packed import InternPool

CONFIG = GramConfig(2, 3)
HASHER = LabelHasher()


def random_bags(count, seed):
    rng = random.Random(seed)
    bags = {}
    for tree_id in range(count):
        size = rng.randint(1, 12)
        bag = {}
        for _ in range(size):
            key = tuple(rng.randint(0, 6) for _ in range(4))
            bag[key] = bag.get(key, 0) + 1
        bags[tree_id] = bag
    return bags


def fill_with_trees(backend, count, seed):
    trees = {}
    for tree_id in range(count):
        tree = random_labelled_tree(random.Random(seed + tree_id).randint(2, 25),
                                    seed=seed + tree_id)
        trees[tree_id] = tree
        backend.add_tree_bag(tree_id, dict(index_of_tree(tree, CONFIG, HASHER).items()))
        backend.record_structure(tree_id, tree)
    return trees


# ----------------------------------------------------------------------
# write path parity with the reference backend
# ----------------------------------------------------------------------


class TestWritePath:
    def test_matches_memory_through_mixed_workload(self):
        rel = RelBackend()
        memory = MemoryBackend()
        bags = random_bags(12, seed=3)
        rng = random.Random(4)
        for tree_id, bag in bags.items():
            rel.add_tree_bag(tree_id, dict(bag))
            memory.add_tree_bag(tree_id, dict(bag))
        keys = sorted({key for bag in bags.values() for key in bag})
        for _ in range(10):
            tree_id = rng.randrange(12)
            if tree_id not in rel:
                continue
            bag = dict(rel.tree_bag(tree_id))
            minus = {rng.choice(sorted(bag)): 1} if bag else {}
            plus = {rng.choice(keys): 1}
            rel.apply_tree_delta(tree_id, minus, plus)
            memory.apply_tree_delta(tree_id, minus, plus)
        rel.remove_tree(5)
        memory.remove_tree(5)
        assert rel.snapshot() == memory.snapshot()
        assert sorted(rel.iter_sizes()) == sorted(memory.iter_sizes())
        items = [(key, rng.randint(1, 3)) for key in keys[:6]]
        assert rel.candidates(items) == memory.candidates(items)
        rel.check_consistency()

    def test_duplicate_add_and_bad_delta_raise(self):
        rel = RelBackend()
        rel.add_tree_bag(1, {(1, 2): 2})
        with pytest.raises(StorageError):
            rel.add_tree_bag(1, {(3, 4): 1})
        with pytest.raises(IndexConsistencyError):
            rel.apply_tree_delta(1, {(1, 2): 3}, {})
        with pytest.raises(IndexConsistencyError):
            rel.apply_tree_delta(1, {(9, 9): 1}, {})


# ----------------------------------------------------------------------
# structural encoding
# ----------------------------------------------------------------------


class TestStructure:
    def test_matchers_agree_with_tree_walks(self):
        rel = RelBackend()
        trees = fill_with_trees(rel, 15, seed=50)
        labels = sorted(
            {
                tree.label(node)
                for tree in trees.values()
                for node in tree.node_ids()
            }
        )
        rng = random.Random(51)
        for label in labels[:8] + ["absent"]:
            matcher = rel.structural_matcher(HasLabel(label))
            for tree_id, tree in trees.items():
                assert matcher(tree_id) == tree_has_label(tree, label), (
                    tree_id,
                    label,
                )
        for _ in range(30):
            chain = tuple(
                rng.choice(labels + ["absent"])
                for _ in range(rng.randint(1, 4))
            )
            matcher = rel.structural_matcher(HasPath(chain))
            for tree_id, tree in trees.items():
                assert matcher(tree_id) == tree_has_path(tree, chain), (
                    tree_id,
                    chain,
                )

    def test_structures_missing_tracks_record_structure(self):
        rel = RelBackend()
        tree = random_labelled_tree(6, seed=1)
        rel.add_tree_bag(7, dict(index_of_tree(tree, CONFIG, HASHER).items()))
        assert rel.structures_missing() == {7}
        assert not rel.structures_complete()
        rel.record_structure(7, tree)
        assert rel.structures_missing() == set()
        assert rel.structures_complete()
        # restore() wipes node rows: every surviving tree needs re-recording.
        rel.restore({7: dict(index_of_tree(tree, CONFIG, HASHER).items()), 8: {(1,): 1}})
        assert rel.structures_missing() == {7, 8}
        rel.remove_tree(7)
        assert rel.structures_missing() == {8}

    def test_check_consistency_rejects_broken_intervals(self):
        rel = RelBackend()
        tree = random_labelled_tree(8, seed=2)
        rel.add_tree_bag(1, dict(index_of_tree(tree, CONFIG, HASHER).items()))
        rel.record_structure(1, tree)
        rel.check_consistency()
        # Corrupt one post value so pre/post no longer nest.
        row = rel._nodes.get_row((1, 0))
        rel._nodes.update((1, 0), {"post": row[1] + 50})
        with pytest.raises(IndexConsistencyError):
            rel.check_consistency()


# ----------------------------------------------------------------------
# durability: derived from the store's documents
# ----------------------------------------------------------------------


class TestDurability:
    def test_checkpoint_reopen_preserves_everything(self, tmp_path):
        """A closed and reopened rel store holds the same relation and
        a complete pre/post table, built from its documents."""
        from repro.service import DocumentStore

        directory = str(tmp_path / "store")
        trees = {
            tree_id: random_labelled_tree(
                random.Random(60 + tree_id).randint(2, 25), seed=60 + tree_id
            )
            for tree_id in range(8)
        }
        with DocumentStore(directory, CONFIG, backend="rel") as store:
            store.add_documents(list(trees.items()))
            expected = store._forest.backend.snapshot()
        with DocumentStore(directory) as reopened:
            backend = reopened._forest.backend
            assert reopened.backend_name == "rel"
            assert backend.snapshot() == expected
            assert backend.structures_missing() == set()
            matcher = backend.structural_matcher(HasLabel("absent"))
            for tree_id in trees:
                assert matcher(tree_id) is False
            backend.check_consistency()
        assert not os.path.exists(os.path.join(directory, "rel"))

    def test_stats_shape(self):
        rel = RelBackend()
        tree = random_labelled_tree(6, seed=5)
        rel.add_tree_bag(1, dict(index_of_tree(tree, CONFIG, HASHER).items()))
        rel.record_structure(1, tree)
        stats = rel.stats()
        assert stats["backend"] == "rel"
        assert stats["trees"] == 1
        assert stats["node_rows"] == len(tree)
        assert stats["structured_trees"] == 1
        assert "durable" not in stats


class TestStoreRecovery:
    def make_store(self, directory):
        from repro.service import DocumentStore

        return DocumentStore(directory, CONFIG, backend="rel")

    def seed_store(self, directory, count=8, seed=70):
        collection = [
            (index, random_labelled_tree(10, seed=seed + index))
            for index in range(count)
        ]
        with self.make_store(directory) as store:
            store.add_documents(collection)
        return collection

    def query_plan(self, collection):
        return And(ApproxLookup(collection[0][1], 1.5), HasLabel("a"))

    def test_corrupt_snapshot_rebuilds_from_wal(self, tmp_path):
        """A ``rel/rel.db`` in the store directory — here garbage — is
        deleted on open, never read."""
        from repro.service import DocumentStore

        directory = str(tmp_path / "store")
        collection = self.seed_store(directory)
        with DocumentStore(directory) as store:
            expected = store.query(self.query_plan(collection)).matches
        os.makedirs(os.path.join(directory, "rel"))
        with open(os.path.join(directory, "rel", "rel.db"), "wb") as handle:
            handle.write(b"this is not a relstore snapshot")
        with DocumentStore(directory) as store:
            assert not os.path.exists(os.path.join(directory, "rel"))
            assert store.backend_name == "rel"
            result = store.query(self.query_plan(collection))
            assert result.matches == expected
            assert result.extra["pushdown"] == 1.0
            store._forest.backend.check_consistency()

    def test_missing_rel_directory_rebuilds(self, tmp_path):
        """No ``rel/`` directory is the normal state: the reopened store
        builds the relation and the node table from its documents, and
        pushdown is sound at once."""
        from repro.service import DocumentStore

        directory = str(tmp_path / "store")
        collection = self.seed_store(directory)
        assert not os.path.exists(os.path.join(directory, "rel"))
        with DocumentStore(directory) as store:
            result = store.query(self.query_plan(collection))
            assert result.extra["pushdown"] == 1.0
            store._forest.backend.check_consistency()


# ----------------------------------------------------------------------
# bounded intern pool
# ----------------------------------------------------------------------


class TestBoundedInternPool:
    def test_cap_evicts_oldest_unpinned(self):
        pool = InternPool(max_entries=3)
        keys = [(index,) for index in range(5)]
        for key in keys:
            pool.intern(key)
        assert len(pool) == 3
        assert pool.evictions == 2
        # The three youngest survive: probing with fresh equal tuples
        # hands back the original canonical objects.
        for index in (2, 3, 4):
            assert pool.intern((index,)) is keys[index]
        # The two oldest were forgotten: a probe interns a new object.
        assert pool.intern((0,)) is not keys[0]
        assert pool.evictions == 3

    def test_recency_refresh_protects_hot_keys(self):
        pool = InternPool(max_entries=2)
        hot = pool.intern((1,))
        pool.intern((2,))
        assert pool.intern((1,)) is hot  # refreshed: now the young end
        pool.intern((3,))  # evicts (2,) — the hot key was refreshed past it
        assert pool.intern((1,)) is hot
        assert pool.evictions == 1

    def test_id_assigned_keys_are_pinned(self):
        pool = InternPool(max_entries=2)
        pinned = [(1,), (2,), (3,)]
        idents = [pool.id_of(key) for key in pinned]
        assert idents == [0, 1, 2]
        for index in range(10, 20):
            pool.intern((index,))
        # All pinned keys still resolve to their original ids.
        for key, ident in zip(pinned, idents):
            assert pool.id_of(key) == ident
            assert pool.key_of(ident) == key
        assert pool.stats()["assigned_ids"] == 3
        # The pool may exceed the cap only by the pinned population.
        assert len(pool) <= 2 + len(pinned)

    def test_just_interned_key_is_never_evicted(self):
        pool = InternPool(max_entries=1)
        for index in range(5):
            key = (index,)
            assert pool.intern(key) is key
            assert pool.intern((index,)) is key  # still resident

    def test_fingerprints_forgotten_with_their_keys(self):
        pool = InternPool(max_entries=1)
        pool.fingerprint((1, 2))
        pool.fingerprint((3, 4))
        assert pool.stats()["memoized_fingerprints"] == 1

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError):
            InternPool(max_entries=0)

    def test_unbounded_pool_unchanged(self):
        pool = InternPool()
        key = (1, 2, 3)
        assert pool.intern(key) is key
        assert pool.intern((1, 2, 3)) is key
        assert pool.evictions == 0
        assert pool.max_entries is None
        assert pool.stats()["max_entries"] == 0
