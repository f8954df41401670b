"""What the retired relational (``rel``) backend's tests still check,
on the one class that remains: the write path of a frozen relation
against one never compacted, refused writes that change nothing, the
structural predicates against brute force, and how a store that
recorded ``backend=rel`` (and may still hold the ``rel/`` directory
that backend once wrote) opens — built from its documents, with the
same plan results.  The bounded intern
pool tests at the end pin the test-only copy of the packed layer
(:mod:`tests.support.packed`) until their ids retire."""

import itertools
import os
import random

import pytest

from repro.backend.compact import CompactBackend
from repro.core import GramConfig
from repro.datasets import random_labelled_tree
from repro.errors import IndexConsistencyError, StorageError
from repro.lookup import ForestIndex
from repro.query import And, ApproxLookup, HasLabel, execute_plan
from repro.query.structural import tree_has_label, tree_has_path
from repro.service import DocumentStore
from tests.conftest import relation
from tests.support.packed import InternPool
from tests.test_backend_conformance import plant_meta, read_meta

CONFIG = GramConfig(2, 3)


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


# ----------------------------------------------------------------------
# write path parity with a relation never compacted
# ----------------------------------------------------------------------


class TestWritePath:
    def test_matches_memory_through_mixed_workload(self):
        """A relation frozen halfway through folds the same deltas into
        the same relation as one never compacted, which sweeps its
        dicts."""
        compact = CompactBackend()
        memory = CompactBackend()
        bags = random_bags(12, seed=3)
        rng = random.Random(4)
        for tree_id, bag in bags.items():
            compact.add_tree_bag(tree_id, dict(bag))
            memory.add_tree_bag(tree_id, dict(bag))
        compact.compact()
        keys = sorted({key for bag in bags.values() for key in bag})
        for _ in range(10):
            tree_id = rng.randrange(12)
            if tree_id not in compact:
                continue
            bag = dict(compact.tree_bag(tree_id))
            minus = {rng.choice(sorted(bag)): 1} if bag else {}
            plus = {rng.choice(keys): 1}
            compact.apply_tree_delta(tree_id, minus, plus)
            memory.apply_tree_delta(tree_id, minus, plus)
        compact.remove_tree(5)
        memory.remove_tree(5)
        assert relation(compact) == relation(memory)
        assert sorted(compact.iter_sizes()) == sorted(memory.iter_sizes())
        items = [(key, rng.randint(1, 3)) for key in keys[:6]]
        assert compact.candidates(items) == memory.candidates(items)
        assert memory.stats()["frozen"] is False
        compact.check_consistency()

    def test_duplicate_add_and_bad_delta_raise(self):
        """A refused write leaves the relation as it was, frozen or not:
        a delta is checked whole before its first subtraction, so one
        bad key after good ones subtracts nothing and masks nothing."""
        items = [((1, 2), 3), ((3, 4), 1), ((5, 6), 2), ((9, 9), 1)]
        refused = [
            (StorageError, lambda backend: backend.add_tree_bag(1, {(3, 4): 1})),
            (IndexConsistencyError, lambda backend: backend.apply_tree_delta(1, {(1, 2): 3}, {})),
            (IndexConsistencyError, lambda backend: backend.apply_tree_delta(1, {(9, 9): 1}, {})),
            (
                IndexConsistencyError,
                lambda backend: backend.apply_tree_delta(
                    1, {(1, 2): 1, (3, 4): 99}, {(7, 7): 1}
                ),
            ),
        ]
        for freeze in (False, True):
            backend = CompactBackend()
            backend.add_tree_bag(1, {(1, 2): 2, (3, 4): 3, (5, 6): 4})
            backend.add_tree_bag(2, {(1, 2): 1})
            if freeze:
                backend.compact()

            def state():
                return (
                    dict(backend.tree_bag(1)),
                    backend.tree_size(1),
                    backend.candidates(items),
                    backend.stats(),
                )

            before = state()
            assert before[1] == 9
            for error, call in refused:
                with pytest.raises(error):
                    call(backend)
                backend.check_consistency()
                assert state() == before
            # A zero count subtracts nothing, even for a key the tree
            # lacks.
            backend.apply_tree_delta(1, {(1, 2): 0, (8, 8): 0}, {})
            backend.check_consistency()
            assert state()[:3] == before[:3]


# ----------------------------------------------------------------------
# structural predicates
# ----------------------------------------------------------------------


def root_paths(tree):
    """The label sequence from the root to every node."""
    paths = []
    stack = [(tree.root_id, (tree.label(tree.root_id),))]
    while stack:
        node, path = stack.pop()
        paths.append(path)
        for child in tree.children(node):
            stack.append((child, path + (tree.label(child),)))
    return paths


class TestStructure:
    def test_matchers_agree_with_tree_walks(self):
        """``tree_has_label`` / ``tree_has_path`` against brute force:
        a label is in the tree iff some root path ends in it, and a
        descendant chain is iff some root path holds it at increasing
        positions — every choice of positions tried."""
        trees = [
            random_labelled_tree(random.Random(50 + seed).randint(2, 25), seed=50 + seed)
            for seed in range(15)
        ]
        labels = sorted(
            {tree.label(node) for tree in trees for node in tree.node_ids()}
        )
        rng = random.Random(51)
        for label in labels[:8] + ["absent"]:
            for tree in trees:
                expected = any(path[-1] == label for path in root_paths(tree))
                assert tree_has_label(tree, label) == expected, label
        for _ in range(30):
            chain = tuple(
                rng.choice(labels + ["absent"]) for _ in range(rng.randint(1, 4))
            )
            for tree in trees:
                expected = any(
                    tuple(path[index] for index in positions) == chain
                    for path in root_paths(tree)
                    for positions in itertools.combinations(range(len(path)), len(chain))
                )
                assert tree_has_path(tree, chain) == expected, chain


# ----------------------------------------------------------------------
# stores that recorded the retired backend
# ----------------------------------------------------------------------


def seed_store(directory, count=8, seed=70):
    """A closed compact store whose snapshot now records ``backend=rel``,
    as one the retired backend wrote; its documents."""
    collection = [
        (index, random_labelled_tree(10, seed=seed + index)) for index in range(count)
    ]
    with DocumentStore(directory, CONFIG) as store:
        store.add_documents(collection)
    plant_meta(os.path.join(directory, "store.db"), backend="rel")
    return collection


def query_plan(collection):
    return And(ApproxLookup(collection[0][1], 1.5), HasLabel("a"))


class TestDurability:
    def test_checkpoint_reopen_preserves_everything(self, tmp_path):
        """A store recorded as ``rel`` reopens with the same relation
        and plan results, and its next checkpoint records no backend."""
        directory = str(tmp_path / "store")
        collection = seed_store(directory)
        reference = ForestIndex(CONFIG)
        reference.add_trees(collection)
        expected = relation(reference.backend)
        plan_matches = execute_plan(
            reference, query_plan(collection), documents=dict(collection).__getitem__
        ).matches
        with DocumentStore(directory) as reopened:
            assert relation(reopened._forest.backend) == expected
            assert reopened.query(query_plan(collection)).matches == plan_matches
            reopened._forest.backend.check_consistency()
            reopened.checkpoint()
        assert "backend" not in read_meta(os.path.join(directory, "store.db"))
        assert not os.path.exists(os.path.join(directory, "rel"))

    def test_stats_shape(self, tmp_path):
        """Neither the store nor its relation reports a backend name or
        the retired node-table counters."""
        directory = str(tmp_path / "store")
        seed_store(directory)
        with DocumentStore(directory) as store:
            stats = store.stats()
            backend_stats = store._forest.backend_stats()
        assert backend_stats["trees"] == 8
        for retired in ("backend", "node_rows", "structured_trees", "durable"):
            assert retired not in stats
            assert retired not in backend_stats


class TestStoreRecovery:
    def test_corrupt_snapshot_rebuilds_from_wal(self, tmp_path):
        """A ``rel/rel.db`` in the store directory — here garbage — is
        deleted on open, never read."""
        directory = str(tmp_path / "store")
        collection = seed_store(directory)
        with DocumentStore(directory) as store:
            expected = store.query(query_plan(collection)).matches
        os.makedirs(os.path.join(directory, "rel"))
        with open(os.path.join(directory, "rel", "rel.db"), "wb") as handle:
            handle.write(b"this is not a relstore snapshot")
        with DocumentStore(directory) as store:
            assert not os.path.exists(os.path.join(directory, "rel"))
            assert store.query(query_plan(collection)).matches == expected
            store._forest.backend.check_consistency()

    def test_missing_rel_directory_rebuilds(self, tmp_path):
        """No ``rel/`` directory is the normal state: the reopened store
        builds its index from its documents and answers plans like a
        new store built from the same documents."""
        directory = str(tmp_path / "store")
        collection = seed_store(directory)
        assert not os.path.exists(os.path.join(directory, "rel"))
        with DocumentStore(str(tmp_path / "reference"), CONFIG) as ref:
            ref.add_documents(collection)
            expected = ref.query(query_plan(collection)).matches
        with DocumentStore(directory) as store:
            assert store.query(query_plan(collection)).matches == expected
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
