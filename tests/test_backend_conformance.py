"""Conformance suite: the forest in every state ≡ a dict-swept
reference, bit for bit.

The relation (``CompactBackend``: dicts plus a frozen CSR with a
masked-tree overlay) must read the same whatever state it is in — never
frozen, frozen before or after its writes, without numpy, on a live
metrics registry — live and through the immutable read views served
lookups sweep: lookups at any τ, per-tree indexes, inverted lists,
incremental maintenance, and store round trips (checkpoint reopen and
WAL recovery).  These tests drive identical workloads through a
candidate forest and a reference forest that is never compacted or
read through a view, and compare everything; wherever the candidate is
*maintained*, the reference is *rebuilt from scratch* (the paper's
invariant), and the ``engine`` rows name the ``repro.core`` reference
path (``tests/conftest.py::reference_update``) the result is also
checked against.
"""

import os
import random

import pytest

from repro.backend import CompactBackend
from repro.backend import compact as compact_module
from repro.concurrency import OverlaySnapshot
from repro.core import GramConfig, PQGramIndex
from repro.datasets import dblp_tree, random_labelled_tree
from repro.edits import apply_script
from repro.errors import StorageError
from repro.lookup import ForestIndex, LookupService
from repro.query import ApproxLookup, execute_plan
from repro.serve import FrontDoor, ServeClient, serve_in_thread
from repro.serve.server import INLINE_FRAME_BYTES
from repro.service import DocumentStore
from repro.tree.builder import tree_from_brackets, tree_to_brackets

from benchmarks.dblp_workloads import dblp_update_script
from tests.conftest import (
    REFERENCE_ENGINES,
    assert_store_is_rebuild,
    reference_update,
    relation,
)

TAUS = (0.2, 0.5, 1.0)
CONFIG = GramConfig(2, 3)

# (row id, forest kwargs).  The ids name the storage backends the forest
# once had; one class is left, and each row runs it in a state the
# plain ``compact`` row does not reach.  The ``-z`` rows run on a live
# metrics registry: the instrumented branches (``if
# self.metrics.enabled``, bound counters) that ``store stats --metrics``
# and traced serving take must be invisible on every read path, bit for
# bit.  ``VIEW_ROWS`` repeat every comparison through ``read_view()`` —
# the snapshot a served lookup sweeps with ``OverlaySnapshot.tau_scan``.
# ``FROZEN_ROWS`` freeze the CSR before the first write, so every tree
# is written after the freeze: reads fold the overlay over a frozen base
# that holds none of them until a ``compact()`` refreezes.
# ``DICT_ROWS`` hide numpy from the backend, so nothing ever freezes:
# every read is the dict sweep and every view a ``DictSnapshot`` — the
# fallback without numpy.
BACKENDS = [
    ("memory", {}),
    ("compact", {}),
    ("sharded-1", {}),
    ("sharded-4", {}),
    ("segment", {}),
    ("rel", {"metrics": True}),
    ("memory-z", {"metrics": True}),
    ("compact-z", {"metrics": True}),
    ("sharded-4z", {"metrics": True}),
    ("segment-z", {"metrics": True}),
    ("rel-z", {"metrics": True}),
]
BACKEND_IDS = [name for name, _ in BACKENDS]
VIEW_ROWS = {"sharded-1", "sharded-4", "sharded-4z", "rel", "rel-z"}
FROZEN_ROWS = {"sharded-4", "segment", "segment-z", "rel"}
DICT_ROWS = {"memory", "memory-z", "rel-z"}


def make_forest(name, kwargs):
    """The row's candidate forest, frozen before its first write in a
    ``FROZEN_ROWS`` row."""
    forest = ForestIndex(CONFIG, **kwargs)
    if name in FROZEN_ROWS:
        forest.compact()
    return forest


def make_store(name, kwargs, directory, **options):
    """The row's store, its forest frozen before the first write in a
    ``FROZEN_ROWS`` row."""
    store = DocumentStore(directory, CONFIG, **kwargs, **options)
    if name in FROZEN_ROWS:
        store._forest.compact()
    return store


def make_pair(name, kwargs):
    """(candidate forest, reference forest) with shared config; the
    reference is never compacted or read through a view, so it sweeps
    its dicts."""
    return make_forest(name, kwargs), ForestIndex(CONFIG)


def make_collection(count, seed):
    rng = random.Random(seed)
    collection = []
    for tree_id in range(count):
        if rng.random() < 0.5:
            tree = random_labelled_tree(rng.randint(2, 25), seed=seed + tree_id)
        else:
            tree = dblp_tree(rng.randint(1, 6), seed=seed + tree_id)
        collection.append((tree_id, tree))
    return collection


def assert_view_equivalent(forest, reference):
    """The forest's published read view answers every lookup exactly
    like the reference: the full scan and the τ scans, which sweep the
    view's frozen base and overlay in array space."""
    view = forest.read_view()
    assert view.generation == forest.generation
    assert isinstance(view, OverlaySnapshot) == compact_module.HAVE_NUMPY
    assert dict(view.iter_sizes()) == dict(reference.backend.iter_sizes())
    query = PQGramIndex.from_tree(
        random_labelled_tree(15, seed=31), CONFIG, reference.hasher
    )
    probes = [query] + [
        reference.index_of(tree_id) for tree_id in sorted(reference.tree_ids())[:3]
    ]
    for probe in probes:
        assert forest.distances(probe, reader=view) == reference.distances(probe)
        for tau in TAUS:
            assert forest.distances(
                probe, tau=tau, reader=view
            ) == reference.distances(probe, tau=tau)


def assert_equivalent(forest, reference, view=False):
    """Everything observable matches the reference, bit for bit — with
    ``view``, through the published read view too."""
    assert len(forest) == len(reference)
    assert sorted(forest.tree_ids()) == sorted(reference.tree_ids())
    for tree_id in reference.tree_ids():
        assert forest.index_of(tree_id) == reference.index_of(tree_id)
        assert forest.size_of(tree_id) == reference.size_of(tree_id)
    assert forest.inverted_lists() == reference.inverted_lists()
    query = PQGramIndex.from_tree(
        random_labelled_tree(15, seed=31), CONFIG, reference.hasher
    )
    assert forest.distances(query) == reference.distances(query)
    for tau in TAUS:
        assert forest.distances(query, tau=tau) == reference.distances(
            query, tau=tau
        )
    forest.backend.check_consistency()
    if view:
        assert_view_equivalent(forest, reference)


@pytest.mark.parametrize(("name", "kwargs"), BACKENDS, ids=BACKEND_IDS)
class TestBackendConformance:
    @pytest.fixture(autouse=True)
    def _numpy_for_row(self, name, monkeypatch):
        if name in DICT_ROWS:
            monkeypatch.setattr(compact_module, "HAVE_NUMPY", False)

    def test_build_and_lookup(self, name, kwargs):
        forest, reference = make_pair(name, kwargs)
        collection = make_collection(10, seed=100)
        # Mix the two build paths: singles and a validated batch.
        for tree_id, tree in collection[:4]:
            forest.add_tree(tree_id, tree)
            reference.add_tree(tree_id, tree)
        forest.add_trees(collection[4:])
        reference.add_trees(collection[4:])
        assert_equivalent(forest, reference, view=name in VIEW_ROWS)
        # And again through the read-optimized view.
        forest.compact()
        assert_equivalent(forest, reference, view=name in VIEW_ROWS)

    @pytest.mark.parametrize("engine", REFERENCE_ENGINES)
    def test_maintenance(self, name, kwargs, engine):
        """Interleaved add/update/remove, with a compact() between
        rounds so frozen views must stay fresh.  The candidate is
        maintained incrementally; the memory reference re-adds the
        edited tree from scratch."""
        rng = random.Random(7)
        forest, reference = make_pair(name, kwargs)
        documents = {}
        next_id = 0
        for round_number in range(25):
            action = rng.randrange(4)
            if action == 0 or not documents:
                tree = dblp_tree(rng.randint(2, 8), seed=round_number)
                forest.add_tree(next_id, tree)
                reference.add_tree(next_id, tree)
                documents[next_id] = tree
                next_id += 1
            elif action in (1, 2):
                tree_id = rng.choice(list(documents))
                script = dblp_update_script(
                    documents[tree_id], rng.randint(1, 6), seed=round_number
                )
                edited, log = apply_script(documents[tree_id], script)
                _, expected = reference_update(
                    engine, forest.index_of(tree_id), documents[tree_id], script
                )
                forest.update_tree(tree_id, edited, log)
                assert forest.index_of(tree_id) == expected
                reference.remove_tree(tree_id)
                reference.add_tree(tree_id, edited)
                documents[tree_id] = edited
            else:
                tree_id = rng.choice(list(documents))
                forest.remove_tree(tree_id)
                reference.remove_tree(tree_id)
                del documents[tree_id]
            if round_number % 3 == 0:
                forest.compact()
            assert forest.inverted_lists() == reference.inverted_lists(), (
                f"drift after round {round_number} action {action}"
            )
            forest.backend.check_consistency()
            if name in VIEW_ROWS:
                assert_view_equivalent(forest, reference)
        assert_equivalent(forest, reference, view=name in VIEW_ROWS)

    def test_snapshot_restore_roundtrip(self, name, kwargs, tmp_path):
        """The index is never persisted: a closed store reopens from its
        checkpoint alone (no WAL) and rebuilds a relation bit-identical
        to the reference; a fresh backend fed the forest's bags holds
        the same relation."""
        forest, reference = make_pair(name, kwargs)
        collection = make_collection(8, seed=200)
        forest.add_trees(collection)
        reference.add_trees(collection)
        twin = CompactBackend()
        for tree_id in forest.tree_ids():
            twin.add_tree_bag(tree_id, forest.backend.tree_bag(tree_id))
        assert relation(twin) == relation(forest.backend)
        twin.check_consistency()
        directory = str(tmp_path / "store")
        store = make_store(name, kwargs, directory)
        store.add_documents(collection)
        store.close()
        assert os.path.getsize(os.path.join(directory, "wal.log")) == 0
        reopened = DocumentStore(directory, CONFIG, **kwargs)
        assert reopened.config == forest.config
        for tree_id in reference.tree_ids():
            assert reopened.get_index(tree_id) == reference.index_of(tree_id)
        assert relation(reopened._forest.backend) == relation(reference.backend)
        assert_equivalent(reopened._forest, reference, view=name in VIEW_ROWS)
        reopened.close()

    @pytest.mark.parametrize("engine", REFERENCE_ENGINES)
    def test_store_wal_recovery(self, name, kwargs, engine, tmp_path):
        """relstore snapshot + WAL replay through every backend: the
        reopened store is bit-identical to a reference forest built
        from scratch over the final documents."""
        directory = str(tmp_path / "store")
        store = make_store(name, kwargs, directory)
        reference = ForestIndex(CONFIG)
        documents = {}
        for tree_id, tree in make_collection(5, seed=300):
            store.add_document(tree_id, tree)
            documents[tree_id] = tree
        rng = random.Random(4)
        for round_number in range(6):
            tree_id = rng.choice(list(documents))
            script = dblp_update_script(documents[tree_id], 3, seed=round_number)
            documents[tree_id], expected = reference_update(
                engine, store.get_index(tree_id), documents[tree_id], script
            )
            store.apply_edits(tree_id, script)
            assert store.get_index(tree_id) == expected
        reference.add_trees(documents.items())
        del store  # reopen: snapshot + WAL replay
        reopened = DocumentStore(directory, CONFIG)
        for tree_id, tree in documents.items():
            assert reopened.get_document(tree_id) == tree
            assert reopened.get_index(tree_id) == reference.index_of(tree_id)
        assert_store_is_rebuild(reopened)
        if name in VIEW_ROWS:
            assert_view_equivalent(reopened._forest, reference)
        for tau in TAUS:
            query = documents[min(documents)]
            assert (
                reopened.lookup(query, tau).matches
                == execute_plan(reference, ApproxLookup(query, tau)).matches
            )

    def test_long_wal_recovers_to_a_rebuild(self, name, kwargs, tmp_path):
        """Several hundred batches stay in the WAL — together they are
        far below the checkpoint threshold — and the reopened store,
        which replays every one of them, is bit-identical to a forest
        built from scratch over the final documents."""
        directory = str(tmp_path / "store")
        store = make_store(name, kwargs, directory)
        documents = dict(make_collection(6, seed=800))
        store.add_documents(list(documents.items()))
        rng = random.Random(8)
        batches = 300
        for round_number in range(batches):
            tree_id = rng.choice(sorted(documents))
            script = dblp_update_script(
                documents[tree_id], rng.randint(1, 3), seed=round_number
            )
            documents[tree_id], _ = apply_script(documents[tree_id], script)
            store.apply_edits(tree_id, script)
        assert store.stats()["wal_bytes"] == os.path.getsize(
            os.path.join(directory, "wal.log")
        )
        del store  # crash: every batch is in the WAL only
        reopened = DocumentStore(directory, CONFIG, metrics=True)
        registry = reopened.metrics_registry
        assert registry.counter_value("wal_replayed_batches_total") == batches
        assert registry.counter_value("checkpoints_total") == 0
        reference = ForestIndex(CONFIG)
        reference.add_trees(documents.items())
        for tree_id, tree in documents.items():
            assert reopened.get_document(tree_id) == tree
        assert_equivalent(reopened._forest, reference, view=name in VIEW_ROWS)
        reopened.close()

    def test_remove_then_readd_same_id(self, name, kwargs):
        """An id is fully reusable after removal — no stale postings,
        sizes, or frozen-view residue under the old id."""
        forest, reference = make_pair(name, kwargs)
        collection = make_collection(6, seed=500)
        forest.add_trees(collection)
        reference.add_trees(collection)
        forest.compact()  # freeze so removal must go through the overlay
        replacement = random_labelled_tree(17, seed=501)
        for target in (forest, reference):
            target.remove_tree(2)
            target.add_tree(2, replacement)
        assert_equivalent(forest, reference, view=name in VIEW_ROWS)
        # Re-adding the original tree after another round trip is exact.
        original = dict(collection)[2]
        for target in (forest, reference):
            target.remove_tree(2)
            target.add_tree(2, original)
        assert_equivalent(forest, reference, view=name in VIEW_ROWS)
        assert forest.index_of(2) == PQGramIndex.from_tree(
            original, CONFIG, reference.hasher
        )

    def test_empty_and_singleton_trees(self, name, kwargs):
        """Degenerate bags: an explicitly empty bag and a single-node
        tree must survive every read path and removal."""
        forest, reference = make_pair(name, kwargs)
        singleton = random_labelled_tree(1, seed=601)
        forest.add_tree(0, singleton)
        reference.add_tree(0, singleton)
        for backend in (forest.backend, reference.backend):
            backend.add_tree_bag(7, {})
        filler = [
            (tree_id + 10, tree)
            for tree_id, tree in make_collection(3, seed=600)
        ]
        forest.add_trees(filler)
        reference.add_trees(filler)
        forest.compact()
        # The empty bag is a real (if invisible) member of the relation.
        for backend in (forest.backend, reference.backend):
            assert 7 in backend
            assert backend.tree_size(7) == 0
            assert backend.tree_bag(7) == {}
        assert relation(forest.backend) == relation(reference.backend)
        assert_equivalent(forest, reference, view=name in VIEW_ROWS)
        # An empty-bag tree shares no pq-gram: it never becomes a
        # candidate, so no sweep can emit (or crash on) it.
        query = PQGramIndex.from_tree(singleton, CONFIG, reference.hasher)
        assert 7 not in forest.backend.candidates(query.items())
        for backend in (forest.backend, reference.backend):
            backend.remove_tree(7)
            assert 7 not in backend
        # (A removal behind the forest's back moves no generation, so
        # the published view rightly still holds tree 7.)
        assert_equivalent(forest, reference)

    def test_metrics_parity_with_memory_reference(self, name, kwargs):
        """The sweep-volume counters are independent of the state the
        relation is in: keys swept, postings touched, candidates
        emitted, deltas applied and delta keys must match a reference
        that is never compacted exactly on an identical workload."""
        from repro.obsv import MetricsRegistry

        registries = {}
        counters = {}
        for label in ("candidate", "reference"):
            registry = MetricsRegistry()
            if label == "candidate":
                forest = make_forest(name, {**kwargs, "metrics": registry})
            else:
                forest = ForestIndex(CONFIG, metrics=registry)
            forest.add_trees(make_collection(8, seed=700))
            if label == "candidate":
                forest.compact()
            query = PQGramIndex.from_tree(
                random_labelled_tree(12, seed=701), CONFIG, forest.hasher
            )
            for tau in TAUS:
                forest.distances(query, tau=tau)
            base = dict(make_collection(8, seed=700))[3]
            script = dblp_update_script(base, 5, seed=702)
            edited, log = apply_script(base, script)
            forest.update_tree(3, edited, log)
            forest.remove_tree(5)
            forest.add_tree(9, random_labelled_tree(14, seed=703))
            # Again with an overlay over whatever the candidate froze:
            # the edited tree's own index meets it on every key.
            for probe in (query, forest.index_of(3)):
                for tau in TAUS:
                    forest.distances(probe, tau=tau)
                forest.backend.candidates(probe.items())
            registries[label] = registry
            counters[label] = {
                counter_name: registry.counter_value(counter_name)
                for counter_name in (
                    "index_keys_swept_total",
                    "index_postings_touched_total",
                    "index_delta_keys_total",
                    "lookup_candidates_total",
                    "lookup_candidates_pruned_total",
                    "lookup_candidates_scored_total",
                    "lookup_matches_total",
                    "maintain_delta_keys_total",
                    "index_candidates_emitted_total",
                    "index_deltas_applied_total",
                )
            }
        assert counters["candidate"] == counters["reference"]
        assert counters["candidate"]["index_keys_swept_total"] > 0
        assert counters["candidate"]["index_delta_keys_total"] > 0

    def test_text_query_matches_like_the_tree_it_denotes(
        self, name, kwargs, tmp_path
    ):
        """A lookup takes its query as a tree or as bracket text; the
        text is scanned into the bag without becoming a tree.  Same
        matches through the library (live and snapshot reads), the
        store, and the wire on the loop and on the pool."""
        collection = [
            (tree_id, tree_from_brackets(tree_to_brackets(tree)))
            for tree_id, tree in make_collection(12, seed=500)
        ]
        queries = [random_labelled_tree(15, seed=31)] + [
            tree for _, tree in collection[3:6]
        ]
        forest = make_forest(name, kwargs)
        forest.add_trees(collection)
        store = make_store(name, kwargs, str(tmp_path / "store"), serve_threads=1)
        store.add_documents(collection)
        handle = serve_in_thread(
            FrontDoor(stores={"default": store}, serve_threads=1)
        )
        try:
            with ServeClient(port=handle.port) as client:
                for query in queries:
                    text = tree_to_brackets(query)
                    for tau in TAUS:
                        matches = LookupService(forest).lookup(query, tau).matches
                        for service in (
                            LookupService(forest),
                            LookupService(forest, snapshot_reads=True),
                            store,
                        ):
                            assert service.lookup(text, tau).matches == matches
                        # the store's first read published the view: the
                        # plain line runs on the loop, the padded one is
                        # too long for it
                        assert client.lookup(text, tau) == matches
                        padded = text + " " * INLINE_FRAME_BYTES
                        assert client.lookup(padded, tau) == matches
        finally:
            handle.drain(timeout=60.0)

    def test_add_trees_all_or_nothing(self, name, kwargs):
        """A duplicate anywhere in the batch — against the forest or
        within the batch itself — commits nothing."""
        forest = make_forest(name, kwargs)
        tree = dblp_tree(3, seed=1)
        with pytest.raises(StorageError):
            forest.add_trees([(0, tree), (1, tree), (0, tree)])
        assert len(forest) == 0
        forest.add_tree(5, tree)
        before = forest.inverted_lists()
        published = forest.read_view() if name in VIEW_ROWS else None
        with pytest.raises(StorageError):
            forest.add_trees([(6, tree), (5, dblp_tree(2, seed=2))])
        assert len(forest) == 1
        assert forest.inverted_lists() == before
        forest.backend.check_consistency()
        if published is not None:
            # A refused batch moves no generation: the view stays.
            assert forest.read_view() is published
            reference = ForestIndex(CONFIG)
            reference.add_tree(5, tree)
            assert_view_equivalent(forest, reference)


class TestCompactOverlayStaleness:
    """Satellite: every mutation path must overlay (or invalidate) the
    frozen snapshot — including incremental maintenance."""

    def _frozen_forest(self):
        forest = ForestIndex(CONFIG)
        reference = ForestIndex(CONFIG)
        for tree_id, tree in make_collection(6, seed=400):
            forest.add_tree(tree_id, tree)
            reference.add_tree(tree_id, tree)
        forest.compact()
        return forest, reference

    @pytest.mark.parametrize("engine", REFERENCE_ENGINES)
    def test_update_after_freeze(self, engine):
        forest, reference = self._frozen_forest()
        tree = dblp_tree(4, seed=400)  # same generator as tree id 0? use doc 0
        document = reference.index_of(0)  # ensure id 0 exists
        assert document is not None
        base = make_collection(6, seed=400)[0][1]
        script = dblp_update_script(base, 4, seed=9)
        edited, log = apply_script(base, script)
        _, expected = reference_update(engine, forest.index_of(0), base, script)
        forest.update_tree(0, edited, log)
        assert forest.index_of(0) == expected
        reference.remove_tree(0)
        reference.add_tree(0, edited)
        backend = forest.backend
        if backend._frozen is not None:
            assert backend._masked.trees == {0}, (
                "maintenance left the edited tree unmasked"
            )
            assert backend.stats()["dirty_keys"] >= len(dict(expected.items()))
        assert_equivalent(forest, reference)

    def test_add_remove_restore_after_freeze(self):
        forest, reference = self._frozen_forest()
        extra = random_labelled_tree(9, seed=41)
        forest.add_tree(99, extra)
        reference.add_tree(99, extra)
        assert_equivalent(forest, reference)
        forest.remove_tree(2)
        reference.remove_tree(2)
        assert_equivalent(forest, reference)
        # A refreeze replaces the frozen base: mask and overlay reset
        # wholesale.
        backend = forest.backend
        backend.REFREEZE_MIN_DIRTY = 0
        frozen = backend._frozen
        forest.compact()
        if frozen is not None:
            assert backend._frozen is not frozen
            assert not backend._masked.trees and backend._overlay == {}
        assert_equivalent(forest, reference)

    def test_every_builtin_backend_kind(self, tmp_path):
        """One class holds the relation: nothing picks a backend, takes
        a partition count, the directory only the segment backend used,
        or a build worker count."""
        import repro.backend

        assert repro.backend.__all__ == ["CompactBackend", "Bag", "Key"]
        assert isinstance(ForestIndex().backend, CompactBackend)
        home = str(tmp_path / "x")
        for keyword, value in (
            ("backend", "memory"),
            ("backend", "compact"),
            ("directory", home),
        ):
            for build in (
                lambda: ForestIndex(**{keyword: value}),
                lambda: DocumentStore(home, **{keyword: value}),
                lambda: LookupService.for_collection([], **{keyword: value}),
            ):
                with pytest.raises(TypeError, match=keyword):
                    build()
        assert not os.path.exists(home)
        with pytest.raises(TypeError):
            CompactBackend(shards=2)
        with pytest.raises(TypeError, match="jobs"):
            ForestIndex().add_trees([], jobs=2)

    @pytest.mark.parametrize("with_wal_tail", [False, True])
    def test_sharded_files_open_as_compact(self, tmp_path, with_wal_tail):
        """Stores written by the retired sharded backend record
        ``backend=sharded`` and a ``shards`` row in their meta.  Such a
        store opens equal to a rebuild, and its next checkpoint writes
        neither row."""
        collection = make_collection(6, seed=550)
        directory = str(tmp_path / "store")
        store = DocumentStore(directory, CONFIG)
        store.add_documents(collection)
        documents = dict(collection)
        if with_wal_tail:
            tree_id = 3
            script = dblp_update_script(documents[tree_id], 4, seed=551)
            documents[tree_id], _ = apply_script(documents[tree_id], script)
            store.apply_edits(tree_id, script)
        del store  # any tail stays in the WAL
        snapshot = os.path.join(directory, "store.db")
        plant_meta(snapshot, backend="sharded", shards="3")
        reopened = DocumentStore(directory, CONFIG)
        assert {
            tree_id: reopened.get_document(tree_id)
            for tree_id in reopened.document_ids()
        } == documents
        assert_store_is_rebuild(reopened)
        rebuilt = ForestIndex(CONFIG)
        rebuilt.add_trees(documents.items())
        assert_equivalent(reopened._forest, rebuilt, view=True)
        reopened.checkpoint()
        meta = read_meta(snapshot)
        assert "backend" not in meta
        assert "shards" not in meta
        reopened.close()


def read_meta(path):
    """What a store checkpoint records beside its documents: p, q and
    the commit sequence, nothing else."""
    from repro.service.checkpoint import read_checkpoint

    checkpoint = read_checkpoint(path)
    assert not checkpoint.legacy
    return {
        "p": str(checkpoint.config.p),
        "q": str(checkpoint.config.q),
        "commit_seq": str(checkpoint.commit_seq),
    }


def plant_meta(path, **values):
    """Rewrite a store's checkpoint as the relstore snapshot an older
    version wrote, with ``values`` merged into its ``meta`` relation —
    what a file of that version records."""
    from repro.service.checkpoint import read_checkpoint

    from tests.support.rpdb import write_store_snapshot

    write_store_snapshot(path, read_checkpoint(path), **values)
