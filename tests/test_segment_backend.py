"""Stores an older version left index files in, and compact's frozen form.

The ``segment`` backend kept a frozen copy of the index relation in
memory-mapped files under ``<store>/segments/``.  The backend is gone,
and so is every reader of its files: a store that finds ``segments/``
deletes it on open, never reads it, and builds the forest from the
documents and the WAL alone.  These tests plant what such a store left
behind — sealed segments, manifests, delta logs, garbage, another
store's files — and check that the reopened store equals a reference
built from scratch.  The stores run compact with its CSR frozen and a
live overlay over it: the state the segment backend's sealed base and
overlay used to cover.  The class names are those of the tests the
retired backend had.
"""

import os
import random

import pytest

from repro.backend import CompactBackend
from repro.core import GramConfig, PQGramIndex
from repro.datasets import dblp_tree, random_labelled_tree
from repro.edits import apply_script
from repro.lookup import ForestIndex
from repro.obsv import MetricsRegistry
from repro.perf import HAVE_NUMPY
from repro.query import ApproxLookup, execute_plan
from repro.service import DocumentStore

from benchmarks.dblp_workloads import dblp_update_script
from tests.conftest import assert_store_is_rebuild, relation
from tests.test_backend_conformance import plant_meta, read_meta

CONFIG = GramConfig(2, 3)

#: what the retired segment backend wrote under ``segments/``
LEFTOVER_NAMES = ("segment-00000001.seg", "MANIFEST.json", "delta-00000001.log")

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="frozen CSR needs numpy")


def plant_segments(directory, content=b"RSEGIDX1" + bytes(range(256)) * 4):
    """Fill ``<directory>/segments/`` with what an older store left
    there; returns the planted paths."""
    segments = os.path.join(directory, "segments")
    os.makedirs(segments, exist_ok=True)
    planted = [os.path.join(segments, name) for name in LEFTOVER_NAMES]
    for path in planted:
        with open(path, "wb") as handle:
            handle.write(content)
    return planted


# ----------------------------------------------------------------------
# a store as the packed layer left it
# ----------------------------------------------------------------------


class TestSegmentFileV2:
    def test_corrupt_varint_segment_never_served(self, tmp_path):
        """A store directory as an older version left it with the
        packed layer on: ``compress=1`` in the snapshot meta, a WAL
        tail, and an ``RSEGIDX2`` file under ``segments/`` that matches
        no document.  It opens to indexes equal to a rebuild, the file
        is deleted unread, and the next checkpoint writes no
        ``compress`` row."""
        from repro.edits import Rename
        from repro.tree import tree_from_brackets

        directory = str(tmp_path / "store")
        store = DocumentStore(directory, CONFIG)
        store.add_document(1, tree_from_brackets("a(b(c,d),e(f))"))
        store.add_document(2, tree_from_brackets("x(y,z)"))
        store.checkpoint()
        store.apply_edits(1, [Rename(2, "tail")])
        del store  # the rename is in the WAL tail only

        snapshot = os.path.join(directory, "store.db")
        plant_meta(snapshot, compress="1")
        [v2_path, *_] = plant_segments(
            directory, b"RSEGIDX2" + bytes(range(255, -1, -1)) * 4
        )

        reopened = DocumentStore(directory)
        assert not os.path.exists(v2_path)
        assert reopened.get_document(1).label(2) == "tail"
        assert "compress" not in reopened.stats()
        assert_store_is_rebuild(reopened)
        reopened.checkpoint()
        reopened.close()
        assert "compress" not in read_meta(snapshot)


# ----------------------------------------------------------------------
# reopen: every index is derived, the store rebuilds
# ----------------------------------------------------------------------


@needs_numpy
class TestReopen:
    def test_reopen_replays_only_the_tail(self, tmp_path):
        """A frozen CSR plus an edit tail in the WAL, then a crash: the
        reopen replays the tail onto the documents, builds the forest
        once (no maintenance batch runs) and equals a rebuild."""
        directory = str(tmp_path / "store")
        store, reference, documents = TestSegmentStore()._populate(directory)
        store.checkpoint()
        for round_number in range(3):
            _edit_round(store, reference, documents, seed=70 + round_number)
        assert store.stats()["frozen"] and store.stats()["dirty_keys"] > 0
        del store  # crash: the three batches are in the WAL only
        registry = MetricsRegistry()
        reopened = DocumentStore(directory, metrics=registry)
        assert registry.counter_value("wal_replayed_batches_total") == 3
        assert registry.counter_value("maintain_batches_total") == 0
        assert relation(reopened._forest.backend) == relation(reference.backend)
        assert_store_is_rebuild(reopened)
        reopened.close()

    def test_seal_then_reopen_needs_no_delta(self, tmp_path):
        """A clean close of a store whose CSR is frozen under a live
        overlay: the reopened store has nothing frozen from before, and
        its first freeze builds a CSR that serves the same relation."""
        directory = str(tmp_path / "store")
        store, reference, _ = TestSegmentStore()._populate(directory)
        assert store.stats()["dirty_keys"] > 0
        store.close()
        reopened = DocumentStore(directory)
        assert reopened.stats()["frozen"] is False
        reopened._forest.compact()
        stats = reopened.stats()
        assert stats["frozen"] is True and stats["dirty_keys"] == 0
        assert relation(reopened._forest.backend) == relation(reference.backend)
        reopened._forest.backend.check_consistency()
        reopened.close()


# ----------------------------------------------------------------------
# refreeze debounce
# ----------------------------------------------------------------------


class TestDebounce:
    def _bags(self, count, keys_per_tree, seed=31):
        rng = random.Random(seed)
        return {
            tree_id: {
                tuple(rng.randrange(1 << 20) for _ in range(3)): 1
                for _ in range(keys_per_tree)
            }
            for tree_id in range(count)
        }

    def test_compact_refreeze_debounced_by_mutation_gap(self):
        pytest.importorskip("numpy")
        backend = CompactBackend()
        for tree_id, bag in self._bags(4, 80).items():
            backend.add_tree_bag(tree_id, bag)
        backend.compact()
        assert not backend.needs_compaction()
        # Two adds dirty ~160 keys — far past the dirty threshold — but
        # are only two mutations: the gap must hold the refreeze back.
        for tree_id, bag in self._bags(2, 80, seed=32).items():
            backend.add_tree_bag(tree_id + 100, bag)
        assert backend._stale()
        assert not backend.needs_compaction(), (
            "refreeze retriggered immediately after a freeze"
        )
        # An explicit compact() is never debounced.
        backend.compact()
        assert backend._frozen is not None and not backend._masked.trees
        # Once enough mutations accumulate (each dirtying a handful of
        # fresh keys, so the dirty fraction crosses too), the gate
        # opens again.
        for step in range(backend.REFREEZE_MIN_MUTATION_GAP):
            backend.apply_tree_delta(
                0, {}, {(step, step, step, axis): 1 for axis in range(6)}
            )
        assert backend.needs_compaction()
        backend.check_consistency()


# ----------------------------------------------------------------------
# document store integration
# ----------------------------------------------------------------------


def _tree(seed, grown=6):
    return dblp_tree(grown, seed=seed)


def _edit_round(store, reference_forest, documents, seed):
    rng = random.Random(seed)
    tree_id = rng.choice(sorted(documents))
    script = dblp_update_script(documents[tree_id], 3, seed=seed)
    edited, log = apply_script(documents[tree_id], script)
    store.apply_edits(tree_id, script)
    reference_forest.update_tree(tree_id, edited, log)
    documents[tree_id] = edited


@needs_numpy
class TestSegmentStore:
    def _populate(self, directory):
        """A compact store of six documents whose CSR is frozen before
        eight edit batches, so the edited trees live in the overlay."""
        store = DocumentStore(directory, CONFIG)
        reference = ForestIndex(CONFIG)
        documents = {}
        for tree_id in range(6):
            tree = _tree(seed=40 + tree_id)
            store.add_document(tree_id, tree)
            reference.add_tree(tree_id, tree)
            documents[tree_id] = tree
        store._forest.compact()
        for round_number in range(8):
            _edit_round(store, reference, documents, seed=50 + round_number)
        return store, reference, documents

    def assert_matches_reference(self, directory, reference, documents):
        reopened = DocumentStore(directory)
        assert not os.path.exists(os.path.join(directory, "segments"))
        assert relation(reopened._forest.backend) == relation(reference.backend)
        for tree_id, tree in documents.items():
            assert reopened.get_document(tree_id) == tree
        reopened._forest.backend.check_consistency()
        query = documents[min(documents)]
        assert reopened.lookup(query, 0.5).matches
        reopened.close()

    def test_crash_recovery_skips_already_applied_batches(self, tmp_path):
        # Crash: no close(), so the WAL still holds every edit batch;
        # each replays onto its document exactly once.
        directory = str(tmp_path / "store")
        store, reference, documents = self._populate(directory)
        del store
        self.assert_matches_reference(directory, reference, documents)

    def test_recovery_rebuilds_lost_delta_from_wal(self, tmp_path):
        """Files an older store kept under ``segments/`` (a manifest, a
        delta log) are deleted on open, never read: the WAL and the
        documents alone recover everything."""
        directory = str(tmp_path / "store")
        store, reference, documents = self._populate(directory)
        del store
        planted = plant_segments(directory, b"\x99not what it claims to be")
        self.assert_matches_reference(directory, reference, documents)
        assert not any(os.path.exists(path) for path in planted)

    def test_torn_wal_rolls_back_delta_log_overrun(self, tmp_path):
        # A torn WAL append discards the batch: the reopened store holds
        # the pre-batch documents and indexes built from them, never a
        # third state — and a second reopen still agrees.
        directory = str(tmp_path / "store")
        store, reference, documents = self._populate(directory)
        wal_path = os.path.join(directory, "wal.log")
        store.checkpoint()
        pre_wal_size = os.path.getsize(wal_path)
        tree_id = min(documents)
        script = dblp_update_script(documents[tree_id], 3, seed=99)
        store.apply_edits(tree_id, script)
        del store
        assert os.path.getsize(wal_path) > pre_wal_size
        with open(wal_path, "r+b") as handle:
            handle.truncate(pre_wal_size + 3)  # torn mid-record
        self.assert_matches_reference(directory, reference, documents)
        self.assert_matches_reference(directory, reference, documents)

    def test_recovery_rebuilds_corrupt_segment(self, tmp_path):
        """A sealed segment whose bytes were flipped, left beside a
        cleanly closed store, is deleted unread."""
        directory = str(tmp_path / "store")
        store, reference, documents = self._populate(directory)
        store.close()
        content = bytearray(b"RSEGIDX1" + bytes(range(256)) * 4)
        content[64] ^= 0xFF
        plant_segments(directory, bytes(content))
        self.assert_matches_reference(directory, reference, documents)

    def test_recovery_rejects_foreign_segments(self, tmp_path):
        """Files another store left under its ``segments/``, copied into
        this store's, are never adopted: what the other store indexed
        stays out of this one."""
        directory = str(tmp_path / "store")
        store, reference, documents = self._populate(directory)
        store.close()
        foreign = DocumentStore(str(tmp_path / "foreign"), CONFIG)
        for tree_id in range(6):
            foreign.add_document(tree_id, _tree(seed=140 + tree_id))
        foreign.close()
        with open(os.path.join(str(tmp_path / "foreign"), "store.db"), "rb") as handle:
            plant_segments(directory, handle.read())
        self.assert_matches_reference(directory, reference, documents)

    def test_snapshot_carries_no_index_relation(self, tmp_path):
        """The checkpoint holds a META block, the documents' records and
        the END block: no index, no backend."""
        from repro.service.checkpoint import MAGIC, _blocks

        directory = str(tmp_path / "store")
        store, _, _ = self._populate(directory)
        store.close()
        snapshot = os.path.join(directory, "store.db")
        with open(snapshot, "rb") as handle:
            data = handle.read()
        assert data.startswith(MAGIC)
        kinds = [kind for kind, _ in _blocks(data)]
        assert kinds[0] == b"M" and kinds[-1] == b"E"
        assert set(kinds[1:-1]) == {b"D"}
        meta = read_meta(snapshot)
        assert "backend" not in meta
        assert int(meta["commit_seq"]) > 0

    def test_first_served_read_seals_the_rebuilt_segment(self, tmp_path):
        """A store closed with its CSR frozen under a live overlay
        reopens with nothing frozen.  Served, no lookup compacts, so the
        first read view freezes the CSR it then shares — a read-only
        served store would sweep Python dicts forever otherwise."""
        directory = str(tmp_path / "store")
        store, reference, documents = self._populate(directory)
        store.close()
        served = DocumentStore(directory, serve_threads=2)
        assert served.stats()["frozen"] is False
        query = documents[min(documents)]
        expected = execute_plan(reference, ApproxLookup(query, 0.5)).matches
        assert served.lookup(query, 0.5).matches == expected
        stats = served.stats()
        assert stats["frozen"] is True and stats["dirty_keys"] == 0
        served.close()

    def test_env_default_backend(self, tmp_path, monkeypatch):
        """Nothing picks a store's backend, an environment variable
        included: with ``REPRO_STORE_BACKEND`` set, a store holds its
        relation in the one class, reports no backend, and records none
        in its snapshot."""
        monkeypatch.setenv("REPRO_STORE_BACKEND", "memory")
        directory = str(tmp_path / "store")
        store = DocumentStore(directory, CONFIG)
        store.add_document(1, _tree(seed=90))
        assert type(store._forest.backend) is CompactBackend
        assert "backend" not in store.stats()
        store.close()
        assert "backend" not in read_meta(os.path.join(directory, "store.db"))

    def test_fresh_store_discards_leftover_segments(self, tmp_path):
        directory = str(tmp_path / "store")
        store, _, _ = self._populate(directory)
        store.close()
        os.remove(os.path.join(directory, "store.db"))
        os.remove(os.path.join(directory, "wal.log"))
        plant_segments(directory)
        fresh = DocumentStore(directory, CONFIG)
        assert len(fresh) == 0
        assert len(fresh._forest.backend) == 0
        assert not os.path.exists(os.path.join(directory, "segments"))
        fresh.close()


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------


@needs_numpy
class TestSegmentMetrics:
    def test_seal_and_reopen_metrics(self):
        """Freezes are counted and the overlay is gauged; a second forest
        over the same trees has nothing frozen until it freezes itself."""
        registry = MetricsRegistry()
        forest = ForestIndex(CONFIG, metrics=registry)
        for tree_id in range(5):
            forest.add_tree(tree_id, random_labelled_tree(10, seed=tree_id))
        forest.compact()
        assert registry.counter_value("compact_refreezes_total") == 1
        forest.add_tree(5, random_labelled_tree(10, seed=5))  # into the overlay
        forest.sync_metric_gauges()
        dirty = registry.snapshot()["gauges"]["compact_dirty_keys"]
        assert dirty == forest.backend_stats()["dirty_keys"] > 0
        forest.close()

        reopened_registry = MetricsRegistry()
        reopened = ForestIndex(CONFIG, metrics=reopened_registry)
        reopened.add_tree(0, random_labelled_tree(10, seed=0))
        reopened.sync_metric_gauges()
        assert reopened_registry.counter_value("compact_refreezes_total") == 0
        assert reopened_registry.snapshot()["gauges"]["compact_dirty_keys"] == 0
        query = PQGramIndex.from_tree(
            random_labelled_tree(10, seed=0), CONFIG, reopened.hasher
        )
        assert reopened.distances(query, tau=0.6) == {0: 0.0}
        assert reopened_registry.counter_value("index_keys_swept_total") > 0
        reopened.close()
