"""Document store tests: durability, WAL recovery, maintenance."""

import glob
import os

import pytest

from repro.core import GramConfig, PQGramIndex
from repro.datasets import dblp_tree
from repro.edits import Delete, Insert, Rename
from repro.errors import EditError, StorageError
from repro.service import DocumentStore
from repro.service.store import WAL_CHECKPOINT_FLOOR, WAL_CHECKPOINT_SHARE
from repro.tree import tree_from_brackets

from benchmarks.dblp_workloads import dblp_update_script


@pytest.fixture
def store_dir(tmp_path):
    return str(tmp_path / "store")


def rebuilt(store, document_id):
    return PQGramIndex.from_tree(
        store.get_document(document_id), store.config, store._forest.hasher
    )


class TestBasicOperations:
    def test_add_get_remove(self, store_dir):
        store = DocumentStore(store_dir, GramConfig(2, 2))
        tree = tree_from_brackets("a(b,c)")
        store.add_document(1, tree)
        assert 1 in store
        assert len(store) == 1
        assert store.get_document(1) == tree
        store.remove_document(1)
        assert 1 not in store

    def test_get_document_returns_copy(self, store_dir):
        store = DocumentStore(store_dir)
        store.add_document(1, tree_from_brackets("a(b)"))
        copy = store.get_document(1)
        copy.add_child(copy.root_id, "z")
        assert len(store.get_document(1)) == 2

    def test_duplicate_and_missing_ids(self, store_dir):
        store = DocumentStore(store_dir)
        store.add_document(1, tree_from_brackets("a"))
        with pytest.raises(StorageError):
            store.add_document(1, tree_from_brackets("b"))
        with pytest.raises(StorageError):
            store.get_document(2)
        with pytest.raises(StorageError):
            store.remove_document(2)

    def test_apply_edits_maintains_index(self, store_dir):
        store = DocumentStore(store_dir, GramConfig(2, 2))
        store.add_document(1, tree_from_brackets("a(b,c(d))"))
        store.apply_edits(1, [Rename(1, "x"), Delete(3)])
        assert store.get_index(1) == rebuilt(store, 1)

    def test_failing_batch_changes_nothing(self, store_dir):
        """A synchronous call is a group commit of one: the batch that
        fails validation raises its own error and nothing — WAL,
        document, index, commit sequence — moves."""
        store = DocumentStore(store_dir, GramConfig(2, 2))
        store.add_document(1, tree_from_brackets("a(b)"))
        store.apply_edits(1, [Rename(1, "w")])
        wal_path = os.path.join(store_dir, "wal.log")
        before_wal = os.path.getsize(wal_path)
        assert before_wal > 0
        before_doc = store.get_document(1)
        before_index = store.get_index(1).copy()
        before_seq = store._commit_seq
        with pytest.raises(EditError, match="999"):
            store.apply_edits(1, [Rename(1, "x"), Delete(999)])
        with pytest.raises(StorageError, match="no document with id 7"):
            store.apply_edits(7, [Rename(1, "x")])
        assert os.path.getsize(wal_path) == before_wal
        assert store.get_document(1) == before_doc
        assert store.get_index(1) == before_index
        assert store._commit_seq == before_seq

    def test_move_batches_through_wal(self, store_dir):
        """First-class moves flow through the store: applied, logged to
        the WAL (MOV lines), recovered on reopen."""
        from repro.edits import Move

        store = DocumentStore(store_dir, GramConfig(2, 2))
        store.add_document(1, tree_from_brackets("r(a(b,c),d(e))"))
        store.apply_edits(1, [Move(1, 4, 1), Rename(2, "z")])
        assert store.get_index(1) == rebuilt(store, 1)
        wal_text = open(os.path.join(store_dir, "wal.log")).read()
        assert "MOV 1 4 1" in wal_text
        recovered = DocumentStore(store_dir)
        assert recovered.get_document(1) == store.get_document(1)
        assert recovered.get_index(1) == rebuilt(recovered, 1)

    def test_lookup_over_store(self, store_dir):
        store = DocumentStore(store_dir, GramConfig(3, 3))
        for document_id in range(4):
            store.add_document(document_id, dblp_tree(20, seed=document_id))
        query = dblp_tree(20, seed=2)
        result = store.lookup(query, tau=0.3)
        assert result.matches[0] == (2, 0.0)


class TestDurability:
    def test_reopen_restores_documents_and_indexes(self, store_dir):
        store = DocumentStore(store_dir, GramConfig(2, 3))
        store.add_document(1, dblp_tree(25, seed=1))
        store.add_document(2, dblp_tree(25, seed=2))
        script = dblp_update_script(store.get_document(1), 20, seed=3)
        store.apply_edits(1, list(script))
        reopened = DocumentStore(store_dir)
        assert reopened.config == GramConfig(2, 3)
        assert len(reopened) == 2
        assert reopened.get_document(1) == store.get_document(1)
        assert reopened.get_index(1) == store.get_index(1)
        assert reopened.get_index(1) == rebuilt(reopened, 1)

    def test_node_ids_survive_reopen(self, store_dir):
        """WAL operations reference node ids; snapshots must preserve
        them exactly."""
        store = DocumentStore(store_dir)
        tree = dblp_tree(10, seed=4)
        store.add_document(1, tree)
        reopened = DocumentStore(store_dir)
        restored = reopened.get_document(1)
        assert sorted(restored.node_ids()) == sorted(tree.node_ids())
        for node_id in tree.node_ids():
            assert restored.label(node_id) == tree.label(node_id)
            assert restored.parent(node_id) == tree.parent(node_id)

    def test_wal_batches_recovered_without_checkpoint(self, store_dir):
        store = DocumentStore(store_dir)
        store.add_document(1, dblp_tree(20, seed=5))
        document = store.get_document(1)
        for batch_seed in range(3):
            script = dblp_update_script(document, 10, seed=batch_seed)
            store.apply_edits(1, list(script))
            for operation in script:
                operation.apply(document)
        assert os.path.getsize(os.path.join(store_dir, "wal.log")) > 0
        # Simulate a crash: reopen from disk.
        recovered = DocumentStore(store_dir)
        assert recovered.get_document(1) == document
        assert recovered.get_index(1) == rebuilt(recovered, 1)

    def test_torn_wal_tail_ignored(self, store_dir):
        store = DocumentStore(store_dir)
        store.add_document(1, tree_from_brackets("a(b)"))
        store.apply_edits(1, [Rename(1, "x")])
        expected = store.get_document(1)
        with open(os.path.join(store_dir, "wal.log"), "a") as handle:
            handle.write('BEGIN 1 2\nREN 1 "y"\n')  # crash mid-batch
        recovered = DocumentStore(store_dir)
        assert recovered.get_document(1) == expected

    def test_checkpoint_truncates_wal(self, store_dir):
        """A batch checkpoints (and truncates the WAL) exactly when the
        WAL since the last snapshot reaches max(floor, share × the
        snapshot's payload bytes, before compression): the floor decides
        while ``store.db`` is small, the share once it is large.
        ``stats()`` reports both sides, and the size of ``store.db``."""
        wal_path = os.path.join(store_dir, "wal.log")
        snapshot_path = os.path.join(store_dir, "store.db")
        store = DocumentStore(store_dir, metrics=True)
        registry = store.metrics_registry
        store.add_document(1, tree_from_brackets("a(b,c)"))
        for regime, label_size in (("floor", 4_000), ("share", 20_000)):
            if regime == "share":
                # A membership change checkpoints; this one makes the
                # snapshot ≈ 300 KB.
                store.add_document(
                    2,
                    tree_from_brackets(
                        "r(" + ",".join(f"{i}{'y' * 300}" for i in range(1000)) + ")"
                    ),
                )
            checkpoints = 0
            round_number = 0
            while checkpoints < 2:
                payload = store.stats()["checkpoint_payload_bytes"]
                if regime == "share":  # compressed on disk
                    assert payload > 2 * os.path.getsize(snapshot_path)
                threshold = max(
                    WAL_CHECKPOINT_FLOOR, WAL_CHECKPOINT_SHARE * payload
                )
                assert (threshold == WAL_CHECKPOINT_FLOOR) == (regime == "floor")
                logged = os.path.getsize(wal_path)
                assert store.stats()["wal_bytes"] == logged
                assert store.stats()["snapshot_bytes"] == os.path.getsize(
                    snapshot_path
                )
                written = registry.counter_value("wal_bytes_total")
                store.apply_edits(
                    1, [Rename(2, f"{round_number}" + "x" * label_size)]
                )
                block = registry.counter_value("wal_bytes_total") - written
                if logged + block >= threshold:
                    assert os.path.getsize(wal_path) == 0
                    checkpoints += 1
                else:
                    assert os.path.getsize(wal_path) == logged + block
                round_number += 1
            assert round_number > 2 * 2  # several batches per checkpoint
        recovered = DocumentStore(store_dir)
        assert recovered.get_index(1) == rebuilt(recovered, 1)

    def test_crossing_the_threshold_checkpoints_once(self, store_dir):
        """The batch that carries the WAL past the threshold triggers one
        checkpoint, which re-encodes the one edited document; the
        batches before and after it trigger none."""
        store = DocumentStore(store_dir, metrics=True)
        registry = store.metrics_registry
        store.add_documents(
            [(1, tree_from_brackets("a(b,c)")), (2, tree_from_brackets("x(y)"))]
        )
        before = registry.counter_value("checkpoints_total")
        encoded = registry.counter_value("checkpoint_documents_encoded_total")
        label = "x" * (WAL_CHECKPOINT_FLOOR // 3)
        history = []
        for round_number in range(5):
            store.apply_edits(1, [Rename(2, f"{round_number}{label}")])
            history.append(registry.counter_value("checkpoints_total") - before)
        # three blocks of a third of the floor each (plus framing) cross it
        assert history == [0, 0, 1, 1, 1]
        assert (
            registry.counter_value("checkpoint_documents_encoded_total")
            == encoded + 1
        )
        gauges = store.metrics()["gauges"]
        assert gauges["wal_bytes"] == os.path.getsize(
            os.path.join(store_dir, "wal.log")
        )
        assert gauges["snapshot_bytes"] == os.path.getsize(
            os.path.join(store_dir, "store.db")
        )

    def test_wal_restarts_at_byte_zero_after_a_checkpoint(self, store_dir):
        """The store keeps one WAL handle for its lifetime: a batch
        appended after the checkpoint truncated through it must land at
        the start of the file, and ``close`` releases the handle."""
        wal_path = os.path.join(store_dir, "wal.log")
        store = DocumentStore(store_dir)
        store.add_document(1, tree_from_brackets("a(b,c)"))
        added = os.path.getsize(wal_path)  # the ADD record
        store.apply_edits(1, [Rename(1, "x")])
        one_block = os.path.getsize(wal_path) - added
        store.checkpoint()
        assert os.path.getsize(wal_path) == 0
        store.apply_edits(1, [Rename(2, "y")])
        with open(wal_path, "rb") as handle:
            assert handle.read().startswith(b"BEGIN 1 1 ")
        assert os.path.getsize(wal_path) == one_block
        recovered = DocumentStore(store_dir)
        assert recovered.get_document(1) == store.get_document(1)
        handle = store._wal_handle
        store.close()
        recovered.close()
        assert handle.closed and store._wal_handle is None

    def test_many_batches_with_periodic_checkpoints(self, store_dir):
        store = DocumentStore(store_dir, GramConfig(2, 2))
        store.add_document(1, dblp_tree(15, seed=6))
        document = store.get_document(1)
        for batch_seed in range(8):
            script = dblp_update_script(document, 6, seed=100 + batch_seed)
            store.apply_edits(1, list(script))
            for operation in script:
                operation.apply(document)
            if batch_seed % 3 == 2:
                store.checkpoint()
        recovered = DocumentStore(store_dir)
        assert recovered.get_document(1) == document
        assert recovered.get_index(1) == rebuilt(recovered, 1)

    def test_insert_ops_in_wal_respect_id_space(self, store_dir):
        """Fresh ids allocated after recovery must not clash with ids
        created by WAL-recovered inserts."""
        store = DocumentStore(store_dir)
        store.add_document(1, tree_from_brackets("a(b)"))
        fresh = store.get_document(1).fresh_id()
        store.apply_edits(1, [Insert(fresh, "new", 0, 1, 0)])
        recovered = DocumentStore(store_dir)
        document = recovered.get_document(1)
        assert fresh in document
        assert document.fresh_id() > fresh


class TestEnginesAndStats:
    def test_store_default_batch_engine(self, store_dir):
        """Synchronous writes maintain through the one maintenance
        engine; there is nothing to configure."""
        store = DocumentStore(store_dir, GramConfig(2, 3), metrics=True)
        tree = dblp_tree(20, seed=3)
        store.add_document(1, tree)
        work = store.get_document(1)
        script = dblp_update_script(work, 8, seed=4)
        store.apply_edits(1, script)
        assert store.get_index(1) == rebuilt(store, 1)
        assert "engine" not in store.stats()
        registry = store.metrics_registry
        assert registry.counter_value("maintain_batches_total") == 1
        compacted = registry.counter_value("maintain_batch_compacted_ops_total")
        assert 1 <= compacted <= registry.counter_value("maintain_ops_total")

    def test_shared_hasher_accumulates_hits(self, store_dir):
        store = DocumentStore(store_dir, GramConfig(2, 2))
        store.add_document(1, dblp_tree(10, seed=7))
        after_first = store.hasher.stats()
        assert after_first["misses"] > 0
        # A second document over the same labels is served from the
        # memo.
        store.add_document(2, dblp_tree(10, seed=7))
        after_second = store.hasher.stats()
        assert after_second["labels"] == after_first["labels"]
        assert after_second["hits"] > after_first["hits"]
        assert after_second["misses"] == after_first["misses"]

    def test_stats_counts_collection(self, store_dir):
        store = DocumentStore(store_dir, GramConfig(2, 2))
        store.add_document(1, tree_from_brackets("a(b,c)"))
        stats = store.stats()
        assert stats["documents"] == 1
        assert stats["nodes"] == 3
        assert stats["pq_grams"] > 0
        assert stats["hasher_labels"] >= 3

    def test_recovery_maintains_through_batch(self, tmp_path):
        """Recovery never maintains: the batch is applied to the
        document and the forest built once afterwards, so no
        maintenance batch runs and the index equals a rebuild."""
        directory = str(tmp_path / "store")
        store = DocumentStore(directory, GramConfig(2, 2))
        store.add_document(1, dblp_tree(15, seed=8))
        work = store.get_document(1)
        store.apply_edits(1, dblp_update_script(work, 5, seed=9))
        del store
        reopened = DocumentStore(directory, GramConfig(2, 2), metrics=True)
        assert reopened.get_index(1) == rebuilt(reopened, 1)
        registry = reopened.metrics_registry
        assert registry.counter_value("wal_replayed_batches_total") == 1
        assert registry.counter_value("maintain_batches_total") == 0
