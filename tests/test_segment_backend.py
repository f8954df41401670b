"""Segment backend: file format, corruption matrix, store glue.

The conformance suite already proves the segment backend bit-identical
to the memory reference on live workloads; this file covers what only
a backend that maps files can get wrong — segment files that lie
(truncated, bit-flipped, foreign), the seal/refreeze debounce, and the
document store's one recovery protocol: the segment files are derived
state, so a reopened store deletes whatever it finds under
``segments/`` — never reads it — and builds the forest from the
documents.  The file readers' contract under corruption is strict:
raise :class:`SegmentCorruptError` — a corrupt segment is *never*
served.
"""

import glob
import os
import random
import shutil

import pytest

from repro.backend.base import BACKEND_NAMES
from repro.backend.memory import MemoryBackend
from repro.backend.segment import (
    _HEADER_SIZE,
    SegmentBackend,
    _open_segment,
    _Segment,
    write_segment_file,
)
from repro.perf.arraybag import HAVE_NUMPY
from repro.core import GramConfig, PQGramIndex
from repro.datasets import dblp_tree, dblp_update_script, random_labelled_tree
from repro.edits import apply_script
from repro.errors import SegmentCorruptError
from repro.lookup import ForestIndex, LookupService
from repro.service import DocumentStore

from tests.conftest import assert_store_is_rebuild

CONFIG = GramConfig(2, 3)


def random_bags(count, seed, keys=40):
    """tree → bag over tuple keys shaped like real pq-gram fingerprints."""
    rng = random.Random(seed)
    universe = [
        tuple(rng.randrange(1 << 30) for _ in range(5)) for _ in range(keys)
    ]
    return {
        tree_id: {
            key: rng.randint(1, 3)
            for key in rng.sample(universe, rng.randint(0, keys // 2))
        }
        for tree_id in range(count)
    }


def loaded_pair(directory, bags):
    """(segment backend over ``bags`` with a sealed segment, reference)."""
    backend = SegmentBackend(directory)
    reference = MemoryBackend()
    for tree_id, bag in bags.items():
        backend.add_tree_bag(tree_id, dict(bag))
        reference.add_tree_bag(tree_id, dict(bag))
    assert backend.seal()
    return backend, reference


def query_items(bags, seed, count=12):
    rng = random.Random(seed)
    keys = sorted({key for bag in bags.values() for key in bag})
    picked = rng.sample(keys, min(count, len(keys)))
    # Include a key no tree holds: sweeps must count it, not crash.
    picked.append((0, 0, 0, 0, 0))
    return [(key, rng.randint(1, 2)) for key in picked]


# ----------------------------------------------------------------------
# segment file format
# ----------------------------------------------------------------------


class TestSegmentFile:
    def test_roundtrip_exact(self, tmp_path):
        bags = random_bags(12, seed=1)
        path = str(tmp_path / "seg.seg")
        write_segment_file(path, bags)
        segment = _Segment(path)
        assert sorted(segment.tree_ids) == sorted(bags)
        for tree_id, bag in bags.items():
            assert segment.tree_bag(tree_id) == bag
        for key in {key for bag in bags.values() for key in bag}:
            expected = {
                tree_id: bag[key]
                for tree_id, bag in bags.items()
                if key in bag
            }
            assert segment.key_postings(key) == expected
        assert segment.key_postings((9, 9, 9, 9, 9)) is None

    def test_empty_relation_and_empty_bags(self, tmp_path):
        path = str(tmp_path / "seg.seg")
        write_segment_file(path, {7: {}, 8: {(1, 2): 3}, 9: {}})
        segment = _Segment(path)
        assert segment.tree_bag(7) == {}
        assert segment.tree_bag(8) == {(1, 2): 3}
        assert int(segment.tree_sizes[segment.slot_of[9]]) == 0

    def test_truncation_matrix(self, tmp_path):
        bags = random_bags(8, seed=2)
        path = str(tmp_path / "seg.seg")
        write_segment_file(path, bags)
        size = os.path.getsize(path)
        with open(path, "rb") as handle:
            pristine = handle.read()
        # Cut at the header boundary, inside each region, and just one
        # byte short — every truncation must be caught, none served.
        for cut in (0, _HEADER_SIZE - 1, _HEADER_SIZE, size // 3,
                    size // 2, size - 8, size - 1):
            with open(path, "wb") as handle:
                handle.write(pristine[:cut])
            with pytest.raises(SegmentCorruptError):
                _Segment(path)
        with open(path, "wb") as handle:
            handle.write(pristine)
        _Segment(path)  # pristine copy still opens

    def test_bitflip_matrix(self, tmp_path):
        bags = random_bags(8, seed=3)
        path = str(tmp_path / "seg.seg")
        write_segment_file(path, bags)
        size = os.path.getsize(path)
        with open(path, "rb") as handle:
            pristine = handle.read()
        # Magic, each header count, the CRC field itself, and a sweep
        # of body offsets across every CSR region.
        offsets = [0, 9, 17, 25, 33, 41] + [
            _HEADER_SIZE + (size - _HEADER_SIZE) * i // 7 for i in range(7)
        ]
        for offset in offsets:
            offset = min(offset, size - 1)
            corrupt = bytearray(pristine)
            corrupt[offset] ^= 0x40
            with open(path, "wb") as handle:
                handle.write(bytes(corrupt))
            with pytest.raises(SegmentCorruptError):
                _Segment(path)

    def test_appended_garbage_detected(self, tmp_path):
        path = str(tmp_path / "seg.seg")
        write_segment_file(path, random_bags(4, seed=4))
        with open(path, "ab") as handle:
            handle.write(b"\x00" * 16)
        with pytest.raises(SegmentCorruptError):
            _Segment(path)


@pytest.mark.skipif(not HAVE_NUMPY, reason="v2 segments require numpy")
class TestSegmentFileV2:
    """Generation-2 (varint-packed) segments: the format is gone.

    Only ``RSEGIDX1`` is read or written now.  A file a parent commit
    wrote as ``RSEGIDX2`` — whole, truncated or bit-flipped, checksum
    verified or not — is refused with :class:`SegmentCorruptError`,
    and a store that finds one under ``segments/`` deletes it unread.
    """

    @staticmethod
    def write_v2(path, bags):
        from tests.support.packed.segment_v2 import write_segment_file_v2

        write_segment_file_v2(path, bags)
        with open(path, "rb") as handle:
            pristine = handle.read()
        assert pristine[:8] == b"RSEGIDX2"
        return pristine

    def test_roundtrip_exact_and_dispatch(self, tmp_path):
        bags = random_bags(12, seed=31)
        path = str(tmp_path / "seg.seg")
        self.write_v2(path, bags)
        with pytest.raises(SegmentCorruptError, match="magic"):
            _open_segment(path)
        # The same bags as a v1 file open and round-trip exactly.
        v1_path = str(tmp_path / "new.seg")
        write_segment_file(v1_path, bags)
        segment = _open_segment(v1_path)
        assert isinstance(segment, _Segment)
        for tree_id, bag in bags.items():
            assert segment.tree_bag(tree_id) == bag

    def test_truncation_matrix(self, tmp_path):
        from tests.support.packed.segment_v2 import HEADER2_SIZE

        path = str(tmp_path / "seg.seg")
        pristine = self.write_v2(path, random_bags(8, seed=32))
        size = len(pristine)
        for cut in (0, HEADER2_SIZE - 1, HEADER2_SIZE, size // 3,
                    size // 2, size - 8, size - 1, size):
            with open(path, "wb") as handle:
                handle.write(pristine[:cut])
            with pytest.raises(SegmentCorruptError):
                _open_segment(path)

    def test_bitflip_matrix(self, tmp_path):
        from tests.support.packed.segment_v2 import HEADER2_SIZE

        path = str(tmp_path / "seg.seg")
        pristine = self.write_v2(path, random_bags(8, seed=33))
        size = len(pristine)
        # No single flipped bit turns "RSEGIDX2" into "RSEGIDX1" (they
        # differ in two), so every flip — magic, header or body — is
        # refused as well.
        offsets = [0, 7, 9, 17, 25, 33, 41, 49, 57, 65] + [
            HEADER2_SIZE + (size - HEADER2_SIZE) * i // 7 for i in range(7)
        ]
        for offset in offsets:
            for bit in range(8):
                corrupt = bytearray(pristine)
                corrupt[min(offset, size - 1)] ^= 1 << bit
                with open(path, "wb") as handle:
                    handle.write(bytes(corrupt))
                with pytest.raises(SegmentCorruptError):
                    _open_segment(path)

    def test_corrupt_varint_width_caught_without_checksum(self, tmp_path):
        """Skipping the CRC does not let a v2 file through: the magic
        is checked first."""
        path = str(tmp_path / "seg.seg")
        self.write_v2(path, random_bags(8, seed=34))
        with pytest.raises(SegmentCorruptError, match="magic"):
            _open_segment(path, verify_checksum=False)
        with pytest.raises(SegmentCorruptError, match="magic"):
            _Segment(path, verify_checksum=False)

    def test_corrupt_varint_segment_never_served(self, tmp_path):
        """A store directory as the parent commit left it with the
        packed layer on: ``compress=1`` in the snapshot meta, a WAL
        tail, and an ``RSEGIDX2`` file under ``segments/`` that matches
        no document.  It opens on every backend to indexes equal to a
        rebuild, the v2 file is deleted unread, and the next checkpoint
        writes no ``compress`` row."""
        from repro.edits import Rename
        from repro.relstore.database import Database
        from repro.tree import tree_from_brackets

        for backend in BACKEND_NAMES:
            directory = str(tmp_path / backend)
            store = DocumentStore(directory, CONFIG, backend=backend)
            store.add_document(1, tree_from_brackets("a(b(c,d),e(f))"))
            store.add_document(2, tree_from_brackets("x(y,z)"))
            store.checkpoint()
            store.apply_edits(1, [Rename(2, "tail")])
            del store  # the rename is in the WAL tail only

            snapshot = os.path.join(directory, "store.db")
            database = Database.load(snapshot)
            database.table("meta").insert({"key": "compress", "value": "1"})
            database.save(snapshot)
            segments = os.path.join(directory, "segments")
            os.makedirs(segments, exist_ok=True)
            v2_path = os.path.join(segments, "segment-00000001.seg")
            self.write_v2(v2_path, {1: {(7, 7, 7, 7, 7): 3}, 2: {}})

            reopened = DocumentStore(directory)
            assert reopened.backend_name == backend
            assert not os.path.exists(v2_path)
            assert reopened.get_document(1).label(2) == "tail"
            assert "compress" not in reopened.stats()
            assert_store_is_rebuild(reopened)
            reopened.checkpoint()
            reopened.close()
            meta = {
                row["key"]: row["value"]
                for row in Database.load(snapshot).table("meta").scan_dicts()
            }
            assert "compress" not in meta


# ----------------------------------------------------------------------
# reopen: the files are derived, the store rebuilds
# ----------------------------------------------------------------------


def _flip(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0xFF]))


class TestReopen:
    def test_reopen_replays_only_the_tail(self, tmp_path):
        """A sealed segment plus an edit tail in the WAL, then a crash:
        the reopen replays the tail onto the documents, builds the
        forest once (no maintenance batch runs) and equals a rebuild."""
        from repro.obsv import MetricsRegistry

        directory = str(tmp_path / "store")
        store, reference, documents = TestSegmentStore()._populate(directory)
        store._forest.compact()  # seal what the edits left
        assert store.stats()["segments"] == 1
        store.checkpoint()
        for round_number in range(3):
            _edit_round(store, reference, documents, seed=70 + round_number)
        del store  # crash: the three batches are in the WAL only
        registry = MetricsRegistry()
        reopened = DocumentStore(directory, metrics=registry)
        assert registry.counter_value("wal_replayed_batches_total") == 3
        assert registry.counter_value("maintain_batches_total") == 0
        assert (
            reopened._forest.backend.snapshot() == reference.backend.snapshot()
        )
        assert_store_is_rebuild(reopened)
        reopened.close()

    def test_seal_then_reopen_needs_no_delta(self, tmp_path):
        """A clean close after a seal: the reopened store maps nothing
        from before — the old segment file is gone — and its first seal
        writes a segment of its own that serves the same relation."""
        directory = str(tmp_path / "store")
        store, reference, _ = TestSegmentStore()._populate(directory)
        store._forest.compact()
        [sealed] = glob.glob(os.path.join(directory, "segments", "*.seg"))
        store.close()
        reopened = DocumentStore(directory)
        assert not os.path.exists(sealed)
        assert reopened.stats()["segments"] == 0
        reopened._forest.compact()
        stats = reopened.stats()
        assert stats["segments"] == 1 and stats["overlay_keys"] == 0
        assert (
            reopened._forest.backend.snapshot() == reference.backend.snapshot()
        )
        reopened._forest.backend.check_consistency()
        reopened.close()

    def test_missing_segment_file_raises(self, tmp_path):
        directory = str(tmp_path / "seg")
        backend, _ = loaded_pair(directory, random_bags(5, seed=22))
        backend.close()
        [segfile] = glob.glob(os.path.join(directory, "segment-*.seg"))
        os.remove(segfile)
        with pytest.raises(SegmentCorruptError):
            _open_segment(segfile)

    def test_corrupt_segment_never_serves_candidates(self, tmp_path):
        """The reader refuses a flipped file, and a backend over the
        directory that holds it never reads it: it starts empty."""
        directory = str(tmp_path / "seg")
        bags = random_bags(8, seed=23)
        backend, _ = loaded_pair(directory, bags)
        backend.close()
        [segfile] = glob.glob(os.path.join(directory, "segment-*.seg"))
        _flip(segfile, _HEADER_SIZE + 24)
        with pytest.raises(SegmentCorruptError):
            _open_segment(segfile)
        fresh = SegmentBackend(directory)
        assert len(fresh) == 0
        assert fresh.candidates(query_items(bags, seed=24)) == {}
        fresh.close()

    def test_ephemeral_backend_cleans_up(self):
        backend = SegmentBackend()
        assert backend.ephemeral
        directory = backend.directory
        backend.add_tree_bag(1, {(1, 2): 1})
        backend.seal()
        assert os.path.isdir(directory)
        backend.close()
        backend._finalizer()
        assert not os.path.exists(directory)


# ----------------------------------------------------------------------
# seal / refreeze debounce
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
        from repro.backend.compact import CompactBackend

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

    def test_segment_seal_debounced_by_mutation_gap(self, tmp_path):
        backend = SegmentBackend(str(tmp_path / "seg"))
        for tree_id, bag in self._bags(4, 80).items():
            backend.add_tree_bag(tree_id, bag)
        assert backend.needs_compaction()  # first seal is never debounced
        backend.compact()
        assert backend.stats()["overlay_keys"] == 0
        for tree_id, bag in self._bags(2, 80, seed=33).items():
            backend.add_tree_bag(tree_id + 100, bag)
        assert not backend.needs_compaction(), (
            "seal retriggered immediately after sealing"
        )
        for step in range(backend.SEAL_MIN_MUTATION_GAP):
            backend.apply_tree_delta(0, {}, {(step, step, step): 1})
        assert backend.needs_compaction()
        backend.check_consistency()
        backend.close()


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


class TestSegmentStore:
    def _populate(self, directory):
        store = DocumentStore(directory, CONFIG, backend="segment")
        reference = ForestIndex(CONFIG, backend="memory")
        documents = {}
        for tree_id in range(6):
            tree = _tree(seed=40 + tree_id)
            store.add_document(tree_id, tree)
            reference.add_tree(tree_id, tree)
            documents[tree_id] = tree
        for round_number in range(8):
            _edit_round(store, reference, documents, seed=50 + round_number)
        return store, reference, documents

    def assert_matches_reference(self, directory, reference, documents):
        reopened = DocumentStore(directory)
        assert reopened.backend_name == "segment"
        assert (
            reopened._forest.backend.snapshot()
            == reference.backend.snapshot()
        )
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
        os.makedirs(os.path.join(directory, "segments"), exist_ok=True)
        planted = [
            os.path.join(directory, "segments", name)
            for name in ("MANIFEST.json", "delta-00000001.log")
        ]
        for path in planted:
            with open(path, "wb") as handle:
                handle.write(b"\x99not what it claims to be")
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
        directory = str(tmp_path / "store")
        store, reference, documents = self._populate(directory)
        store._forest.compact()
        store.close()
        [segfile] = glob.glob(
            os.path.join(directory, "segments", "segment-*.seg")
        )
        _flip(segfile, _HEADER_SIZE + 16)
        self.assert_matches_reference(directory, reference, documents)
        # The flipped file is gone; what its name holds now, if
        # anything, the reopened store sealed itself.
        if os.path.exists(segfile):
            _open_segment(segfile)

    def test_recovery_rejects_foreign_segments(self, tmp_path):
        """Another store's sealed segment copied into this store's
        ``segments/`` is never adopted."""
        directory = str(tmp_path / "store")
        store, reference, documents = self._populate(directory)
        store.close()
        foreign = DocumentStore(
            str(tmp_path / "foreign"), CONFIG, backend="segment"
        )
        for tree_id in range(6):
            foreign.add_document(tree_id, _tree(seed=140 + tree_id))
        foreign._forest.compact()
        foreign.close()
        shutil.copytree(
            os.path.join(str(tmp_path / "foreign"), "segments"),
            os.path.join(directory, "segments"),
        )
        self.assert_matches_reference(directory, reference, documents)

    def test_snapshot_carries_no_index_relation(self, tmp_path):
        from repro.relstore.database import Database

        directory = str(tmp_path / "store")
        store, _, _ = self._populate(directory)
        store.close()
        database = Database.load(os.path.join(directory, "store.db"))
        assert "indexes" not in database
        assert sorted(table.name for table in database.tables()) == [
            "documents",
            "meta",
        ]
        meta = {
            row["key"]: row["value"]
            for row in database.table("meta").scan_dicts()
        }
        assert meta["backend"] == "segment"
        assert int(meta["commit_seq"]) > 0

    def test_first_served_read_seals_the_rebuilt_segment(self, tmp_path):
        """A reopened store builds its segment backend into the overlay;
        in serving mode no lookup compacts, so the first read view seals
        the segment it shares — a read-only served store would sweep
        Python dicts forever otherwise."""
        directory = str(tmp_path / "store")
        store, reference, documents = self._populate(directory)
        store.close()
        served = DocumentStore(directory, serve_threads=2)
        assert served.stats()["segments"] == 0
        query = documents[min(documents)]
        expected = LookupService(reference).lookup(query, 0.5).matches
        assert served.lookup(query, 0.5).matches == expected
        stats = served.stats()
        assert stats["segments"] == 1 and stats["overlay_keys"] == 0
        served.close()

    def test_env_default_backend(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BACKEND", "segment")
        store = DocumentStore(str(tmp_path / "store"), CONFIG)
        assert store.backend_name == "segment"
        store.add_document(1, _tree(seed=90))
        store.close()
        monkeypatch.delenv("REPRO_STORE_BACKEND")
        reopened = DocumentStore(str(tmp_path / "store"))
        assert reopened.backend_name == "segment"
        reopened.close()

    def test_fresh_store_discards_leftover_segments(self, tmp_path):
        directory = str(tmp_path / "store")
        store, _, _ = self._populate(directory)
        store._forest.compact()
        store.close()
        os.remove(os.path.join(directory, "store.db"))
        os.remove(os.path.join(directory, "wal.log"))
        fresh = DocumentStore(directory, CONFIG, backend="segment")
        assert len(fresh) == 0
        assert len(fresh._forest.backend) == 0
        assert not os.path.exists(os.path.join(directory, "segments"))
        fresh.close()


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------


class TestSegmentMetrics:
    def test_seal_and_reopen_metrics(self, tmp_path):
        """Seals are counted and the mapped file is gauged; a second
        forest over the same directory maps nothing it did not seal."""
        from repro.obsv import MetricsRegistry

        directory = str(tmp_path / "seg")
        registry = MetricsRegistry()
        forest = ForestIndex(
            CONFIG, backend="segment", metrics=registry, directory=directory
        )
        for tree_id in range(5):
            forest.add_tree(tree_id, random_labelled_tree(10, seed=tree_id))
        forest.compact()
        assert registry.counter_value("segment_seals_total") >= 1
        forest.sync_metric_gauges()
        snapshot = registry.snapshot()
        gauges = snapshot["gauges"]
        assert gauges["segments_open"] == 1
        assert gauges["segment_bytes"] > 0
        assert gauges["segment_overlay_keys"] == 0
        forest.close()

        reopened_registry = MetricsRegistry()
        reopened = ForestIndex(
            CONFIG,
            backend="segment",
            metrics=reopened_registry,
            directory=directory,
        )
        assert len(reopened) == 0
        reopened.sync_metric_gauges()
        assert reopened_registry.snapshot()["gauges"]["segments_open"] == 0
        assert "segment_reopen_seconds" not in (
            reopened_registry.snapshot()["histograms"]
        )
        reopened.add_tree(0, random_labelled_tree(10, seed=0))
        query = PQGramIndex.from_tree(
            random_labelled_tree(10, seed=0), CONFIG, reopened.hasher
        )
        assert reopened.distances(query, tau=0.6) == {0: 0.0}
        assert (
            reopened_registry.counter_value("index_keys_swept_total") > 0
        )
        reopened.close()
