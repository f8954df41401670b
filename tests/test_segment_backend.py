"""Segment backend: file format, corruption matrix, reopen, store glue.

The conformance suite already proves the segment backend bit-identical
to the memory reference on live workloads; this file covers what only
an on-disk backend can get wrong — segment files that lie (truncated,
bit-flipped, foreign), delta logs with torn tails, instant reopen
semantics, the seal/refreeze debounce, and the document store's
sequence-gated recovery.  The contract under corruption is strict:
recover exactly, or raise :class:`SegmentCorruptError` — a corrupt
segment is *never* served.
"""

import glob
import json
import os
import random

import pytest

from repro.backend.memory import MemoryBackend
from repro.backend.segment import (
    _HEADER2_SIZE,
    _HEADER_SIZE,
    MANIFEST_NAME,
    SegmentBackend,
    _open_segment,
    _Segment,
    _SegmentV2,
    write_segment_file,
    write_segment_file_v2,
)
from repro.perf.arraybag import HAVE_NUMPY
from repro.core import GramConfig, PQGramIndex
from repro.datasets import dblp_tree, dblp_update_script, random_labelled_tree
from repro.edits import apply_script
from repro.errors import SegmentCorruptError
from repro.lookup import ForestIndex
from repro.service import DocumentStore

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
    """Generation-2 (succinct, varint-packed) segments: same contract.

    The compressed format adds failure modes v1 cannot have — packed
    block widths and delta streams that decode to garbage — so beyond
    the checksum sweep the matrix also corrupts the varint metadata
    with checksum verification *off*, which must still be caught by
    ``PackedIntArray.read_from``'s structural validation.
    """

    def test_roundtrip_exact_and_dispatch(self, tmp_path):
        bags = random_bags(12, seed=31)
        path = str(tmp_path / "seg.seg")
        write_segment_file_v2(path, bags)
        segment = _open_segment(path)
        assert isinstance(segment, _SegmentV2)
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
        # v1 files still open through the same dispatcher.
        v1_path = str(tmp_path / "old.seg")
        write_segment_file(v1_path, bags)
        assert isinstance(_open_segment(v1_path), _Segment)

    def test_duplicate_bags_stored_once(self, tmp_path):
        bag = {(1, 2, 3): 2, (4, 5, 6): 1}
        path = str(tmp_path / "seg.seg")
        write_segment_file_v2(path, {0: dict(bag), 1: dict(bag), 2: {}})
        segment = _SegmentV2(path)
        assert segment.n_bags == 2  # the shared bag plus the empty one
        assert segment.tree_bag(0) == bag
        assert segment.tree_bag(1) == bag
        assert segment.tree_bag(2) == {}

    def test_truncation_matrix(self, tmp_path):
        bags = random_bags(8, seed=32)
        path = str(tmp_path / "seg.seg")
        write_segment_file_v2(path, bags)
        size = os.path.getsize(path)
        with open(path, "rb") as handle:
            pristine = handle.read()
        for cut in (0, _HEADER2_SIZE - 1, _HEADER2_SIZE, size // 3,
                    size // 2, size - 8, size - 1):
            with open(path, "wb") as handle:
                handle.write(pristine[:cut])
            with pytest.raises(SegmentCorruptError):
                _SegmentV2(path)
        with open(path, "wb") as handle:
            handle.write(pristine)
        _SegmentV2(path)  # pristine copy still opens

    def test_bitflip_matrix(self, tmp_path):
        bags = random_bags(8, seed=33)
        path = str(tmp_path / "seg.seg")
        write_segment_file_v2(path, bags)
        size = os.path.getsize(path)
        with open(path, "rb") as handle:
            pristine = handle.read()
        # Magic, each header count, the CRC field itself, and a sweep
        # of body offsets across the packed sections.
        offsets = [0, 9, 17, 25, 33, 41, 49, 57, 65] + [
            _HEADER2_SIZE + (size - _HEADER2_SIZE) * i // 7 for i in range(7)
        ]
        for offset in offsets:
            offset = min(offset, size - 1)
            corrupt = bytearray(pristine)
            corrupt[offset] ^= 0x40
            with open(path, "wb") as handle:
                handle.write(bytes(corrupt))
            with pytest.raises(SegmentCorruptError):
                _SegmentV2(path)

    def test_corrupt_varint_width_caught_without_checksum(self, tmp_path):
        """A torn block-width byte must be caught structurally even
        when the caller skipped the CRC — 3 is never a legal width."""
        bags = random_bags(8, seed=34)
        path = str(tmp_path / "seg.seg")
        write_segment_file_v2(path, bags)
        # First packed section (tree ids) starts right after the file
        # header; its widths follow the 16-byte array header.
        with open(path, "r+b") as handle:
            handle.seek(_HEADER2_SIZE + 16)
            handle.write(b"\x03")
        with pytest.raises(SegmentCorruptError):
            _SegmentV2(path, verify_checksum=False)

    def test_corrupt_varint_segment_never_served(self, tmp_path):
        """End to end: a compressed backend refuses to reopen over a
        segment whose packed payload was flipped."""
        directory = str(tmp_path / "seg")
        backend = SegmentBackend(directory, compress=True)
        for tree_id, bag in random_bags(8, seed=35).items():
            backend.add_tree_bag(tree_id, dict(bag))
        assert backend.seal()
        backend.close()
        [segfile] = glob.glob(os.path.join(directory, "segment-*.seg"))
        with open(segfile, "rb") as handle:
            assert handle.read(8) == b"RSEGIDX2"  # compress wrote v2
        with open(segfile, "r+b") as handle:
            handle.seek(_HEADER2_SIZE + 24)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(SegmentCorruptError):
            SegmentBackend(directory, compress=True)


# ----------------------------------------------------------------------
# reopen + delta log
# ----------------------------------------------------------------------


class TestReopen:
    def workload(self, backend, reference, seed=11):
        rng = random.Random(seed)
        bags = random_bags(10, seed=seed)
        seq = 0
        for tree_id, bag in bags.items():
            seq += 1
            backend.note_commit_seq(seq)
            backend.add_tree_bag(tree_id, dict(bag))
            reference.add_tree_bag(tree_id, dict(bag))
        backend.seal()
        # Post-seal tail: deltas, a removal, a re-add — all delta-logged.
        keys = sorted({key for bag in bags.values() for key in bag})
        for _ in range(6):
            tree_id = rng.choice(sorted(set(bags) - {3}))
            bag = dict(backend.tree_bag(tree_id))
            minus = {}
            if bag:
                victim = rng.choice(sorted(bag))
                minus = {victim: 1}
            plus = {rng.choice(keys): 1}
            seq += 1
            backend.note_commit_seq(seq)
            backend.apply_tree_delta(tree_id, minus, plus)
            reference.apply_tree_delta(tree_id, minus, plus)
        seq += 1
        backend.note_commit_seq(seq)
        backend.remove_tree(3)
        reference.remove_tree(3)
        return bags, seq

    def test_reopen_replays_only_the_tail(self, tmp_path):
        directory = str(tmp_path / "seg")
        backend = SegmentBackend(directory)
        reference = MemoryBackend()
        bags, seq = self.workload(backend, reference)
        expected = reference.snapshot()
        assert backend.snapshot() == expected
        backend.close()

        reopened = SegmentBackend(directory)
        assert reopened.snapshot() == expected
        assert reopened.stats()["segments"] == 1
        items = query_items(bags, seed=12)
        assert reopened.candidates(items) == reference.candidates(items)
        # The tail (not the sealed prefix) is what replay recovered.
        assert reopened.sealed_seq < seq
        assert reopened.applied_seq(next(iter(bags))) >= reopened.sealed_seq
        reopened.check_consistency()
        reopened.close()

    def test_seal_then_reopen_needs_no_delta(self, tmp_path):
        directory = str(tmp_path / "seg")
        backend = SegmentBackend(directory)
        reference = MemoryBackend()
        self.workload(backend, reference)
        assert backend.seal()
        backend.close()
        reopened = SegmentBackend(directory)
        assert reopened.snapshot() == reference.snapshot()
        assert reopened.stats()["overlay_keys"] == 0
        reopened.check_consistency()
        reopened.close()

    def test_torn_delta_tail_is_truncated(self, tmp_path):
        directory = str(tmp_path / "seg")
        backend = SegmentBackend(directory)
        reference = MemoryBackend()
        self.workload(backend, reference)
        expected = reference.snapshot()
        backend.close()
        [delta] = glob.glob(os.path.join(directory, "delta-*.log"))
        with open(delta, "ab") as handle:
            handle.write(b"\x99\x00\x00\x00torn")  # half a record frame
        size_with_tail = os.path.getsize(delta)
        reopened = SegmentBackend(directory)
        assert reopened.snapshot() == expected
        assert os.path.getsize(delta) < size_with_tail
        reopened.check_consistency()
        # New writes append cleanly after the truncation.
        reopened.note_commit_seq(99)
        reopened.add_tree_bag(77, {(5, 5): 1})
        reopened.close()
        again = SegmentBackend(directory)
        assert again.tree_bag(77) == {(5, 5): 1}
        again.close()

    def test_corrupt_delta_record_stops_replay_at_the_tear(self, tmp_path):
        directory = str(tmp_path / "seg")
        backend = SegmentBackend(directory)
        reference = MemoryBackend()
        self.workload(backend, reference)
        backend.close()
        [delta] = glob.glob(os.path.join(directory, "delta-*.log"))
        with open(delta, "r+b") as handle:
            handle.seek(-3, os.SEEK_END)
            handle.write(b"\xff")  # flip inside the last record's payload
        reopened = SegmentBackend(directory)  # last record dropped, no crash
        reopened.check_consistency()
        reopened.close()

    def test_corrupt_manifest_raises(self, tmp_path):
        directory = str(tmp_path / "seg")
        backend, _ = loaded_pair(directory, random_bags(5, seed=21))
        backend.close()
        manifest = os.path.join(directory, MANIFEST_NAME)
        for payload in ("{not json", json.dumps({"format": 99}),
                        json.dumps({"format": 1})):
            with open(manifest, "w", encoding="utf-8") as handle:
                handle.write(payload)
            with pytest.raises(SegmentCorruptError):
                SegmentBackend(directory)

    def test_missing_segment_file_raises(self, tmp_path):
        directory = str(tmp_path / "seg")
        backend, _ = loaded_pair(directory, random_bags(5, seed=22))
        backend.close()
        [segfile] = glob.glob(os.path.join(directory, "segment-*.seg"))
        os.remove(segfile)
        with pytest.raises(SegmentCorruptError):
            SegmentBackend(directory)

    def test_corrupt_segment_never_serves_candidates(self, tmp_path):
        directory = str(tmp_path / "seg")
        bags = random_bags(8, seed=23)
        backend, _ = loaded_pair(directory, bags)
        backend.close()
        [segfile] = glob.glob(os.path.join(directory, "segment-*.seg"))
        with open(segfile, "r+b") as handle:
            handle.seek(_HEADER_SIZE + 24)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(SegmentCorruptError):
            SegmentBackend(directory)

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
        assert backend.frozen_clean() is not None
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
        directory = str(tmp_path / "store")
        store, reference, documents = self._populate(directory)
        # Crash: no close(), so the WAL still holds every edit batch
        # while the delta log already applied them — recovery must not
        # double-apply.
        del store
        self.assert_matches_reference(directory, reference, documents)

    def test_recovery_rebuilds_lost_delta_from_wal(self, tmp_path):
        directory = str(tmp_path / "store")
        store, reference, documents = self._populate(directory)
        del store
        for delta in glob.glob(
            os.path.join(directory, "segments", "delta-*.log")
        ):
            os.remove(delta)
        self.assert_matches_reference(directory, reference, documents)

    def test_torn_wal_rolls_back_delta_log_overrun(self, tmp_path):
        # A torn WAL append discards the batch from the store while the
        # segment delta log already folded it: the index is *ahead* of
        # the documents.  Recovery must roll those trees back to the
        # recovered document state — never serve a third state.
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
        # And the rollback is durable: a clean second reopen (the
        # recovery checkpoint resealed at the rolled-back frontier)
        # still matches.
        self.assert_matches_reference(directory, reference, documents)

    def test_recovery_rebuilds_corrupt_segment(self, tmp_path):
        directory = str(tmp_path / "store")
        store, reference, documents = self._populate(directory)
        store.close()
        [segfile] = glob.glob(
            os.path.join(directory, "segments", "segment-*.seg")
        )
        with open(segfile, "r+b") as handle:
            handle.seek(_HEADER_SIZE + 16)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))
        self.assert_matches_reference(directory, reference, documents)

    def test_recovery_rejects_foreign_segments(self, tmp_path):
        directory = str(tmp_path / "store")
        store, reference, documents = self._populate(directory)
        store.close()
        manifest = os.path.join(directory, "segments", MANIFEST_NAME)
        with open(manifest, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["source"] = "someone-else-entirely"
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        self.assert_matches_reference(directory, reference, documents)

    def test_snapshot_carries_no_index_relation(self, tmp_path):
        from repro.relstore.database import Database

        directory = str(tmp_path / "store")
        store, _, _ = self._populate(directory)
        store.close()
        database = Database.load(os.path.join(directory, "store.db"))
        assert "indexes" not in database
        meta = {
            row["key"]: row["value"]
            for row in database.table("meta").scan_dicts()
        }
        assert meta["backend"] == "segment"
        assert int(meta["commit_seq"]) > 0
        assert meta["store_uuid"]

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
        store.close()
        os.remove(os.path.join(directory, "store.db"))
        os.remove(os.path.join(directory, "wal.log"))
        fresh = DocumentStore(directory, CONFIG, backend="segment")
        assert len(fresh) == 0
        assert len(fresh._forest.backend) == 0
        fresh.close()


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------


class TestSegmentMetrics:
    def test_seal_and_reopen_metrics(self, tmp_path):
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
        histograms = reopened_registry.snapshot()["histograms"]
        assert histograms["segment_reopen_seconds"]["count"] == 1
        query = PQGramIndex.from_tree(
            random_labelled_tree(10, seed=0), CONFIG, reopened.hasher
        )
        reopened.distances(query, tau=0.6)
        assert (
            reopened_registry.counter_value("index_keys_swept_total") > 0
        )
        reopened.close()
