"""Succinct-layer unit tests: varint codec, interning, dedup, frozen.

The conformance suite proves compressed backends bit-identical to the
memory reference end to end; this file pins the succinct building
blocks in isolation — the block-varint codec's round trips and
structural validation, the intern pool's scalar/batch fingerprint
parity, the dedup table's reference-count life cycle, and
:class:`CompressedPostings` against :class:`CompactPostings` on the
same inverted lists.
"""

import random

import pytest

from repro.compress import (
    BLOCK,
    CompressedPostings,
    DedupTable,
    ENV_FLAG,
    InternPool,
    PackedIntArray,
    SharedBag,
    compression_enabled,
    delta_decode_span,
    delta_encode_span,
    release_if_shared,
)
from repro.hashing.fingerprint import combine_fingerprints
from repro.perf.arraybag import HAVE_NUMPY

if HAVE_NUMPY:
    import numpy as np

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="succinct structures require numpy"
)


# ----------------------------------------------------------------------
# block-varint codec
# ----------------------------------------------------------------------


class TestPackedIntArray:
    def roundtrip(self, values):
        packed = PackedIntArray.pack(values)
        assert len(packed) == len(values)
        assert [int(v) for v in packed.decode_all()] == list(values)
        # random slices, repeated so the block cache serves the reruns
        rng = random.Random(len(values))
        for _ in range(12):
            lo = rng.randint(0, len(values))
            hi = rng.randint(lo, len(values))
            expected = list(values[lo:hi])
            for _ in range(2):
                assert [int(v) for v in packed.slice(lo, hi)] == expected
        return packed

    def test_empty(self):
        packed = self.roundtrip([])
        assert packed.nbytes == 0

    def test_widths_mix(self):
        # spans every block width, crosses block boundaries, and mixes
        # signs so the zigzag path is exercised both ways
        rng = random.Random(5)
        values = [
            rng.choice(
                (
                    rng.randint(-120, 120),
                    rng.randint(-30_000, 30_000),
                    rng.randint(-(1 << 31), 1 << 31),
                    rng.randint(-(1 << 62), 1 << 62),
                )
            )
            for _ in range(3 * BLOCK + 17)
        ]
        self.roundtrip(values)

    def test_uniform_small_block_is_one_byte_wide(self):
        packed = PackedIntArray.pack(list(range(100)))
        assert packed.widths == b"\x01"
        assert packed.nbytes == 100

    def test_serialization_roundtrip(self):
        rng = random.Random(6)
        values = [rng.randint(-(1 << 40), 1 << 40) for _ in range(500)]
        packed = PackedIntArray.pack(values)
        chunks = []
        packed.write_into(chunks)
        buffer = b"".join(chunks)
        assert len(buffer) == packed.serialized_size()
        # read back with trailing garbage to prove the offset is exact
        restored, end = PackedIntArray.read_from(buffer + b"\xff" * 8, 0)
        assert end == len(buffer)
        assert [int(v) for v in restored.decode_all()] == values

    def test_read_from_rejects_corruption(self):
        packed = PackedIntArray.pack(list(range(300)))
        chunks = []
        packed.write_into(chunks)
        pristine = b"".join(chunks)
        # truncation: header, widths, and payload all short
        for cut in (4, 17, len(pristine) - 9):
            with pytest.raises(ValueError):
                PackedIntArray.read_from(pristine[:cut], 0)
        # an illegal block width (3 is not in {1, 2, 4, 8})
        corrupt = bytearray(pristine)
        corrupt[16] = 3
        with pytest.raises(ValueError):
            PackedIntArray.read_from(bytes(corrupt), 0)
        # widths that disagree with the recorded payload length
        corrupt = bytearray(pristine)
        corrupt[16] = 8
        with pytest.raises(ValueError):
            PackedIntArray.read_from(bytes(corrupt), 0)

    def test_delta_span_roundtrip(self):
        slots = sorted(random.Random(7).sample(range(10_000), 64))
        deltas = delta_encode_span(slots)
        assert [int(v) for v in delta_decode_span(deltas)] == slots
        assert max(deltas[1:]) < max(slots)  # gaps, not absolutes


# ----------------------------------------------------------------------
# intern pool
# ----------------------------------------------------------------------


class TestInternPool:
    def test_canonical_object_identity(self):
        pool = InternPool()
        left = pool.intern((1, 2, 3))
        right = pool.intern((1, 2, 3))
        assert left is right
        assert len(pool) == 1

    def test_dense_ids_roundtrip(self):
        pool = InternPool()
        keys = [(1,), (2, 3), (4, 5, 6)]
        idents = [pool.id_of(key) for key in keys]
        assert idents == [0, 1, 2]
        assert [pool.key_of(ident) for ident in idents] == keys
        assert pool.id_of((2, 3)) == 1  # stable on re-query

    def test_scalar_fingerprint_matches_reference(self):
        pool = InternPool()
        for key in ((), (7,), (1, 2, 3, 4, 5, 6)):
            assert pool.fingerprint(key) == combine_fingerprints(key)

    @needs_numpy
    def test_batch_fingerprints_match_scalar(self):
        rng = random.Random(8)
        pool = InternPool()
        keys = []
        for _ in range(500):
            width = rng.choice((0, 1, 2, 5, 6, 9))
            keys.append(
                tuple(rng.randint(0, (1 << 64) - 1) for _ in range(width))
            )
        batch = pool.fingerprints(keys)
        assert batch.dtype == np.uint64
        for key, value in zip(keys, batch.tolist()):
            assert value == combine_fingerprints(key)

    @needs_numpy
    def test_batch_fingerprints_fall_back_on_exotic_parts(self):
        pool = InternPool()
        keys = [(-5, 3), (1 << 70, 2), (1, 2)]
        batch = pool.fingerprints(keys)
        for key, value in zip(keys, batch.tolist()):
            assert value == combine_fingerprints(key)


# ----------------------------------------------------------------------
# dedup table
# ----------------------------------------------------------------------


class TestDedupTable:
    def test_hit_returns_same_object(self):
        table = DedupTable(pool=InternPool())
        builds = []

        def builder():
            builds.append(1)
            return {(1, 2): 3}

        first, hit_first = table.acquire(99, builder)
        second, hit_second = table.acquire(99, builder)
        assert first is second
        assert (hit_first, hit_second) == (False, True)
        assert len(builds) == 1
        assert first.refs == 2
        assert 99 in table
        assert table.stats() == {
            "entries": 1, "shared_refs": 2, "hits": 1, "misses": 1,
        }

    def test_eviction_at_zero_refs(self):
        table = DedupTable(pool=InternPool())
        bag, _ = table.acquire(7, lambda: {(1,): 1})
        table.acquire(7, lambda: {(1,): 1})
        bag.release()
        assert 7 in table  # one reference still live
        bag.release()
        assert 7 not in table
        assert len(table) == 0
        # re-acquire after eviction rebuilds cleanly
        rebuilt, hit = table.acquire(7, lambda: {(1,): 2})
        assert not hit
        assert rebuilt == {(1,): 2}

    def test_bags_intern_their_keys(self):
        pool = InternPool()
        table = DedupTable(pool=pool)
        canonical = pool.intern((5, 6))
        bag, _ = table.acquire(1, lambda: {(5, 6): 2})
        [key] = list(bag)
        assert key is canonical

    def test_release_if_shared_ignores_plain_dicts(self):
        release_if_shared({})  # no-op, must not raise
        orphan = SharedBag({(1,): 1}, fingerprint=3)
        orphan.refs = 1
        release_if_shared(orphan)
        assert orphan.refs == 0


# ----------------------------------------------------------------------
# frozen compressed postings vs the raw CSR reference
# ----------------------------------------------------------------------


def random_inverted(seed, trees=24, keys=60):
    rng = random.Random(seed)
    universe = [
        tuple(rng.randrange(1 << 30) for _ in range(5)) for _ in range(keys)
    ]
    sizes = {}
    inverted = {}
    for tree_id in range(trees):
        bag = {
            key: rng.randint(1, 4)
            for key in rng.sample(universe, rng.randint(0, keys // 2))
        }
        sizes[tree_id] = sum(bag.values())
        for key, count in bag.items():
            inverted.setdefault(key, {})[tree_id] = count
    return inverted, sizes, universe


@needs_numpy
class TestCompressedPostings:
    def build_pair(self, seed):
        from repro.perf.sweep import CompactPostings

        inverted, sizes, universe = random_inverted(seed)
        pool = InternPool()
        compressed = CompressedPostings.build(inverted, sizes, pool=pool)
        compact = CompactPostings.build(inverted, sizes)
        return compressed, compact, universe

    def queries(self, universe, seed, count=25):
        rng = random.Random(seed)
        picked = rng.sample(universe, min(12, len(universe)))
        picked.append((0, 0, 0, 0, 0))  # miss key: counted, not crashed
        return [(key, rng.randint(1, 3)) for key in picked]

    def test_sweep_bit_identical(self):
        for seed in range(5):
            compressed, compact, universe = self.build_pair(seed)
            for query_seed in range(8):
                items = self.queries(universe, query_seed)
                assert compressed.sweep(items) == compact.sweep(items)
                assert compressed.last_touched == compact.last_touched
                assert compressed.last_present == compact.last_present

    def test_iter_key_postings_roundtrip(self):
        compressed, compact, _ = self.build_pair(11)
        for key, postings in compressed.iter_key_postings():
            start, end = compact.spans[key]
            expected = {
                int(compact.tree_ids[compact.slots[i]]): int(
                    compact.counts[i]
                )
                for i in range(start, end)
            }
            assert postings == expected

    def test_to_compact_matches_reference(self):
        compressed, compact, universe = self.build_pair(12)
        inflated = compressed.to_compact()
        assert inflated.tree_ids == compact.tree_ids
        for query_seed in range(4):
            items = self.queries(universe, query_seed)
            assert inflated.sweep(items) == compact.sweep(items)

    def test_merge_parity_over_shared_slot_order(self):
        from repro.perf.sweep import CompactPostings

        # One shared slot order, disjoint key sets per part — the
        # sharded backend's merge precondition.
        inverted, sizes, universe = random_inverted(13, trees=20, keys=48)
        pool = InternPool()
        keys = list(inverted)
        parts = [
            {key: inverted[key] for key in keys[start::4]}
            for start in range(4)
        ]
        frozens = [
            CompressedPostings.build(part, sizes, pool=pool)
            for part in parts
        ]
        merged = CompressedPostings.merge(frozens, list(sizes), pool=pool)
        reference = CompactPostings.build(inverted, sizes)
        for query_seed in range(8):
            items = self.queries(universe, query_seed)
            assert merged.sweep(items) == reference.sweep(items)
            assert merged.last_touched == reference.last_touched
            assert merged.last_present == reference.last_present

    def test_empty_postings(self):
        compressed = CompressedPostings.build({}, {}, pool=InternPool())
        assert compressed.sweep([((1, 2, 3, 4, 5), 1)]) == {}
        assert compressed.last_touched == 0
        assert compressed.last_present == 0

    def test_packed_smaller_than_raw(self):
        compressed, compact, _ = self.build_pair(14)
        raw = compact.slots.nbytes + compact.counts.nbytes
        assert compressed.packed_nbytes() < raw

    @pytest.mark.parametrize("backend", ["compact", "segment"])
    def test_lookups_leave_the_process_pool_alone(self, backend):
        """A probed key is fingerprinted, not remembered: the packed
        read path may not grow the process-wide pool by what clients
        happen to query."""
        from repro.compress import default_pool
        from repro.core import GramConfig
        from repro.datasets import dblp_tree, random_labelled_tree
        from repro.lookup import ForestIndex, LookupService

        forest = ForestIndex(GramConfig(2, 3), backend=backend, compress=True)
        forest.add_trees((i, dblp_tree(2, seed=i)) for i in range(30))
        service = LookupService(forest)
        service.lookup(dblp_tree(2, seed=3), 0.5)  # freezes / seals
        assert forest.backend.tau_scan([((1, 2, 3, 4, 5), 1)], 1, 0.5) is not None
        before = default_pool().stats()
        hits = 0
        for seed in range(200):  # never-repeated queries, most keys unseen
            query = random_labelled_tree(12, seed=10_000 + seed)
            service.lookup(query, 0.9)
            hits += len(service.lookup(dblp_tree(2, seed=500 + seed), 0.9).matches)
        assert hits > 0
        assert default_pool().stats() == before
        forest.close()


# ----------------------------------------------------------------------
# the switch
# ----------------------------------------------------------------------


class TestCompressionEnabled:
    def test_explicit_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        assert compression_enabled(False) is False
        monkeypatch.delenv(ENV_FLAG)
        if HAVE_NUMPY:
            assert compression_enabled(True) is True

    def test_environment_spellings(self, monkeypatch):
        for value, expected in (
            ("1", True), ("true", True), ("YES", True), (" on ", True),
            ("0", False), ("", False), ("off", False), ("2", False),
        ):
            monkeypatch.setenv(ENV_FLAG, value)
            assert compression_enabled() is (expected and HAVE_NUMPY)

    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        assert compression_enabled() is False
