"""The packed heap layer, which left ``repro``, and the switch it had.

``repro`` has one frozen form, :class:`~repro.perf.sweep.CompactPostings`.
The block-varint codec, intern pool, dedup table and
:class:`CompressedPostings` these tests pin live on as a test-only copy
(:mod:`tests.support.packed`) until their ids retire;
``batch_fingerprints`` stays in production, beside
``combine_fingerprints``.  :class:`TestCompressionEnabled` pins that
the ``compress=`` / ``REPRO_COMPRESS`` switch is gone for good.
"""

import random

import pytest

from repro.hashing.fingerprint import batch_fingerprints, combine_fingerprints
from tests.support.packed import (
    BLOCK,
    CompressedPostings,
    DedupTable,
    InternPool,
    PackedIntArray,
    SharedBag,
    delta_decode_span,
    delta_encode_span,
    release_if_shared,
)
from repro.perf import HAVE_NUMPY

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
        keys = []
        for _ in range(500):
            width = rng.choice((0, 1, 2, 5, 6, 9))
            keys.append(
                tuple(rng.randint(0, (1 << 64) - 1) for _ in range(width))
            )
        batch = batch_fingerprints(keys)
        assert batch.dtype == np.uint64
        for key, value in zip(keys, batch.tolist()):
            assert value == combine_fingerprints(key)

    @needs_numpy
    def test_batch_fingerprints_fall_back_on_exotic_parts(self):
        keys = [(-5, 3), (1 << 70, 2), (1, 2)]
        batch = batch_fingerprints(keys)
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

        # One shared slot order, disjoint key sets per part.
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

    # The ``segment`` id is the row of a backend that no longer exists;
    # it now reads the relation of a compact forest frozen before its
    # first write.
    @pytest.mark.parametrize("backend", ["compact", "segment"])
    def test_lookups_leave_the_process_pool_alone(self, backend):
        """A probed key is fingerprinted, not remembered: sweeping the
        packed form of a backend's relation with never-seen queries may
        not grow the pool it was built with."""
        from repro.core import GramConfig, index_of_tree
        from repro.datasets import dblp_tree, random_labelled_tree
        from repro.lookup import ForestIndex

        config = GramConfig(2, 3)
        forest = ForestIndex(config)
        if backend == "segment":
            forest.compact()
        forest.add_trees((i, dblp_tree(2, seed=i)) for i in range(30))
        inverted = dict(forest.iter_postings())
        sizes = dict(forest.backend.iter_sizes())
        pool = InternPool()
        packed = CompressedPostings.build(inverted, sizes, pool=pool)
        before = pool.stats()
        hits = 0
        for seed in range(200):  # never-repeated queries, most keys unseen
            for query in (
                random_labelled_tree(12, seed=10_000 + seed),
                dblp_tree(2, seed=500 + seed),
            ):
                items = list(index_of_tree(query, config, forest.hasher).items())
                hits += len(packed.sweep(items))
        assert hits > 0
        assert pool.stats() == before
        forest.close()


# ----------------------------------------------------------------------
# the switch, gone
# ----------------------------------------------------------------------


def _builders(tmp_path):
    """One zero-argument call per signature that used to take
    ``compress=``, each passing it."""
    from repro.backend import CompactBackend
    from repro.lookup import ForestIndex, LookupService
    from repro.service import DocumentStore

    return {
        "ForestIndex": lambda: ForestIndex(compress=True),
        "DocumentStore": lambda: DocumentStore(
            str(tmp_path / "store"), compress=True
        ),
        "LookupService.for_collection": lambda: LookupService.for_collection(
            [], compress=True
        ),
        "CompactBackend": lambda: CompactBackend(compress=True),
    }


class TestCompressionEnabled:
    def test_explicit_wins_over_environment(self, tmp_path):
        """No signature takes ``compress=`` any more: all four that
        still exist refuse it (the other five were the retired
        segment, sharded, rel and memory backends' and the backend
        factory's)."""
        builders = _builders(tmp_path)
        assert len(builders) == 4
        for name, build in builders.items():
            with pytest.raises(TypeError, match="compress"):
                build()

    @needs_numpy
    def test_environment_spellings(self, monkeypatch, tmp_path):
        """Every spelling that once turned the packed form on now
        changes nothing: the store freezes the plain heap CSR."""
        from repro.datasets import dblp_tree
        from repro.perf.sweep import CompactPostings
        from repro.service import DocumentStore

        for index, value in enumerate(("1", "true", "YES", " on ")):
            monkeypatch.setenv("REPRO_COMPRESS", value)
            directory = str(tmp_path / f"store{index}")
            with DocumentStore(directory) as store:
                store.add_documents(
                    [(doc, dblp_tree(2, seed=doc)) for doc in range(6)]
                )
                store.lookup(dblp_tree(2, seed=1), 0.5)
                backend = store._forest.backend
                assert type(backend._frozen) is CompactPostings
                assert "compress" not in store.stats()

    def test_default_is_off(self, tmp_path):
        """The relation reports no ``compress`` field, frozen or not:
        there is nothing to be on or off."""
        from repro.backend import CompactBackend

        backend = CompactBackend()
        backend.add_tree_bag(1, {(1, 2): 1})
        assert "compress" not in backend.stats()
        backend.compact()
        assert "compress" not in backend.stats()
