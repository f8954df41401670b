"""A store holds records, not trees.

Every bag is built straight from a document's checkpoint record
(:func:`repro.service.record.record_bag`), a document is decoded into a
tree only when something touches it, and a closed store is freed as
soon as its last reference goes — it is not cyclic garbage.
"""

from __future__ import annotations

import gc
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GramConfig
from repro.core.index import tree_bag
from repro.datasets.random_trees import (
    random_chain,
    random_labelled_tree,
    random_star,
)
from repro.edits.ops import Rename
from repro.errors import CodecError, StorageError
from repro.hashing.labelhash import LabelHasher
from repro.lookup.forest import ForestIndex
from repro.query import And, ApproxLookup, HasLabel
from repro.service import store as store_module
from repro.service.record import (
    decode_document,
    encode_document,
    record_bag,
    record_node_count,
)
from repro.service.store import DocumentStore
from repro.tree.builder import tree_from_brackets

from tests.conftest import assert_store_is_rebuild

DECODED = "store_documents_decoded_total"
SHAPES = (random_labelled_tree, random_chain, random_star)


def _refuses(function, record) -> bool:
    try:
        function(record)
    except CodecError:
        return True
    return False


class TestRecordBag:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(SHAPES),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.integers(1, 4),
    )
    def test_record_bag_equals_the_bag_of_the_decoded_tree(
        self, shape, size, seed, p, q
    ):
        tree = shape(size, seed=seed)
        config = GramConfig(p, q)
        record = encode_document(tree)
        built = record_bag(record, config, LabelHasher())
        expected = tree_bag(decode_document(record), config, LabelHasher())
        assert built == expected
        # Same keys in the same order: a forest fed either holds the
        # same relation, dict for dict.
        assert list(built.items()) == list(expected.items())
        assert record_node_count(record) == len(tree)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_a_decoded_tree_grows_like_the_encoded_one(self, size, seed):
        """``Tree.from_preorder`` keeps the id counter: the next
        unnumbered child gets the id it would have got before."""
        tree = random_labelled_tree(size, seed=seed)
        decoded = decode_document(encode_document(tree))
        assert decoded.structural_key() == tree.structural_key()
        assert decoded.add_child(decoded.root_id, "new") == tree.add_child(
            tree.root_id, "new"
        )

    def test_one_hash_per_distinct_label(self):
        tree = tree_from_brackets("r(" + ",".join(["item"] * 50) + ")")
        hasher = LabelHasher()
        record_bag(encode_document(tree), GramConfig(2, 3), hasher)
        assert hasher.memo_hits + hasher.memo_misses == 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_truncations_and_bit_flips_are_refused_alike(self, size, seed):
        record = encode_document(random_labelled_tree(size, seed=seed))
        config, hasher = GramConfig(2, 3), LabelHasher()

        def build(data):
            return record_bag(data, config, hasher)

        damaged = [record[:cut] for cut in range(len(record))]
        damaged.append(record + b"\x00")
        for index in range(len(record)):
            for bit in range(8):
                flipped = bytearray(record)
                flipped[index] ^= 1 << bit
                damaged.append(bytes(flipped))
        for data in damaged:
            assert _refuses(build, data) == _refuses(decode_document, data), data

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64))
    def test_random_bytes_are_refused_alike(self, garbage):
        config, hasher = GramConfig(2, 3), LabelHasher()
        refused = _refuses(lambda data: record_bag(data, config, hasher), garbage)
        assert refused == _refuses(decode_document, garbage)

    def test_a_repeated_node_id_is_a_codec_error_for_both(self):
        record = b"\x01\x01a\x02\x00\x00\x00\x00\x01\x00"
        with pytest.raises(CodecError, match="repeats"):
            decode_document(record)
        with pytest.raises(CodecError, match="repeats"):
            record_bag(record, GramConfig(2, 3), LabelHasher())


def _documents(count):
    return [
        (document_id, tree_from_brackets(f"a(b{document_id % 3},c(d,e),f)"))
        for document_id in range(count)
    ]


def _first_child(store, document_id):
    tree = store.get_document(document_id)
    return tree.children(tree.root_id)[0]


class TestDecodeOnFirstTouch:
    def test_reopen_decodes_exactly_the_documents_the_wal_edits(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DocumentStore(directory)
        store.add_documents(_documents(30))
        store.checkpoint()
        edited = (2, 11, 29)
        for document_id in edited:
            node = _first_child(store, document_id)
            store.apply_edits(document_id, [Rename(node, "x")])
            store.apply_edits(document_id, [Rename(node, "y")])
        del store  # unclosed: the edits stay in the WAL
        reopened = DocumentStore(directory, metrics=True)
        registry = reopened.metrics_registry
        assert registry.counter_value("wal_replayed_batches_total") == 6
        assert registry.counter_value(DECODED) == len(edited)
        # Counting, membership, indexes and lookups decode nothing.
        stats = reopened.stats()
        assert stats["documents"] == 30 and stats["nodes"] == 30 * 6
        reopened.get_index(5)
        reopened.lookup(tree_from_brackets("a(b1,c(d,e),f)"), 0.5)
        assert registry.counter_value(DECODED) == len(edited)
        for document_id in edited:
            assert reopened.get_document(document_id).label(
                _first_child(reopened, document_id)
            ) == "y"
        assert registry.counter_value(DECODED) == len(edited)
        reopened.get_document(5)
        reopened.get_document(5)
        assert registry.counter_value(DECODED) == len(edited) + 1
        assert_store_is_rebuild(reopened)
        reopened.close()

    def test_a_has_label_query_decodes_only_its_matches(self, tmp_path):
        store = DocumentStore(str(tmp_path / "store"), metrics=True)
        store.add_documents(_documents(30))
        store.add_documents(
            [(100 + i, tree_from_brackets(f"z(y{i},x)")) for i in range(20)]
        )
        registry = store.metrics_registry
        assert registry.counter_value(DECODED) == 0
        query = tree_from_brackets("a(b1,c(d,e),f)")
        candidates = store.lookup(query, 1.0).tree_ids()
        assert sorted(candidates) == list(range(30))
        assert registry.counter_value(DECODED) == 0
        result = store.query(And(ApproxLookup(query, 1.0), HasLabel("b1")))
        assert sorted(result.tree_ids()) == list(range(1, 30, 3))
        # The post-filter walked the τ-matches, and nothing else.
        assert registry.counter_value(DECODED) == len(candidates)
        assert all(isinstance(store._documents[100 + i], bytes) for i in range(20))
        store.close()

    def test_added_documents_are_held_as_records(self, tmp_path):
        store = DocumentStore(str(tmp_path / "store"), metrics=True)
        tree = tree_from_brackets("a(b,c)")
        store.add_document(1, tree)
        # The caller's tree is not kept: changing it changes nothing.
        tree.rename_node(tree.root_id, "changed")
        assert isinstance(store._documents[1], bytes)
        assert store.get_document(1) == tree_from_brackets("a(b,c)")
        assert store.metrics_registry.counter_value(DECODED) == 1
        store.close()


class TestDecodeRace:
    def test_a_reader_decoding_beside_a_publish_never_reverts_it(
        self, tmp_path, monkeypatch
    ):
        """The reader decodes the record; meanwhile the writer decodes
        it too, edits and publishes.  The reader's tree must not be
        cached over the published version."""
        directory = str(tmp_path / "store")
        store = DocumentStore(directory)
        store.add_document(1, tree_from_brackets("a(b,c)"))
        node = _first_child(store, 1)
        store.close()
        store = DocumentStore(directory)
        assert isinstance(store._documents[1], bytes)

        decoding, published = threading.Event(), threading.Event()
        real_decode = store_module.decode_document
        calls = []

        def slow_decode(record):
            calls.append(record)
            if len(calls) == 1:  # the reader's
                decoding.set()
                assert published.wait(10)
            return real_decode(record)

        monkeypatch.setattr(store_module, "decode_document", slow_decode)
        seen = []
        reader = threading.Thread(target=lambda: seen.append(store.get_document(1)))
        reader.start()
        assert decoding.wait(10)
        store.apply_edits(1, [Rename(node, "edited")])
        published.set()
        reader.join(10)
        assert not reader.is_alive()
        # The reader got the version it started from, uncached ...
        assert seen[0].label(node) == "b"
        # ... and the store still holds the edit.
        assert store.get_document(1).label(node) == "edited"
        assert_store_is_rebuild(store)
        store.close()


class TestClosedStoreIsFreed:
    @pytest.mark.parametrize("serve_threads", [0, 2])
    def test_closed_store_is_freed_without_the_collector(
        self, tmp_path, serve_threads
    ):
        gc.collect()
        gc.disable()
        try:
            store = DocumentStore(
                str(tmp_path / "store"), serve_threads=serve_threads
            )
            store.add_documents(_documents(6))
            query = tree_from_brackets("a(b1,c(d,e),f)")
            store.lookup(query, 0.5)
            store.subscribe(
                "near", And(ApproxLookup(query, 0.5), HasLabel("b1"))
            )
            store.apply_edits(1, [Rename(_first_child(store, 1), "x")])
            store.query(And(ApproxLookup(query, 0.5), HasLabel("f")))
            store.close()
            freed = weakref.ref(store)
            del store
            assert freed() is None
        finally:
            gc.enable()


class TestOneBatchOnePublish:
    """``ForestIndex.add_bags`` takes the forest lock once and advances
    the generation once per batch, not once per tree."""

    def test_an_add_and_a_reopen_each_publish_one_generation(
        self, tmp_path, monkeypatch
    ):
        directory = str(tmp_path / "store")
        wakeups = []
        make_forest = DocumentStore._make_forest

        def listened(store, config):
            forest = make_forest(store, config)
            forest.add_generation_listener(lambda: wakeups.append(forest.generation))
            return forest

        monkeypatch.setattr(DocumentStore, "_make_forest", listened)
        store = DocumentStore(directory, GramConfig(2, 3))
        before = store._forest.generation
        store.add_documents(_documents(3))
        assert store._forest.generation == before + 1
        assert wakeups == [before + 1]
        store.close()
        wakeups.clear()
        reopened = DocumentStore(directory)
        assert len(reopened) == 3
        assert reopened._forest.generation == 1
        assert wakeups == [1]
        assert_store_is_rebuild(reopened)
        reopened.close()

    def test_a_batch_with_a_duplicate_id_adds_nothing(self):
        config = GramConfig(2, 3)
        forest = ForestIndex(config)
        forest.add_trees([(1, random_labelled_tree(8, seed=1))])
        generation = forest.generation
        hasher = forest.hasher
        for batch in ((2, 3, 1), (4, 5, 4)):
            with pytest.raises(StorageError):
                forest.add_bags(
                    (tree_id, tree_bag(random_labelled_tree(8, seed=tree_id), config, hasher))
                    for tree_id in batch
                )
            assert sorted(forest.tree_ids()) == [1]
            assert forest.generation == generation
