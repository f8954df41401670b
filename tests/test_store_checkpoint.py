"""The checkpoint: one cached record per document, no index relation.

Covers the document-record codec, the O(dirty documents) checkpoint,
opening a store directory written in the previous on-disk format, and
the rule that a published document is never written in place.
"""

import os
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GramConfig
from repro.datasets import dblp_tree
from repro.edits import Delete, Insert, Rename
from repro.edits.generator import EditScriptGenerator
from repro.edits.serialize import format_operations
from repro.errors import CodecError, EditError
from repro.lookup import ForestIndex
from repro.obsv import MetricsRegistry
from repro.query import ApproxLookup, execute_plan
from repro.service import DocumentStore
from repro.service import checkpoint as checkpoint_module
from repro.service.checkpoint import (
    MAGIC,
    _blocks,
    decode_checkpoint,
    encode_checkpoint,
    read_checkpoint,
)
from repro.service.store import (
    WAL_CHECKPOINT_FLOOR,
    decode_document,
    encode_document,
    read_wal,
)
from repro.service.store import add_block as wal_add_block
from repro.service.store import drop_block as wal_drop_block
from repro.service.store import edit_block as wal_edit_block
from repro.stream import ingest_snapshot
from repro.tree import Tree, preorder, tree_from_brackets

from tests.conftest import assert_store_is_rebuild, build_random_tree
from tests.support.reference.baselines import rebuild_index
from tests.support.relstore import Column, Schema
from tests.support.rpdb import Database, write_store_snapshot

CONFIG = GramConfig(2, 3)
ENCODED = "checkpoint_documents_encoded_total"

AWKWARD_LABELS = ("a", "", "naïve ☃", "with(parens)", "a,b", "x" * 300, "\x00\n")


def sparse_tree(size: int, seed: int) -> Tree:
    """A random tree whose ids are sparse, unordered and partly
    negative — nothing like the preorder numbering the parser hands
    out."""
    rng = random.Random(seed)
    ids = rng.sample(range(-50, 1_000_000), size)
    tree = Tree(rng.choice(AWKWARD_LABELS), ids[0])
    for position, node_id in enumerate(ids[1:], 1):
        parent = rng.choice(ids[:position])
        tree.add_child(
            parent,
            rng.choice(AWKWARD_LABELS),
            node_id=node_id,
            position=rng.randint(1, tree.fanout(parent) + 1),
        )
    return tree


class TestDocumentRecord:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_round_trip_keeps_ids_labels_and_sibling_order(self, size, seed):
        tree = sparse_tree(size, seed)
        decoded = decode_document(encode_document(tree))
        assert decoded.structural_key() == tree.structural_key()
        assert list(preorder(decoded)) == list(preorder(tree))

    def test_single_node_tree(self):
        tree = Tree("only", 7)
        record = encode_document(tree)
        assert decode_document(record) == tree
        assert len(record) == 1 + 1 + len("only") + 1 + 3

    def test_repeated_labels_are_stored_once(self):
        wide = tree_from_brackets("r(" + ",".join(["item"] * 200) + ")")
        # dictionary: 2 labels; per node: id delta, parent distance
        # (two bytes past position 127), label index
        assert len(encode_document(wide)) < 4 * len(wide)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_every_truncation_is_a_codec_error(self, size, seed):
        record = encode_document(sparse_tree(size, seed))
        for cut in range(len(record)):
            with pytest.raises(CodecError):
                decode_document(record[:cut])
        with pytest.raises(CodecError):
            decode_document(record + b"\x00")

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64))
    def test_garbage_decodes_or_raises_codec_error(self, garbage):
        try:
            tree = decode_document(garbage)
        except CodecError:
            return
        # The few byte strings that happen to parse are real records.
        assert decode_document(encode_document(tree)) == tree

    @pytest.mark.parametrize(
        "record",
        [
            b"\x01\x01a\x00",  # no nodes
            b"\x01\x01a\x01\x00\x01\x00",  # the root claims a parent
            b"\x01\x01a\x02\x00\x00\x00\x02\x02\x00",  # parent past the start
            b"\x01\x01a\x02\x00\x00\x00\x02\x00\x00",  # parent distance 0
            b"\x01\x01a\x01\x00\x00\x01",  # label index outside the dictionary
            b"\x01\x01a\x02\x00\x00\x00\x00\x01\x00",  # node id used twice
            b"\x01\x02\xff\xfe\x01\x00\x00\x00",  # label is not UTF-8
            b"\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f",  # 2**63 labels, no bytes
        ],
    )
    def test_inconsistent_records_are_codec_errors(self, record):
        with pytest.raises(CodecError):
            decode_document(record)


def _collection(count: int, size: int = 12):
    return [(document_id, build_random_tree(size, document_id)) for document_id in range(count)]


class TestCheckpointEncodesOnlyDirtyDocuments:
    def test_three_of_forty_documents_edited(self, tmp_path):
        directory = str(tmp_path / "store")
        registry = MetricsRegistry()
        store = DocumentStore(
            directory, CONFIG, metrics=registry
        )
        store.add_documents(_collection(40))
        assert registry.counter_value(ENCODED) == 40
        for document_id in (3, 7, 21, 3):
            tree = store.get_document(document_id)
            store.apply_edits(
                document_id, [Insert(tree.fresh_id(), "new", tree.root_id, 1, 0)]
            )
        store.checkpoint()
        assert registry.counter_value(ENCODED) == 43
        store.checkpoint()
        assert registry.counter_value(ENCODED) == 43
        store.remove_document(5)
        store.add_document(5, build_random_tree(6, 99))
        assert registry.counter_value(ENCODED) == 44
        expected = {
            document_id: store.get_document(document_id)
            for document_id in store.document_ids()
        }
        store.close()

        # A reopened store starts with every record cached (it has just
        # decoded them) and writes them back verbatim.
        reopened_registry = MetricsRegistry()
        reopened = DocumentStore(directory, metrics=reopened_registry)
        reopened.checkpoint()
        assert reopened_registry.counter_value(ENCODED) == 0
        assert {
            document_id: reopened.get_document(document_id)
            for document_id in reopened.document_ids()
        } == expected
        assert_store_is_rebuild(reopened)
        reopened.close()

    def test_replayed_documents_are_re_encoded(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DocumentStore(directory, CONFIG)
        store.add_documents(_collection(6))
        store.apply_edits(2, [Rename(1, "replayed")])
        store.apply_edits(4, [Rename(1, "also")])
        store.apply_edits(2, [Rename(1, "twice")])
        del store  # no close: the batches live in the WAL only
        registry = MetricsRegistry()
        reopened = DocumentStore(directory, metrics=registry)
        # Replay alone writes nothing ...
        assert registry.counter_value("wal_replayed_batches_total") == 3
        assert registry.counter_value("checkpoints_total") == 0
        assert registry.counter_value(ENCODED) == 0
        # ... and the first checkpoint after it encodes exactly the
        # replayed documents, 2 and 4.
        reopened.checkpoint()
        assert registry.counter_value(ENCODED) == 2
        reopened.close()
        again = DocumentStore(directory)
        assert again.get_document(2).label(1) == "twice"
        assert again.get_document(4).label(1) == "also"

    def test_failing_batch_keeps_the_cached_record_valid(self, tmp_path):
        directory = str(tmp_path / "store")
        registry = MetricsRegistry()
        store = DocumentStore(
            directory, CONFIG, metrics=registry
        )
        store.add_document(1, tree_from_brackets("a(b(c,d),e)"))
        cached = store._encoded[1]
        # Fails on its third operation, after two that applied to the
        # validation copy.
        with pytest.raises(EditError):
            store.apply_edits(
                1, [Rename(1, "bb"), Delete(2), Delete(store.get_document(1).root_id)]
            )
        assert store._encoded[1] is cached
        assert decode_document(cached) == store.get_document(1)
        encoded_before = registry.counter_value(ENCODED)
        store.checkpoint()
        assert registry.counter_value(ENCODED) == encoded_before
        store.close()
        reopened = DocumentStore(directory)
        assert reopened.get_document(1) == tree_from_brackets("a(b(c,d),e)")
        assert_store_is_rebuild(reopened)
        reopened.close()


# ----------------------------------------------------------------------
# the previous on-disk formats
# ----------------------------------------------------------------------

#: the two magics of the relstore snapshot earlier versions wrote
RPDB_CHECKED, RPDB_UNCHECKED = b"RPDB\x02", b"RPDB\x01"


def unchecked(path):
    """Turn the ``RPDB\\x02`` file at ``path`` into the ``RPDB\\x01`` form
    (no checksum trailer) of the same tables."""
    data = Path(path).read_bytes()
    assert data.startswith(RPDB_CHECKED)
    Path(path).write_bytes(RPDB_UNCHECKED + data[5:-4])


def write_previous_format(
    directory, documents, backend, wal_batches=(), magic=RPDB_CHECKED
):
    """A store directory as the commit before the ``documents`` relation
    wrote it: a ``nodes`` row per node, the whole index relation in
    ``indexes``, and three-field BEGIN lines in the WAL."""
    os.makedirs(directory)
    database = Database()
    meta = database.create_table(
        "meta", Schema([Column("key", str), Column("value", str)]), ("key",)
    )
    for key, value in {
        "p": str(CONFIG.p),
        "q": str(CONFIG.q),
        "backend": backend,
        "store_uuid": "0123456789abcdef0123456789abcdef",
        "commit_seq": "11",
        "compress": "0",
        **({"shards": "3"} if backend == "sharded" else {}),
    }.items():
        meta.insert({"key": key, "value": value})
    nodes = database.create_table(
        "nodes",
        Schema(
            [
                Column("docId", int),
                Column("seq", int),
                Column("nodeId", int),
                Column("parId", int, nullable=True),
                Column("label", str),
            ]
        ),
        ("docId", "seq"),
    )
    indexes = database.create_table(
        "indexes",
        Schema([Column("treeId", int), Column("pqg", tuple), Column("cnt", int)]),
        ("treeId", "pqg"),
    )
    for document_id, tree in documents:
        for sequence, node_id in enumerate(preorder(tree)):
            nodes.insert(
                {
                    "docId": document_id,
                    "seq": sequence,
                    "nodeId": node_id,
                    "parId": tree.parent(node_id),
                    "label": tree.label(node_id),
                }
            )
        for key, count in rebuild_index(tree, CONFIG).items():
            indexes.insert({"treeId": document_id, "pqg": key, "cnt": count})
    # A row for a document that does not exist: reading the relation
    # back would index a ghost.
    indexes.insert({"treeId": 999, "pqg": (1, 2, 3, 4, 5), "cnt": 7})
    snapshot = os.path.join(directory, "store.db")
    database.save(snapshot)
    if magic == RPDB_UNCHECKED:
        unchecked(snapshot)
    with open(os.path.join(directory, "wal.log"), "w", encoding="utf-8") as handle:
        for document_id, operations in wal_batches:
            handle.write(
                f"BEGIN {document_id} {len(operations)}\n"
                f"{format_operations(operations)}\nCOMMIT\n"
            )


def assert_current_format(path, documents, commit_seq):
    """``path`` holds a checkpoint of the current format with exactly
    ``documents`` (id → tree) at ``commit_seq``."""
    assert Path(path).read_bytes().startswith(MAGIC)
    checkpoint = read_checkpoint(path)
    assert not checkpoint.legacy
    assert checkpoint.config == CONFIG
    assert checkpoint.commit_seq == commit_seq
    assert {
        document_id: decode_document(record)
        for document_id, record in checkpoint.documents
    } == documents


@pytest.mark.parametrize("with_wal_tail", [False, True])
@pytest.mark.parametrize("backend", ["compact", "memory", "sharded", "segment", "rel"])
def test_previous_format_opens_and_is_rewritten(tmp_path, backend, with_wal_tail):
    """A store written before the ``documents`` relation, recording
    any backend name — the two this version offered before it had one
    class, or a retired one — in either relstore magic, opens to its
    documents and their lookups, and the open itself rewrites
    ``store.db`` as a checkpoint of the current format, which records
    no backend."""
    documents = [(document_id, sparse_tree(15, document_id)) for document_id in (4, 2, 9)]
    for magic in (RPDB_CHECKED, RPDB_UNCHECKED):
        directory = str(tmp_path / f"store-{magic[-1]}")
        expected = {document_id: tree.copy() for document_id, tree in documents}
        wal_batches = []
        if with_wal_tail:
            generator = EditScriptGenerator(rng=random.Random(5))
            for document_id in (2, 9, 2):
                script = list(generator.generate(expected[document_id], 3))
                for operation in script:
                    operation.apply(expected[document_id])
                wal_batches.append((document_id, script))
        write_previous_format(directory, documents, backend, wal_batches, magic)
        segments = os.path.join(directory, "segments")
        if backend == "segment":
            # What the segment backend left beside its store: garbage here.
            os.makedirs(segments)
            for name in ("segment-00000001.seg", "MANIFEST.json", "delta-00000001.log"):
                with open(os.path.join(segments, name), "wb") as handle:
                    handle.write(b"RSEGIDX1" + bytes(range(256)))
        snapshot = os.path.join(directory, "store.db")

        store = DocumentStore(directory)
        assert not os.path.exists(segments)
        assert 999 not in store._forest
        assert {
            document_id: store.get_document(document_id)
            for document_id in store.document_ids()
        } == expected
        assert_store_is_rebuild(store)
        reference = ForestIndex(CONFIG)
        reference.add_trees(expected.items())
        for query in expected.values():
            for tau in (0.3, 0.7, 1.0):
                assert (
                    store.lookup(query, tau).matches
                    == execute_plan(reference, ApproxLookup(query, tau)).matches
                )
        # Unstamped blocks are numbered by position past the snapshot's 11.
        assert store._commit_seq == 11 + len(wal_batches)
        assert_current_format(snapshot, expected, 11 + len(wal_batches))
        assert os.path.getsize(os.path.join(directory, "wal.log")) == 0
        first_child = expected[4].children(expected[4].root_id)[0]
        store.apply_edits(4, [Rename(first_child, "later")])
        del store  # the batch is in the WAL, stamped

        reopened = DocumentStore(directory)
        assert reopened._commit_seq == 12 + len(wal_batches)
        assert_store_is_rebuild(reopened)
        reopened.close()


def test_replay_only_open_leaves_the_snapshot_byte_identical(tmp_path):
    """An open that only replays the WAL rewrites nothing: ``store.db``
    and ``wal.log`` keep their bytes, and the next batch is appended
    behind the replayed ones."""
    directory = str(tmp_path / "store")
    store = DocumentStore(directory, CONFIG)
    store.add_documents(_collection(4))
    for document_id in (1, 3, 1):
        tree = store.get_document(document_id)
        store.apply_edits(
            document_id, [Insert(tree.fresh_id(), "new", tree.root_id, 1, 0)]
        )
    expected = {
        document_id: store.get_document(document_id)
        for document_id in store.document_ids()
    }
    del store
    paths = [Path(directory, name) for name in ("store.db", "wal.log")]
    before = [path.read_bytes() for path in paths]

    reopened = DocumentStore(directory)
    assert [path.read_bytes() for path in paths] == before
    assert {
        document_id: reopened.get_document(document_id)
        for document_id in reopened.document_ids()
    } == expected
    assert_store_is_rebuild(reopened)
    assert reopened.stats()["wal_bytes"] == len(before[1])
    reopened.apply_edits(2, [Rename(1, "later")])
    snapshot, wal = (path.read_bytes() for path in paths)
    assert snapshot == before[0]
    assert wal.startswith(before[1]) and len(wal) > len(before[1])
    reopened.close()


def test_previous_format_is_rewritten_on_open(tmp_path):
    """Every relstore snapshot earlier versions wrote — ``nodes`` rows
    or ``documents`` records, checksummed (``RPDB\\x02``) or not
    (``RPDB\\x01``), with or without standing queries — is converted by
    the open itself, with no WAL to replay, to the checkpoint the
    current version would have written."""
    documents = [(document_id, sparse_tree(10, document_id)) for document_id in (1, 2)]
    expected = dict(documents)
    nodes = str(tmp_path / "nodes")
    write_previous_format(nodes, documents, "compact")
    # The checkpoint a current store writes for the same documents, and
    # the relstore snapshot of it an earlier version wrote.
    current = str(tmp_path / "current")
    with DocumentStore(current, CONFIG) as store:
        store.add_documents(documents)
        store.subscribe("watch", ApproxLookup(documents[0][1], 0.5))
    written = Path(current, "store.db").read_bytes()
    checkpoint = read_checkpoint(os.path.join(current, "store.db"))
    assert checkpoint.subscriptions
    for name, magic in (("checked", RPDB_CHECKED), ("unchecked", RPDB_UNCHECKED)):
        directory = tmp_path / name
        directory.mkdir()
        snapshot = str(directory / "store.db")
        write_store_snapshot(snapshot, checkpoint, backend="compact")
        if magic == RPDB_UNCHECKED:
            unchecked(snapshot)
        assert Path(snapshot).read_bytes().startswith(magic)
        store = DocumentStore(str(directory))
        assert Path(snapshot).read_bytes() == written
        assert store.stats()["snapshot_bytes"] == len(written)
        subscriptions = store._standing.describe_subscriptions()
        assert [query_id for query_id, _, _ in subscriptions] == ["watch"]
        assert_store_is_rebuild(store)
        store.close()
    store = DocumentStore(nodes)
    assert_current_format(os.path.join(nodes, "store.db"), expected, 11)
    assert store.stats()["snapshot_bytes"] == os.path.getsize(
        os.path.join(nodes, "store.db")
    )
    assert_store_is_rebuild(store)
    store.close()


# ----------------------------------------------------------------------
# a damaged snapshot never opens
# ----------------------------------------------------------------------


def _small_store(directory, subscribe=False):
    """A closed store whose ``store.db`` holds a few small documents
    (and, with ``subscribe``, two standing queries) and whose WAL is
    empty; returns its documents."""
    store = DocumentStore(directory, CONFIG)
    texts = ("a(b,c)", "x(y(z),w)", "naïve(☃)", "r")
    store.add_documents(
        [(document_id, tree_from_brackets(text)) for document_id, text in enumerate(texts)]
    )
    store.apply_edits(1, [Rename(2, "zz")])
    if subscribe:
        store.subscribe("near-a", ApproxLookup(tree_from_brackets("a(b,c)"), 0.9))
        store.subscribe("any-x", ApproxLookup(tree_from_brackets("x(y)"), 1.0))
    documents = {
        document_id: store.get_document(document_id)
        for document_id in store.document_ids()
    }
    store.close()  # checkpoints: the WAL is empty
    return documents


def test_every_bit_flip_of_the_snapshot_is_a_codec_error(tmp_path):
    """Every block of ``store.db`` carries a CRC32.  Flipping any single
    bit anywhere in the file — magic, block headers, the META, DOCS,
    SUB and END blocks or a checksum itself — makes the open raise
    :class:`CodecError`; no flip opens with different documents or an
    untyped exception."""
    directory = str(tmp_path / "store")
    documents = _small_store(directory, subscribe=True)
    path = Path(directory, "store.db")
    pristine = path.read_bytes()
    assert pristine.startswith(MAGIC)
    assert {kind for kind, _ in _blocks(pristine)} == {b"M", b"D", b"S", b"E"}
    for offset in range(len(pristine)):
        for bit in range(8):
            damaged = bytearray(pristine)
            damaged[offset] ^= 1 << bit
            path.write_bytes(bytes(damaged))
            with pytest.raises(CodecError):
                DocumentStore(directory, CONFIG)
    path.write_bytes(pristine)
    reopened = DocumentStore(directory, CONFIG)
    assert {
        document_id: reopened.get_document(document_id)
        for document_id in reopened.document_ids()
    } == documents
    reopened.close()


def test_every_truncation_of_the_snapshot_is_a_codec_error(tmp_path):
    """The checkpoint's twin of the WAL's bit-flip test, for a crash
    that cut the file: ``store.db`` cut at any offset — inside the
    magic, inside a block, or exactly between two blocks, where only
    the missing END block tells — makes the open raise
    :class:`CodecError`, never open a part of the collection."""
    directory = str(tmp_path / "store")
    _small_store(directory, subscribe=True)
    path = Path(directory, "store.db")
    pristine = path.read_bytes()
    for cut in range(len(pristine)):
        path.write_bytes(pristine[:cut])
        with pytest.raises(CodecError):
            DocumentStore(directory, CONFIG)


def test_a_damaged_many_block_checkpoint_is_a_codec_error(monkeypatch):
    """With blocks small enough that every few records seal one, every
    bit flip and every truncation of the file is refused, and the
    pristine file reads back record for record."""
    monkeypatch.setattr(checkpoint_module, "BLOCK_BYTES", 40)
    records = [
        (document_id, encode_document(sparse_tree(6, document_id)))
        for document_id in range(-3, 9)
    ]
    subscriptions = [("q", {"tau": 0.5}, {1: 0.25, -3: 0.0})]
    data, payload = encode_checkpoint(CONFIG, 5, records, subscriptions)
    assert sum(kind == b"D" for kind, _ in _blocks(data)) > 3
    checkpoint = decode_checkpoint(data)
    assert checkpoint.documents == records
    assert checkpoint.subscriptions == [("q", {"tau": 0.5}, {-3: 0.0, 1: 0.25})]
    assert (checkpoint.commit_seq, checkpoint.payload_bytes) == (5, payload)
    for offset in range(len(data)):
        for bit in range(8):
            damaged = bytearray(data)
            damaged[offset] ^= 1 << bit
            with pytest.raises(CodecError):
                decode_checkpoint(bytes(damaged))
    for cut in range(len(data)):
        with pytest.raises(CodecError):
            decode_checkpoint(data[:cut])


def test_unchecked_snapshot_opens_and_is_rewritten_with_a_checksum(tmp_path):
    """The oldest checked-less format — magic ``RPDB\\x01``, no
    checksum — still opens, to the same documents and indexes equal to
    a rebuild, and the open rewrites it as the checksummed checkpoint
    the store wrote before it was converted."""
    directory = str(tmp_path / "store")
    documents = _small_store(directory)
    path = Path(directory, "store.db")
    checked = path.read_bytes()
    write_store_snapshot(str(path), read_checkpoint(str(path)))
    unchecked(path)
    store = DocumentStore(directory, CONFIG)
    assert {
        document_id: store.get_document(document_id)
        for document_id in store.document_ids()
    } == documents
    assert_store_is_rebuild(store)
    assert path.read_bytes() == checked
    store.close()


def test_undecodable_unchecked_snapshot_is_a_codec_error(tmp_path):
    """Without a checksum a damaged snapshot may still decode; when it
    does not, the failure is a :class:`CodecError` whatever the decoder
    tripped over — never an untyped exception — and every cut of the
    file is refused."""
    directory = str(tmp_path / "store")
    _small_store(directory, subscribe=True)
    path = Path(directory, "store.db")
    write_store_snapshot(str(path), read_checkpoint(str(path)))
    unchecked(path)
    data = path.read_bytes()
    for offset in range(5, len(data)):
        for bit in range(8):
            damaged = bytearray(data)
            damaged[offset] ^= 1 << bit
            try:
                decode_checkpoint(bytes(damaged))
            except CodecError:
                pass
    for cut in range(len(data)):
        with pytest.raises(CodecError):
            decode_checkpoint(data[:cut])


# ----------------------------------------------------------------------
# a damaged WAL never opens to other documents
# ----------------------------------------------------------------------


def _three_block_wal(directory):
    """A store whose WAL holds three blocks past an empty-WAL snapshot —
    an edit batch, an added document, a removal — with the documents
    before the last block and after it."""
    store = DocumentStore(directory, CONFIG)
    store.add_documents(
        [(1, tree_from_brackets("a(b,c)")), (2, tree_from_brackets("x(y)"))]
    )
    store.checkpoint()
    store.apply_edits(1, [Rename(1, "bb"), Insert(9, "d", 0, 3, 2)])
    store.add_document(3, tree_from_brackets("naïve(☃,z)"))
    before_last = _documents(store)
    store.remove_document(2)
    acknowledged = _documents(store)
    del store  # no close: the blocks stay in the WAL
    return before_last, acknowledged


def _documents(store):
    return {
        document_id: store.get_document(document_id)
        for document_id in store.document_ids()
    }


def test_every_bit_flip_of_the_wal_is_refused_or_a_tear(tmp_path):
    """Every WAL block ends in ``COMMIT <crc32>``.  Flipping any single
    bit of a three-block WAL either reopens to the acknowledged state
    minus the final block — the flip hit that block, which reads as a
    torn tail — or, when a complete block follows the damage, raises
    :class:`CodecError` and cuts nothing.  No flip opens with a
    different document."""
    directory = str(tmp_path / "store")
    before_last, acknowledged = _three_block_wal(directory)
    path = Path(directory, "wal.log")
    pristine = path.read_bytes()
    assert pristine.count(b"\nCOMMIT ") == 3
    last_block = pristine.rindex(b"DROP ")
    for offset in range(len(pristine)):
        for bit in range(8):
            damaged = bytearray(pristine)
            damaged[offset] ^= 1 << bit
            path.write_bytes(bytes(damaged))
            if offset < last_block:
                with pytest.raises(CodecError):
                    DocumentStore(directory, CONFIG)
                assert path.read_bytes() == bytes(damaged)
            else:
                reopened = DocumentStore(directory, CONFIG)
                assert _documents(reopened) == before_last, (offset, bit)
    path.write_bytes(pristine)
    reopened = DocumentStore(directory, CONFIG)
    assert _documents(reopened) == acknowledged
    assert_store_is_rebuild(reopened)
    reopened.close()


def _wal_bytes():
    store_documents = [(4, tree_from_brackets("r(s,t(u))")), (5, Tree("q", 11))]
    return (
        wal_edit_block(4, [Rename(2, "ss"), Delete(3)], 7)
        + wal_add_block(
            [(document_id, encode_document(tree)) for document_id, tree in store_documents],
            8,
        )
        + wal_drop_block(5, 9)
    )


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=200),
        st.tuples(
            st.integers(0, len(_wal_bytes())),
            st.integers(0, 40),
            st.binary(max_size=40),
        ).map(
            lambda splice: _wal_bytes()[: splice[0]]
            + splice[2]
            + _wal_bytes()[splice[0] + splice[1] :]
        ),
    )
)
def test_reading_any_wal_bytes_gives_a_clean_prefix_or_a_codec_error(data):
    """On arbitrary bytes — garbage, or a real WAL with a stretch
    replaced — the reader returns committed blocks and the offset where
    they end, and those bytes alone read back to the same blocks; or it
    raises :class:`CodecError`.  Nothing else comes out, and every loop
    consumes input."""
    try:
        records, end = read_wal(data)
    except CodecError:
        return
    assert 0 <= end <= len(data) + 1
    if end <= len(data):
        assert read_wal(data[:end]) == (records, end)
    else:
        assert not data.endswith(b"\n")
        assert read_wal(data + b"\n") == (records, end)


def test_an_older_stores_wal_without_checksums_still_replays(tmp_path):
    """Blocks with a bare ``COMMIT`` line — what stores wrote before
    the checksum — replay, stamped or not; a bare ``COMMIT`` that lost
    its newline is a tear."""
    directory = str(tmp_path / "store")
    store = DocumentStore(directory, CONFIG)
    store.add_document(1, tree_from_brackets("a(b,c)"))
    store.close()
    Path(directory, "wal.log").write_bytes(
        b"BEGIN 1 1 2\nREN 1 \"old\"\nCOMMIT\n"
        b"BEGIN 1 1\nREN 2 \"older\"\nCOMMIT\n"
        b"BEGIN 1 1 4\nREN 0 \"torn\"\nCOMMIT"
    )
    reopened = DocumentStore(directory, CONFIG)
    assert reopened.get_document(1) == tree_from_brackets("a(old,older)")
    reopened.close()


# ----------------------------------------------------------------------
# a membership change is one WAL record
# ----------------------------------------------------------------------


def _store_of(directory, count):
    store = DocumentStore(directory, CONFIG, metrics=True)
    store.add_documents(_collection(count))
    store.checkpoint()
    return store, store.metrics_registry


class TestMembershipIsAWalRecord:
    def test_add_and_remove_cost_the_same_at_50_and_500_documents(self, tmp_path):
        deltas = []
        for count in (50, 500):
            store, registry = _store_of(str(tmp_path / str(count)), count)
            checkpoints = registry.counter_value("checkpoints_total")
            wal_bytes = registry.counter_value("wal_bytes_total")
            store.add_document(10_000, build_random_tree(12, 7))
            store.remove_document(3)
            assert registry.counter_value("checkpoints_total") == checkpoints
            deltas.append(registry.counter_value("wal_bytes_total") - wal_bytes)
            store.close()
        assert deltas[0] == deltas[1] > 0

    def test_an_add_whose_record_crosses_the_threshold_checkpoints_once(
        self, tmp_path
    ):
        store, registry = _store_of(str(tmp_path / "store"), 4)
        store.apply_edits(1, [Rename(1, "logged")])
        checkpoints = registry.counter_value("checkpoints_total")
        wal_bytes = registry.counter_value("wal_bytes_total")
        store.add_document(9, Tree("x" * WAL_CHECKPOINT_FLOOR, 1))
        assert registry.counter_value("checkpoints_total") == checkpoints + 1
        # logged first, like an edit batch; the checkpoint retired it
        assert registry.counter_value("wal_bytes_total") > (
            wal_bytes + WAL_CHECKPOINT_FLOOR
        )
        assert os.path.getsize(os.path.join(str(tmp_path / "store"), "wal.log")) == 0
        del store
        reopened = DocumentStore(str(tmp_path / "store"))
        assert reopened.get_document(9).label(1) == "x" * WAL_CHECKPOINT_FLOOR
        assert reopened.get_document(1).label(1) == "logged"

    def test_a_logged_add_whose_indexing_raises_is_committed(
        self, tmp_path, monkeypatch
    ):
        """The record reached the WAL, so the batch is committed even
        though the call raised: published, durable, and indexed by the
        rebuild on reopen — also when it would have triggered the
        checkpoint."""
        directory = str(tmp_path / "store")
        store, registry = _store_of(directory, 4)
        checkpoints = registry.counter_value("checkpoints_total")
        added = [(9, Tree("x" * WAL_CHECKPOINT_FLOOR, 1)), (10, Tree("y", 1))]

        def refuse(*args, **kwargs):
            raise OSError("indexing failed")

        monkeypatch.setattr(store._forest, "add_bags", refuse)
        with pytest.raises(OSError, match="indexing failed"):
            store.add_documents(added)
        assert not store.stats()["failed"]
        assert sorted(store.document_ids()) == [0, 1, 2, 3, 9, 10]
        assert registry.counter_value("checkpoints_total") == checkpoints
        del store
        reopened = DocumentStore(directory)
        assert sorted(reopened.document_ids()) == [0, 1, 2, 3, 9, 10]
        assert reopened.get_document(10) == Tree("y", 1)
        assert_store_is_rebuild(reopened)
        reopened.close()

    def test_ingesting_new_documents_does_not_checkpoint_per_document(
        self, tmp_path
    ):
        store, registry = _store_of(str(tmp_path / "store"), 0)
        checkpoints = registry.counter_value("checkpoints_total")
        wal_bytes = registry.counter_value("wal_bytes_total")
        for document_id in range(20):
            outcome = ingest_snapshot(
                store, document_id, build_random_tree(10, document_id)
            )
            assert outcome == ("added", 0)
        assert registry.counter_value("checkpoints_total") == checkpoints
        assert registry.counter_value("wal_bytes_total") > wal_bytes
        expected = _documents(store)
        del store
        assert _documents(DocumentStore(str(tmp_path / "store"))) == expected

    def test_a_ten_batch_build_checkpoints_at_most_twice(self, tmp_path):
        """400 one-record DBLP documents added in 10 batches: the
        creation's snapshot plus at most one the log pays for (it was
        11, one per batch and the creation's)."""
        registry = MetricsRegistry()
        store = DocumentStore(str(tmp_path / "store"), metrics=registry)
        documents = [(index, dblp_tree(1, seed=index)) for index in range(400)]
        for start in range(0, 400, 40):
            store.add_documents(documents[start : start + 40])
        assert registry.counter_value("checkpoints_total") <= 2
        assert len(store) == 400
        store.close()


# ----------------------------------------------------------------------
# a published document is never written
# ----------------------------------------------------------------------


def test_readers_never_see_a_batch_in_progress(tmp_path, monkeypatch):
    """``get_document`` takes no lock, so between any two steps of a
    commit it must return the last published version.  The maintenance
    engine walks the edited tree backwards in place and hashes labels
    as it goes: reading the document from inside the hasher samples
    every one of those moments without a thread."""
    store = DocumentStore(str(tmp_path / "store"), CONFIG)
    store.add_document(1, build_random_tree(40, seed=3))
    before = store.get_document(1)
    batch = list(
        EditScriptGenerator(rng=random.Random(11)).generate(before, 8)
    )
    seen = []
    hash_label = store.hasher.hash_label

    def hash_and_read(label):
        seen.append(store.get_document(1))
        return hash_label(label)

    monkeypatch.setattr(store.hasher, "hash_label", hash_and_read)
    store.apply_edits(1, batch)
    monkeypatch.undo()
    assert len(seen) > 8
    assert all(tree == before for tree in seen)
    after = store.get_document(1)
    assert after != before
    assert_store_is_rebuild(store)
    # Nor is the published tree ever the one a later batch validates on.
    with pytest.raises(EditError):
        store.apply_edits(1, [Rename(after.children(after.root_id)[0], "z"), Delete(after.root_id)])
    assert store.get_document(1) == after


# ----------------------------------------------------------------------
# what the checkpoint format leaves alone
# ----------------------------------------------------------------------


def test_a_scripted_session_keeps_its_wal_and_record_bytes(tmp_path):
    """The checkpoint file changed format; the WAL and the document
    records did not.  One scripted session — an add of two, an add of
    one, two edit batches, a removal — leaves the WAL and the records
    of its documents with the sha256 they had under the relstore
    snapshot."""
    import hashlib

    directory = str(tmp_path / "store")
    store = DocumentStore(directory, CONFIG)
    store.add_documents(
        [(1, tree_from_brackets("a(b(c,d),e)")), (2, tree_from_brackets("x(y,z)"))]
    )
    store.add_document(3, tree_from_brackets("naïve(☃,w(v))"))
    store.apply_edits(1, [Rename(2, "bb"), Insert(9, "n", 0, 2, 1)])
    store.apply_edits(3, [Delete(2)])
    store.remove_document(2)
    documents = _documents(store)
    del store  # every block stays in the WAL
    wal = Path(directory, "wal.log").read_bytes()
    records = b"".join(encode_document(documents[key]) for key in sorted(documents))
    assert (len(wal), hashlib.sha256(wal).hexdigest()) == (
        271,
        "f376446f7f4cea6ef3316418ac2474e940d791517d8de79f450e43ad45acbe6e",
    )
    assert (len(records), hashlib.sha256(records).hexdigest()) == (
        57,
        "e187c5ba8a479e0219e66bcabe7413293219dc58da667a3ee81057725dd9b073",
    )


def test_the_store_never_loads_the_relational_layer(tmp_path):
    """Creating, editing, checkpointing and reopening a store of the
    current format never imports the decoder of the relstore snapshots
    older versions wrote (``repro.service.rpdb``), nor anything outside
    ``src``; the same session over a ``store.db`` written in the old
    format does import the decoder, so the probe sees what it guards
    against.  Each session runs in a fresh interpreter with only
    ``src`` on the path, so nothing another test imported counts."""
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent(
        """
        import sys
        from repro.core import GramConfig
        from repro.edits import Rename
        from repro.service import DocumentStore
        from repro.tree import tree_from_brackets

        directory = sys.argv[1]
        store = DocumentStore(directory, GramConfig(2, 3))
        store.add_documents(
            [(11, tree_from_brackets("a(b,c)")), (12, tree_from_brackets("x(y)"))]
        )
        store.apply_edits(11, [Rename(2, "bb")])
        store.checkpoint()
        store.apply_edits(12, [Rename(1, "later")])
        del store
        reopened = DocumentStore(directory)
        assert reopened.get_document(12).label(1) == "later"
        reopened.checkpoint()
        reopened.close()
        loaded = sorted(
            name for name in sys.modules
            if name.startswith(("repro.service.rpdb", "tests"))
        )
        print(loaded)
        """
    )
    source = str(Path(__file__).resolve().parents[1] / "src")
    environment = dict(os.environ, PYTHONPATH=source)

    def session(directory):
        result = subprocess.run(
            [sys.executable, "-c", script, str(directory)],
            capture_output=True,
            text=True,
            env=environment,
            check=True,
        )
        return result.stdout.strip(), result.stderr

    loaded, errors = session(tmp_path / "current")
    assert loaded == "[]", loaded + errors
    legacy = tmp_path / "legacy"
    _small_store(str(legacy))
    path = legacy / "store.db"
    write_store_snapshot(str(path), read_checkpoint(str(path)))
    loaded, errors = session(legacy)
    assert loaded == "['repro.service.rpdb']", loaded + errors
