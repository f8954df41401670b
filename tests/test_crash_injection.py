"""Crash-injection: WAL torn at every byte offset of the final record.

The commit protocol claims a crash window anywhere after the WAL
append leaves the store recoverable: a batch whose COMMIT line made
it to disk is replayed, anything less is dropped wholesale.  This
suite makes the claim exhaustive — the WAL is truncated at *every*
byte offset across the final record and the store reopened each time;
reopening must never raise, and the recovered state must be
bit-identical to either the pre-batch or the post-batch store (no
third state, no partially applied batch) — and, whichever it is, every
recovered index must equal a from-scratch rebuild of its document.
The ``engine`` rows name the ``repro.core`` reference path
(``tests/conftest.py::reference_update``) the post-batch index is also
checked against.

Beyond byte offsets, ``test_crash_at_every_failpoint`` kills the store
at every named durable write (:mod:`repro.service.failpoints`) before,
after, or half-way through it, and ``test_eio_at_every_failpoint``
fails each of those writes with an I/O error the process survives: the
store must stop (fail-stop) and reopen to every acknowledged operation.
Both run with an edit batch in flight and with each membership change
— ``add_document``, a three-document ``add_documents``,
``remove_document`` — which is a WAL record of its own.
"""

import json
import os
import shutil
from functools import partial

import pytest

from repro.core import GramConfig, PQGramIndex
from repro.edits import apply_script
from repro.errors import StoreFailedError
from repro.service import DocumentStore, failpoints
from repro.service.record import encode_document
from repro.tree import tree_from_brackets
from repro.tree.builder import tree_to_brackets

from tests.conftest import (
    REFERENCE_ENGINES,
    assert_store_is_rebuild,
    reference_update,
    relation,
)

CONFIG = GramConfig(2, 3)
WAL = "wal.log"
# Row id → the DocumentStore keyword arguments of that row.  The ids
# name the storage backends stores once had; one is left, and each row
# runs it in a state the plain ``compact`` row does not reach.
# ``sharded`` and ``rel`` run on a live metrics registry, so the
# instrumented branches of every durable write crash and fail too.
# ``segment`` and ``rel`` (``FROZEN_ROWS``) freeze the CSR once
# document 1 is in, so later writes land in a live overlay over a frozen
# base holding document 1 when the failpoint fires; ``memory``
# (``FROZEN_EMPTY_ROWS``) freezes it before the first write, so the base
# is empty and every document lives in the overlay.
STORE_KINDS = {
    "memory": {},
    "compact": {},
    "sharded": {"metrics": True},
    "segment": {},
    "rel": {"metrics": True},
}
STORE_BACKENDS = list(STORE_KINDS)
FROZEN_ROWS = {"segment", "rel"}
FROZEN_EMPTY_ROWS = {"memory"}


def open_row_store(directory, backend, document="a(b(c,d),e(f))", **options):
    """A new store as the row ``backend`` opens it, holding ``document``
    as document 1; a frozen row freezes it before or after that first
    write, so every later write lands in the overlay."""
    store = DocumentStore(directory, CONFIG, **STORE_KINDS[backend], **options)
    if backend in FROZEN_EMPTY_ROWS:
        store._forest.compact()
    store.add_document(1, tree_from_brackets(document))
    if backend in FROZEN_ROWS:
        store._forest.compact()
    return store


def reopen(directory, backend):
    """Open an existing store directory as the row ``backend`` does."""
    return DocumentStore(
        directory, CONFIG, metrics=STORE_KINDS[backend].get("metrics")
    )


def store_state(store):
    """Bit-identical comparison key: every document's exact node
    structure plus the full index relation."""
    documents = {}
    for document_id in store.document_ids():
        tree = store.get_document(document_id)
        documents[document_id] = sorted(
            (node_id, tree.parent(node_id), tree.label(node_id))
            for node_id in tree.node_ids()
        )
    return documents, relation(store._forest.backend)


def build_store(directory):
    from repro.edits import Insert, Rename

    store = DocumentStore(directory, CONFIG)
    store.add_document(1, tree_from_brackets("a(b(c,d),e(f))"))
    store.add_document(2, tree_from_brackets("x(y,z)"))
    # One committed batch before the final record, so recovery always
    # has a prefix to replay regardless of where the tail is torn.
    store.apply_edits(1, [Rename(2, "bb"), Insert(8, "g", 1, 1, 0)])
    return store


def apply_checked(store, engine, batch):
    """``apply_edits`` on document 1; the resulting live index must
    equal what the named reference algorithm computes from the previous
    index and the inverse log."""
    _, expected = reference_update(
        engine, store.get_index(1), store.get_document(1), batch
    )
    store.apply_edits(1, batch)
    assert store.get_index(1) == expected


def apply_final_batch(store, engine):
    """The batch whose WAL record the sweeps tear."""
    from repro.edits import Delete, Rename

    apply_checked(store, engine, [Rename(1, "aa"), Delete(3), Rename(5, "ff")])


@pytest.mark.parametrize("engine", REFERENCE_ENGINES)
def test_truncate_every_offset_of_final_record(tmp_path, engine):
    origin = str(tmp_path / "origin")
    store = build_store(origin)
    pre_batch = store_state(store)
    wal_path = os.path.join(origin, WAL)
    final_record_start = os.path.getsize(wal_path)

    apply_final_batch(store, engine)
    post_batch = store_state(store)
    wal_size = os.path.getsize(wal_path)
    assert wal_size > final_record_start
    assert pre_batch != post_batch

    recovered_pre = recovered_post = 0
    for offset in range(final_record_start, wal_size + 1):
        workdir = str(tmp_path / f"crash_{engine}_{offset}")
        shutil.copytree(origin, workdir)
        with open(os.path.join(workdir, WAL), "r+b") as handle:
            handle.truncate(offset)
        # must never raise
        reopened = DocumentStore(workdir, CONFIG)
        assert_store_is_rebuild(reopened)
        state = store_state(reopened)
        if state == post_batch:
            recovered_post += 1
        else:
            assert state == pre_batch, (
                f"torn WAL at offset {offset} recovered a third state"
            )
            recovered_pre += 1
        shutil.rmtree(workdir)
    # Both outcomes must actually occur across the sweep: tears before
    # the COMMIT sentinel and its checksum are whole roll back; once
    # their text is fully on disk (trailing newline or not) the batch
    # replays.
    assert recovered_pre + recovered_post == wal_size + 1 - final_record_start
    assert recovered_post == 2  # "...COMMIT <crc32>" and "...COMMIT <crc32>\n"
    assert recovered_pre == wal_size - 1 - final_record_start


@pytest.mark.parametrize("engine", REFERENCE_ENGINES)
def test_truncation_inside_earlier_record_drops_the_tail(tmp_path, engine):
    """A tear inside an *earlier* record invalidates everything after
    it too — recovery stops at the first non-committed block instead of
    resynchronizing on a later BEGIN.  The tear is inside the first of
    two records appended after a reopen: the WAL the reopen kept (it
    replays and rewrites nothing) was fsynced before, and a crash
    cannot tear it."""
    from repro.edits import Rename

    origin = str(tmp_path / "origin")
    store = build_store(origin)
    wal_path = os.path.join(origin, WAL)
    reopened = DocumentStore(origin, CONFIG)
    reopen_state = store_state(reopened)
    kept = os.path.getsize(wal_path)
    assert kept > 0  # the reopen replayed build_store's batch, in place
    apply_checked(reopened, engine, [Rename(2, "q1")])
    middle_state = store_state(reopened)
    first_end = os.path.getsize(wal_path)
    apply_checked(reopened, engine, [Rename(2, "q2")])
    # Tear a few bytes into the FIRST of the two new records (offset
    # ``first_end - 2`` cuts the last digit of its COMMIT line's
    # checksum; one byte later the line is complete and the batch would
    # commit).
    for offset in (kept + 1, first_end - 2):
        workdir = str(tmp_path / f"tail_{engine}_{offset}")
        shutil.copytree(origin, workdir)
        with open(os.path.join(workdir, WAL), "r+b") as handle:
            handle.truncate(offset)
        recovered = DocumentStore(workdir, CONFIG)
        assert_store_is_rebuild(recovered)
        assert store_state(recovered) == reopen_state
        shutil.rmtree(workdir)
    # Torn exactly on the record boundary: the first batch survives.
    workdir = str(tmp_path / f"tail_{engine}_boundary")
    shutil.copytree(origin, workdir)
    with open(os.path.join(workdir, WAL), "r+b") as handle:
        handle.truncate(first_end)
    recovered = DocumentStore(workdir, CONFIG)
    assert_store_is_rebuild(recovered)
    assert store_state(recovered) == middle_state


def _replay_notifications(initial, events, query_id):
    """A subscriber's view: fold the drained events over the matches it
    held before the crash.  The enter/leave preconditions double as the
    no-duplicate/no-drop check — a double-delivered enter or a dropped
    leave trips the assertions."""
    members = dict(initial)
    for event in events:
        if event.query_id != query_id:
            continue
        if event.kind == "enter":
            assert event.document_id not in members, "double-delivered enter"
            members[event.document_id] = event.distance
        elif event.kind == "leave":
            assert event.document_id in members, "leave without membership"
            del members[event.document_id]
        else:
            assert event.document_id in members, "update without membership"
            members[event.document_id] = event.distance
    return sorted(members.items(), key=lambda pair: (pair[1], pair[0]))


@pytest.mark.parametrize("engine", REFERENCE_ENGINES)
def test_standing_state_survives_torn_wal(tmp_path, engine):
    """Subscriptions and the notification frontier ride the same
    snapshot/WAL protocol as the documents: torn at every byte offset
    of the final record, the reopened store must still hold the
    subscription, its membership must equal full re-evaluation over
    the recovered documents, and the recovery catch-up events folded
    over the pre-crash matches must land exactly there — never a
    double delivery, never a drop."""
    from repro.query import ApproxLookup

    origin = str(tmp_path / "origin")
    store = build_store(origin)
    # A query at distance 0 of document 1's current state: a member
    # now, evicted once the final batch rewrites the document.
    plan = ApproxLookup(store.get_document(1), 0.3)
    pre_matches = store.subscribe("crashy", plan)  # checkpoints (WAL empty)
    assert [match[0] for match in pre_matches] == [1]
    wal_path = os.path.join(origin, WAL)
    final_record_start = os.path.getsize(wal_path)
    assert final_record_start == 0  # subscribe truncated the WAL

    apply_final_batch(store, engine)
    post_batch = store_state(store)
    post_matches = store.standing_matches("crashy")
    assert post_matches != pre_matches  # the batch moves the membership
    wal_size = os.path.getsize(wal_path)

    for offset in range(final_record_start, wal_size + 1):
        workdir = str(tmp_path / f"standing_{engine}_{offset}")
        shutil.copytree(origin, workdir)
        with open(os.path.join(workdir, WAL), "r+b") as handle:
            handle.truncate(offset)
        # must never raise
        reopened = DocumentStore(workdir, CONFIG)
        assert_store_is_rebuild(reopened)
        assert reopened.standing_query_ids() == ["crashy"]
        recovered_matches = reopened.standing_matches("crashy")
        assert recovered_matches == reopened.query(plan).matches
        committed = store_state(reopened) == post_batch
        assert recovered_matches == (
            post_matches if committed else pre_matches
        )
        events = reopened.drain_notifications()
        assert _replay_notifications(
            pre_matches, events, "crashy"
        ) == recovered_matches
        if not committed:
            assert events == []  # nothing to catch up on
        reopened.close()
        # Recovery checkpointed the reconciled frontier: a second
        # reopen owes the subscriber nothing.
        again = DocumentStore(workdir, CONFIG)
        assert again.drain_notifications() == []
        assert again.standing_matches("crashy") == recovered_matches
        again.close()
        shutil.rmtree(workdir)


@pytest.mark.parametrize("backend", ["compact", "segment"])
def test_crash_between_snapshot_rename_and_wal_truncation(tmp_path, backend):
    """A checkpoint renames the new snapshot into place and then
    truncates the WAL; a crash in between leaves a snapshot that
    already holds every batch of an untruncated WAL.  Replaying them
    again would fail on the first insert (``node id … already
    exists``) and keep the store from ever opening: blocks stamped at
    or below the snapshot's commit sequence are skipped instead."""
    from repro.edits import Insert, Rename

    directory = str(tmp_path / "store")
    store = open_row_store(directory, backend)
    for round_ in range(5):
        new_id = 40 + round_
        store.apply_edits(
            1,
            [
                Insert(new_id, "n", 0, 1, 0),
                Rename(new_id, f"n{round_}"),
                Rename(1, f"b{round_}"),
            ],
        )
    acknowledged = store_state(store)
    wal_path = os.path.join(directory, WAL)
    kept = str(tmp_path / "wal.kept")
    shutil.copy(wal_path, kept)
    store.checkpoint()
    assert os.path.getsize(wal_path) == 0
    shutil.copy(kept, wal_path)  # the truncation never happened
    del store

    reopened = DocumentStore(directory, CONFIG)
    assert store_state(reopened) == acknowledged
    assert_store_is_rebuild(reopened)
    # The stale blocks stay in the WAL until the next checkpoint; a
    # batch committed after them must still be found behind them.
    reopened.apply_edits(1, [Rename(1, "after")])
    after = store_state(reopened)
    assert after != acknowledged
    del reopened
    again = DocumentStore(directory, CONFIG)
    assert store_state(again) == after
    assert_store_is_rebuild(again)
    again.close()


@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_write_after_a_torn_tail_survives_the_next_crash(tmp_path, backend):
    """A crash can tear the first block written after a checkpoint.  The
    open that finds it has nothing to replay and so no reason to
    rewrite anything — it must still cut the torn bytes, or the next
    acknowledged batch lands behind them and the recovery after that
    stops at the tear.  A tear that took only the COMMIT line's newline
    leaves a committed block, whose newline the open restores."""
    from repro.edits import Rename

    origin = str(tmp_path / "origin")
    store = open_row_store(origin, backend, "a(b,c)")
    store.checkpoint()
    store.apply_edits(1, [Rename(1, "torn")])
    block = os.path.getsize(os.path.join(origin, WAL))
    del store
    for cut in (1, block // 2, block - 2, block - 1):
        workdir = str(tmp_path / f"cut_{cut}")
        shutil.copytree(origin, workdir)
        with open(os.path.join(workdir, WAL), "r+b") as handle:
            handle.truncate(cut)
        reopened = reopen(workdir, backend)
        committed = cut == block - 1
        assert reopened.get_document(1).label(1) == ("torn" if committed else "b")
        reopened.apply_edits(1, [Rename(2, "after")])  # acknowledged
        acknowledged = store_state(reopened)
        del reopened  # crash
        recovered = reopen(workdir, backend)
        assert store_state(recovered) == acknowledged
        assert_store_is_rebuild(recovered)
        recovered.close()
        shutil.rmtree(workdir)


# The operation in flight when a durable write fails: the edit batch
# every row always had (its ids carry no suffix), or one membership
# change — a one-document add, a three-document add, a removal.
OPERATIONS = ("apply_edits", "add_document", "add_documents", "remove_document")
# What a crash tore off the end of the WAL, for the ``recover.*`` cases.
TORN_TAILS = {
    "apply_edits": b"BEGIN 1 1 99\nREN 1 ",
    "add_document": b"ADD 1 99\n7 AAAB",
    "add_documents": b"ADD 3 99\n7 AAAB\n8 ",
    "remove_document": b"DROP 2 99\nCOMM",
}
# Membership rows lower the checkpoint floor so that records of a few
# dozen bytes reach it within a few rounds; removals take the
# documents a row prepared.
MEMBERSHIP_FLOOR = 512
PREPARED = range(100, 140)


def _failpoint_cases():
    for operation in OPERATIONS:
        suffix = "" if operation == "apply_edits" else f"-{operation}"
        for point in failpoints.POINTS:
            modes = [failpoints.CRASH_BEFORE, failpoints.CRASH_AFTER]
            if point in failpoints.WRITE_POINTS:
                modes.append(failpoints.SHORT_WRITE)
            for mode in modes:
                yield pytest.param(
                    operation, point, mode, id=f"{point}-{mode}{suffix}"
                )


def _eio_cases():
    for operation in OPERATIONS:
        suffix = "" if operation == "apply_edits" else f"-{operation}"
        for point in failpoints.POINTS:
            yield pytest.param(operation, point, id=f"{point}{suffix}")


_WAL_APPEND = ("wal.write", "wal.flush", "wal.fsync")


def _committed(point, mode):
    """Whether the operation in flight had passed its commit point, the
    WAL fsync, when the process died.  Every point past the WAL append
    belongs to the checkpoint that operation triggered."""
    return point not in _WAL_APPEND or (
        point == "wal.fsync" and mode == failpoints.CRASH_AFTER
    )


def _documents(store):
    return {
        document_id: store.get_document(document_id)
        for document_id in store.document_ids()
    }


def _open_row(directory, backend, operation, monkeypatch):
    """The store every matrix row starts from: two documents and one
    acknowledged batch; a membership row also lowers the checkpoint
    floor and, for removals, adds the documents it will remove."""
    from repro.edits import Rename
    from repro.service import store as store_module

    store = open_row_store(directory, backend)
    store.add_document(2, tree_from_brackets("x(y,z)"))
    store.apply_edits(2, [Rename(2, "acked")])
    if operation != "apply_edits":
        monkeypatch.setattr(store_module, "WAL_CHECKPOINT_FLOOR", MEMBERSHIP_FLOOR)
    if operation == "remove_document":
        store.add_documents(
            [(document_id, tree_from_brackets("p(q)")) for document_id in PREPARED]
        )
    return store


def _round(store, operation, round_number, documents):
    """Start one round of the row's operation; returns the documents
    the store holds once it commits, whether or not it gets there."""
    from repro.edits import Rename

    after = dict(documents)
    if operation == "apply_edits":
        # Blocks of ≈ 16 KiB: the fifth carries the WAL past the floor.
        batch = [Rename(1, f"{round_number}" + "x" * 16_000)]
        after[1] = apply_script(documents[1], batch)[0]
        return after, partial(store.apply_edits, 1, batch)
    if operation == "remove_document":
        document_id = PREPARED[round_number]
        del after[document_id]
        return after, partial(store.remove_document, document_id)
    count = 3 if operation == "add_documents" else 1
    added = [
        (200 + 3 * round_number + k, tree_from_brackets(f"n{round_number}(a{k},b)"))
        for k in range(count)
    ]
    after.update(added)
    if operation == "add_document":
        return after, partial(store.add_document, *added[0])
    return after, partial(store.add_documents, added)


@pytest.mark.parametrize("backend", ["memory", "compact", "sharded", "segment"])
@pytest.mark.parametrize(("operation", "point", "mode"), list(_failpoint_cases()))
def test_crash_at_every_failpoint(tmp_path, monkeypatch, backend, operation, point, mode):
    """The machine dies at one durable write.  The directory it leaves
    — everything written so far, except that the WAL keeps only what
    its last fsync covered, plus the torn half of a short write — must
    reopen to every acknowledged operation (the in-flight one too once
    it committed), to nothing unacknowledged — a three-document add
    whole or not at all — and to indexes equal to a from-scratch build
    of each document; and the recovered store must take a write that
    survives the next crash.  WAL points crash the first operation;
    snapshot and truncation points the checkpoint the WAL reaching its
    threshold triggers; ``recover.*`` points the open that cuts a torn
    tail."""
    from repro.edits import Rename

    origin = str(tmp_path / "origin")
    image = str(tmp_path / "image")
    store = _open_row(origin, backend, operation, monkeypatch)
    acknowledged = _documents(store)
    wal_path = os.path.join(origin, WAL)
    durable = os.path.getsize(wal_path)  # every append so far was fsynced
    in_flight = None

    def crash():
        shutil.copytree(origin, image)
        if (
            point in _WAL_APPEND
            and not _committed(point, mode)
            and mode != failpoints.SHORT_WRITE
        ):
            with open(os.path.join(image, WAL), "r+b") as handle:
                handle.truncate(durable)

    if point.startswith("recover."):
        del store
        with open(wal_path, "ab") as handle:
            handle.write(TORN_TAILS[operation])
        with failpoints.armed(point, mode, crash):
            with pytest.raises(failpoints.Crash):
                reopen(origin, backend)
    else:
        with failpoints.armed(point, mode, crash):
            with pytest.raises(failpoints.Crash):
                for round_number in range(len(PREPARED)):
                    in_flight, call = _round(
                        store, operation, round_number, acknowledged
                    )
                    call()
                    acknowledged = _documents(store)
                    assert acknowledged == in_flight
                    durable = os.path.getsize(wal_path)
        del store
    expected = dict(acknowledged)
    if in_flight is not None and _committed(point, mode):
        expected = in_flight

    def assert_recovered(store):
        assert _documents(store) == expected
        for document_id, document in expected.items():
            assert store.get_index(document_id) == PQGramIndex.from_tree(
                document, store.config, store.hasher
            )

    recovered = reopen(image, backend)
    assert_recovered(recovered)
    recovered.apply_edits(2, [Rename(1, "later")])
    expected[2] = recovered.get_document(2)
    del recovered  # crash
    again = reopen(image, backend)
    assert_recovered(again)
    again.close()


def _checkpoint_cases():
    for point in failpoints.POINTS:
        if point.startswith("database."):
            for mode in (failpoints.CRASH_BEFORE, failpoints.CRASH_AFTER):
                yield point, mode
            if point in failpoints.WRITE_POINTS:
                yield point, failpoints.SHORT_WRITE


@pytest.mark.parametrize(("point", "mode"), list(_checkpoint_cases()))
def test_a_crashed_checkpoint_leaves_no_partial_store(tmp_path, monkeypatch, point, mode):
    """The machine dies while a checkpoint writes ``store.db``, whose
    documents span many compressed blocks.  ``store.db`` then holds
    the previous checkpoint or the new one, whole; a temp file left
    beside it holds the new one whole or is refused with
    :class:`CodecError` — a half-written file never reads as a store
    with part of its documents."""
    from repro.errors import CodecError
    from repro.service import checkpoint as checkpoint_module
    from repro.service.checkpoint import decode_checkpoint, read_checkpoint

    monkeypatch.setattr(checkpoint_module, "BLOCK_BYTES", 64)
    directory = str(tmp_path / "store")
    snapshot = os.path.join(directory, "store.db")
    store = DocumentStore(directory, CONFIG)
    store.add_documents(
        [(k, tree_from_brackets(f"r{k}(a(b,c),d{k % 5})")) for k in range(20)]
    )
    store.checkpoint()
    old = read_checkpoint(snapshot)
    store.add_documents(
        [(k, tree_from_brackets(f"s{k}(x,y(z))")) for k in range(20, 32)]
    )
    store.remove_document(3)
    new_documents = {
        document_id: encode_document(store.get_document(document_id))
        for document_id in store.document_ids()
    }
    left = {}

    def crash():
        for name in ("store.db", "store.db.tmp"):
            path = os.path.join(directory, name)
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    left[name] = handle.read()

    with failpoints.armed(point, mode, crash):
        with pytest.raises(failpoints.Crash):
            store.checkpoint()
    durable = decode_checkpoint(left["store.db"])
    if durable.commit_seq == old.commit_seq:
        assert durable == old
    else:
        assert dict(durable.documents) == new_documents
    temp = left.get("store.db.tmp")
    if temp is not None:
        try:
            written = decode_checkpoint(temp)
        except CodecError:
            assert mode == failpoints.SHORT_WRITE or not temp
        else:
            assert dict(written.documents) == new_documents
            assert written.commit_seq == store._commit_seq


@pytest.mark.parametrize("serving", [False, True], ids=["sync", "serving"])
@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_failed_fsync_stops_the_store(tmp_path, backend, serving):
    """A WAL fsync that fails leaves the block in the file with a commit
    sequence the store has not counted.  Were the store to take the
    next batch, that batch would reuse the sequence, and recovery would
    apply the refused batch and drop the acknowledged one as a
    duplicate.  Instead the store stops: the failed batch and every
    later mutation raise :class:`StoreFailedError`, reads serve the last
    published state, and the reopened store holds the refused batch
    whole or not at all — and nothing it never acknowledged."""
    from repro.edits import Delete, Rename
    from repro.query import ApproxLookup

    # A membership change is a WAL record too: its fsync is its commit
    # point, and a failed one stops the store before anything is
    # published.
    membership = {
        "add_document": lambda store: store.add_document(
            2, tree_from_brackets("x")
        ),
        "add_documents": lambda store: store.add_documents(
            [(3, tree_from_brackets("y")), (4, tree_from_brackets("w"))]
        ),
        "remove_document": lambda store: store.remove_document(1),
    }
    for name, mutation in membership.items():
        other = open_row_store(
            str(tmp_path / name), backend, "a(b,c)", serve_threads=2 if serving else 0
        )
        with failpoints.armed("wal.fsync", failpoints.EIO):
            with pytest.raises(StoreFailedError, match="injected I/O error at wal.fsync"):
                mutation(other)
        assert other.stats()["failed"]
        assert list(other.document_ids()) == [1]
        other.close()

    directory = str(tmp_path / "store")
    store = open_row_store(
        directory, backend, "a(b,c)", serve_threads=2 if serving else 0
    )
    published = store.get_document(1)
    with failpoints.armed("wal.fsync", failpoints.EIO):
        with pytest.raises(StoreFailedError):
            store.apply_edits(1, [Delete(1)])
    assert store.stats()["failed"]
    if STORE_KINDS[backend].get("metrics"):
        assert store.metrics()["gauges"]["store_failed"] == 1
    with pytest.raises(StoreFailedError):
        store.apply_edits(1, [Rename(2, "z")])
    refused = [
        lambda: store.add_document(2, tree_from_brackets("x")),
        lambda: store.add_documents([(3, tree_from_brackets("y"))]),
        lambda: store.remove_document(1),
        lambda: store.subscribe("q", ApproxLookup(published, 0.5)),
        lambda: store.unsubscribe("q"),
        store.checkpoint,
    ]
    for mutation in refused:
        with pytest.raises(StoreFailedError):
            mutation()
    assert list(store.document_ids()) == [1]
    assert store.get_document(1) == published
    assert store.lookup(published, 0.1).tree_ids() == [1]
    wal_bytes = os.path.getsize(os.path.join(directory, WAL))
    store.close()  # no checkpoint: the WAL keeps its bytes
    assert os.path.getsize(os.path.join(directory, WAL)) == wal_bytes

    reopened = reopen(directory, backend)
    assert not reopened.stats()["failed"]
    assert list(reopened.document_ids()) == [1]
    assert tree_to_brackets(reopened.get_document(1)) in ("a(b,c)", "a(c)")
    assert_store_is_rebuild(reopened)
    reopened.apply_edits(1, [Rename(2, "z")])  # the way out
    acknowledged = store_state(reopened)
    del reopened
    again = reopen(directory, backend)
    assert store_state(again) == acknowledged
    again.close()


@pytest.mark.parametrize("backend", STORE_BACKENDS)
@pytest.mark.parametrize(("operation", "point"), list(_eio_cases()))
def test_eio_at_every_failpoint(tmp_path, monkeypatch, backend, operation, point):
    """Each durable write fails once with ``EIO`` and the process lives
    on.  The store stops at the first failure; reopened, it holds every
    acknowledged operation, the operation in flight whole or not at all,
    and indexes equal to a from-scratch build — and it takes writes
    again.  A checkpoint that fails after its operation's WAL append
    was fsynced reports that operation committed.  ``recover.*``
    points fail the open that cuts a torn tail."""
    from repro.edits import Rename

    directory = str(tmp_path / "store")
    store = _open_row(directory, backend, operation, monkeypatch)
    acknowledged = _documents(store)
    in_flight = None
    if point.startswith("recover."):
        del store
        with open(os.path.join(directory, WAL), "ab") as handle:
            handle.write(TORN_TAILS[operation])
        with failpoints.armed(point, failpoints.EIO):
            with pytest.raises(StoreFailedError):
                reopen(directory, backend)
    else:
        with failpoints.armed(point, failpoints.EIO):
            for round_number in range(len(PREPARED)):
                in_flight, call = _round(store, operation, round_number, acknowledged)
                try:
                    call()
                except StoreFailedError:
                    break
                acknowledged = _documents(store)
                assert acknowledged == in_flight
            else:
                pytest.fail(f"{point} never ran")
        assert store.stats()["failed"]
        if STORE_KINDS[backend].get("metrics"):
            assert store.metrics()["gauges"]["store_failed"] == 1
        # A failed append publishes nothing; a failed checkpoint fails
        # the store after its operation was acknowledged.
        assert _documents(store) == acknowledged
        with pytest.raises(StoreFailedError):
            store.apply_edits(2, [Rename(1, "refused")])
        store.close()
    outcomes = [acknowledged]
    if point in _WAL_APPEND:
        # The operation in flight hit the error: outcome unknown.  Past
        # the append, the operation that raised was refused by a failed
        # store.
        outcomes.append(in_flight)

    recovered = reopen(directory, backend)
    assert _documents(recovered) in outcomes
    assert_store_is_rebuild(recovered)
    recovered.apply_edits(2, [Rename(1, "later")])
    later = store_state(recovered)
    del recovered  # crash
    again = reopen(directory, backend)
    assert store_state(again) == later
    assert_store_is_rebuild(again)
    again.close()


def test_parent_format_homes_are_deleted_never_read(tmp_path):
    """Stores used to keep a second, durable copy of the index for the
    retired ``segment`` backend (``segments/`` with ``MANIFEST.json``, a
    sealed segment and a delta log) and the retired ``rel`` backend
    (``rel/rel.db``).  A directory holding both, plus a WAL tail, opens
    to indexes equal to a rebuild — the planted homes hold bytes that
    match no document — and keeps no home directory."""
    from repro.edits import Rename
    from tests.support.relstore.schema import Column, Schema

    from tests.support.rpdb import Database

    wrong = {1: {(7, 7, 7, 7, 7): 3}, 2: {(8, 8, 8, 8, 8): 1}}
    directory = str(tmp_path / "store")
    store = DocumentStore(directory, CONFIG)
    store.add_document(1, tree_from_brackets("a(b(c,d),e(f))"))
    store.add_document(2, tree_from_brackets("x(y,z)"))
    store.apply_edits(1, [Rename(2, "tail")])
    del store  # the rename is in the WAL tail only

    segments = os.path.join(directory, "segments")
    os.makedirs(segments, exist_ok=True)
    with open(os.path.join(segments, "segment-00000001.seg"), "wb") as handle:
        handle.write(b"RSEGIDX1" + bytes(range(256)) * 4)
    with open(os.path.join(segments, "MANIFEST.json"), "w") as handle:
        json.dump(
            {
                "format": 1,
                "generation": 1,
                "segment": "segment-00000001.seg",
                "sealed_seq": 99,
                "source": None,
            },
            handle,
        )
    with open(os.path.join(segments, "delta-00000001.log"), "wb") as handle:
        handle.write(b"\x10\x00\x00\x00" + b"\x00" * 20)
    rel = Database()
    sizes = rel.create_table(
        "sizes",
        Schema([Column("treeId", int), Column("size", int), Column("seq", int)]),
        ("treeId",),
    )
    postings = rel.create_table(
        "postings",
        Schema([Column("treeId", int), Column("pqg", tuple), Column("cnt", int)]),
        ("treeId", "pqg"),
    )
    rel.create_table(
        "meta", Schema([Column("key", str), Column("value", str)]), ("key",)
    )
    for tree_id, bag in wrong.items():
        sizes.insert_row((tree_id, sum(bag.values()), 99))
        for key, count in bag.items():
            postings.insert_row((tree_id, key, count))
    os.makedirs(os.path.join(directory, "rel"), exist_ok=True)
    rel.save(os.path.join(directory, "rel", "rel.db"))

    reopened = DocumentStore(directory, CONFIG)
    assert reopened.get_document(1).label(2) == "tail"
    assert_store_is_rebuild(reopened)
    assert not os.path.exists(segments)
    assert not os.path.exists(os.path.join(directory, "rel"))
    reopened.close()
