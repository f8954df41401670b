"""The durable document store.

On-disk layout inside the store directory::

    store.db     the checkpoint (:mod:`repro.service.checkpoint`): a
                 META block (p, q, the commit sequence folded in), the
                 documents' self-contained binary records (see
                 :func:`~repro.service.record.encode_document`) in
                 zlib-compressed blocks, one block per standing query
                 and an END block with the counts, each block sealed by
                 a CRC32
    wal.log      append-only log of committed changes, one block each,
                 every block closed by ``COMMIT <crc32>`` (eight hex
                 digits over the block's bytes before that line):
                 ``BEGIN <doc> <count> <seq>`` + one line per operation
                 (an edit batch), ``ADD <count> <seq>`` + one
                 ``<doc> <base64 record>`` line per document (documents
                 added together), ``DROP <doc> <seq>`` (a removal)

The documents and the WAL are the only durable state.  Every index is
derived from them, never persisted, and built when the store opens —
each bag straight from the document's record
(:func:`~repro.service.record.record_bag`), cheaper than reading the
relation back.  The open removes, unread, the ``segments/`` and
``rel/`` directories in which older stores kept index state.

In memory the store holds every document as its record until something
needs the tree — an edit batch, a read of the document (``get_document``,
the wire's ``show``) or a structural predicate, of a query or of a
standing query — and keeps the decoded tree from then on.  Most
documents of a large collection are never decoded at all.

Commit protocol for ``apply_edits`` (one write path: a synchronous
call is a group commit of one, a serving-mode call joins whatever the
appender thread drained with it):

1. validate every batch of the group against a copy-on-write copy of
   its document — a batch that does not apply fails alone and logs
   nothing,
2. append the valid batches (document id, commit sequence, serialized
   operations) to the WAL and fsync — they are now durable,
3. incrementally maintain each index through the maintenance engine
   (log compaction + one backward walk + single O(|Δ|) apply; exact
   for every valid log, including ``Move``) and publish the edited
   documents,
4. checkpoint (write a fresh snapshot and truncate the WAL) once the
   WAL written since the last snapshot reaches
   :data:`WAL_CHECKPOINT_SHARE` of that snapshot's payload bytes
   (its blocks before compression), and never below
   :data:`WAL_CHECKPOINT_FLOOR` bytes — the rewrite of ``store.db`` is
   paid for by a log proportional to it, so an edit's durable cost
   does not grow with the collection, and how well the documents
   compress does not change how often it runs.  The store keeps
   the encoded record of every document that has not changed since it
   was last encoded, so a checkpoint serialises only the documents
   dirtied since the previous one.

``add_document``/``add_documents`` and ``remove_document`` take the
same road: one ``ADD`` or ``DROP`` block, one append, one fsync, then
the change is published and indexed.  An ``ADD`` block carries each
document's :func:`encode_document` record — exactly what the next
checkpoint writes for it, so that checkpoint encodes nothing for an
added document — and is all-or-nothing for the whole batch.  Step 4
follows as for edits: a record that carries the WAL to the threshold
triggers the checkpoint.  Only ``subscribe``, ``unsubscribe`` and
``close`` checkpoint at once.

The store fails stop.  An error from any durable write — the WAL
write, flush or fsync, the checkpoint write or the WAL truncation — marks
it *failed*: after an fsync error the file's state is unknown, so a
commit sequence that may already be on disk must never be reused.
The write that hit the error raises
:class:`~repro.errors.StoreFailedError` (outcome unknown); every later
mutation raises it without touching the disk, reads keep serving the
last published state, ``close`` skips its checkpoint, and reopening
is the only way out.  A checkpoint that fails after its group's WAL
append was fsynced fails the store, yet that group's batches are
reported committed — they are.

``open`` loads the snapshot's records, applies to them the WAL blocks
stamped past the snapshot's commit sequence, in order (blocks the
snapshot already covers — a crash between the snapshot rename and the
WAL truncation leaves them behind — are skipped; only the documents an
edit batch names are decoded), and only then builds the forest, once,
from the final documents.  A half-written
trailing block (the crash window; it never acknowledged) is cut off
the WAL and the file fsynced, so later appends cannot land behind
bytes replay stops at.  A block that does not read back — a checksum
that does not match, a line that does not parse — is such a tear only
when nothing complete follows it; with a complete block behind it the
file is damaged, and the open raises :class:`~repro.errors.CodecError`
and cuts nothing.  Blocks with a bare ``COMMIT`` line, written by
older stores, still replay.  Replaying rewrites nothing else — the WAL
stays and keeps counting toward the next checkpoint.  A damaged
``store.db`` — any block whose CRC32 does not match, a file cut short
— raises :class:`~repro.errors.CodecError`, never opens a partial
store.

Snapshots older versions wrote — a relstore ``Database`` file (magic
``RPDB\x02``, or ``RPDB\x01`` without a checksum) holding the
``documents`` relation or, older still, a ``nodes`` row per node and
an ``indexes`` relation — still open through
:mod:`repro.service.rpdb`: the documents are read, every index row and
``meta`` row but p, q and ``commit_seq`` (a ``backend``, say) ignored,
and the open checkpoints the current form.
"""

from __future__ import annotations

import base64
import os
import shutil
import threading
import zlib
from typing import (
    BinaryIO,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.concurrency.coalesce import PendingBatch, WriteCoalescer
from repro.concurrency.refreeze import RefreezeWorker
from repro.core.config import GramConfig
from repro.core.index import Bag, PQGramIndex, tree_bag
from repro.edits.ops import EditOperation
from repro.edits.script import EditScript
from repro.edits.serialize import format_operations, parse_operations
from repro.errors import (
    CodecError,
    ReproError,
    StorageError,
    StoreFailedError,
)
from repro.lookup.forest import ForestIndex
from repro.lookup.service import LookupResult, LookupService
from repro.obsv.metrics import Counter, MetricsRegistry, resolve_registry
from repro.service import failpoints
from repro.service.checkpoint import (
    encode_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.service.record import (
    decode_document,
    encode_document,
    parse_record,
    record_bag,
    record_node_count,
)
from repro.stream.standing import Notification, StandingQueryEngine
from repro.tree.tree import Tree

_SNAPSHOT = "store.db"
_WAL = "wal.log"

# The checkpoint trigger: the WAL written since the last snapshot has
# reached this share of the snapshot's size, and at least the floor.
# The share keeps the rewrite's cost per logged byte constant as the
# collection grows and bounds replay on open to a fixed fraction of the
# snapshot; the floor keeps a small store from checkpointing every few
# batches.  Chosen from the share × floor table in EXPERIMENTS.md.
WAL_CHECKPOINT_SHARE = 0.5
WAL_CHECKPOINT_FLOOR = 64 * 1024

# Where older stores kept index state in the store directory: removed
# on every open.
_DERIVED_DIRS = ("segments", "rel")


# ----------------------------------------------------------------------
# WAL blocks
# ----------------------------------------------------------------------


class WalRecord(NamedTuple):
    """One committed WAL block.  ``kind`` is ``"BEGIN"`` (an edit batch
    on ``document_id``), ``"ADD"`` (``documents``: ``(id,
    encode_document record)`` pairs, added together) or ``"DROP"``
    (``document_id`` removed).  ``seq`` is ``None`` for the unstamped
    blocks older stores wrote."""

    kind: str
    seq: Optional[int]
    document_id: Optional[int] = None
    operations: Sequence[EditOperation] = ()
    documents: Sequence[Tuple[int, bytes]] = ()


def _sealed(text: str) -> bytes:
    """A WAL block: its header and body lines, closed by the COMMIT
    line that carries their CRC32."""
    data = text.encode("utf-8")
    return data + b"COMMIT %08x\n" % zlib.crc32(data)


def edit_block(
    document_id: int, operations: Sequence[EditOperation], seq: int
) -> bytes:
    """The block of one edit batch."""
    return _sealed(
        f"BEGIN {document_id} {len(operations)} {seq}\n"
        + format_operations(operations)
        + ("\n" if operations else "")
    )


def add_block(records: Sequence[Tuple[int, bytes]], seq: int) -> bytes:
    """The block of documents added together, each ``(id,
    encode_document record)``; it commits all of them or none."""
    return _sealed(
        f"ADD {len(records)} {seq}\n"
        + "".join(
            f"{document_id} {base64.b64encode(record).decode('ascii')}\n"
            for document_id, record in records
        )
    )


def drop_block(document_id: int, seq: int) -> bytes:
    """The block of one removed document."""
    return _sealed(f"DROP {document_id} {seq}\n")


def _parse_block(
    lines: List[bytes], position: int
) -> Optional[Tuple[WalRecord, int]]:
    """The block starting at ``lines[position]`` and how many lines it
    spans, or ``None`` if it is not a complete, intact block."""
    kind, *fields = lines[position].split(b" ")
    try:
        numbers = [int(field) for field in fields]
    except ValueError:
        return None
    document_id: Optional[int] = None
    seq: Optional[int] = None
    if kind == b"BEGIN" and len(numbers) in (2, 3):
        document_id, count, *stamp = numbers
        seq = stamp[0] if stamp else None
    elif kind == b"ADD" and len(numbers) == 2:
        count, seq = numbers
    elif kind == b"DROP" and len(numbers) == 2:
        document_id, seq = numbers
        count = 0
    else:
        return None
    close = position + 1 + count
    if count < 0 or close >= len(lines):
        return None
    body = lines[position + 1 : close]
    sealed = b"\n".join(lines[position:close]) + b"\n"
    if lines[close] != b"COMMIT %08x" % zlib.crc32(sealed):
        # An older store's edit block: a bare COMMIT, and the line
        # complete — a torn checksum never reads as one.
        if not (
            kind == b"BEGIN" and lines[close] == b"COMMIT" and close + 1 < len(lines)
        ):
            return None
    try:
        if kind == b"BEGIN":
            operations = parse_operations(b"\n".join(body).decode("utf-8"))
            if len(operations) != count:
                return None
            record = WalRecord("BEGIN", seq, document_id, operations=operations)
        elif kind == b"ADD":
            documents = []
            for line in body:
                identifier, _, encoded = line.partition(b" ")
                raw = base64.b64decode(encoded, validate=True)
                parse_record(raw)  # validated now, decoded when touched
                documents.append((int(identifier), raw))
            if len({entry[0] for entry in documents}) != count:
                return None
            record = WalRecord("ADD", seq, documents=documents)
        else:
            record = WalRecord("DROP", seq, document_id)
    except (ValueError, ReproError):  # an unreadable body: not a block
        return None
    return record, count + 2


def _complete_block_follows(lines: List[bytes], position: int) -> bool:
    """Whether something complete lies behind the unreadable block at
    ``lines[position]``: a readable block starting on a later line, or
    a finished COMMIT line with more text after it.  A crash only cuts
    the end of its last append, so a tear has neither — the bytes
    behind the last good block are a prefix of one block."""
    closed = False
    for index in range(position, len(lines)):
        line = lines[index]
        if closed and line:
            return True
        if index > position and line.startswith((b"BEGIN ", b"ADD ", b"DROP ")):
            if _parse_block(lines, index) is not None:
                return True
        closed = closed or (line.startswith(b"COMMIT") and index + 1 < len(lines))
    return False


def read_wal(data: bytes) -> Tuple[List[WalRecord], int]:
    """The committed blocks of a WAL's bytes and the offset where the
    next block belongs.

    Reading stops at the first block that does not read back.  When
    nothing complete follows it, that is a torn tail — never
    acknowledged — and the offset is one past the last good block's
    newline (``len(data) + 1`` when a crash cut exactly that newline:
    its COMMIT line is whole).  When something does, the file is
    damaged, and :class:`~repro.errors.CodecError` is raised."""
    lines = data.split(b"\n")
    records: List[WalRecord] = []
    position = offset = end = 0
    while position < len(lines):
        if not lines[position]:
            offset += 1
            position += 1
            continue
        parsed = _parse_block(lines, position)
        if parsed is None:
            if _complete_block_follows(lines, position):
                raise CodecError(
                    f"WAL block at byte {offset} is damaged and complete "
                    "blocks follow it"
                )
            break
        record, length = parsed
        records.append(record)
        offset += sum(len(line) + 1 for line in lines[position : position + length])
        position += length
        end = offset
    return records, end


class _Versions(dict):
    """Document id → the document's current version: its checkpoint
    record (``bytes``) until something needs the tree, then the decoded
    :class:`~repro.tree.tree.Tree`, kept from then on.

    Readers reach it without the store mutex, and :meth:`tree` may
    decode.  The decoded tree is cached only if the slot still holds
    the record it came from — a compare-and-set under ``_swap``, which
    every writer takes too — so a reader can never put back a version
    the writer replaced while it decoded; it uses its tree uncached.
    Holds nothing of the store: a standing-query engine given
    :meth:`tree` makes no reference cycle with it.
    """

    def __init__(self, decoded: Counter) -> None:
        super().__init__()
        self._swap = threading.Lock()
        self._decoded = decoded

    def tree(self, document_id: int) -> Tree:
        """The current tree of one document, decoded on first use."""
        try:
            version = self[document_id]
        except KeyError:
            raise StorageError(f"no document with id {document_id}") from None
        if isinstance(version, Tree):
            return version
        tree = decode_document(version)
        self._decoded.inc()
        with self._swap:
            if self.get(document_id) is version:
                self[document_id] = tree
        return tree

    def publish(self, document_id: int, version: "Tree | bytes") -> None:
        """Make ``version`` current; from here on it is shared with
        lock-free readers and must not be written."""
        with self._swap:
            self[document_id] = version

    def drop(self, document_id: int) -> None:
        with self._swap:
            del self[document_id]


class DocumentStore:
    """A collection of documents with durable pq-gram indexes.

    ``serve_threads > 0`` opens the store in *serving mode* for
    concurrent clients: ``apply_edits`` calls from any thread enqueue
    on a per-document FIFO write queue behind one appender thread
    (group commit — one WAL append and one fsync per drained group,
    one batched maintenance call per document), lookups run against
    immutable per-generation snapshots and never block on writers, and
    a background worker re-freezes the forest's CSR off the
    serving threads.  With the default ``serve_threads=0`` the same
    group commit runs synchronously on the caller's thread, one batch
    per group.
    """

    def __init__(
        self,
        directory: str,
        config: Optional[GramConfig] = None,
        metrics: "Optional[MetricsRegistry | bool]" = None,
        serve_threads: int = 0,
    ) -> None:
        self._directory = directory
        self._serving = serve_threads > 0
        # ``metrics`` (a registry or ``True``) turns on observability
        # for the whole stack — store, forest, backend, lookup service
        # all report into one registry.  Must be chosen at open time so
        # recovery itself is measured.
        self._metrics = resolve_registry(metrics)
        self._bind_instruments(self._metrics)
        # Every document as a record until something needs its tree.
        # Lock-free readers (get_document, the wire's show, the query
        # post-filter) copy trees out of it, so a tree reachable from it
        # is never written: every change publishes a new version.
        self._documents = _Versions(self._m_decoded)
        # The checkpoint record of every document unchanged since it
        # was last encoded or read; _publish and remove_document drop
        # the stale entry, so a checkpoint encodes only those.
        self._encoded: Dict[int, bytes] = {}
        # Guards document membership, the WAL, and the checkpoint
        # trigger's byte counts.  In serving mode the appender thread
        # holds it for the whole group commit; lookups never touch it.
        self._mutex = threading.RLock()
        self._service: Optional[LookupService] = None
        self._wal_handle: Optional[BinaryIO] = None
        # The checkpoint trigger's inputs: bytes in the WAL since the
        # last snapshot, and that snapshot's payload bytes (before
        # compression); store.db's size on disk is reported beside them.
        self._wal_bytes = 0
        self._payload_bytes = 0
        self._snapshot_bytes = 0
        # Commit sequencing: every durably-applied WAL batch gets the
        # next number; the snapshot meta records the high-water mark
        # folded into it, so recovery can number the replayed tail.
        self._commit_seq = 0
        # The durable-write error that stopped the store (fail-stop);
        # None while it is healthy.
        self._failed: Optional[Exception] = None
        # The standing-query engine attaches once the forest exists —
        # recovery builds it after WAL replay so reconciliation sees
        # the final recovered state.
        self._standing: Optional[StandingQueryEngine] = None
        os.makedirs(directory, exist_ok=True)
        for home in _DERIVED_DIRS:
            shutil.rmtree(os.path.join(directory, home), ignore_errors=True)
        if os.path.exists(self._snapshot_path()):
            with (
                self._m_recovery_seconds.time(),
                self._metrics.span("store.recover"),
            ):
                self._recover()
        else:
            self._forest = self._make_forest(config or GramConfig())
            self._standing = self._make_standing_engine()
            self._checkpoint()
        # Serving machinery starts only after recovery is complete, so
        # the appender and refreeze threads never see a half-recovered
        # store.
        self._coalescer: Optional[WriteCoalescer] = None
        self._refreezer: Optional[RefreezeWorker] = None
        self._closed = False
        if self._serving:
            self._service = LookupService(self._forest, snapshot_reads=True)
            self._coalescer = WriteCoalescer(self._apply_group, self._metrics)
            self._refreezer = RefreezeWorker(self._forest)

    def _bind_instruments(self, registry: MetricsRegistry) -> None:
        self._m_wal_appends = registry.counter(
            "wal_appends_total",
            "edit-batch blocks appended to the WAL (matches "
            "store_edit_batches_total; ADD and DROP blocks are not counted)",
        )
        self._m_wal_bytes = registry.counter(
            "wal_bytes_total", "bytes appended to the WAL"
        )
        self._m_wal_fsyncs = registry.counter(
            "wal_fsyncs_total",
            "fsync calls issued on the WAL file: one per group commit and "
            "per ADD or DROP block, one per checkpoint truncation, "
            "one per open that cut a torn tail",
        )
        self._m_wal_replayed = registry.counter(
            "wal_replayed_batches_total",
            "committed WAL edit batches replayed during recovery",
        )
        self._m_checkpoints = registry.counter(
            "checkpoints_total",
            "snapshots written (WAL truncations): when the WAL since the "
            f"last one reaches max({WAL_CHECKPOINT_FLOOR} B, "
            f"{WAL_CHECKPOINT_SHARE} x checkpoint_payload_bytes), on subscribe, "
            "unsubscribe and close, and on an open that converted the "
            "snapshot or caught up a standing query",
        )
        self._m_checkpoint_seconds = registry.histogram(
            "checkpoint_seconds", "wall seconds per snapshot write"
        )
        self._m_checkpoint_encoded = registry.counter(
            "checkpoint_documents_encoded_total",
            "documents serialised into checkpoint records: each added "
            "document once, when it is added, and each edited or replayed "
            "one by the next checkpoint (the rest are written from their "
            "cached records)",
        )
        self._m_recovery_seconds = registry.histogram(
            "recovery_seconds",
            "wall seconds per open of an existing store: snapshot load, "
            "WAL replay and index build",
        )
        self._m_recovery_phase_seconds = {
            phase: registry.histogram(
                "recovery_phase_seconds",
                "wall seconds per open, by phase: load (read store.db), "
                "replay (read and apply the WAL), build (every bag from "
                "its record or tree)",
                phase=phase,
            )
            for phase in ("load", "replay", "build")
        }
        self._m_decoded = registry.counter(
            "store_documents_decoded_total",
            "document records decoded into trees: each document once, "
            "when an edit, a read of the document or a structural "
            "predicate first needs it",
        )
        self._m_edit_batches = registry.counter(
            "store_edit_batches_total",
            "apply_edits batches durably applied (matches wal_appends_total)",
        )
        self._m_edit_ops = registry.counter(
            "store_edit_ops_total", "edit operations durably applied"
        )

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    def _snapshot_path(self) -> str:
        return os.path.join(self._directory, _SNAPSHOT)

    def _wal_path(self) -> str:
        return os.path.join(self._directory, _WAL)

    def _make_forest(self, config: GramConfig) -> ForestIndex:
        """An empty forest on the store's metrics registry."""
        return ForestIndex(config, metrics=self._metrics)

    def _make_standing_engine(self) -> StandingQueryEngine:
        return StandingQueryEngine(
            self._forest, documents=self._documents.tree, metrics=self._metrics
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @property
    def config(self) -> GramConfig:
        """The store's pq-gram configuration."""
        return self._forest.config

    @property
    def hasher(self):
        """The store-wide shared label hasher.

        One hasher serves every build, maintenance and lookup call of
        this store, so the label memo stays warm across the whole
        workload (its hit/miss counters are reported by :meth:`stats`).
        """
        return self._forest.hasher

    @property
    def has_published_view(self) -> bool:
        """Whether a snapshot read can be answered without building
        anything — false until the first lookup published the forest's
        read view (and froze the CSR)."""
        return self._forest.has_published_view

    def document_ids(self) -> Iterator[int]:
        """Ids of all stored documents."""
        return iter(sorted(self._documents))

    def __len__(self) -> int:
        return len(self._documents)

    def __contains__(self, document_id: int) -> bool:
        return document_id in self._documents

    def get_document(self, document_id: int) -> Tree:
        """A copy of one stored document."""
        return self._documents.tree(document_id).copy()

    def get_index(self, document_id: int) -> PQGramIndex:
        """The maintained index of one document."""
        self._require(document_id)
        return self._forest.index_of(document_id)

    def add_document(self, document_id: int, tree: Tree) -> None:
        """Store and index a new document (one WAL record)."""
        self.add_documents([(document_id, tree)])

    def add_documents(self, items: Sequence[Tuple[int, Tree]]) -> None:
        """Store and index a batch of documents, all or none.

        The batch is durable through one ``ADD`` record — one append,
        one fsync — holding every document's checkpoint record; once
        that fsync returned it is committed, and published even if
        indexing it raises.  The batch is validated up front.  Each
        tree is encoded once and not kept: the store holds its record,
        and its bag is built from that record.
        """
        self.flush()
        with self._mutex:
            self._require_healthy()
            seen = set()
            for document_id, _ in items:
                if document_id in self._documents or document_id in seen:
                    raise StorageError(
                        f"document id {document_id} already exists"
                    )
                seen.add(document_id)
            if not items:
                return
            records = [
                (document_id, encode_document(tree)) for document_id, tree in items
            ]
            self._m_checkpoint_encoded.inc(len(records))
            self._commit_membership(add_block(records, self._commit_seq + 1))
            # The batch is committed: published even if indexing raises.
            for document_id, record in records:
                self._publish(document_id, record)
            self._forest.add_bags(
                (document_id, self._bag_of(record)) for document_id, record in records
            )
            events: List[Notification] = []
            for document_id, _ in records:
                events.extend(self._standing_on_add(document_id))
            self._checkpoint_if_due()
        self._dispatch_events(events)

    def remove_document(self, document_id: int) -> None:
        """Drop a document and its index (one WAL record)."""
        self.flush()
        with self._mutex:
            self._require_healthy()
            self._require(document_id)
            self._commit_membership(drop_block(document_id, self._commit_seq + 1))
            self._documents.drop(document_id)
            self._encoded.pop(document_id, None)
            self._forest.remove_tree(document_id)
            # Once the forest no longer holds it: a top-k set that
            # loses a member refills from the executor.
            events = self._standing_on_remove(document_id)
            self._checkpoint_if_due()
        self._dispatch_events(events)

    def apply_edits(
        self, document_id: int, operations: Sequence[EditOperation]
    ) -> None:
        """Durably apply an edit batch and maintain the index.

        The batch reaches the WAL (fsync'd) before any state changes;
        a crash at any later point is recovered by replaying the WAL.
        In serving mode the call enqueues and waits for the appender
        thread's group commit; otherwise it is a group commit of one on
        the caller's thread.  Either way :meth:`_apply_group` is the
        only code that validates, logs and maintains, and the call
        raises this batch's own error.
        """
        if self._coalescer is not None:
            self._coalescer.submit(document_id, operations)
            return
        pending = PendingBatch(document_id, operations)
        self._apply_group([pending])
        if pending.error is not None:
            raise pending.error

    def _apply_group(self, group: "List[PendingBatch]") -> None:
        """Group-commit one drained queue (the appender thread in
        serving mode, the caller of :meth:`apply_edits` otherwise).

        Batches validate in submission order against shadow copies —
        each document's shadow accumulates the batches before it, so a
        failing batch fails alone and later batches see the state
        without it, exactly as under serial execution.  All valid
        batches then reach the WAL in one append with one fsync, each
        document gets a single batched maintenance call over its
        concatenated inverse log, and only then is its shadow published.

        Invariant: a ``Tree`` reachable from ``_documents`` is never
        written.  Readers copy documents out of that dict without the
        mutex, and the maintenance engine walks the tree it is given
        backwards in place before restoring it — so it is handed the
        shadow while that is still private to this call.
        """
        events: List[Notification] = []
        with self._mutex, self._metrics.span("store.apply_group"):
            try:
                self._require_healthy()
            except StoreFailedError as exc:
                for pending in group:
                    pending.error = exc
                return
            shadows: Dict[int, Tree] = {}
            logs: Dict[int, List[EditOperation]] = {}
            valid: List[PendingBatch] = []
            for pending in group:
                document_id = pending.document_id
                try:
                    shadow = shadows.get(document_id)
                    if shadow is None:
                        shadow = self._documents.tree(document_id)
                    # Only the probe is mutated (a copy-on-write clone:
                    # O(1), then O(what the batch touches)), so the
                    # published document itself can seed the first one.
                    probe = shadow.copy()
                    log = EditScript(list(pending.operations)).apply(probe)
                except BaseException as exc:  # noqa: BLE001 - per-batch isolation
                    pending.error = exc
                    continue
                shadows[document_id] = probe
                # Sequential logs concatenate in application order; the
                # maintenance engine walks them back-to-front.
                logs.setdefault(document_id, []).extend(log)
                valid.append(pending)
            if not valid:
                return
            # One commit sequence per WAL block, in append order and
            # written into the block; standing-query events of each
            # document carry its *last* block's.  All blocks go out in
            # one write with one fsync.
            stamped = list(enumerate(valid, self._commit_seq + 1))
            try:
                self._append_wal(
                    b"".join(
                        edit_block(pending.document_id, pending.operations, seq)
                        for seq, pending in stamped
                    )
                )
            except Exception as exc:  # noqa: BLE001 - any append error stops the store
                failure = self._fail(exc)
                for pending in valid:
                    pending.error = failure
                return
            self._commit_seq += len(valid)
            self._m_wal_appends.inc(len(valid))
            sequences = {pending.document_id: seq for seq, pending in stamped}
            for document_id, shadow in shadows.items():
                # Incremental maintenance: the forest re-inverts only
                # the keys the edit batches actually changed.  The same
                # Δ-keys route the update to interested standing
                # queries.
                try:
                    minus, plus = self._forest.update_tree(
                        document_id, shadow, logs[document_id]
                    )
                finally:
                    # The batch is in the WAL: the shadow (restored by
                    # the engine, also on error) is the committed
                    # document even if maintaining its index raised.
                    self._publish(document_id, shadow)
                events.extend(
                    self._standing_on_delta(
                        document_id, minus, plus, sequences[document_id]
                    )
                )
            for pending in valid:
                self._m_edit_batches.inc()
                self._m_edit_ops.inc(len(pending.operations))
            self._checkpoint_if_due()
        # Listener callbacks run outside the store mutex so they can
        # never block (or deadlock) the appender's group commit.
        self._dispatch_events(events)

    def lookup(self, query: "Tree | str", tau: float) -> LookupResult:
        """Approximate lookup over all stored documents; ``query`` is a
        tree or the bracket text of one.

        In serving mode the scan runs against an immutable snapshot of
        a recent generation and never blocks on concurrent writers.
        """
        if self._service is None:
            self._service = LookupService(
                self._forest, snapshot_reads=self._serving
            )
        return self._service.lookup(query, tau)

    def query(self, plan) -> LookupResult:
        """Execute a logical :mod:`repro.query` plan over the store.

        Structural predicates post-filter the retrieval result through
        the store's own documents, one walk per match — only matches
        are ever walked.
        """
        if self._service is None:
            self._service = LookupService(
                self._forest, snapshot_reads=self._serving
            )
        return self._service.query(plan, documents=self._documents.tree)

    # ------------------------------------------------------------------
    # standing queries
    # ------------------------------------------------------------------

    def subscribe(
        self,
        query_id: str,
        plan,
        listener: "Optional[Callable[[Notification], None]]" = None,
    ) -> List[Tuple[int, float]]:
        """Register a standing query and return its initial matches.

        The subscription is durable: it is written into the checkpoint
        together with the query's current membership, so a reopened
        store resumes notification exactly where the event stream left
        off (recovery emits the catch-up events the downtime swallowed,
        never a duplicate).  ``listener`` — called synchronously on the
        committing thread, outside the store mutex — is process-local
        and must be re-attached after reopen.
        """
        self.flush()
        with self._mutex:
            self._require_healthy()
            matches = self._standing_engine().subscribe(
                query_id, plan, listener
            )
            self._checkpoint()
        return matches

    def unsubscribe(self, query_id: str) -> None:
        """Drop a standing query (checkpointed immediately)."""
        self.flush()
        with self._mutex:
            self._require_healthy()
            self._standing_engine().unsubscribe(query_id)
            self._checkpoint()

    def attach_listener(
        self, query_id: str, listener: "Callable[[Notification], None]"
    ) -> None:
        """(Re)bind the process-local listener of one standing query —
        the reopen companion of :meth:`subscribe`'s ``listener``."""
        self._standing_engine().attach_listener(query_id, listener)

    def standing_query_ids(self) -> List[str]:
        """Ids of all registered standing queries."""
        return self._standing_engine().query_ids()

    def standing_plan(self, query_id: str):
        """The normalized plan one standing query was registered with."""
        return self._standing_engine().plan_of(query_id)

    def standing_matches(self, query_id: str) -> List[Tuple[int, float]]:
        """Current neighborhood of one standing query, nearest first."""
        self.flush()
        return self._standing_engine().matches(query_id)

    def drain_notifications(self) -> List[Notification]:
        """All buffered notifications since the last drain (including
        recovery catch-up events), in commit order."""
        self.flush()
        return self._standing_engine().drain()

    def _standing_engine(self) -> StandingQueryEngine:
        if self._standing is None:
            self._standing = self._make_standing_engine()
        return self._standing

    def _standing_on_add(self, document_id: int) -> List[Notification]:
        if self._standing is None or not len(self._standing):
            return []
        return self._standing.on_add(document_id, self._commit_seq)

    def _standing_on_remove(self, document_id: int) -> List[Notification]:
        if self._standing is None or not len(self._standing):
            return []
        return self._standing.on_remove(document_id, self._commit_seq)

    def _standing_on_delta(
        self, document_id: int, minus, plus, seq: int
    ) -> List[Notification]:
        if self._standing is None or not len(self._standing):
            return []
        return self._standing.on_delta(document_id, minus, plus, seq)

    def _dispatch_events(self, events: List[Notification]) -> None:
        if events and self._standing is not None:
            self._standing.dispatch(events)

    def checkpoint(self) -> None:
        """Force a snapshot + WAL truncation."""
        self.flush()
        with self._mutex:
            self._require_healthy()
            self._checkpoint()

    def flush(self) -> None:
        """Wait for every submitted edit batch to be durably applied.

        A no-op outside serving mode (writes are synchronous there).
        """
        if self._coalescer is not None:
            self._coalescer.flush()

    def close(self) -> None:
        """Drain the write queue, stop the background threads, and
        checkpoint unless the store failed; idempotent.  The store
        object must not be used afterwards."""
        if self._closed:
            return
        self._closed = True
        if self._coalescer is not None:
            self._coalescer.close()
        if self._refreezer is not None:
            self._refreezer.close()
        with self._mutex:
            if self._failed is None:
                self._checkpoint()
            if self._wal_handle is not None:
                self._wal_handle.close()
                self._wal_handle = None

    def __enter__(self) -> "DocumentStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def metrics_registry(self) -> MetricsRegistry:
        """The store-wide metrics recorder (the shared no-op unless the
        store was opened with ``metrics=``)."""
        return self._metrics

    def metrics(self) -> Dict[str, object]:
        """One JSON-ready snapshot of every metric the store recorded:
        WAL/checkpoint durability, recovery, maintenance engines,
        backend sweeps and lookup pruning, plus state gauges refreshed
        at call time."""
        self._sync_metric_gauges()
        return self._metrics.snapshot()

    def metrics_prometheus(self) -> str:
        """The same snapshot in Prometheus text exposition format."""
        self._sync_metric_gauges()
        return self._metrics.to_prometheus()

    def _sync_metric_gauges(self) -> None:
        self._forest.sync_metric_gauges()
        if not self._metrics.enabled:
            return
        self._metrics.gauge(
            "store_documents", "documents currently stored"
        ).set(len(self._documents))
        self._metrics.gauge(
            "wal_bytes",
            "WAL bytes written since the last snapshot; the next "
            "checkpoint runs once this reaches max("
            f"{WAL_CHECKPOINT_FLOOR}, {WAL_CHECKPOINT_SHARE} x "
            "checkpoint_payload_bytes)",
        ).set(self._wal_bytes)
        self._metrics.gauge(
            "snapshot_bytes", "size of store.db as last written or loaded"
        ).set(self._snapshot_bytes)
        self._metrics.gauge(
            "checkpoint_payload_bytes",
            "the last snapshot's bytes before compression, which the "
            "checkpoint trigger compares wal_bytes against",
        ).set(self._payload_bytes)
        self._metrics.gauge(
            "store_failed",
            "1 once a durable write failed and the store stopped taking "
            "writes (reopen to recover), else 0",
        ).set(int(self._failed is not None))

    def stats(self) -> Dict[str, object]:
        """Operational counters of the store.

        Covers the collection (documents, nodes, pq-grams), the
        maintenance configuration, the index relation (postings, whether
        its CSR is frozen, the overlay's ``dirty_keys``), and the shared
        label hasher's memo hit/miss counters — a warm memo means every
        build and update call reused the store-wide hasher instead of
        re-fingerprinting labels from scratch — and how close the next
        checkpoint is: ``wal_bytes`` written since the last snapshot
        against that snapshot's ``checkpoint_payload_bytes`` (its bytes
        before compression; ``snapshot_bytes`` is the size of
        ``store.db`` on disk).  ``failed`` is true
        once a durable write failed and the store stopped taking writes.
        """
        # Runs without the mutex beside membership changes: count over
        # a snapshot of the dict, and skip a document the forest does
        # not hold at this instant (mid-add or mid-remove).
        documents = list(self._documents.items())
        node_count = sum(
            len(version) if isinstance(version, Tree) else record_node_count(version)
            for _, version in documents
        )
        gram_count = 0
        for document_id, _ in documents:
            try:
                gram_count += self._forest.size_of(document_id)
            except StorageError:
                pass
        hasher_stats = self._forest.hasher.stats()
        backend_stats = self._forest.backend_stats()
        service = self._service
        return {
            "documents": len(documents),
            "nodes": node_count,
            "pq_grams": gram_count,
            "serving": self._serving,
            "postings": backend_stats["postings"],
            "hasher_labels": hasher_stats["labels"],
            "hasher_hits": hasher_stats["hits"],
            "hasher_misses": hasher_stats["misses"],
            "query_cache_hits": service.query_cache_hits if service else 0,
            "query_cache_misses": service.query_cache_misses if service else 0,
            "wal_bytes": self._wal_bytes,
            "snapshot_bytes": self._snapshot_bytes,
            "checkpoint_payload_bytes": self._payload_bytes,
            "failed": self._failed is not None,
            "frozen": backend_stats["frozen"],
            "dirty_keys": backend_stats["dirty_keys"],
        }

    # ------------------------------------------------------------------
    # index plumbing
    # ------------------------------------------------------------------

    def _require(self, document_id: int) -> None:
        """Raise :class:`~repro.errors.StorageError` unless the document
        exists — without decoding it."""
        if document_id not in self._documents:
            raise StorageError(f"no document with id {document_id}")

    def _bag_of(self, version: "Tree | bytes") -> Bag:
        """The pq-gram bag of a document version, for the forest."""
        if isinstance(version, Tree):
            return tree_bag(version, self.config, self.hasher)
        return record_bag(version, self.config, self.hasher)

    def _fail(self, exc: Exception) -> StoreFailedError:
        """Stop the store on a durable-write error; returns the error
        the writers that hit it get."""
        self._failed = exc
        return StoreFailedError(f"durable write failed, store stopped: {exc}")

    def _require_healthy(self) -> None:
        """Refuse a mutation once the store failed — before it touches
        anything."""
        if self._failed is not None:
            raise StoreFailedError(
                f"the store stopped after a failed durable write "
                f"({self._failed}); reopen it"
            )

    def _publish(self, document_id: int, version: "Tree | bytes") -> None:
        """Make ``version`` — a tree, or a record, which is its own
        checkpoint record — the current version of a document.  From
        here on it is shared with lock-free readers and must not be
        written again."""
        self._documents.publish(document_id, version)
        if isinstance(version, Tree):
            self._encoded.pop(document_id, None)
        else:
            self._encoded[document_id] = version

    # ------------------------------------------------------------------
    # WAL
    # ------------------------------------------------------------------

    def _wal(self) -> BinaryIO:
        """The WAL, opened once per store in append mode (every write
        lands at the end of the file, also after a truncation)."""
        if self._wal_handle is None:
            self._wal_handle = open(self._wal_path(), "ab")
        return self._wal_handle

    def _append_wal(self, data: bytes) -> None:
        """Append whole blocks in one write with one fsync; the caller
        stops the store if this raises."""
        handle = self._wal()
        failpoints.write("wal.write", handle, data)
        failpoints.run("wal.flush", handle.flush)
        failpoints.run("wal.fsync", os.fsync, handle.fileno())
        self._wal_bytes += len(data)
        self._m_wal_bytes.inc(len(data))
        self._m_wal_fsyncs.inc()

    def _checkpoint_if_due(self) -> None:
        """Checkpoint once the WAL has reached the checkpoint threshold.
        Called after an append: a failed checkpoint stops the store, but
        what was just logged is durable and its call succeeded."""
        if self._wal_bytes >= max(
            WAL_CHECKPOINT_FLOOR, WAL_CHECKPOINT_SHARE * self._payload_bytes
        ):
            try:
                self._checkpoint()
            except StoreFailedError:
                pass  # the store stopped, but the append is durable

    def _commit_membership(self, block: bytes) -> None:
        """Make a membership change durable by appending its block,
        stamped ``_commit_seq + 1``."""
        try:
            self._append_wal(block)
        except Exception as exc:  # noqa: BLE001 - any append error stops the store
            raise self._fail(exc) from exc
        self._commit_seq += 1

    def _end_wal_at(self, end: int, size: int) -> None:
        """Make ``end`` the durable end of the WAL: cut the torn tail
        behind it, or restore the newline a crash cut off the last
        COMMIT line — either way the next append lands where replay
        will look for it, not behind bytes it stops at."""
        handle = self._wal()
        if end < size:
            failpoints.run("recover.cut", handle.truncate, end)
        else:
            failpoints.write("recover.cut", handle, b"\n")
            handle.flush()
        failpoints.run("recover.fsync", os.fsync, handle.fileno())
        self._m_wal_fsyncs.inc()

    # ------------------------------------------------------------------
    # snapshot + recovery
    # ------------------------------------------------------------------

    def _checkpoint(self) -> None:
        try:
            with (
                self._m_checkpoint_seconds.time(),
                self._metrics.span("store.checkpoint"),
            ):
                self._write_checkpoint()
        except Exception as exc:  # noqa: BLE001 - any snapshot error stops the store
            raise self._fail(exc) from exc
        self._m_checkpoints.inc()
        self._m_wal_fsyncs.inc()  # the truncation fsync below

    def _write_checkpoint(self) -> None:
        records = []
        for document_id, version in self._documents.items():
            record = self._encoded.get(document_id)
            if record is None:
                record = self._encoded[document_id] = encode_document(version)
                self._m_checkpoint_encoded.inc()
            records.append((document_id, record))
        standing = self._standing
        data, payload_bytes = encode_checkpoint(
            self.config,
            self._commit_seq,
            records,
            standing.describe_subscriptions() if standing is not None else (),
        )
        write_checkpoint(self._snapshot_path(), data)
        self._snapshot_bytes = len(data)
        self._payload_bytes = payload_bytes
        # The snapshot covers everything: truncate the WAL.  Safe in
        # this order because write_checkpoint() returns only once the
        # file *and* its rename are fsynced; a crash before the
        # truncation leaves blocks whose sequence the snapshot's
        # commit_seq tells replay to skip.
        handle = self._wal()
        failpoints.run("checkpoint.truncate", handle.truncate, 0)
        failpoints.run("checkpoint.fsync", os.fsync, handle.fileno())
        self._wal_bytes = 0

    def _recover(self) -> None:
        phases = self._m_recovery_phase_seconds
        with phases["load"].time():
            checkpoint = read_checkpoint(self._snapshot_path())
        self._snapshot_bytes = os.path.getsize(self._snapshot_path())
        self._payload_bytes = checkpoint.payload_bytes
        self._commit_seq = checkpoint.commit_seq
        # Every document as its record, undecoded — also what the next
        # checkpoint writes for it if nothing touches it.
        self._documents.clear()
        self._encoded = {}
        for document_id, record in checkpoint.documents:
            self._documents[document_id] = record
            self._encoded[document_id] = record
        with phases["replay"].time():
            try:
                with open(self._wal_path(), "rb") as handle:
                    wal = handle.read()
            except FileNotFoundError:
                wal = b""
            records, wal_end = read_wal(wal)
            wal_size = len(wal)
            # Bring every document to the end of the WAL, then build
            # each document's bag once — from its record, unless the
            # replay decoded it.
            self._m_wal_replayed.inc(self._replay_wal(records))
        self._forest = self._make_forest(checkpoint.config)
        with phases["build"].time():
            self._forest.add_bags(
                (document_id, self._bag_of(version))
                for document_id, version in self._documents.items()
            )
        # Standing queries resume at their durable frontier: restore the
        # persisted membership, then reconcile against the recovered
        # forest — the diff is exactly the set of events the crash (or
        # clean downtime) swallowed, delivered once via the buffer.
        self._standing = self._make_standing_engine()
        caught_up = False
        if checkpoint.subscriptions:
            for query_id, spec, members in checkpoint.subscriptions:
                self._standing.restore_subscription(query_id, spec, members)
            caught_up = self._standing.reconcile(self._commit_seq)
        # An older format is rewritten at once, in the current one.
        if caught_up or checkpoint.legacy:
            self._checkpoint()
            return
        # Replay alone rewrites nothing: the WAL stays, and counts
        # toward the next checkpoint from what is left of it.
        if wal_end != wal_size:
            try:
                self._end_wal_at(wal_end, wal_size)
            except Exception as exc:  # noqa: BLE001 - a failed cut stops the open
                raise self._fail(exc) from exc
        self._wal_bytes = wal_end

    def _replay_wal(self, records: List[WalRecord]) -> int:
        """Apply the committed WAL blocks the snapshot does not cover
        to the documents, in place and in commit order (nothing can read
        the store yet); returns how many edit batches.  Only the
        documents an edit batch names are decoded.  A block stamped at
        or below the snapshot's frontier is already folded in (the
        crash window between the snapshot rename and the WAL truncation
        leaves such blocks behind); unstamped blocks of older stores are
        numbered by position, as they always were.  An added document's
        record is what the next checkpoint writes for it."""
        replayed = 0
        for record in records:
            seq = self._commit_seq + 1 if record.seq is None else record.seq
            if seq <= self._commit_seq:
                continue
            self._commit_seq = seq
            if record.kind == "ADD":
                for document_id, encoded in record.documents:
                    self._publish(document_id, encoded)
                continue
            document_id = record.document_id
            if record.kind == "DROP":
                self._documents.drop(document_id)
            else:
                EditScript(list(record.operations)).apply(
                    self._documents.tree(document_id)
                )
                replayed += 1
            self._encoded.pop(document_id, None)
        return replayed
