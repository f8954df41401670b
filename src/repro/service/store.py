"""The durable document store.

On-disk layout inside the store directory::

    store.db     relstore snapshot: documents (bracket text), indexes
                 (treeId, pqg, cnt), meta (p, q, per-document WAL
                 positions already folded into the snapshot)
    wal.log      append-only text file of committed edit batches:
                 one BEGIN/ops/COMMIT block per batch

Commit protocol for ``apply_edits`` (one write path: a synchronous
call is a group commit of one, a serving-mode call joins whatever the
appender thread drained with it):

1. validate every batch of the group against a copy of its document —
   a batch that does not apply fails alone and logs nothing,
2. append the valid batches (document id + serialized operations) to
   the WAL and fsync — they are now durable,
3. publish the edited documents and incrementally maintain each index
   through the batch engine (log compaction + commuting-group
   partitioning + single O(|Δ|) apply; exact for every valid log,
   including ``Move``),
4. opportunistically checkpoint (write a fresh snapshot and truncate
   the WAL) every ``checkpoint_every`` batches.

``open`` recovers by loading the snapshot and replaying any WAL
batches that were appended after it; half-written trailing batches
(no COMMIT line — the crash window) are ignored.  For the in-memory
backends (``memory``, ``compact``, ``sharded``) the snapshot's
``indexes`` relation is one backend ``snapshot()``/``restore()``
round-trip; the chosen backend is recorded in the snapshot so
reopening preserves it.

The ``segment`` backend is its own durable home: the index relation
lives in memory-mapped segment files plus a tail delta log under
``<directory>/segments/``, the snapshot carries *no* ``indexes``
table, and reopening maps the frozen segment read-only instead of
re-inverting the relation — O(tail), not O(index).  Each WAL batch
carries a monotonically increasing commit sequence (persisted in the
snapshot meta) that the backend stamps into its delta records, so
recovery replays a batch into the forest only when the backend does
not already hold it; corrupt or foreign segment files are detected
(checksums + a store-identity fingerprint) and rebuilt from the
recovered documents — slower, never wrong.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import uuid
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.concurrency.coalesce import PendingBatch, WriteCoalescer
from repro.concurrency.refreeze import RefreezeWorker
from repro.core.config import GramConfig
from repro.core.index import PQGramIndex
from repro.edits.ops import EditOperation
from repro.edits.script import EditScript
from repro.edits.serialize import format_operations, parse_operations
from repro.errors import SegmentCorruptError, StorageError
from repro.lookup.forest import ForestIndex
from repro.lookup.service import LookupResult, LookupService
from repro.obsv.metrics import MetricsRegistry, resolve_registry
from repro.relstore.database import Database
from repro.relstore.schema import Column, Schema
from repro.stream.standing import Notification, StandingQueryEngine
from repro.tree.traversal import preorder
from repro.tree.tree import Tree

_SNAPSHOT = "store.db"
_WAL = "wal.log"


class DocumentStore:
    """A collection of documents with durable pq-gram indexes.

    ``serve_threads > 0`` opens the store in *serving mode* for
    concurrent clients: ``apply_edits`` calls from any thread enqueue
    on a per-document FIFO write queue behind one appender thread
    (group commit — one WAL append and one fsync per drained group,
    one batched maintenance call per document), lookups run against
    immutable per-generation snapshots and never block on writers, and
    a background worker re-freezes the compact backend's CSR off the
    serving threads.  With the default ``serve_threads=0`` the same
    group commit runs synchronously on the caller's thread, one batch
    per group.
    """

    def __init__(
        self,
        directory: str,
        config: Optional[GramConfig] = None,
        checkpoint_every: int = 16,
        backend: Optional[str] = None,
        shards: Optional[int] = None,
        metrics: "Optional[MetricsRegistry | bool]" = None,
        serve_threads: int = 0,
        compress: Optional[bool] = None,
    ) -> None:
        self._directory = directory
        self._checkpoint_every = checkpoint_every
        self._serving = serve_threads > 0
        self._documents: Dict[int, Tree] = {}
        # Guards document membership, the WAL, and the checkpoint
        # counter.  In serving mode the appender thread holds it for
        # the whole group commit; lookups never touch it.
        self._mutex = threading.RLock()
        # ``metrics`` (a registry or ``True``) turns on observability
        # for the whole stack — store, forest, backend, lookup service
        # all report into one registry.  Must be chosen at open time so
        # recovery itself is measured.
        self._metrics = resolve_registry(metrics)
        self._bind_instruments(self._metrics)
        # ``backend``/``shards`` choose the forest storage engine when
        # the store is created (``None`` defers to the
        # ``REPRO_STORE_BACKEND`` environment variable, then
        # ``"compact"``); reopening an existing store reads the
        # recorded choice from the snapshot instead.
        if backend is None:
            backend = os.environ.get("REPRO_STORE_BACKEND", "compact")
        # ``compress`` resolves once at creation (explicit arg, then
        # ``REPRO_COMPRESS``) and is recorded in the snapshot meta, so
        # a store reopened under a different environment keeps the
        # representation it was created with.
        from repro.compress import compression_enabled

        self._compress = compression_enabled(compress)
        self._service: Optional[LookupService] = None
        self._batches_since_checkpoint = 0
        # Commit sequencing: every durably-applied WAL batch gets the
        # next number; the snapshot meta records the high-water mark
        # folded into it, so recovery can number the replayed tail.
        self._commit_seq = 0
        self._store_uuid = ""
        # The standing-query engine attaches once the forest exists —
        # recovery builds it after WAL replay so reconciliation sees
        # the final recovered state.
        self._standing: Optional[StandingQueryEngine] = None
        os.makedirs(directory, exist_ok=True)
        if os.path.exists(self._snapshot_path()):
            with (
                self._m_recovery_seconds.time(),
                self._metrics.span("store.recover"),
            ):
                self._recover(default_backend=backend, default_shards=shards)
        else:
            self._store_uuid = uuid.uuid4().hex
            if backend == "segment":
                # A fresh store must never adopt leftover segment files
                # from an earlier store in the same directory.
                shutil.rmtree(self._segment_directory(), ignore_errors=True)
            elif backend == "rel":
                shutil.rmtree(self._rel_directory(), ignore_errors=True)
            self._forest = self._make_forest(
                config or GramConfig(), backend, shards
            )
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
            "wal_appends_total", "edit batches appended to the WAL"
        )
        self._m_wal_bytes = registry.counter(
            "wal_bytes_total", "bytes appended to the WAL"
        )
        self._m_wal_fsyncs = registry.counter(
            "wal_fsyncs_total", "fsync calls issued on the WAL file"
        )
        self._m_wal_replayed = registry.counter(
            "wal_replayed_batches_total",
            "committed WAL batches replayed during recovery",
        )
        self._m_checkpoints = registry.counter(
            "checkpoints_total", "snapshots written (WAL truncations)"
        )
        self._m_checkpoint_seconds = registry.histogram(
            "checkpoint_seconds", "wall seconds per snapshot write"
        )
        self._m_recovery_seconds = registry.histogram(
            "recovery_seconds", "wall seconds per snapshot-load + WAL replay"
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

    def _segment_directory(self) -> str:
        return os.path.join(self._directory, "segments")

    def _rel_directory(self) -> str:
        return os.path.join(self._directory, "rel")

    def _make_forest(
        self,
        config: GramConfig,
        backend: str,
        shards: Optional[int],
    ) -> ForestIndex:
        """A forest over ``backend``, homed under the store directory
        (segment backends own ``<directory>/segments/``, rel backends
        ``<directory>/rel/``) and stamped with this store's identity so
        reopened on-disk state can be matched against the snapshot that
        references it."""
        homes = {
            "segment": self._segment_directory,
            "rel": self._rel_directory,
        }
        forest = ForestIndex(
            config,
            backend=backend,
            shards=shards,
            metrics=self._metrics,
            directory=homes[backend]() if backend in homes else None,
            compress=self._compress,
        )
        if backend in homes:
            forest.backend.set_source(self._store_uuid)  # type: ignore[attr-defined]
        return forest

    def _make_standing_engine(self) -> StandingQueryEngine:
        return StandingQueryEngine(
            self._forest, documents=self._require, metrics=self._metrics
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
    def backend_name(self) -> str:
        """Name of the forest storage backend
        (memory/compact/sharded/segment/rel)."""
        return self._forest.backend.name

    def document_ids(self) -> Iterator[int]:
        """Ids of all stored documents."""
        return iter(sorted(self._documents))

    def __len__(self) -> int:
        return len(self._documents)

    def __contains__(self, document_id: int) -> bool:
        return document_id in self._documents

    def get_document(self, document_id: int) -> Tree:
        """A copy of one stored document."""
        return self._require(document_id).copy()

    def get_index(self, document_id: int) -> PQGramIndex:
        """The maintained index of one document."""
        self._require(document_id)
        return self._forest.index_of(document_id)

    def add_document(self, document_id: int, tree: Tree) -> None:
        """Store and index a new document (checkpointed immediately)."""
        self.flush()
        with self._mutex:
            if document_id in self._documents:
                raise StorageError(f"document id {document_id} already exists")
            self._documents[document_id] = tree.copy()
            self._forest.add_tree(document_id, tree)
            events = self._standing_on_add(document_id)
            self._checkpoint()
        self._dispatch_events(events)

    def add_documents(
        self, items: Sequence[Tuple[int, Tree]], jobs: Optional[int] = None
    ) -> None:
        """Store and index a batch of documents with one checkpoint.

        ``jobs`` > 1 builds the pq-gram indexes in parallel worker
        processes (``repro.perf.parallel``); the batch is validated
        up front, so either every document is added or none is.
        """
        self.flush()
        with self._mutex:
            seen = set()
            for document_id, _ in items:
                if document_id in self._documents or document_id in seen:
                    raise StorageError(
                        f"document id {document_id} already exists"
                    )
                seen.add(document_id)
            copies = [(document_id, tree.copy()) for document_id, tree in items]
            self._forest.add_trees(copies, jobs=jobs)
            events: List[Notification] = []
            for document_id, tree in copies:
                self._documents[document_id] = tree
                events.extend(self._standing_on_add(document_id))
            self._checkpoint()
        self._dispatch_events(events)

    def remove_document(self, document_id: int) -> None:
        """Drop a document and its index (checkpointed immediately)."""
        self.flush()
        with self._mutex:
            self._require(document_id)
            events = self._standing_on_remove(document_id)
            del self._documents[document_id]
            self._forest.remove_tree(document_id)
            self._checkpoint()
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
        batches then reach the WAL in one append with one fsync, the
        shadows are published, and each document gets a single batched
        maintenance call over its concatenated inverse log.
        """
        events: List[Notification] = []
        with self._mutex, self._metrics.span("store.apply_group"):
            shadows: Dict[int, Tree] = {}
            logs: Dict[int, List[EditOperation]] = {}
            valid: List[PendingBatch] = []
            for pending in group:
                document_id = pending.document_id
                try:
                    shadow = shadows.get(document_id)
                    if shadow is None:
                        shadow = self._require(document_id)
                    # Only the probe is mutated, so the published
                    # document itself can seed the first one.
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
            self._append_wal_group(
                [(pending.document_id, pending.operations) for pending in valid]
            )
            # One commit sequence per WAL block, in append order; each
            # document's single batched maintenance call is stamped with
            # its *last* block — the folded delta covers every earlier
            # one, so recovery may skip all of them together.
            sequences: Dict[int, int] = {}
            for pending in valid:
                self._commit_seq += 1
                sequences[pending.document_id] = self._commit_seq
            for document_id, shadow in shadows.items():
                self._documents[document_id] = shadow
                self._forest.backend.note_commit_seq(sequences[document_id])
                # Incremental maintenance: the forest re-inverts only
                # the keys the edit batches actually changed.  The same
                # Δ-keys route the update to interested standing
                # queries; the inverse log carries the Move markers the
                # predicate skip rule must see.
                minus, plus = self._forest.update_tree(
                    document_id, shadow, logs[document_id]
                )
                events.extend(
                    self._standing_on_delta(
                        document_id,
                        minus,
                        plus,
                        sequences[document_id],
                        logs[document_id],
                    )
                )
            for pending in valid:
                self._m_edit_batches.inc()
                self._m_edit_ops.inc(len(pending.operations))
            self._batches_since_checkpoint += len(valid)
            if self._batches_since_checkpoint >= self._checkpoint_every:
                self._checkpoint()
        # Listener callbacks run outside the store mutex so they can
        # never block (or deadlock) the appender's group commit.
        self._dispatch_events(events)
        if self._refreezer is not None:
            self._refreezer.notify()

    def lookup(self, query: Tree, tau: float) -> LookupResult:
        """Approximate lookup over all stored documents.

        In serving mode the scan runs against an immutable snapshot of
        a recent generation and never blocks on concurrent writers.
        """
        if self._service is None:
            self._service = LookupService(
                self._forest, snapshot_reads=self._serving
            )
        return self._service.lookup(query, tau)

    def query(self, plan, force_mode: Optional[str] = None) -> LookupResult:
        """Execute a logical :mod:`repro.query` plan over the store.

        Structural predicates push down into the candidate sweep on
        backends that store the pre/post encoding (``rel``); on every
        other backend the store's own documents post-filter the
        retrieval result, so the same plan runs everywhere with
        bit-identical matches.  ``force_mode`` pins the strategy
        (``"pushdown"``/``"postfilter"``) for tests and benchmarks.
        """
        if self._service is None:
            self._service = LookupService(
                self._forest, snapshot_reads=self._serving
            )
        return self._service.query(
            plan, documents=self._require, force_mode=force_mode
        )

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
            matches = self._standing_engine().subscribe(
                query_id, plan, listener
            )
            self._checkpoint()
        return matches

    def unsubscribe(self, query_id: str) -> None:
        """Drop a standing query (checkpointed immediately)."""
        self.flush()
        with self._mutex:
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
        self,
        document_id: int,
        minus,
        plus,
        seq: int,
        operations: Sequence[EditOperation],
    ) -> List[Notification]:
        if self._standing is None or not len(self._standing):
            return []
        return self._standing.on_delta(document_id, minus, plus, seq, operations)

    def _dispatch_events(self, events: List[Notification]) -> None:
        if events and self._standing is not None:
            self._standing.dispatch(events)

    def checkpoint(self) -> None:
        """Force a snapshot + WAL truncation."""
        self.flush()
        with self._mutex:
            self._checkpoint()

    def flush(self) -> None:
        """Wait for every submitted edit batch to be durably applied.

        A no-op outside serving mode (writes are synchronous there).
        """
        if self._coalescer is not None:
            self._coalescer.flush()

    def close(self) -> None:
        """Drain the write queue, stop the background threads, and
        checkpoint; idempotent.  The store object must not be used
        afterwards."""
        if self._closed:
            return
        self._closed = True
        if self._coalescer is not None:
            self._coalescer.close()
        if self._refreezer is not None:
            self._refreezer.close()
        with self._mutex:
            self._checkpoint()
        self._forest.close()

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
        self._forest.sync_metric_gauges()
        if self._metrics.enabled:
            self._metrics.gauge(
                "store_documents", "documents currently stored"
            ).set(len(self._documents))
        return self._metrics.snapshot()

    def metrics_prometheus(self) -> str:
        """The same snapshot in Prometheus text exposition format."""
        self._forest.sync_metric_gauges()
        if self._metrics.enabled:
            self._metrics.gauge(
                "store_documents", "documents currently stored"
            ).set(len(self._documents))
        return self._metrics.to_prometheus()

    def stats(self) -> Dict[str, object]:
        """Operational counters of the store.

        Covers the collection (documents, nodes, pq-grams), the
        maintenance configuration, the storage backend (with per-shard
        posting counts for sharded forests), and the shared label
        hasher's memo hit/miss counters — a warm memo means every
        build and update call reused the store-wide hasher instead of
        re-fingerprinting labels from scratch.
        """
        node_count = sum(len(tree) for tree in self._documents.values())
        gram_count = sum(
            self._forest.size_of(document_id)
            for document_id in self._documents
        )
        hasher_stats = self._forest.hasher.stats()
        backend_stats = self._forest.backend.stats()
        service = self._service
        stats: Dict[str, object] = {
            "documents": len(self._documents),
            "nodes": node_count,
            "pq_grams": gram_count,
            "serving": self._serving,
            "compress": self._compress,
            "backend": backend_stats["backend"],
            "postings": backend_stats["postings"],
            "hasher_labels": hasher_stats["labels"],
            "hasher_hits": hasher_stats["hits"],
            "hasher_misses": hasher_stats["misses"],
            "query_cache_hits": service.query_cache_hits if service else 0,
            "query_cache_misses": service.query_cache_misses if service else 0,
        }
        if "shards" in backend_stats:
            stats["shards"] = backend_stats["shards"]
            stats["shard_postings"] = backend_stats["shard_postings"]
        if "segments" in backend_stats:
            stats["segments"] = backend_stats["segments"]
            stats["segment_bytes"] = backend_stats["segment_bytes"]
            stats["segment_generation"] = backend_stats["generation"]
            stats["overlay_keys"] = backend_stats["overlay_keys"]
        if "node_rows" in backend_stats:
            stats["node_rows"] = backend_stats["node_rows"]
            stats["structured_trees"] = backend_stats["structured_trees"]
        return stats

    # ------------------------------------------------------------------
    # index plumbing
    # ------------------------------------------------------------------

    def _require(self, document_id: int) -> Tree:
        try:
            return self._documents[document_id]
        except KeyError:
            raise StorageError(f"no document with id {document_id}") from None

    # ------------------------------------------------------------------
    # WAL
    # ------------------------------------------------------------------

    @staticmethod
    def _wal_block(
        document_id: int, operations: Sequence[EditOperation]
    ) -> str:
        return (
            f"BEGIN {document_id} {len(operations)}\n"
            + format_operations(operations)
            + ("\n" if operations else "")
            + "COMMIT\n"
        )

    def _append_wal_group(
        self, batches: Sequence[Tuple[int, Sequence[EditOperation]]]
    ) -> None:
        """Append each batch as its own BEGIN/COMMIT block, all in one
        write with one fsync (group commit).  ``wal_appends_total``
        counts blocks, not writes — it stays equal to
        ``store_edit_batches_total`` whatever the grouping."""
        text = "".join(
            self._wal_block(document_id, operations)
            for document_id, operations in batches
        )
        with open(self._wal_path(), "a", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        self._m_wal_appends.inc(len(batches))
        self._m_wal_bytes.inc(len(text.encode("utf-8")))
        self._m_wal_fsyncs.inc()

    def _read_wal(self) -> List[Tuple[int, List[EditOperation]]]:
        """Committed batches of the WAL; a torn trailing batch is
        silently dropped (it never acknowledged)."""
        path = self._wal_path()
        if not os.path.exists(path):
            return []
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().split("\n")
        batches: List[Tuple[int, List[EditOperation]]] = []
        position = 0
        while position < len(lines):
            line = lines[position].strip()
            if not line:
                position += 1
                continue
            if not line.startswith("BEGIN "):
                break  # torn or corrupt tail
            try:
                _, document_id_text, count_text = line.split()
                count = int(count_text)
                body = lines[position + 1 : position + 1 + count]
                commit_line = lines[position + 1 + count].strip()
            except (ValueError, IndexError):
                break
            if commit_line != "COMMIT":
                break
            try:
                operations = parse_operations("\n".join(body))
            except Exception:
                break
            if len(operations) != count:
                break
            batches.append((int(document_id_text), operations))
            position += count + 2
        return batches

    # ------------------------------------------------------------------
    # snapshot + recovery
    # ------------------------------------------------------------------

    # Documents are stored node by node (preorder) so that node ids —
    # which WAL operations and client edits reference — survive the
    # round trip exactly.
    _NODE_SCHEMA = Schema(
        [
            Column("docId", int),
            Column("seq", int),          # preorder position
            Column("nodeId", int),
            Column("parId", int, nullable=True),
            Column("label", str),
        ]
    )
    _IDX_SCHEMA = Schema(
        [Column("treeId", int), Column("pqg", tuple), Column("cnt", int)]
    )
    _META_SCHEMA = Schema([Column("key", str), Column("value", str)])
    # Standing queries: the registered plans (JSON spec) and their
    # membership at checkpoint time — the durable notification
    # frontier recovery reconciles against.
    _SUBS_SCHEMA = Schema([Column("queryId", str), Column("spec", str)])
    _STANDING_SCHEMA = Schema(
        [Column("queryId", str), Column("docId", int), Column("dist", float)]
    )

    def _checkpoint(self) -> None:
        with (
            self._m_checkpoint_seconds.time(),
            self._metrics.span("store.checkpoint"),
        ):
            self._write_checkpoint()
        self._m_checkpoints.inc()
        self._m_wal_fsyncs.inc()  # the truncation fsync below

    def _write_checkpoint(self) -> None:
        database = Database()
        meta = database.create_table("meta", self._META_SCHEMA, ("key",))
        meta.insert({"key": "p", "value": str(self.config.p)})
        meta.insert({"key": "q", "value": str(self.config.q)})
        meta.insert({"key": "backend", "value": self._forest.backend.name})
        meta.insert({"key": "store_uuid", "value": self._store_uuid})
        meta.insert({"key": "commit_seq", "value": str(self._commit_seq)})
        meta.insert(
            {"key": "compress", "value": "1" if self._compress else "0"}
        )
        if self._forest.backend.name == "sharded":
            meta.insert(
                {
                    "key": "shards",
                    "value": str(len(self._forest.backend.shards)),  # type: ignore[attr-defined]
                }
            )
        nodes = database.create_table("nodes", self._NODE_SCHEMA, ("docId", "seq"))
        for document_id, tree in self._documents.items():
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
        if self._forest.backend.name in ("segment", "rel"):
            # These backends are their own durable homes: make their
            # on-disk state (the segment delta log, or one atomic
            # relstore snapshot of the postings/sizes/node tables)
            # durable instead of serializing the relation — the
            # snapshot stays O(documents), and it must be durable
            # *before* the WAL truncation below discards the batches
            # it covers.
            with self._forest.lock.write():
                self._forest.backend.checkpoint()  # type: ignore[attr-defined]
        else:
            indexes = database.create_table(
                "indexes", self._IDX_SCHEMA, ("treeId", "pqg")
            )
            # The index relation is exactly the backend's snapshot — one
            # write path, serialized verbatim.  The shared scope keeps a
            # concurrent background refreeze (an exclusive holder) from
            # overlapping the read.
            with self._forest.lock.read():
                relation = self._forest.backend.snapshot()
            for document_id, bag in relation.items():
                for key, count in bag.items():
                    indexes.insert(
                        {"treeId": document_id, "pqg": key, "cnt": count}
                    )
        if self._standing is not None and len(self._standing):
            subs = database.create_table("subs", self._SUBS_SCHEMA, ("queryId",))
            standing = database.create_table(
                "standing", self._STANDING_SCHEMA, ("queryId", "docId")
            )
            for query_id, spec, members in (
                self._standing.describe_subscriptions()
            ):
                subs.insert(
                    {
                        "queryId": query_id,
                        "spec": json.dumps(spec, sort_keys=True),
                    }
                )
                for document_id, distance in sorted(members.items()):
                    standing.insert(
                        {
                            "queryId": query_id,
                            "docId": document_id,
                            "dist": distance,
                        }
                    )
        database.save(self._snapshot_path())
        # The snapshot covers everything: truncate the WAL.
        with open(self._wal_path(), "w", encoding="utf-8") as handle:
            handle.flush()
            os.fsync(handle.fileno())
        self._batches_since_checkpoint = 0

    def _recover(
        self,
        default_backend: str = "compact",
        default_shards: Optional[int] = None,
    ) -> None:
        database = Database.load(self._snapshot_path())
        meta = {
            row["key"]: row["value"] for row in database.table("meta").scan_dicts()
        }
        backend = meta.get("backend", default_backend)
        shards = meta.get("shards")
        if shards is not None:
            shards = int(shards)
        elif backend == "sharded":
            shards = default_shards
        # Pre-identity snapshots get an identity minted now; the
        # checkpoint at the end of recovery persists it.
        self._store_uuid = meta.get("store_uuid") or uuid.uuid4().hex
        self._commit_seq = int(meta.get("commit_seq", "0"))
        recorded_compress = meta.get("compress")
        if recorded_compress is not None:
            self._compress = recorded_compress == "1"
        config = GramConfig(int(meta["p"]), int(meta["q"]))
        self._documents = {}
        per_document: Dict[int, List[Dict[str, object]]] = {}
        for row in database.table("nodes").scan_dicts():
            per_document.setdefault(row["docId"], []).append(row)
        for document_id, rows in per_document.items():
            rows.sort(key=lambda row: row["seq"])  # type: ignore[arg-type,return-value]
            root = rows[0]
            tree = Tree(root["label"], root["nodeId"])  # type: ignore[arg-type]
            for row in rows[1:]:
                tree.add_child(
                    row["parId"], row["label"], node_id=row["nodeId"]  # type: ignore[arg-type]
                )
            self._documents[document_id] = tree
        # Persisted standing queries (absent from pre-stream snapshots):
        # plan specs plus the membership frontier the last checkpoint
        # recorded — restored and reconciled once the forest is final.
        persisted_subs: List[Tuple[str, Dict[str, object], Dict[int, float]]] = []
        if "subs" in database:
            memberships: Dict[str, Dict[int, float]] = {}
            if "standing" in database:
                for row in database.table("standing").scan_dicts():
                    memberships.setdefault(row["queryId"], {})[
                        row["docId"]
                    ] = row["dist"]
            for row in database.table("subs").scan_dicts():
                persisted_subs.append(
                    (
                        row["queryId"],
                        json.loads(row["spec"]),
                        memberships.get(row["queryId"], {}),
                    )
                )
        if backend in ("segment", "rel"):
            rebuilt = self._recover_homed_forest(config, backend)
        else:
            rebuilt = False
            self._forest = ForestIndex(
                config,
                backend=backend,
                shards=shards,
                metrics=self._metrics,
                compress=self._compress,
            )
            bags: Dict[int, Dict[tuple, int]] = {}
            for row in database.table("indexes").scan_dicts():
                bags.setdefault(row["treeId"], {})[row["pqg"]] = row["cnt"]
            # One backend restore() round-trip rebuilds the whole
            # relation (documents with empty bags included, keyed off
            # the document table rather than the sparse index rows).
            self._forest.backend.restore(
                {
                    document_id: bags.get(document_id, {})
                    for document_id in self._documents
                }
            )
        # Replay committed WAL batches appended after the snapshot.
        # Blocks are numbered from the snapshot's commit high-water
        # mark; documents always re-apply (the snapshot predates every
        # surviving block), the forest only when the backend does not
        # already hold the batch durably — a reopened segment backend's
        # delta log typically covers the whole tail.
        forest_backend = self._forest.backend
        base = self._commit_seq
        replayed = 0
        for offset, (document_id, operations) in enumerate(self._read_wal()):
            seq = base + 1 + offset
            document = self._documents[document_id]
            log = EditScript(list(operations)).apply(document)
            replayed += 1
            if seq <= forest_backend.applied_seq(document_id):
                continue
            forest_backend.note_commit_seq(seq)
            self._forest.update_tree(document_id, document, log)
        self._commit_seq = base + replayed
        self._m_wal_replayed.inc(replayed)
        # The delta log can also run *ahead* of the durable WAL: a torn
        # append discards the batch from the WAL but may leave its
        # index delta behind, recovering documents to the pre-batch
        # state while the index holds the post-batch bags.  Any tree
        # folded past the replayed commit frontier carries state the
        # store never committed — rebuild those bags from the recovered
        # documents (the authority), and clamp the backend's sequence
        # high-water mark so the next seal cannot advertise the
        # rolled-back frontier.
        ahead = [
            tree_id
            for tree_id in list(forest_backend.tree_ids())
            if forest_backend.applied_seq(tree_id) > self._commit_seq
        ]
        if ahead:
            forest_backend.note_commit_seq(self._commit_seq)
            for tree_id in ahead:
                self._forest.remove_tree(tree_id)
            self._forest.add_trees(
                [(tree_id, self._documents[tree_id]) for tree_id in ahead]
            )
            truncate = getattr(forest_backend, "truncate_seq_frontier", None)
            if truncate is not None:
                truncate(self._commit_seq)
            rebuilt = True
        # Standing queries resume at their durable frontier: restore the
        # persisted membership, then reconcile against the recovered
        # forest — the diff is exactly the set of events the crash (or
        # clean downtime) swallowed, delivered once via the buffer.
        self._standing = self._make_standing_engine()
        if persisted_subs:
            for query_id, spec, members in persisted_subs:
                self._standing.restore_subscription(query_id, spec, members)
            if self._standing.reconcile(self._commit_seq):
                rebuilt = True
        if replayed or rebuilt:
            self._checkpoint()
        self._batches_since_checkpoint = 0

    def _recover_homed_forest(self, config: GramConfig, backend: str) -> bool:
        """Reopen (or rebuild) a forest whose backend is its own durable
        home (``segment`` or ``rel``); True when anything had to be
        rebuilt or reconciled.

        The happy path reopens the backend's on-disk state — the mapped
        frozen segment plus its tail delta log, or ``rel.db`` — which
        carries the per-tree commit sequences the WAL replay gates on,
        so replay touches only the uncovered tail.  Anything less than
        clean falls back to a full rebuild from the recovered
        documents: corrupt files (checksums, torn manifests) and homes
        whose recorded source fingerprint is not this store's (files
        copied from another store, or left by a deleted one).  Slower,
        never wrong.
        """
        home, corrupt = {
            "segment": (self._segment_directory(), SegmentCorruptError),
            "rel": (self._rel_directory(), StorageError),
        }[backend]
        forest: Optional[ForestIndex] = None
        try:
            forest = ForestIndex(
                config,
                backend=backend,
                metrics=self._metrics,
                directory=home,
                compress=self._compress,
            )
        except corrupt:
            shutil.rmtree(home, ignore_errors=True)
        else:
            if (
                forest.backend.source_fingerprint()  # type: ignore[attr-defined]
                != self._store_uuid
            ):
                forest.close()
                forest = None
                shutil.rmtree(home, ignore_errors=True)
        if forest is None:
            self._forest = self._make_forest(config, backend, None)
            self._forest.backend.note_commit_seq(self._commit_seq)
            self._forest.add_trees(list(self._documents.items()))
            return True
        self._forest = forest
        forest.backend.set_source(self._store_uuid)  # type: ignore[attr-defined]
        # Membership reconcile: around a crash the backend's own log
        # can run a hair ahead of the document snapshot (an add or
        # remove whose checkpoint never landed).  The document table is
        # the authority on membership; bag *contents* are reconciled by
        # the sequence-gated WAL replay that follows.
        reconciled = False
        for tree_id in list(forest.backend.tree_ids()):
            if tree_id not in self._documents:
                forest.remove_tree(tree_id)
                reconciled = True
        missing = [
            document_id
            for document_id in self._documents
            if document_id not in forest.backend
        ]
        if missing:
            forest.backend.note_commit_seq(self._commit_seq)
            forest.add_trees(
                [
                    (document_id, self._documents[document_id])
                    for document_id in missing
                ]
            )
            reconciled = True
        if backend == "rel":
            # Trees whose node rows are missing from the reopened
            # database get their pre/post encoding re-recorded from the
            # documents, so structural pushdown stays sound.
            unstructured = forest.backend.structures_missing()  # type: ignore[attr-defined]
            if unstructured:
                with forest.lock.write():
                    for document_id in sorted(unstructured):
                        forest.backend.record_structure(
                            document_id, self._documents[document_id]
                        )
                reconciled = True
        return reconciled
