"""The traced run: the per-layer metrics of one workload.

One process, the workload's own collection, seed and op stream.  Every
op is executed at nested *boundaries*, each on its own identically
seeded replica and only through public functions, with a span
``{name, kind, op, parent, start, end}`` around each call::

    wire    ServeClient.<verb> against a front door (serve_in_thread)
            over a store opened with metrics=True
      codec   encode_frame/decode_frame on the op's real request and
              reply frames
      parse   tree_from_brackets / plan_from_spec / parse_operations
      store   DocumentStore.lookup/query/apply_edits, called directly
        forest  LookupService over a bare ForestIndex (snapshot reads);
                EditScript.apply + ForestIndex.update_tree
          kernel.*  PQGramIndex.from_tree, ForestIndex.read_view,
                    execute_plan, the view's candidates sweep,
                    update_index_batch_delta, backend.apply_tree_delta,
                    StandingQueryEngine.on_delta

A layer's self time is the median of its boundary minus the medians of
the boundaries inside it, so per verb the layers add up to the
client-observed ``wire`` median by construction and the unattributed
part has a name (``serve.self_ms.*``) instead of being lost.  The
replicas exist because a write can be applied to one store only once:
the span *parent* is the enclosing boundary, not an enclosing interval.

The window is split 70/30: the workload's own stream first (all count
and ratio metrics are read from the registries when it ends), then a
probe of the op kinds the workload does not issue, over the same
collection, so that every layer's time is measured on every workload.
Time-valued registry means (checkpoint, refreeze, lock and queue wait)
cover the whole run.  Spans inside the program are a later change.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import harness
import loadgen
import workloads
from harness import CheckFailed, median, ratio

from repro.concurrency.refreeze import RefreezeWorker
from repro.core.batch import update_index_batch_delta
from repro.core.index import PQGramIndex
from repro.edits.diff import diff_trees
from repro.edits.generator import EditScriptGenerator
from repro.edits.script import EditScript
from repro.edits.serialize import format_operations, parse_operations
from repro.lookup.forest import ForestIndex
from repro.lookup.service import LookupService
from repro.query import ApproxLookup, execute_plan
from repro.serve import AdmissionPolicy, FrontDoor, ServeClient, serve_in_thread
from repro.serve.protocol import decode_frame, encode_frame, result_frame
from repro.service.store import DocumentStore
from repro.stream import StandingQueryEngine, ingest_feed, plan_from_spec
from repro.tree.builder import tree_from_brackets, tree_to_brackets

NATIVE_SHARE = 0.7
#: the run's input digest covers this many leading ops of the
#: workload's stream (how many more run depends on the machine)
_DIGEST_OPS = 50
_IMAGE_TAIL_BATCHES = 8
OPEN_POLICY = AdmissionPolicy(
    rate=1e6, burst=1e6, max_queue=8192, max_wait_seconds=60.0
)
READ_KINDS = ("lookup", "query")
#: write kinds pooled into the ``apply`` verb (``feed`` crosses the
#: store boundary through ``ingest_feed`` and is kept apart)
APPLY_KINDS = ("apply1", "apply2", "apply8", "toggle")
ALL_KINDS = ("lookup", "query", "apply1", "apply8", "toggle", "feed")
NATIVE_KINDS = {
    "read_small": ("lookup",),
    "write_large": ("apply1", "apply8"),
    "mixed_open": ("lookup", "query", "apply2", "toggle"),
    "lifecycle": ("feed",),
}

Op = Dict[str, object]


class Spans:
    """Spans kept in memory until the run ends."""

    def __init__(self) -> None:
        self.rows: List[Tuple[str, str, int, Optional[str], float, float]] = []
        self.kind = ""
        self.op = 0

    def timed(self, name: str, parent: Optional[str], call: Callable, *args, **kwargs):
        started = time.perf_counter()
        result = call(*args, **kwargs)
        self.rows.append(
            (name, self.kind, self.op, parent, started, time.perf_counter())
        )
        return result

    def durations(self, name: str, kinds: Sequence[str]) -> List[float]:
        return [
            ended - started
            for row_name, kind, _, _, started, ended in self.rows
            if row_name == name and kind in kinds
        ]

    def median_ms(self, name: str, kinds: Sequence[str]) -> float:
        return median(self.durations(name, kinds)) * 1e3

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, kind, op, parent, started, ended in self.rows:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "kind": kind,
                            "op": op,
                            "parent": parent,
                            "start": started,
                            "end": ended,
                        }
                    )
                    + "\n"
                )


class Replicas:
    """The identically seeded copies one traced run executes against."""

    def __init__(
        self,
        base: str,
        documents: loadgen.Documents,
        build_batches: int,
        subscriptions: Sequence[Tuple[str, str, float]],
        spans: Spans,
    ) -> None:
        """``subscriptions`` are registered while the stores are still
        empty (each registration checkpoints the whole store); the
        documents added afterwards are routed through them, which
        leaves the same standing state as subscribing later would."""
        self.spans = spans
        self.base = base
        self.collection = documents
        self.documents = {document_id: tree.copy() for document_id, tree in documents}
        #: per document, when each write left for the traced door
        self.sent: Dict[int, List[float]] = {}
        # wire: traced (metrics on) and untraced (everything off)
        self.wire_store = DocumentStore(
            os.path.join(base, "wire"), metrics=True, serve_threads=2
        )
        self.plain_store = DocumentStore(os.path.join(base, "plain"), serve_threads=2)
        self.door = FrontDoor(
            stores={"default": self.wire_store},
            serve_threads=2,
            policy=OPEN_POLICY,
        )
        self.plain_door = FrontDoor(
            stores={"default": self.plain_store},
            serve_threads=2,
            policy=OPEN_POLICY,
            metrics=False,
        )
        self.handle = serve_in_thread(self.door)
        self.plain_handle = serve_in_thread(self.plain_door)
        self.client = ServeClient(port=self.handle.port)
        self.plain_client = ServeClient(port=self.plain_handle.port)
        self.events = harness.EventReader(ServeClient(port=self.handle.port))
        # the untraced door streams the same events, to a connection
        # nobody reads: both doors do the same work per write
        self.plain_events = ServeClient(port=self.plain_handle.port)
        # store: called directly
        self.store = DocumentStore(
            os.path.join(base, "store"), metrics=True, serve_threads=2
        )
        # forest: a bare index behind the lookup service
        self.forest = ForestIndex(metrics=True)
        self.service = LookupService(self.forest, snapshot_reads=True)
        self.refreezer = RefreezeWorker(self.forest)
        self.engine = StandingQueryEngine(
            self.forest, documents=self.documents.__getitem__, metrics=True
        )
        # read kernels: a forest nothing has looked at since the last
        # write, so read_view pays what the first lookup would pay
        self.read_forest = ForestIndex()
        # write kernels: per-document indexes plus a backend of their own
        self.kernel_forest = ForestIndex(metrics=True)

        for query_id, brackets, tau in subscriptions:
            self.subscribe(query_id, brackets, tau)
        for store in (self.wire_store, self.plain_store, self.store):
            harness.add_in_batches(store, documents, build_batches)
        started = time.perf_counter()
        self.forest.add_trees(documents)
        self.build_seconds = time.perf_counter() - started
        for document_id, _ in documents:
            self.engine.on_add(document_id, 0)
        self.read_forest.add_trees(documents)
        self.kernel_forest.add_trees(documents)
        self.kernel_indexes = {
            document_id: self.kernel_forest.index_of(document_id)
            for document_id, _ in documents
        }
        self.commit_seq = 0
        self.touched: set = set()
        self.lag_max = 0
        self._lag = self.store.metrics_registry.gauge("reader_generation_lag")

    def subscribe(self, query_id: str, brackets: str, tau: float) -> None:
        """One standing query on every replica that runs writes; its
        events stream on the traced door's second connection."""
        self.events.subscribe(query_id, brackets, tau)
        plan = plan_from_spec({"query": brackets, "tau": tau})
        self.plain_events.subscribe(query_id, brackets, tau=tau)
        self.store.subscribe(query_id, plan)
        self.engine.subscribe(query_id, plan)

    # ------------------------------------------------------------------
    # boundaries
    # ------------------------------------------------------------------

    def _both_doors(self, call: Callable[[ServeClient], object]):
        """One round trip through the traced door and one through the
        untraced one, taking turns at going first; the traced reply."""
        doors = [("wire", self.client), ("wire.untraced", self.plain_client)]
        if self.spans.op % 2:
            doors.reverse()
        for name, client in doors:
            reply = self.spans.timed(name, None, call, client)
            if name == "wire":
                traced_reply, self.wire_started = reply, self.spans.rows[-1][4]
        return traced_reply

    def read(self, op: Op) -> None:
        spans = self.spans
        brackets, tau = str(op["query"]), float(op["tau"])  # type: ignore[arg-type]
        predicates = op.get("predicates")
        request = {
            "id": spans.op,
            "verb": op["kind"],
            "tenant": "default",
            "query": brackets,
            "tau": tau,
        }
        if predicates:
            request["predicates"] = predicates
            wire = self._both_doors(
                lambda client: client.query(brackets, tau=tau, predicates=predicates)
            )["matches"]
        else:
            wire = self._both_doors(lambda client: client.lookup(brackets, tau))
        reply = result_frame(
            spans.op, {"matches": [[doc, dist] for doc, dist in wire]}
        )
        spans.timed("codec", "wire", _codec, request, reply)
        if predicates:
            plan = spans.timed(
                "parse", "wire", plan_from_spec,
                {"query": brackets, "tau": tau, "predicates": predicates},
            )
            tree = plan.retrieval.query
            stored = spans.timed("store", "wire", self.store.query, plan)
            direct = spans.timed(
                "forest", "store", self.service.query,
                plan, documents=self.documents.__getitem__,
            )
        else:
            tree = spans.timed("parse", "wire", tree_from_brackets, brackets)
            plan = ApproxLookup(tree, tau)
            stored = spans.timed("store", "wire", self.store.lookup, tree, tau)
            direct = spans.timed("forest", "store", self.service.lookup, tree, tau)
        # the client formats a Tree before the round trip starts
        spans.timed("format", None, tree_to_brackets, tree)
        forest = self.read_forest
        query_index = spans.timed(
            "kernel.query_index", "forest",
            PQGramIndex.from_tree, tree, forest.config, forest.hasher,
        )
        view = spans.timed("kernel.read_view", "forest", forest.read_view)
        executed = spans.timed(
            "kernel.execute", "forest", execute_plan,
            forest, plan, query_index=query_index, reader=view,
            documents=self.documents.__getitem__,
        )
        keys = list(query_index.items())
        spans.timed("kernel.sweep", "kernel.execute", view.candidates, keys)
        # snapshot views count nothing; the same sweep over the kernel
        # replica's live backend feeds the keys/postings counters
        self.kernel_forest.backend.candidates(keys)
        self.lag_max = max(self.lag_max, int(self._lag.value))
        if not (wire == stored.matches == direct.matches == executed.matches):
            raise CheckFailed(f"boundaries disagree on {op['kind']} {spans.op}")

    def write(self, op: Op) -> None:
        spans = self.spans
        document_id = int(op["doc"])  # type: ignore[arg-type]
        operations = op["operations"]
        text = format_operations(operations)  # type: ignore[arg-type]
        self.touched.add(document_id)
        applied = self._both_doors(
            lambda client: client.apply_edits(document_id, text)
        )
        self.sent.setdefault(document_id, []).append(self.wire_started)
        request = {
            "id": spans.op,
            "verb": "apply_edits",
            "tenant": "default",
            "doc": document_id,
            "ops": text,
        }
        reply = result_frame(spans.op, {"doc": document_id, "applied": applied})
        spans.timed("codec", "wire", _codec, request, reply)
        parsed = spans.timed("parse", "wire", parse_operations, text)
        spans.timed("format", None, format_operations, operations)
        if op["kind"] == "feed":
            report = spans.timed(
                "store", "wire", ingest_feed,
                self.store, [(document_id, op["version"])],
            )
            if report.errors or report.updated != 1:
                raise CheckFailed(f"feed item {spans.op}: {report.summary()}")
        else:
            spans.timed("store", "wire", self.store.apply_edits, document_id, parsed)
        tree = self.documents[document_id]
        started = time.perf_counter()
        log = spans.timed(
            "kernel.edit_apply", "forest", EditScript(list(parsed)).apply, tree
        )
        minus, plus = self.forest.update_tree(
            document_id, tree, log, engine="batch"
        )
        spans.rows.append(
            ("forest", spans.kind, spans.op, "store", started, time.perf_counter())
        )
        self.refreezer.notify()
        self.read_forest.update_tree(document_id, tree, log, engine="batch")
        self.read_forest.compact()  # what the refreeze worker does for a store
        self.commit_seq += 1
        spans.timed(
            "kernel.notify", "store", self.engine.on_delta,
            document_id, minus, plus, self.commit_seq, log,
        )
        hasher = self.kernel_forest.hasher
        index, kernel_minus, kernel_plus = spans.timed(
            "kernel.maintain", "forest", update_index_batch_delta,
            self.kernel_indexes[document_id], tree, log, hasher,
        )
        self.kernel_indexes[document_id] = index
        spans.timed(
            "kernel.apply_delta", "forest",
            self.kernel_forest.backend.apply_tree_delta,
            document_id, kernel_minus, kernel_plus,
        )

    def check(self) -> None:
        """Every replica ends in the state of the generator's mirror."""
        for document_id in sorted(self.touched):
            mirror = tree_to_brackets(self.documents[document_id])
            for store in (self.wire_store, self.plain_store, self.store):
                if tree_to_brackets(store.get_document(document_id)) != mirror:
                    raise CheckFailed(f"replicas diverged on document {document_id}")
            rebuilt = PQGramIndex.from_tree(
                self.documents[document_id], self.forest.config, self.forest.hasher
            )
            if not (
                rebuilt
                == self.forest.index_of(document_id)
                == self.kernel_indexes[document_id]
                == self.store.get_index(document_id)
            ):
                raise CheckFailed(f"index of document {document_id} is not a rebuild")

    def close(self) -> None:
        self.events.close()
        self.client.close()
        self.plain_client.close()
        self.plain_events.close()
        self.handle.drain()
        self.plain_handle.drain()
        self.store.close()
        self.refreezer.close()
        self.forest.close()
        self.read_forest.close()
        self.kernel_forest.close()


def _codec(request: Dict[str, object], reply: Dict[str, object]) -> None:
    """Both directions of both frames: client encode, server decode,
    server encode, client decode."""
    decode_frame(encode_frame(request))
    decode_frame(encode_frame(reply))


# ----------------------------------------------------------------------
# op streams
# ----------------------------------------------------------------------


def _native(
    workload: str,
    seed: int,
    sizes: Dict[str, float],
    documents: loadgen.Documents,
    schedule: Optional[loadgen.MixedSchedule],
) -> Iterator[Op]:
    """The workload's own op stream, as the end-to-end run generates it
    (closed-loop lanes interleaved, open-loop due times dropped)."""
    if workload == "read_small":
        hot = loadgen.hot_queries(documents, workload, seed)
        stream = loadgen.lookup_stream(
            documents, hot, loadgen.lane_rng(workload, seed, "0")
        )
        for query in stream:
            yield {"kind": "lookup", "query": query, "tau": loadgen.LOOKUP_TAU}
    elif workload == "write_large":
        lanes = [
            loadgen.edit_stream(
                documents[lane::workloads.CONNECTIONS],
                loadgen.lane_rng(workload, seed, str(lane)),
            )
            for lane in range(workloads.CONNECTIONS)
        ]
        while True:
            for lane in lanes:
                document_id, operations, _ = next(lane)
                yield {
                    "kind": f"apply{len(operations)}",
                    "doc": document_id,
                    "operations": operations,
                }
    elif workload == "mixed_open":
        assert schedule is not None
        for request in schedule.requests:
            if request.write is not None:
                document_id, operations = request.write
                yield {
                    "kind": "toggle" if document_id in schedule.watched else "apply2",
                    "doc": document_id,
                    "operations": operations,
                }
            else:
                yield {
                    "kind": request.verb,
                    "query": request.fields["query"],
                    "tau": request.fields["tau"],
                    "predicates": request.fields.get("predicates"),
                }
    else:
        feed, _ = loadgen.lifecycle_inputs(
            documents,
            seed,
            int(sizes["feed_versions"]),
            int(sizes["crash_batches"]),
        )
        for document_id, version in feed:
            yield {"kind": "feed", "doc": document_id, "version": version}


def _probe(
    kinds: Sequence[str], replicas: Replicas, watched: int, seed: int
) -> Iterator[Op]:
    """The op kinds the workload does not issue, in rotation, drawn
    against the replicas' current documents."""
    documents = replicas.collection
    rng = loadgen.lane_rng("probe", seed, ",".join(kinds))
    generator = EditScriptGenerator(rng=rng)
    hot = loadgen.hot_queries(documents, "probe", seed)
    lookups = loadgen.lookup_stream(documents, hot, rng)
    others = [document_id for document_id, _ in documents if document_id != watched]
    while True:
        for kind in kinds:
            if kind in READ_KINDS:
                yield {
                    "kind": kind,
                    "query": next(lookups),
                    "tau": loadgen.LOOKUP_TAU,
                    "predicates": loadgen.QUERY_PREDICATE if kind == "query" else None,
                }
                continue
            document_id = watched if kind == "toggle" else rng.choice(others)
            current = replicas.documents[document_id]
            if kind == "toggle":
                operations = loadgen.toggle_rename(current)
            elif kind == "feed":
                version = loadgen.changed_version(current, rng, generator)
                yield {"kind": kind, "doc": document_id, "version": version}
                continue
            else:
                operations = list(generator.generate(current, int(kind[5:])))
            yield {"kind": kind, "doc": document_id, "operations": operations}


def _execute(replicas: Replicas, ops: Iterator[Op], seconds: float) -> List[Op]:
    spans = replicas.spans
    executed: List[Op] = []
    deadline = time.perf_counter() + seconds
    for op in ops:
        if time.perf_counter() >= deadline:
            break
        spans.op += 1
        spans.kind = str(op["kind"])
        if op["kind"] in READ_KINDS:
            replicas.read(op)
        else:
            if op["kind"] == "feed":
                # the version arrives as a state; the edit script is
                # the diff against what the collection holds
                op["operations"] = spans.timed(
                    "kernel.diff", "store", diff_trees,
                    replicas.documents[int(op["doc"])], op["version"],  # type: ignore[arg-type]
                )
            replicas.write(op)
        executed.append(op)
    return executed


# ----------------------------------------------------------------------
# registries
# ----------------------------------------------------------------------


def _series(snapshot: Dict[str, object], section: str, name: str) -> List[object]:
    """Every label set of ``name`` in one section of a snapshot."""
    return [
        value
        for key, value in snapshot[section].items()  # type: ignore[attr-defined]
        if key == name or key.startswith(name + "{")
    ]


class _Registry:
    """One registry snapshot, as the difference to an earlier one."""

    def __init__(
        self, after: Dict[str, object], before: Optional[Dict[str, object]] = None
    ) -> None:
        self._after = after
        self._before = before or {"counters": {}, "histograms": {}}

    def counter(self, name: str) -> float:
        """Summed over every label set of ``name``."""
        return sum(_series(self._after, "counters", name)) - sum(
            _series(self._before, "counters", name)
        )

    def gauge(self, name: str) -> float:
        return float(self._after["gauges"].get(name, 0.0))  # type: ignore[attr-defined]

    def histogram(self, name: str) -> Tuple[float, float]:
        """``(count, sum)`` over every label set of ``name``."""
        count = total = 0.0
        for sign, snapshot in ((1, self._after), (-1, self._before)):
            for entry in _series(snapshot, "histograms", name):
                count += sign * entry["count"]  # type: ignore[index]
                total += sign * entry["sum"]  # type: ignore[index]
        return count, total

    def mean_ms(self, name: str) -> float:
        count, seconds = self.histogram(name)
        return ratio(seconds, count) * 1e3


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------


def run(
    workload: str, seed: int, seconds: float, sizes: Dict[str, float]
) -> workloads.Outcome:
    documents = workloads.collection(workload, sizes)
    build_batches = workloads.BUILD_BATCHES if workload == "lifecycle" else 1
    schedule: Optional[loadgen.MixedSchedule] = None
    if workload == "mixed_open":
        # the end-to-end run's requests, continued: back to back, the
        # traced run gets through several windows' worth of them
        schedule = loadgen.MixedSchedule(
            documents, seed, float(sizes["mixed_rate"]), 4 * seconds
        )
    spans = Spans()
    with harness.scratch(f"traced-{workload}") as base:
        replicas = Replicas(
            base,
            documents,
            build_batches,
            schedule.subscriptions if schedule is not None else (),
            spans,
        )
        try:
            outcome = _measure(workload, seed, seconds, sizes, schedule, replicas)
        finally:
            replicas.close()
    spans.write(os.path.join(harness.OUT, f"trace-{workload}-{seed}.jsonl"))
    return outcome


def _measure(
    workload: str,
    seed: int,
    seconds: float,
    sizes: Dict[str, float],
    schedule: Optional[loadgen.MixedSchedule],
    replicas: Replicas,
) -> workloads.Outcome:
    spans = replicas.spans
    documents = replicas.collection
    spans.kind = "ping"
    for _ in range(50):
        spans.timed("ping", None, replicas.client.ping)
    replicas.events.start()
    store_before = replicas.store.metrics()
    door_before = replicas.door.registry.snapshot()
    kernel_before = replicas.kernel_forest.metrics.snapshot()

    window_started = time.perf_counter()
    native = _execute(
        replicas,
        _native(workload, seed, sizes, documents, schedule),
        NATIVE_SHARE * seconds,
    )
    native_seconds = time.perf_counter() - window_started
    counts = _Registry(replicas.store.metrics(), store_before)
    door_counts = _Registry(replicas.door.registry.snapshot(), door_before)
    kernel_counts = _Registry(
        replicas.kernel_forest.metrics.snapshot(), kernel_before
    )
    lag_max = replicas.lag_max

    missing = [kind for kind in ALL_KINDS if kind not in NATIVE_KINDS[workload]]
    if schedule is None:
        watched = documents[0][0]
        replicas.subscribe(
            "probe-watch", tree_to_brackets(replicas.documents[watched]), 0.3
        )
    else:
        watched = schedule.watched[0]
    probed = _execute(
        replicas,
        _probe(missing, replicas, watched, seed),
        seconds - native_seconds,
    )
    time.sleep(0.1)  # the last event may trail its reply
    replicas.check()

    # the crash image: every acknowledged batch is fsynced, so a copy of
    # the live directory is what a SIGKILL would leave behind.  The
    # window tends to end on a checkpoint (the op that straddles the
    # deadline is the long one), so a few more batches go to this
    # replica alone to leave a WAL tail for recovery to replay.
    for _ in range(_IMAGE_TAIL_BATCHES):
        current = replicas.store.get_document(watched)
        replicas.store.apply_edits(watched, loadgen.toggle_rename(current))
    image = os.path.join(replicas.base, "image")
    shutil.copytree(os.path.join(replicas.base, "store"), image)
    snapshot_bytes = os.path.getsize(os.path.join(image, "store.db"))
    wal_bytes = os.path.getsize(os.path.join(image, "wal.log"))
    recovered = DocumentStore(image, metrics=True)
    replayed = _Registry(recovered.metrics()).counter("wal_replayed_batches_total")
    recovered.close()

    whole = _Registry(replicas.store.metrics())
    door_whole = _Registry(replicas.door.registry.snapshot())
    metrics = _layers(
        spans, counts, door_counts, kernel_counts, whole, door_whole,
        native_seconds,
        sum(1 for op in native if op["kind"] in READ_KINDS),
    )
    metrics.update(
        {
            "concurrency.generation_lag_max": float(lag_max),
            "service.recover_replayed_batches": replayed,
            "relstore.snapshot_bytes": float(snapshot_bytes),
            "relstore.wal_bytes": float(wal_bytes),
            "core.build_us_per_node": ratio(
                replicas.build_seconds * 1e6, loadgen.node_count(documents)
            ),
            "stream.notify_wire_ms": _notify_wire(replicas.events.events, replicas.sent),
        }
    )
    detail = _telescope(spans)
    detail["ops_native"] = float(len(native))
    detail["ops_probe"] = float(len(probed))
    inputs = harness.sha256_of(
        [
            str(
                op.get("query")
                or format_operations(op["operations"])  # type: ignore[arg-type]
            ).encode("utf-8")
            for op in native[:_DIGEST_OPS]
        ]
    )
    return workloads.Outcome(
        metrics=metrics,
        attempted=len(native) + len(probed),
        failed=0,
        inputs_sha256=inputs,
        detail=detail,
    )


def _notify_wire(
    events: Sequence[Tuple[float, Dict[str, object]]],
    sent: Dict[int, List[float]],
) -> float:
    """Median time from sending a write to receiving the event it
    caused on the subscriber connection."""
    samples = []
    for arrived, event in events:
        earlier = [
            stamp
            for stamp in sent.get(int(event["doc"]), [])  # type: ignore[arg-type]
            if stamp < arrived
        ]
        if earlier:
            samples.append(arrived - earlier[-1])
    return median(samples) * 1e3


_READ_KERNELS = ("kernel.query_index", "kernel.read_view", "kernel.execute")
_WRITE_KERNELS = ("kernel.edit_apply", "kernel.maintain", "kernel.apply_delta")


def _self_times(spans: Spans, kinds: Sequence[str], kernels: Sequence[str]) -> Dict[str, float]:
    """Boundary medians peeled from the outside in (milliseconds)."""
    wire = spans.median_ms("wire", kinds)
    codec = spans.median_ms("codec", kinds)
    parse = spans.median_ms("parse", kinds)
    store = spans.median_ms("store", kinds)
    forest = spans.median_ms("forest", kinds)
    inner = {kernel: spans.median_ms(kernel, kinds) for kernel in kernels}
    return {
        "wire": wire,
        "serve.self": wire - codec - parse - store,
        "codec": codec,
        "parse": parse,
        "service.self": store - forest,
        "lookup.self": forest - sum(inner.values()),
        **inner,
    }


def _telescope(spans: Spans) -> Dict[str, float]:
    """Per verb: the wire median and the sum of the layers' self times
    (equal by construction — printed so that it can be seen)."""
    detail: Dict[str, float] = {}
    for verb, kinds, kernels in (
        ("lookup", ("lookup",), _READ_KERNELS),
        ("query", ("query",), _READ_KERNELS),
        ("apply", APPLY_KINDS, _WRITE_KERNELS),
    ):
        parts = _self_times(spans, kinds, kernels)
        wire = parts.pop("wire")
        detail[f"telescope.{verb}.wire_ms"] = wire
        detail[f"telescope.{verb}.layers_sum_ms"] = sum(parts.values())
        detail[f"telescope.{verb}.samples"] = float(len(spans.durations("wire", kinds)))
        for name, value in parts.items():
            detail[f"telescope.{verb}.{name}_ms"] = value
    return detail


def _layers(
    spans: Spans,
    counts: _Registry,
    door_counts: _Registry,
    kernel_counts: _Registry,
    whole: _Registry,
    door_whole: _Registry,
    native_seconds: float,
    native_reads: int,
) -> Dict[str, float]:
    lookup = _self_times(spans, ("lookup",), _READ_KERNELS)
    query = _self_times(spans, ("query",), _READ_KERNELS)
    apply = _self_times(spans, APPLY_KINDS, _WRITE_KERNELS)
    one, eight = ("apply1", "toggle"), ("apply8",)
    scans = counts.counter("lookup_distance_scans_total")
    candidates = counts.counter("lookup_candidates_total")
    batches = counts.counter("store_edit_batches_total")
    cache_hits = counts.counter("query_cache_hits_total")
    cache_misses = counts.counter("query_cache_misses_total")
    evaluations = counts.counter("standing_evaluations_total")
    skipped = counts.counter("standing_eval_skipped_total")
    checkpoint_count, checkpoint_seconds = counts.histogram("checkpoint_seconds")
    group_count, group_batches = counts.histogram("write_group_batches")
    memo_hits = whole.gauge("hasher_memo_hits")
    memo_misses = whole.gauge("hasher_memo_misses")
    feed_seconds = sum(spans.durations("store", ("feed",)))
    return {
        # serve
        "serve.ping_rtt_ms": spans.median_ms("ping", ("ping",)),
        "serve.wire_ms.lookup": lookup["wire"],
        "serve.wire_ms.query": query["wire"],
        "serve.wire_ms.apply": apply["wire"],
        "serve.codec_ms.lookup": lookup["codec"],
        "serve.codec_ms.apply": apply["codec"],
        "serve.self_ms.lookup": lookup["serve.self"],
        "serve.self_ms.apply": apply["serve.self"],
        "serve.queue_wait_ms": door_whole.mean_ms("serve_queue_wait_seconds"),
        "serve.events_streamed": door_counts.counter("serve_events_streamed_total"),
        "serve.events_dropped": door_counts.counter("serve_events_dropped_total"),
        "serve.shed_total": door_counts.counter("serve_shed_total"),
        # tree / edits
        "tree.parse_ms.lookup": lookup["parse"],
        "tree.format_ms.lookup": spans.median_ms("format", ("lookup",)),
        "edits.parse_ms.apply": apply["parse"],
        "edits.apply_ms.op1": spans.median_ms("kernel.edit_apply", one),
        "edits.apply_ms.op8": spans.median_ms("kernel.edit_apply", eight),
        "edits.diff_ms": spans.median_ms("kernel.diff", ("feed",)),
        # service
        "service.self_ms.lookup": lookup["service.self"],
        "service.self_ms.apply": apply["service.self"],
        "service.wal_bytes_per_op": ratio(counts.counter("wal_bytes_total"), batches),
        "service.fsyncs_per_batch": ratio(counts.counter("wal_fsyncs_total"), batches),
        "service.group_batches_mean": ratio(group_batches, group_count),
        "service.checkpoints_total": checkpoint_count,
        "service.checkpoint_ms_mean": whole.mean_ms("checkpoint_seconds"),
        "service.checkpoint_share": ratio(checkpoint_seconds, native_seconds),
        # concurrency
        # a mean: only the first read after a write pays for a fresh
        # view, so the median is that of a no-op
        "concurrency.read_view_ms": _mean_ms(
            spans.durations("kernel.read_view", READ_KINDS)
        ),
        "concurrency.lock_wait_ms.read": _lock_wait(whole, "read"),
        "concurrency.lock_wait_ms.write": _lock_wait(whole, "write"),
        "concurrency.result_cache_hit_ratio": ratio(
            counts.counter("result_cache_hits_total"), cache_hits + cache_misses
        ),
        # lookup / query
        "lookup.self_ms": lookup["lookup.self"],
        "lookup.update_self_ms": apply["lookup.self"],
        "lookup.query_cache_hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
        "query.execute_ms.lookup": lookup["kernel.execute"],
        "query.execute_ms.query": query["kernel.execute"],
        "query.candidates_per_match": ratio(
            candidates, counts.counter("lookup_matches_total")
        ),
        "query.pruned_ratio": ratio(
            counts.counter("lookup_candidates_pruned_total"), candidates
        ),
        "query.scored_per_lookup": ratio(
            counts.counter("lookup_candidates_scored_total"), scans
        ),
        # backend
        "backend.sweep_ms": spans.median_ms("kernel.sweep", ("lookup",)),
        "backend.keys_swept_per_lookup": ratio(
            kernel_counts.counter("index_keys_swept_total"), native_reads
        ),
        "backend.postings_touched_per_lookup": ratio(
            kernel_counts.counter("index_postings_touched_total"), native_reads
        ),
        "backend.overlay_key_share": ratio(
            counts.gauge("compact_dirty_keys"), counts.gauge("backend_distinct_keys")
        ),
        "backend.apply_delta_ms": apply["kernel.apply_delta"],
        "backend.delta_keys_per_batch": ratio(
            counts.counter("index_delta_keys_total"),
            counts.counter("index_deltas_applied_total"),
        ),
        "backend.refreezes_total": counts.counter("compact_refreezes_total"),
        "backend.refreeze_ms_mean": whole.mean_ms("compact_refreeze_seconds"),
        # core / hashing
        "core.query_index_ms": lookup["kernel.query_index"],
        "core.maintain_ms.op1": spans.median_ms("kernel.maintain", one),
        "core.maintain_ms.op8": spans.median_ms("kernel.maintain", eight),
        "core.delta_keys_per_op": ratio(
            counts.counter("maintain_delta_keys_total"),
            counts.counter("maintain_ops_total"),
        ),
        "hashing.memo_hit_ratio": ratio(memo_hits, memo_hits + memo_misses),
        # stream
        "stream.notify_ms": spans.median_ms("kernel.notify", ("toggle",)),
        "stream.evaluations_per_batch": ratio(
            evaluations, counts.counter("standing_batches_total")
        ),
        "stream.skip_ratio": ratio(skipped, skipped + evaluations),
        "stream.feed_docs_per_s": ratio(
            len(spans.durations("store", ("feed",))), feed_seconds
        ),
        # obsv: what the registries and spans of this run cost
        "obsv.overhead_ratio.lookup": ratio(
            lookup["wire"], spans.median_ms("wire.untraced", ("lookup",))
        ),
        "obsv.overhead_ratio.apply": ratio(
            apply["wire"], spans.median_ms("wire.untraced", APPLY_KINDS)
        ),
    }


def _mean_ms(samples: Sequence[float]) -> float:
    return ratio(sum(samples), len(samples)) * 1e3


def _lock_wait(registry: _Registry, mode: str) -> float:
    count, seconds = registry.histogram(f'lock_wait_seconds{{mode="{mode}"}}')
    return ratio(seconds, count) * 1e3
