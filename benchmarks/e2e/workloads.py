"""The four end-to-end workloads (metrics and tracing off).

Each function runs one workload against the production path with the
shipped defaults and returns an :class:`Outcome`: the declared
end-to-end metrics, ungated detail values, and the request ledger.  A
correctness check that does not hold raises
:class:`harness.CheckFailed`, which fails the run.

All four report the same metrics; what ``op`` means per workload:

=============  =========================================================
``read_small``   one ``lookup`` round trip (closed loop, 2 connections)
``write_large``  one ``apply_edits`` round trip (closed loop, 2 conns)
``mixed_open``   one request of the 12:2:1 lookup/apply/query mix, timed
                 from its due time (open loop, fixed rate)
``lifecycle``    one changed document version ingested (diff → edits →
                 durable apply), no server
=============  =========================================================
"""

from __future__ import annotations

import contextlib
import itertools
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import harness
import loadgen
from harness import CheckFailed, median, p95, ratio

from repro.core.index import PQGramIndex
from repro.errors import ServeError
from repro.serve import ServeClient
from repro.serve.protocol import decode_frame, encode_frame
from repro.service.store import DocumentStore
from repro.stream import ingest_feed
from repro.tree.builder import tree_to_brackets
from repro.tree.tree import Tree

#: collection sizes; ``--smoke`` only checks that everything runs
SIZES = {
    "full": {
        "small_documents": 1000,
        "mixed_documents": 500,
        "lifecycle_documents": 400,
        "large_documents": 40,
        "large_nodes": 400,
        "mixed_rate": 60.0,
        "feed_versions": 160,
        "crash_batches": 24,
    },
    "smoke": {
        "small_documents": 200,
        "mixed_documents": 200,
        "lifecycle_documents": 200,
        "large_documents": 8,
        "large_nodes": 400,
        "mixed_rate": 60.0,
        "feed_versions": 32,
        "crash_batches": 24,
    },
}
#: one reply in this many is checked against the brute-force reference
CHECK_EVERY = 20
CONNECTIONS = 2
_COLLECTION_SIZE = {
    "read_small": "small_documents",
    "mixed_open": "mixed_documents",
    "lifecycle": "lifecycle_documents",
}


def collection(workload: str, sizes: Dict[str, float]) -> loadgen.Documents:
    """The documents a workload runs over (the same for every seed)."""
    if workload == "write_large":
        return loadgen.large_collection(
            int(sizes["large_documents"]), int(sizes["large_nodes"])
        )
    return loadgen.small_collection(int(sizes[_COLLECTION_SIZE[workload]]))


@dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    inputs_sha256: str
    detail: Dict[str, float] = field(default_factory=dict)


@dataclass
class Window:
    """What the measured window saw."""

    latencies: List[float]  # of the operations that completed, seconds
    within_limit: int
    attempted: int
    seconds: float


def _outcome(
    window: Window,
    setup: harness.Setup,
    documents: loadgen.Documents,
    disk_bytes: int,
    nodes: int,
    rss_mb: float,
    attempted: int,
    failed: int,
    inputs_sha256: str,
    **detail: float,
) -> Outcome:
    """The end-to-end metrics, the same for every workload; the tail
    percentile rides along as detail (it is not gated: on `mixed_open`
    it sits where a handful of requests decide which regime it reads)."""
    if not window.latencies:
        raise CheckFailed("no operation completed inside the window")
    return Outcome(
        metrics={
            "setup_s": median(setup.total),
            "op_p50_ms": median(window.latencies) * 1e3,
            "ops_per_s": ratio(len(window.latencies), window.seconds),
            # a failed or shed request misses every limit
            "within_limit_share": ratio(window.within_limit, window.attempted),
            "ingest_docs_per_s": ratio(len(documents), median(setup.add)),
            "recover_s": median(setup.recover),
            "disk_bytes_per_node": ratio(disk_bytes, nodes),
            "peak_rss_mb": rss_mb,
        },
        attempted=attempted,
        failed=failed,
        inputs_sha256=inputs_sha256,
        detail={
            "op_samples": float(len(window.latencies)),
            "op_p95_ms": p95(window.latencies) * 1e3,
            **detail,
        },
    )


def _check_documents(
    directory: str, expected: Dict[int, Tree]
) -> None:
    """After the drain: ``store verify`` passes in a fresh process, and
    the recovered documents and indexes equal the generator's mirrors
    and a from-scratch build over them."""
    harness.verify_store(directory)
    store = DocumentStore(directory)
    try:
        if sorted(store.document_ids()) != sorted(expected):
            raise CheckFailed("recovered store holds other documents")
        for document_id, mirror in expected.items():
            if tree_to_brackets(store.get_document(document_id)) != (
                tree_to_brackets(mirror)
            ):
                raise CheckFailed(
                    f"document {document_id} differs from its mirror: an "
                    "acknowledged batch is missing or an unacknowledged "
                    "one was applied"
                )
            rebuilt = PQGramIndex.from_tree(mirror, store.config, store.hasher)
            if rebuilt != store.get_index(document_id):
                raise CheckFailed(
                    f"index of document {document_id} differs from a "
                    "from-scratch build"
                )
    finally:
        store.close()


# ----------------------------------------------------------------------
# the served workloads' common frame
# ----------------------------------------------------------------------


class _Served:
    """One served run: the repeated set-up, the server that takes the
    load, and what is read off it once the window has closed."""

    def __init__(self, base: str, documents: loadgen.Documents) -> None:
        self.setup = harness.Setup()
        self.server = self.setup.run(base, documents)
        self.rss_mb = 0.0
        self.disk_bytes = 0
        self.nodes = 0

    def finish(self, expected: Dict[int, Tree]) -> None:
        """Drain the server and check what it left on disk against the
        generator's mirrors."""
        self.rss_mb = self.server.peak_rss_mb()
        self.server.drain()
        self.disk_bytes = harness.tree_bytes(self.setup.tenant_directory)
        self.nodes = sum(len(tree) for tree in expected.values())
        _check_documents(self.setup.tenant_directory, expected)

    def outcome(
        self,
        window: Window,
        documents: loadgen.Documents,
        failed: int,
        inputs_sha256: str,
        **detail: float,
    ) -> Outcome:
        return _outcome(
            window,
            self.setup,
            documents,
            self.disk_bytes,
            self.nodes,
            self.rss_mb,
            window.attempted,
            failed,
            inputs_sha256,
            **detail,
        )


@contextlib.contextmanager
def _served(workload: str, documents: loadgen.Documents) -> Iterator[_Served]:
    with harness.scratch(workload) as base:
        served = _Served(base, documents)
        try:
            yield served
        finally:
            served.server.kill()


# ----------------------------------------------------------------------
# closed loops (read_small, write_large)
# ----------------------------------------------------------------------


class _Lane:
    """One closed-loop connection's record."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.failed = 0
        self.attempted = 0
        self.error: Optional[BaseException] = None


def _closed_loop(
    port: int,
    seconds: float,
    bodies: Sequence[Callable[[ServeClient, _Lane], None]],
    limit: float,
) -> Tuple[Window, int]:
    """Run one body per connection, each on its own thread, until the
    window closes; a body issues exactly one request per call.  Returns
    the window and the number of failed requests."""
    lanes = [_Lane() for _ in bodies]
    barrier = threading.Barrier(len(bodies) + 1)

    def run(body: Callable[[ServeClient, _Lane], None], lane: _Lane) -> None:
        try:
            with ServeClient(port=port) as client:
                client.ping()
                barrier.wait()
                deadline = time.perf_counter() + seconds
                while time.perf_counter() < deadline:
                    lane.attempted += 1
                    body(client, lane)
        except BaseException as exc:  # noqa: BLE001 - reported by the caller
            lane.error = exc
            barrier.abort()

    threads = [
        threading.Thread(target=run, args=(body, lane))
        for body, lane in zip(bodies, lanes)
    ]
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    for lane in lanes:
        if lane.error is not None:
            raise CheckFailed(f"load generator failed: {lane.error!r}")
    latencies = [sample for lane in lanes for sample in lane.latencies]
    window = Window(
        latencies,
        sum(1 for sample in latencies if sample <= limit),
        sum(lane.attempted for lane in lanes),
        elapsed,
    )
    return window, sum(lane.failed for lane in lanes)


def _lane_streams(workload: str, seed: int, pregenerated: int, make_stream):
    """Per connection: the first ``pregenerated`` items of its stream,
    drawn before the window opens (they are what ``inputs_sha256``
    covers), and the stream itself to continue from if they run out."""
    lanes = []
    for lane_index in range(CONNECTIONS):
        stream = make_stream(
            lane_index, loadgen.lane_rng(workload, seed, str(lane_index))
        )
        lanes.append(([next(stream) for _ in range(pregenerated)], stream))
    return lanes


def read_small(seed: int, seconds: float, sizes: Dict[str, float]) -> Outcome:
    documents = collection("read_small", sizes)
    hot = loadgen.hot_queries(documents, "read_small", seed)
    lanes = _lane_streams(
        "read_small",
        seed,
        int(seconds * 400),
        lambda _, rng: loadgen.lookup_stream(documents, hot, rng),
    )
    inputs = harness.sha256_of(
        [query.encode("utf-8") for queries, _ in lanes for query in queries]
    )
    sampled: List[Tuple[str, List[Tuple[int, float]]]] = []

    def reader(queries: Iterator[str]):
        def body(client: ServeClient, lane: _Lane) -> None:
            query = next(queries)
            started = time.perf_counter()
            try:
                matches = client.lookup(query, loadgen.LOOKUP_TAU)
            except ServeError:
                lane.failed += 1
                return
            lane.latencies.append(time.perf_counter() - started)
            if lane.attempted % CHECK_EVERY == 0:
                sampled.append((query, matches))

        return body

    with _served("read_small", documents) as served:
        window, failed = _closed_loop(
            served.server.port,
            seconds,
            [reader(itertools.chain(*lane)) for lane in lanes],
            harness.READ_LIMIT,
        )
        served.finish(dict(documents))
    reference = loadgen.BruteForce(documents)
    for query, matches in sampled:
        if matches != reference.lookup(query, loadgen.LOOKUP_TAU):
            raise CheckFailed(f"lookup reply differs from brute force: {query}")
    return served.outcome(
        window,
        documents,
        failed,
        inputs,
        lookup_replies_checked=float(len(sampled)),
    )


def write_large(seed: int, seconds: float, sizes: Dict[str, float]) -> Outcome:
    documents = collection("write_large", sizes)
    lanes = _lane_streams(
        "write_large",
        seed,
        int(seconds * 30),
        lambda lane_index, rng: loadgen.edit_stream(
            documents[lane_index::CONNECTIONS], rng
        ),
    )
    inputs = harness.sha256_of(
        [
            f"{document_id}\n{text}\n".encode("utf-8")
            for batches, _ in lanes
            for document_id, _, text in batches
        ]
    )
    #: (batch, seconds) in acknowledgement order — a document belongs to
    #: one connection, so per document that is also its edit order
    acknowledged: List[Tuple[loadgen.Batch, float]] = []

    def writer(batches: Iterator[loadgen.Batch]):
        def body(client: ServeClient, lane: _Lane) -> None:
            batch = next(batches)
            started = time.perf_counter()
            try:
                client.apply_edits(batch[0], batch[2])
            except ServeError:
                lane.failed += 1
                return
            taken = time.perf_counter() - started
            lane.latencies.append(taken)
            acknowledged.append((batch, taken))

        return body

    with _served("write_large", documents) as served:
        window, failed = _closed_loop(
            served.server.port,
            seconds,
            [writer(itertools.chain(*lane)) for lane in lanes],
            harness.WRITE_LIMIT,
        )
        served.finish(
            loadgen.replay(
                documents,
                [(document_id, operations) for (document_id, operations, _), _ in acknowledged],
            )
        )
    by_size = {
        size: [taken for (_, operations, _), taken in acknowledged if len(operations) == size]
        for size in (1, 8)
    }
    return served.outcome(
        window,
        documents,
        failed,
        inputs,
        apply_op1_p50_ms=median(by_size[1]) * 1e3,
        apply_op8_p50_ms=median(by_size[8]) * 1e3,
    )


# ----------------------------------------------------------------------
# open loop (mixed_open)
# ----------------------------------------------------------------------

_REPLY_GRACE = 20.0
_LIMITS = {
    "lookup": harness.READ_LIMIT,
    "query": harness.READ_LIMIT,
    "apply_edits": harness.WRITE_LIMIT,
}


@dataclass
class _OpenLoop:
    epoch: float  # when the window opened
    replies: Dict[int, Tuple[float, Dict[str, object]]]  # id → (arrival, frame)
    lateness: List[float]  # how late the generator sent each request
    backlog: int  # requests unanswered when the window closed


def _open_loop(
    port: int, requests: Sequence[loadgen.Request], seconds: float
) -> _OpenLoop:
    """Send every request at its due time on one pipelined connection
    and collect the replies (until ``_REPLY_GRACE`` after the window)."""
    connection = socket.create_connection(("127.0.0.1", port))
    connection.setblocking(False)
    outgoing = bytearray()
    incoming = bytearray()
    replies: Dict[int, Tuple[float, Dict[str, object]]] = {}
    lateness: List[float] = []
    backlog: Optional[int] = None
    position = 0
    epoch = time.perf_counter() + 0.05
    try:
        while len(replies) < len(requests):
            now = time.perf_counter()
            while position < len(requests) and (
                epoch + requests[position].due <= now
            ):
                lateness.append(now - epoch - requests[position].due)
                outgoing += requests[position].frame
                position += 1
            if backlog is None and now >= epoch + seconds:
                backlog = position - len(replies)
            if now > epoch + seconds + _REPLY_GRACE:
                break
            if position < len(requests):
                wait = epoch + requests[position].due - now
            else:
                wait = 0.05
            readable, writable, _ = select.select(
                [connection], [connection] if outgoing else [], [], max(0.0, wait)
            )
            if writable:
                sent = connection.send(outgoing)
                del outgoing[:sent]
            if readable:
                chunk = connection.recv(1 << 16)
                if not chunk:
                    raise CheckFailed("server closed the request connection")
                arrived = time.perf_counter()
                incoming += chunk
                *lines, rest = incoming.split(b"\n")
                incoming = bytearray(rest)
                for line in lines:
                    frame = decode_frame(bytes(line))
                    replies[frame["id"]] = (arrived, frame)  # type: ignore[index]
    finally:
        connection.close()
    if backlog is None:
        backlog = position - len(replies)
    return _OpenLoop(epoch, replies, lateness, backlog)


def mixed_open(seed: int, seconds: float, sizes: Dict[str, float]) -> Outcome:
    documents = collection("mixed_open", sizes)
    rate = float(sizes["mixed_rate"])
    schedule = loadgen.MixedSchedule(documents, seed, rate, seconds)
    requests = schedule.requests
    inputs = harness.sha256_of([request.frame for request in requests])
    with _served("mixed_open", documents) as served:
        subscribing = time.perf_counter()
        subscriber = harness.EventReader(ServeClient(port=served.server.port))
        try:
            for query_id, brackets, tau in schedule.subscriptions:
                matches = subscriber.subscribe(query_id, brackets, tau)
                if matches != schedule.initial_matches[query_id]:
                    raise CheckFailed(
                        f"standing query {query_id}: initial matches differ "
                        "from brute force"
                    )
            subscribe_seconds = time.perf_counter() - subscribing
            subscriber.start()
            loop = _open_loop(served.server.port, requests, seconds)
            # the last write's events may trail its reply
            time.sleep(0.3)
        finally:
            subscriber.close()
        answered = {
            request.id
            for request in requests
            if request.id in loop.replies and loop.replies[request.id][1].get("ok")
        }
        served.finish(
            loadgen.replay(
                documents,
                [
                    request.write
                    for request in requests
                    if request.write is not None and request.id in answered
                ],
            )
        )

    latencies: Dict[str, List[float]] = {verb: [] for verb in _LIMITS}
    within_limit = 0
    for request in requests:
        if request.id not in answered:
            continue
        taken = loop.replies[request.id][0] - loop.epoch - request.due
        latencies[request.verb].append(taken)
        if taken <= _LIMITS[request.verb]:
            within_limit += 1
    if loop.backlog > 2 * rate:
        raise CheckFailed(
            f"{loop.backlog} requests were unanswered when the window closed "
            f"(more than two seconds of load at {rate:g}/s): the backlog "
            "grows, so the run measures the queue, not the system"
        )
    notify = _match_events(schedule, subscriber.events, loop.epoch)
    pooled = [sample for samples in latencies.values() for sample in samples]
    last_reply = max(arrived for arrived, _ in loop.replies.values())
    return served.outcome(
        # the window runs from the first due time to the last reply
        Window(pooled, within_limit, len(requests), last_reply - loop.epoch),
        documents,
        len(requests) - len(answered),
        inputs,
        lookup_samples=float(len(latencies["lookup"])),
        lookup_p50_ms=median(latencies["lookup"]) * 1e3,
        lookup_p95_ms=p95(latencies["lookup"]) * 1e3,
        apply_samples=float(len(latencies["apply_edits"])),
        apply_p50_ms=median(latencies["apply_edits"]) * 1e3,
        query_samples=float(len(latencies["query"])),
        query_p50_ms=median(latencies["query"]) * 1e3,
        notify_samples=float(len(notify)),
        notify_p50_ms=median(notify) * 1e3,
        generator_lateness_p95_ms=p95(loop.lateness) * 1e3,
        backlog_at_window_end=float(loop.backlog),
        subscribe_s=subscribe_seconds,
    )


def _match_events(
    schedule: loadgen.MixedSchedule,
    received: Sequence[Tuple[float, Dict[str, object]]],
    epoch: float,
) -> List[float]:
    """Every expected standing-query event arrived exactly once, in
    order per (query, document); returns write-due → arrival times."""
    expected: Dict[Tuple[str, int], List[Tuple[int, str, float]]] = {}
    for index, query_id, document_id, kind, distance in schedule.expected_events:
        expected.setdefault((query_id, document_id), []).append(
            (index, kind, distance)
        )
    arrived: Dict[Tuple[str, int], List[Tuple[float, str, float]]] = {}
    for stamp, event in received:
        arrived.setdefault(
            (str(event["query_id"]), int(event["doc"])), []  # type: ignore[arg-type]
        ).append((stamp, str(event["kind"]), float(event["distance"])))  # type: ignore[arg-type]
    if set(arrived) - set(expected):
        raise CheckFailed(
            f"unexpected standing-query events for {sorted(set(arrived) - set(expected))}"
        )
    notify: List[float] = []
    for key, wanted in expected.items():
        got = arrived.get(key, [])
        if [(kind, distance) for _, kind, distance in wanted] != [
            (kind, distance) for _, kind, distance in got
        ]:
            raise CheckFailed(
                f"standing query {key[0]} / document {key[1]}: expected "
                f"{len(wanted)} event(s), received {len(got)} or in "
                "another order — an event was lost, duplicated or wrong"
            )
        for (index, _, _), (stamp, _, _) in zip(wanted, got):
            notify.append(stamp - epoch - schedule.requests[index].due)
    return notify


# ----------------------------------------------------------------------
# lifecycle (no server)
# ----------------------------------------------------------------------

BUILD_BATCHES = 10
_REOPENS = 3


def lifecycle(seed: int, seconds: float, sizes: Dict[str, float]) -> Outcome:
    """Build → feed → crash → recover, repeated until the window is
    used up (at least once); every timing is a median over the cycles.
    """
    # set-up is input generation; ingest and recovery are what the
    # cycles themselves measure
    phases = harness.Setup()
    for _ in range(harness.SETUP_REPEATS):
        started = time.perf_counter()
        documents = collection("lifecycle", sizes)
        feed, crash = loadgen.lifecycle_inputs(
            documents, seed, int(sizes["feed_versions"]), int(sizes["crash_batches"])
        )
        phases.total.append(time.perf_counter() - started)
    inputs = harness.sha256_of(
        [tree_to_brackets(tree).encode("utf-8") for _, tree in documents]
        + [tree_to_brackets(tree).encode("utf-8") for _, tree in feed]
        + [text.encode("utf-8") for _, _, text in crash]
    )
    feed_latencies: List[float] = []
    feed_seconds = 0.0
    attempted = failed = 0
    disk = nodes = 0
    deadline = time.perf_counter() + seconds
    cycles = 0
    with harness.scratch("lifecycle") as base:
        while cycles == 0 or time.perf_counter() < deadline:
            directory = os.path.join(base, f"cycle-{cycles}")
            cycles += 1
            started = time.perf_counter()
            store = DocumentStore(directory)
            harness.add_in_batches(store, documents, BUILD_BATCHES)
            phases.add.append(time.perf_counter() - started)
            feeding = time.perf_counter()
            for item in feed:
                attempted += 1
                started = time.perf_counter()
                report = ingest_feed(store, [item])
                if report.errors or report.updated != 1:
                    failed += 1
                    continue
                feed_latencies.append(time.perf_counter() - started)
            feed_seconds += time.perf_counter() - feeding
            store.close()
            acknowledged = _crash(directory, crash)
            attempted += len(crash)
            if acknowledged != len(crash):
                raise CheckFailed(
                    f"crash child acknowledged {acknowledged} of "
                    f"{len(crash)} batches"
                )
            expected = loadgen.replay(
                list({**dict(documents), **dict(feed)}.items()),
                [(document_id, operations) for document_id, operations, _ in crash],
            )
            copies = []
            for reopen in range(_REOPENS):
                copy = os.path.join(base, f"cycle-{cycles}-reopen-{reopen}")
                shutil.copytree(directory, copy)
                copies.append(copy)
            for copy in copies:
                started = time.perf_counter()
                reopened = DocumentStore(copy)
                phases.recover.append(time.perf_counter() - started)
                reopened.close()
            disk = harness.tree_bytes(copies[0])
            nodes = sum(len(tree) for tree in expected.values())
            _check_documents(copies[-1], expected)
            for copy in copies:
                shutil.rmtree(copy)
            shutil.rmtree(directory)
    return _outcome(
        Window(
            feed_latencies,
            sum(1 for sample in feed_latencies if sample <= harness.WRITE_LIMIT),
            cycles * len(feed),
            feed_seconds,
        ),
        phases,
        documents,
        disk,
        nodes,
        harness.peak_rss_mb(),
        attempted,
        failed,
        inputs,
        cycles=float(cycles),
        recover_samples=float(len(phases.recover)),
    )


def _crash(directory: str, batches: Sequence[loadgen.Batch]) -> int:
    """A child applies the batches, acknowledging each on its stdout,
    then waits; it is SIGKILLed once the last acknowledgement is read.
    Returns the number acknowledged."""
    child = subprocess.Popen(
        [sys.executable, os.path.join(harness.HERE, "crash_child.py"), directory],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=harness.child_environment(),
    )
    assert child.stdin is not None and child.stdout is not None
    acknowledged = 0
    try:
        child.stdin.write(
            b"".join(
                encode_frame({"doc": document_id, "ops": text})
                for document_id, _, text in batches
            )
        )
        child.stdin.flush()
        while acknowledged < len(batches):
            line = child.stdout.readline()
            if not line:
                break
            acknowledged += 1
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait()
        child.stdin.close()
        child.stdout.close()
    return acknowledged


WORKLOADS: Dict[str, Callable[[int, float, Dict[str, float]], Outcome]] = {
    "read_small": read_small,
    "write_large": write_large,
    "mixed_open": mixed_open,
    "lifecycle": lifecycle,
}
