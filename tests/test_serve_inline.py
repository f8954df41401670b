"""The front door's one routing rule: a verb runs on the event loop
unless it can block.

``lookup``, ``query`` with a τ plan and ``show`` read published
immutable state and are answered by the loop thread; everything that
locks, fsyncs, walks the collection or would build the first view hops
to the pool, and so does a read whose request line is longer than
``INLINE_FRAME_BYTES``.  These tests pin the rule down from outside:
which verbs still answer while the pool's only worker is parked, that a
pipelining connection cannot starve another one, that neither writers
nor a long query can stall the loop past the read limit, that admission
and error mapping are the same on every route, and that what comes back
over the wire is bit for bit what a reference forest that is never
compacted computes.
"""

import contextlib
import gc
import random
import threading
import time

from repro.core import GramConfig
from repro.datasets import random_labelled_tree, xmark_tree
from repro.edits.generator import EditScriptGenerator
from repro.edits.serialize import format_operations
from repro.lookup import ForestIndex
from repro.query import ApproxLookup, execute_plan
from repro.serve import AdmissionPolicy, FrontDoor, ServeClient, serve_in_thread
from repro.serve.protocol import decode_frame
from repro.serve.server import INLINE_FRAME_BYTES
from repro.tree.builder import tree_from_brackets, tree_to_brackets

from tests.test_backend_conformance import TAUS, make_collection
from tests.test_serve import OPEN_POLICY

CONFIG = GramConfig(2, 3)
#: the benchmark's latency limit for a read (benchmarks/e2e/harness.py)
READ_LIMIT = 0.050


def canonical(tree):
    """The tree with the preorder node ids the server assigns."""
    return tree_from_brackets(tree_to_brackets(tree))


@contextlib.contextmanager
def serving(tmp_path, policy=OPEN_POLICY, serve_threads=1, **store_options):
    front_door = FrontDoor(
        directory=str(tmp_path),
        tenants=["default"],
        serve_threads=serve_threads,
        policy=policy,
        store_options={"config": CONFIG, **store_options},
    )
    handle = serve_in_thread(front_door)
    try:
        yield front_door, handle.port
    finally:
        handle.drain(timeout=60.0)


@contextlib.contextmanager
def parked_pool(front_door, port):
    """Park the pool's only worker in a stubbed ``ping`` until the
    block exits: whatever still answers meanwhile ran on the loop."""
    started, release = threading.Event(), threading.Event()

    def slow_ping(tenant, request, connection):
        started.set()
        release.wait(timeout=30.0)
        return {"pong": True}

    original = front_door._verbs["ping"]
    front_door._verbs["ping"] = slow_ping
    with ServeClient(port=port) as parker:
        parker._send({"id": 1, "verb": "ping", "tenant": "default"})
        assert started.wait(timeout=10.0)
        try:
            yield
        finally:
            release.set()
            assert parker._read_frame()["ok"] is True
            front_door._verbs["ping"] = original


def quoted_brackets(tree, node_id=None):
    """Bracket text with every label quoted, needed or not."""
    node_id = tree.root_id if node_id is None else node_id
    label = tree.label(node_id).replace("\\", "\\\\").replace('"', '\\"')
    children = ",".join(
        quoted_brackets(tree, child) for child in tree.children(node_id)
    )
    return f'"{label}"({children})' if children else f'"{label}"'


def send(client, verb, **fields):
    """Ship one request without waiting for its reply."""
    client._next_id += 1
    client._send(
        {"id": client._next_id, "verb": verb, "tenant": "default", **fields}
    )
    return client._next_id


def reply_within(client, seconds):
    line = client._read_line(seconds)
    return None if line is None else decode_frame(line)


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------


class TestRouting:
    def test_snapshot_reads_never_enter_the_pool(self, tmp_path):
        with serving(tmp_path) as (front_door, port), ServeClient(port=port) as client:
            client.add_document(1, "a(b,c)")
            client.add_document(2, "a(x,c)")
            assert client.lookup("a(b,c)", 0.5)  # publishes the first view
            with parked_pool(front_door, port):
                assert (1, 0.0) in client.lookup("a(b,c)", 0.5)
                assert client.show(2)["tree"] == "a(x,c)"
                predicate = [{"kind": "has_label", "label": "b"}]
                result = client.query("a(b,c)", tau=1.5, predicates=predicate)
                assert [doc for doc, _ in result["matches"]] == [1]
                # the verbs that can block are queued behind the parked
                # worker: no reply until it is released
                waiting = [
                    send(client, "query", query="a(b,c)", k=1),
                    send(client, "stats"),
                    send(client, "ping"),
                ]
                assert reply_within(client, 0.3) is None
            replies = {}
            while len(replies) < len(waiting):
                frame = client._read_frame()
                replies[frame["id"]] = frame
            assert sorted(replies) == waiting
            assert all(frame["ok"] for frame in replies.values())

    def test_first_read_of_a_tenant_hops_and_the_next_does_not(self, tmp_path):
        with serving(tmp_path) as (front_door, port), ServeClient(port=port) as client:
            client.add_document(1, "a(b,c)")
            store = front_door.tenant_store("default")
            assert not store.has_published_view
            with parked_pool(front_door, port):
                # nothing is published yet: the read would freeze the
                # CSR, so it waits for a worker like any blocking verb
                request_id = send(client, "lookup", query="a(b,c)", tau=0.5)
                assert reply_within(client, 0.3) is None
            frame = client._read_frame()
            assert frame["id"] == request_id and frame["ok"] is True
            assert store.has_published_view
            with parked_pool(front_door, port):
                assert client.lookup("a(b,c)", 0.5) == [(1, 0.0)]


# ---------------------------------------------------------------------------
# fairness and the loop-stall bound
# ---------------------------------------------------------------------------


def test_a_pipelining_connection_does_not_starve_another(tmp_path):
    with serving(tmp_path) as (front_door, port):
        with ServeClient(port=port) as greedy, ServeClient(port=port) as other:
            greedy.add_document(1, "a(b,c)")
            greedy.lookup("a(b,c)", 0.5)
            executed = []
            lookup = front_door._verbs["lookup"]

            def counted_lookup(tenant, request, connection):
                executed.append(request["id"])
                time.sleep(0.001)  # keeps the burst in flight for ~0.3 s
                return lookup(tenant, request, connection)

            front_door._verbs["lookup"] = counted_lookup
            requests = [
                {"verb": "lookup", "query": "a(b,c)", "tau": 0.5}
                for _ in range(300)
            ]
            burst = threading.Thread(target=greedy.burst, args=(requests,))
            burst.start()
            try:
                deadline = time.monotonic() + 10.0
                while not executed and time.monotonic() < deadline:
                    time.sleep(0)
                assert other.lookup("a(b,c)", 0.5) == [(1, 0.0)]
                served_before = len(executed)
            finally:
                burst.join(timeout=30.0)
            assert not burst.is_alive()
            assert len(executed) == 301
            # the other connection's read was answered while most of
            # the burst was still buffered, not after its last reply
            assert served_before < 150


def test_writers_do_not_stall_reads_past_the_read_limit(tmp_path):
    rng = random.Random(11)
    mirrors = {
        document_id: canonical(xmark_tree(400, seed=document_id))
        for document_id in range(6)
    }
    with serving(tmp_path, serve_threads=2) as (front_door, port):
        with ServeClient(port=port) as seeder:
            for document_id, tree in mirrors.items():
                seeder.add_document(document_id, tree)
            for document_id in range(100, 160):
                seeder.add_document(
                    document_id, canonical(random_labelled_tree(12, seed=document_id))
                )
        stop = threading.Event()
        written = []

        def write():
            generator = EditScriptGenerator(rng=rng)
            with ServeClient(port=port) as writer:
                while not stop.is_set():
                    document_id = rng.randrange(len(mirrors))
                    script = generator.generate(mirrors[document_id], 4)
                    writer.apply_edits(document_id, format_operations(list(script)))
                    script.apply(mirrors[document_id])
                    written.append(document_id)

        query = tree_to_brackets(random_labelled_tree(12, seed=104))
        with ServeClient(port=port) as reader:
            reader.lookup(query, 0.5)  # the first read hops and freezes
            # A served process holds its own heap; this one also holds
            # whatever a thousand earlier tests left behind, and a full
            # collection over that stops every thread for longer than
            # the limit.  Park it outside the collector for the window.
            gc.collect()
            gc.freeze()
            writer_thread = threading.Thread(target=write)
            writer_thread.start()
            worst = 0.0
            try:
                deadline = time.monotonic() + 1.5
                while time.monotonic() < deadline:
                    started = time.perf_counter()
                    reader.lookup(query, 0.5)
                    worst = max(worst, time.perf_counter() - started)
            finally:
                stop.set()
                writer_thread.join(timeout=30.0)
                gc.unfreeze()
            assert not writer_thread.is_alive()
        assert len(written) > 16  # the window crossed a checkpoint
        assert worst < READ_LIMIT, f"worst read RTT {worst * 1e3:.1f} ms"


def test_a_query_holds_the_loop_in_proportion_to_its_text_up_to_a_bound(tmp_path):
    """The size clause: a 400-node query is answered on the loop well
    inside the read limit; a 4,000-node one would hold it ten times as
    long, so it waits for a worker while the loop serves everyone else."""
    # ten different ones: a repeated query is answered from the caches
    medium = [tree_to_brackets(xmark_tree(400, seed=seed)) for seed in range(2, 12)]
    long = tree_to_brackets(xmark_tree(4000, seed=3))
    assert max(map(len, medium)) + 200 < INLINE_FRAME_BYTES < len(long)
    with serving(tmp_path) as (front_door, port):
        with ServeClient(port=port) as reader, ServeClient(port=port) as other:
            for document_id in range(6):
                reader.add_document(
                    document_id, canonical(xmark_tree(400, seed=document_id))
                )
            for document_id in range(100, 160):
                reader.add_document(
                    document_id, canonical(random_labelled_tree(12, seed=document_id))
                )
            small = tree_to_brackets(random_labelled_tree(12, seed=104))
            nearby = other.lookup(small, 0.5)  # the first read hops and freezes
            assert (104, 0.0) in nearby
            store = front_door.tenant_store("default")
            with parked_pool(front_door, port):
                gc.collect()
                gc.freeze()  # as in the writers' test above
                try:
                    worst = 0.0
                    for query in reversed(medium):
                        started = time.perf_counter()
                        matches = reader.lookup(query, 0.9)
                        worst = max(worst, time.perf_counter() - started)
                finally:
                    gc.unfreeze()
                assert (2, 0.0) in matches
                assert worst < READ_LIMIT, f"worst read RTT {worst * 1e3:.1f} ms"
                request_id = send(reader, "lookup", query=long, tau=0.9)
                assert reply_within(reader, 0.3) is None
                assert other.lookup(small, 0.5) == nearby
            frame = reader._read_frame()
            assert frame["id"] == request_id and frame["ok"] is True
            assert [tuple(match) for match in frame["result"]["matches"]] == (
                store.lookup(tree_from_brackets(long), 0.9).matches
            )


# ---------------------------------------------------------------------------
# admission and error mapping on the inline route
# ---------------------------------------------------------------------------


class TestInlineAdmission:
    def test_rate_sheds_inline_reads_and_a_shed_read_executes_nothing(
        self, tmp_path
    ):
        policy = AdmissionPolicy(rate=0.0, burst=5.0, max_queue=64)
        with serving(tmp_path, policy=policy) as (front_door, port):
            with ServeClient(port=port) as client:
                client.add_document(1, "a(b,c)")  # one token
                client.lookup("a(b,c)", 0.5)  # another; publishes the view
                executed = []
                lookup = front_door._verbs["lookup"]

                def counted_lookup(tenant, request, connection):
                    executed.append(request["id"])
                    return lookup(tenant, request, connection)

                front_door._verbs["lookup"] = counted_lookup
                replies, shed = client.burst(
                    [{"verb": "lookup", "query": "a(b,c)", "tau": 0.5}] * 20
                )
                acked = [reply for reply in replies if reply.get("ok")]
                assert len(acked) == len(executed) == 3
                assert shed == 17
                for reply in replies:
                    if reply.get("shed"):
                        assert reply["error"]["reason"] == "rate"
                        assert "result" not in reply
            admission = front_door.admission("default")
            assert admission.pending == 0
            gauges = front_door.registry.snapshot()["gauges"]
            assert gauges['serve_inflight{tenant="default"}'] == 0

    def test_errors_map_to_the_same_frames_on_both_routes(self, tmp_path):
        with serving(tmp_path) as (front_door, port), ServeClient(port=port) as client:
            client.add_document(1, "a(b,c)")

            def boom(tenant, request, connection):
                raise RuntimeError("handler exploded")

            def failures():
                frames = []
                for verb, fields in (
                    ("lookup", {"tau": 0.5}),  # missing field
                    ("lookup", {"query": "a(b", "tau": 0.5}),  # malformed tree
                    ("query", {"query": "a(b,c)", "tau": "much"}),
                    ("show", {"doc": 12345}),  # unknown document
                ):
                    send(client, verb, **fields)
                    frames.append(client._read_frame())
                front_door._verbs["show"] = boom
                try:
                    send(client, "show", doc=1)
                    frames.append(client._read_frame())
                finally:
                    front_door._verbs["show"] = show
                return [(frame["ok"], frame["error"]) for frame in frames]

            show = front_door._verbs["show"]
            store = front_door.tenant_store("default")
            assert not store.has_published_view
            pooled = failures()
            client.lookup("a(b,c)", 0.5)
            assert store.has_published_view
            with parked_pool(front_door, port):
                inline = failures()
            assert inline == pooled
            assert [error["status"] for _, error in inline] == [
                400, 400, 400, 404, 500,
            ]
            # the same malformed tree in a line too long for the loop
            # takes the pool again and comes back as the same frame
            ran_on = []
            lookup = front_door._verbs["lookup"]

            def traced_lookup(tenant, request, connection):
                ran_on.append(threading.current_thread().name)
                return lookup(tenant, request, connection)

            front_door._verbs["lookup"] = traced_lookup
            for padding in (0, INLINE_FRAME_BYTES):
                send(client, "lookup", query="a(b" + " " * padding, tau=0.5)
                frame = client._read_frame()
                assert (frame["ok"], frame["error"]) == inline[1]
            assert ran_on[0] == "serve-front-door"
            assert ran_on[1].startswith("serve-worker")
            assert front_door.admission("default").pending == 0


# ---------------------------------------------------------------------------
# results over the wire ≡ a reference forest never compacted
# ---------------------------------------------------------------------------


def test_wire_results_are_bit_identical_to_the_memory_reference(tmp_path):
    collection = make_collection(30, seed=100)
    reference = ForestIndex(CONFIG)
    reference.add_trees(collection)
    queries = [random_labelled_tree(15, seed=31)] + [
        tree for _, tree in collection[:5]
    ]
    # one of them again in three more spellings: each is its own entry
    # in the query LRU and the result cache, and all must match alike
    respelled = queries[2]
    text = tree_to_brackets(respelled)
    assert '"' not in text
    spellings = [
        " " + text.replace("(", " (\n ").replace(",", " ,\t") + " ",
        quoted_brackets(respelled),
        text + " " * INLINE_FRAME_BYTES,  # too long a line for the loop
    ]
    assert len({text, *spellings}) == 4

    def assert_wire_is_reference(client, sent, denoted):
        for tau in TAUS:
            matches = execute_plan(reference, ApproxLookup(denoted, tau)).matches
            assert client.lookup(sent, tau) == matches
            assert [
                tuple(match) for match in client.query(sent, tau=tau)["matches"]
            ] == matches

    with serving(tmp_path) as (front_door, port), ServeClient(port=port) as client:
        for document_id, tree in collection:
            client.add_document(document_id, canonical(tree))
        client.lookup("a(b)", 0.5)  # publishes the first view
        with parked_pool(front_door, port):  # every read below runs inline
            for query in queries:
                assert_wire_is_reference(client, query, query)
            for spelling in spellings[:2]:
                assert_wire_is_reference(client, spelling, respelled)
        assert_wire_is_reference(client, spellings[2], respelled)  # pooled
