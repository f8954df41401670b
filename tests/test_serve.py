"""The serving front door, end to end over real sockets.

Covers the wire protocol (frame encode/decode, error shapes), the
token bucket in isolation (injected clock), and a live in-process
server: every verb round-trips, standing-query events stream back over
the subscribing connection, pipelined overload bursts shed without
mutating state, and a graceful drain leaves a store that reopens with
every acknowledged write present.
"""

import logging
import os
import random
import time

import pytest

from repro.edits import Rename
from repro.edits.generator import EditScriptGenerator
from repro.errors import OverloadedError, ProtocolError
from repro.perf import HAVE_NUMPY
from repro.serve import (
    AdmissionPolicy,
    FrontDoor,
    ServeClient,
    TokenBucket,
    serve_in_thread,
)
from repro.serve.client import ServeRequestError
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    error_frame,
    event_frame,
    shed_frame,
)
from repro.service.soak import random_tree
from repro.service.store import DocumentStore
from repro.tree.builder import tree_from_brackets, tree_to_brackets

from tests.conftest import BAD_PLAN_SPECS

#: effectively-unbounded admission for tests that are not about shedding
OPEN_POLICY = AdmissionPolicy(
    rate=100000.0, burst=100000.0, max_queue=4096, max_wait_seconds=60.0
)


def canonical_tree(rng, size):
    """A random tree with the preorder node ids the server assigns."""
    return tree_from_brackets(tree_to_brackets(random_tree(rng, size)))


def patient(call, attempts=100):
    """Retry a request past overload sheds (bucket refills at `rate`)."""
    for _ in range(attempts - 1):
        try:
            return call()
        except OverloadedError:
            time.sleep(0.05)
    return call()


# ---------------------------------------------------------------------------
# protocol frames
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_frame_roundtrip(self):
        frame = {"id": 3, "verb": "lookup", "tau": 0.5, "tenant": "t"}
        assert decode_frame(encode_frame(frame)) == frame

    def test_encode_is_one_line(self):
        wire = encode_frame({"id": 1, "text": "a\nb"})
        assert wire.endswith(b"\n")
        assert wire.count(b"\n") == 1

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_frame(b"[1, 2, 3]\n")
        with pytest.raises(ProtocolError):
            decode_frame(b"\xff\xfe\n")

    def test_decode_rejects_oversized_frames(self):
        with pytest.raises(ProtocolError):
            decode_frame(b" " * (MAX_FRAME_BYTES + 1))

    def test_shed_frame_shape(self):
        frame = shed_frame(9, "rate")
        assert frame["shed"] is True
        assert frame["ok"] is False
        assert frame["error"]["status"] == 429
        assert frame["error"]["reason"] == "rate"
        draining = shed_frame(9, "draining")
        assert draining["error"]["status"] == 503

    def test_error_frame_defaults_to_500(self):
        assert error_frame(1, "no_such_code", "boom")["error"]["status"] == 500

    def test_event_frame_shape(self):
        frame = event_frame("t", "q1", "enter", 7, 0.25, 41)
        assert frame["event"] == "notification"
        assert frame["doc"] == 7
        assert frame["seq"] == 41


# ---------------------------------------------------------------------------
# token bucket
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=lambda: now[0])
        assert [bucket.try_acquire() for _ in range(4)] == [
            True,
            True,
            True,
            False,
        ]
        now[0] += 0.1  # one token refilled
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_capacity(self):
        now = [0.0]
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=lambda: now[0])
        now[0] += 60.0
        assert [bucket.try_acquire() for _ in range(3)] == [True, True, False]

    def test_zero_capacity_never_admits(self):
        now = [0.0]
        bucket = TokenBucket(rate=0.0, burst=0.0, clock=lambda: now[0])
        for _ in range(5):
            assert not bucket.try_acquire()
            now[0] += 100.0

    def test_zero_rate_spends_burst_only(self):
        bucket = TokenBucket(rate=0.0, burst=2.0)
        assert [bucket.try_acquire() for _ in range(3)] == [True, True, False]


# ---------------------------------------------------------------------------
# end-to-end over a socket
# ---------------------------------------------------------------------------


@pytest.fixture
def served(tmp_path):
    """An open front door on a fresh store + a connected client."""
    front_door = FrontDoor(
        directory=str(tmp_path),
        tenants=["default"],
        serve_threads=2,
        policy=OPEN_POLICY,
    )
    handle = serve_in_thread(front_door)
    client = ServeClient(port=handle.port)
    yield front_door, client
    client.close()
    handle.drain(timeout=60.0)


class TestVerbs:
    def test_ping(self, served):
        _, client = served
        reply = client.ping()
        assert reply["pong"] is True
        assert reply["draining"] is False

    def test_add_show_roundtrip(self, served):
        _, client = served
        tree = canonical_tree(random.Random(0), 20)
        assert client.add_document(5, tree) == len(tree)
        shown = client.show(5)
        assert shown["nodes"] == len(tree)
        assert shown["tree"] == tree_to_brackets(tree)

    def test_lookup_finds_own_tree(self, served):
        _, client = served
        rng = random.Random(1)
        trees = {i: canonical_tree(rng, 15) for i in range(3)}
        for document_id, tree in trees.items():
            client.add_document(document_id, tree)
        matches = client.lookup(trees[1], tau=0.3)
        assert (1, 0.0) in matches
        distances = [dist for _, dist in matches]
        assert distances == sorted(distances)

    def test_query_with_predicate(self, served):
        _, client = served
        client.add_document(1, "a(b,c)")
        client.add_document(2, "a(x,c)")
        result = client.query(
            "a(b,c)",
            tau=1.5,
            predicates=[{"kind": "has_label", "label": "b"}],
        )
        assert [doc for doc, _ in result["matches"]] == [1]

    def test_apply_edits_mutates_durably(self, served):
        front_door, client = served
        tree = canonical_tree(random.Random(2), 12)
        client.add_document(9, tree)
        root = tree.root_id
        applied = client.apply_edits(9, f'INS 500 "leaf" {root} 1 0')
        assert applied == 1
        assert client.show(9)["nodes"] == len(tree) + 1
        store = front_door.tenant_store("default")
        store.flush()
        assert len(store.get_document(9)) == len(tree) + 1

    def test_edit_script_from_mirror(self, served):
        _, client = served
        rng = random.Random(3)
        mirror = canonical_tree(rng, 25)
        client.add_document(4, mirror)
        generator = EditScriptGenerator(rng=rng)
        for _ in range(5):
            script = generator.generate(mirror, 3)
            client.apply_edits(4, list(script))
            script.apply(mirror)
        assert client.show(4)["tree"] == tree_to_brackets(mirror)

    def test_unknown_verb_is_400(self, served):
        _, client = served
        with pytest.raises(ServeRequestError) as excinfo:
            client._request("frobnicate")
        assert excinfo.value.status == 400

    def test_unknown_tenant_is_404(self, served):
        _, client = served
        client.tenant = "nobody"
        with pytest.raises(ServeRequestError) as excinfo:
            client.ping()
        assert excinfo.value.status == 404

    def test_unknown_document_is_404(self, served):
        _, client = served
        with pytest.raises(ServeRequestError) as excinfo:
            client.show(12345)
        assert excinfo.value.status == 404

    def test_malformed_ops_are_400_and_mutate_nothing(self, served):
        _, client = served
        tree = canonical_tree(random.Random(4), 10)
        client.add_document(3, tree)
        with pytest.raises(ServeRequestError) as excinfo:
            client.apply_edits(3, "GARBAGE not an op")
        assert excinfo.value.status == 400
        assert client.show(3)["nodes"] == len(tree)

    def test_failed_store_is_503_store_failed(self, served):
        """A durable-write error stops the tenant's store: that write
        and every later one answer 503 ``store_failed``, reads keep
        answering, and the drain still closes the store."""
        from repro.service import failpoints

        _, client = served
        tree = canonical_tree(random.Random(5), 10)
        client.add_document(4, tree)
        with failpoints.armed("wal.fsync", failpoints.EIO):
            with pytest.raises(ServeRequestError) as excinfo:
                client.apply_edits(4, [Rename(1, "lost")])
        assert (excinfo.value.code, excinfo.value.status) == (
            "store_failed",
            503,
        )
        with pytest.raises(ServeRequestError) as excinfo:
            client.apply_edits(4, [Rename(1, "later")])
        assert excinfo.value.status == 503
        assert client.stats()["failed"] is True
        assert client.show(4)["tree"] == tree_to_brackets(tree)

    @pytest.mark.parametrize("fields", BAD_PLAN_SPECS.values(), ids=BAD_PLAN_SPECS)
    def test_malformed_plan_spec_is_400(self, served, fields):
        """A ``query`` or ``subscribe`` frame whose plan spec has a
        field of the wrong type (or a NaN tau) is a 400 ``bad_request``
        and registers nothing."""
        front_door, client = served
        client.add_document(1, "a(b)")
        for verb, extra in (("query", {}), ("subscribe", {"query_id": "bad"})):
            client._next_id += 1
            frame = {
                "id": client._next_id,
                "verb": verb,
                "tenant": client.tenant,
                "query": "a(b)",
                "tau": 0.5,
                **extra,
                **fields,
            }
            client._send(frame)
            with pytest.raises(ServeRequestError) as excinfo:
                client._unwrap(client._read_reply(frame["id"]))
            assert (excinfo.value.code, excinfo.value.status) == ("bad_request", 400)
        assert front_door.tenant_store("default").standing_query_ids() == []

    def test_missing_field_is_400(self, served):
        _, client = served
        with pytest.raises(ServeRequestError) as excinfo:
            client._request("lookup", tau=0.5)  # no query
        assert excinfo.value.status == 400

    def test_garbage_line_gets_error_reply_and_connection_survives(
        self, served
    ):
        _, client = served
        client._socket.sendall(b"this is not json\n")
        line = client._read_line(5.0)
        frame = decode_frame(line)
        assert frame["ok"] is False
        assert frame["error"]["status"] == 400
        assert client.ping()["pong"] is True

    def test_stats_and_metrics(self, served):
        _, client = served
        client.add_document(1, "a(b)")
        stats = client.stats()
        assert stats["documents"] == 1
        assert "backend" not in stats
        if HAVE_NUMPY:
            # The first read freezes the CSR; the wire shows it.
            assert stats["frozen"] is False
            client.lookup("a(b)", 0.5)
            stats = client.stats()
            assert stats["frozen"] is True and stats["dirty_keys"] == 0
        metrics = client.metrics()
        counters = metrics["counters"]
        assert any(key.startswith("serve_requests_total") for key in counters)
        assert any(key.startswith("serve_admitted_total") for key in counters)


class TestEvents:
    def test_subscription_streams_membership_events(self, served):
        _, client = served
        rng = random.Random(5)
        mirror = canonical_tree(rng, 20)
        client.add_document(1, mirror)
        initial = client.subscribe("watch", mirror, tau=0.8)
        assert (1, 0.0) in initial
        generator = EditScriptGenerator(rng=rng)
        events = []
        for _ in range(10):
            script = generator.generate(mirror, 2)
            client.apply_edits(1, list(script))
            script.apply(mirror)
            events.extend(client.drain_events(timeout=0.5))
            if events:
                break
        assert events, "no event arrived over 10 edit batches"
        event = events[0]
        assert event["event"] == "notification"
        assert event["query_id"] == "watch"
        assert event["doc"] == 1
        assert event["kind"] in {"enter", "leave", "update"}
        client.unsubscribe("watch")

    @pytest.mark.parametrize("reconnect", ["settled", "immediate", "overlapping"])
    def test_kept_subscription_reattaches_after_reconnect(self, served, reconnect):
        """docs/SERVING.md: a ``keep`` subscription outlives its
        connection and a reconnecting client re-attaches with
        ``subscribe`` under the same id — whether the server has torn
        the dead connection down yet, is about to, or (a second live
        connection taking over) only does so afterwards.  The next
        event then arrives exactly once, on the new connection."""
        front_door, client = served
        tree = tree_from_brackets("a(b,c)")
        client.add_document(1, tree)
        first = ServeClient(port=front_door.port)
        assert first.subscribe("kept", tree, tau=0.9, keep=True) == [(1, 0.0)]
        owners = front_door._subscription_owner
        if reconnect != "overlapping":
            first.close()
        if reconnect == "settled":
            deadline = time.monotonic() + 10.0
            while owners and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not owners
        second = ServeClient(port=front_door.port)
        try:
            assert second.subscribe("kept", tree, tau=0.9, keep=True) == [(1, 0.0)]
            with pytest.raises(ServeRequestError, match="different plan"):
                second.subscribe("kept", tree, tau=0.5, keep=True)
            if reconnect == "overlapping":
                first.close()
                deadline = time.monotonic() + 10.0
                while len(front_door._connections) > 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                client.ping()  # a worker round trip behind the teardown
            client.apply_edits(1, [Rename(1, "z")])
            event = second.next_event(timeout=10.0)
            assert event is not None
            assert (event["query_id"], event["doc"]) == ("kept", 1)
            assert second.drain_events(timeout=0.2) == []  # exactly once
            assert client.drain_events(timeout=0.1) == []
        finally:
            second.close()
        store = front_door.tenant_store("default")
        assert store.standing_query_ids() == ["kept"]

    def test_event_wait_timeout_keeps_connection_usable(self, served):
        _, client = served
        assert client.next_event(timeout=0.1) is None
        assert client.ping()["pong"] is True
        assert client.drain_events(timeout=0.1) == []
        assert client.ping()["pong"] is True


class TestOverload:
    def test_burst_sheds_without_mutating(self, tmp_path):
        front_door = FrontDoor(
            directory=str(tmp_path),
            tenants=["default"],
            serve_threads=2,
            policy=AdmissionPolicy(rate=50.0, burst=10.0, max_queue=8),
        )
        with serve_in_thread(front_door) as handle:
            with ServeClient(port=handle.port) as client:
                tree = canonical_tree(random.Random(6), 15)
                client.add_document(1, tree)
                before = client.show(1)["nodes"]
                requests = [
                    {
                        "verb": "apply_edits",
                        "doc": 1,
                        "ops": f'INS {10000 + i} "b" {tree.root_id} 1 0',
                    }
                    for i in range(150)
                ]
                replies, shed = client.burst(requests)
                acked = sum(1 for reply in replies if reply.get("ok"))
                assert shed > 0, "tight admission shed nothing"
                assert acked + shed == len(replies)
                # every ack applied, every shed not: exact node count
                after = patient(lambda: client.show(1))["nodes"]
                assert after == before + acked

    def test_overloaded_error_carries_reason(self, tmp_path):
        front_door = FrontDoor(
            directory=str(tmp_path),
            tenants=["default"],
            serve_threads=1,
            policy=AdmissionPolicy(rate=0.0, burst=1.0, max_queue=1),
        )
        with serve_in_thread(front_door) as handle:
            with ServeClient(port=handle.port) as client:
                client.ping()  # spends the single token
                with pytest.raises(OverloadedError) as excinfo:
                    for _ in range(5):
                        client.ping()
                assert excinfo.value.reason in {"rate", "queue"}


class TestDrain:
    def test_drain_persists_acknowledged_writes(self, tmp_path):
        directory = str(tmp_path)
        front_door = FrontDoor(
            directory=directory,
            tenants=["default"],
            serve_threads=2,
            policy=OPEN_POLICY,
        )
        handle = serve_in_thread(front_door)
        tree = canonical_tree(random.Random(7), 18)
        with ServeClient(port=handle.port) as client:
            client.add_document(1, tree)
            client.apply_edits(1, f'INS 900 "x" {tree.root_id} 1 0')
        handle.drain(timeout=60.0)
        store = DocumentStore(os.path.join(directory, "default"))
        try:
            assert len(store.get_document(1)) == len(tree) + 1
        finally:
            store.close()

    def test_drain_sheds_new_requests_as_503(self, tmp_path):
        front_door = FrontDoor(
            directory=str(tmp_path),
            tenants=["default"],
            serve_threads=1,
            policy=OPEN_POLICY,
        )
        handle = serve_in_thread(front_door)
        client = ServeClient(port=handle.port)
        client.ping()
        # mark draining before the listener closes so the open
        # connection's next request hits the draining shed path
        front_door._draining = True
        try:
            with pytest.raises(OverloadedError) as excinfo:
                client.ping()
            assert excinfo.value.reason == "draining"
        finally:
            client.close()
            front_door._draining = False
            handle.drain(timeout=60.0)

    def test_drain_is_idempotent(self, tmp_path):
        front_door = FrontDoor(
            directory=str(tmp_path), tenants=["default"], policy=OPEN_POLICY
        )
        handle = serve_in_thread(front_door)
        handle.drain(timeout=60.0)
        handle.drain(timeout=60.0)  # second drain returns immediately

    def test_drain_leaves_no_handler_cancelled(self, tmp_path, caplog, monkeypatch):
        # One connection stays idle across the shutdown; another closes
        # just before it, with its subscription's detach still running
        # in the pool when the drain starts.  A handler the loop's
        # shutdown cancels is logged by asyncio as an error.
        unsubscribe = DocumentStore.unsubscribe

        def slow_unsubscribe(store, query_id):
            time.sleep(0.3)
            return unsubscribe(store, query_id)

        monkeypatch.setattr(DocumentStore, "unsubscribe", slow_unsubscribe)
        caplog.set_level(logging.ERROR, logger="asyncio")
        front_door = FrontDoor(
            directory=str(tmp_path),
            tenants=["default"],
            serve_threads=1,
            policy=OPEN_POLICY,
        )
        handle = serve_in_thread(front_door)
        idle = ServeClient(port=handle.port)
        idle.ping()
        subscriber = ServeClient(port=handle.port)
        subscriber.add_document(1, "a(b,c)")
        subscriber.subscribe("q", "a(b,c)", tau=0.5)
        subscriber.close()
        time.sleep(0.1)  # the detach is in flight
        try:
            handle.drain(timeout=60.0)
        finally:
            idle.close()
        assert not [
            record for record in caplog.records if record.levelno >= logging.ERROR
        ]


class TestMultiTenant:
    def test_tenants_are_isolated(self, tmp_path):
        front_door = FrontDoor(
            directory=str(tmp_path),
            tenants=["alpha", "beta"],
            serve_threads=2,
            policy=OPEN_POLICY,
        )
        with serve_in_thread(front_door) as handle:
            with ServeClient(port=handle.port, tenant="alpha") as alpha:
                with ServeClient(port=handle.port, tenant="beta") as beta:
                    alpha.add_document(1, "a(b,c)")
                    beta.add_document(1, "x(y)")
                    assert alpha.show(1)["tree"] == "a(b,c)"
                    assert beta.show(1)["tree"] == "x(y)"

    def test_per_tenant_policy_override(self, tmp_path):
        front_door = FrontDoor(
            directory=str(tmp_path),
            tenants=["open", "shut"],
            serve_threads=1,
            policy=OPEN_POLICY,
            policies={"shut": AdmissionPolicy(rate=0.0, burst=0.0)},
        )
        with serve_in_thread(front_door) as handle:
            with ServeClient(port=handle.port, tenant="open") as client:
                assert client.ping()["pong"] is True
            with ServeClient(port=handle.port, tenant="shut") as client:
                with pytest.raises(OverloadedError):
                    client.ping()
