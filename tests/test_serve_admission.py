"""Admission-control edge cases (ISSUE 10 satellite).

The contract under test: a shed request is never executed — not under
a zero-capacity bucket, not when it went overdue in the queue, not
while draining — and the pending accounting always returns to zero,
including when the client vanishes mid-request.
"""

import threading
import time

import pytest

from repro.errors import OverloadedError
from repro.obsv.metrics import MetricsRegistry
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    FrontDoor,
    ServeClient,
    serve_in_thread,
)
from repro.serve.protocol import SHED_QUEUE, SHED_RATE

OPEN_POLICY = AdmissionPolicy(
    rate=100000.0, burst=100000.0, max_queue=4096, max_wait_seconds=60.0
)


def make_controller(policy, clock=None):
    registry = MetricsRegistry()
    kwargs = {} if clock is None else {"clock": clock}
    return AdmissionController("t", policy, registry, **kwargs), registry


def counter_value(registry, name, **labels):
    rendered = name
    if labels:
        inner = ",".join(
            f'{key}="{value}"' for key, value in sorted(labels.items())
        )
        rendered = f"{name}{{{inner}}}"
    return registry.snapshot()["counters"].get(rendered, 0)


# ---------------------------------------------------------------------------
# controller-level edges
# ---------------------------------------------------------------------------


class TestControllerEdges:
    def test_zero_capacity_bucket_sheds_everything(self):
        controller, registry = make_controller(
            AdmissionPolicy(rate=0.0, burst=0.0)
        )
        for _ in range(10):
            ticket, reason = controller.admit()
            assert ticket is None
            assert reason == SHED_RATE
        assert controller.pending == 0
        assert (
            counter_value(
                registry, "serve_shed_total", tenant="t", reason="rate"
            )
            == 10
        )

    def test_zero_max_queue_sheds_before_the_bucket(self):
        controller, registry = make_controller(
            AdmissionPolicy(rate=100.0, burst=100.0, max_queue=0)
        )
        ticket, reason = controller.admit()
        assert ticket is None
        assert reason == SHED_QUEUE
        # the queue check runs first, so no token was drained
        assert controller._bucket.try_acquire()

    def test_queue_bound_releases_on_finish(self):
        controller, _ = make_controller(
            AdmissionPolicy(rate=1000.0, burst=1000.0, max_queue=2)
        )
        first, _ = controller.admit()
        second, _ = controller.admit()
        shed, reason = controller.admit()
        assert shed is None and reason == SHED_QUEUE
        controller.finish(first)
        third, _ = controller.admit()
        assert third is not None
        controller.finish(second)
        controller.finish(third)
        assert controller.pending == 0

    def test_overdue_ticket_sheds_and_releases(self):
        now = [0.0]
        controller, registry = make_controller(
            AdmissionPolicy(
                rate=1000.0, burst=1000.0, max_queue=8, max_wait_seconds=1.0
            ),
            clock=lambda: now[0],
        )
        ticket, _ = controller.admit()
        now[0] += 5.0
        assert controller.overdue(ticket)
        assert controller.pending == 0
        assert (
            counter_value(
                registry, "serve_shed_total", tenant="t", reason="wait"
            )
            == 1
        )
        # finish after an overdue shed must not double-release
        controller.finish(ticket)
        assert controller.pending == 0

    def test_fresh_ticket_is_not_overdue(self):
        now = [0.0]
        controller, _ = make_controller(
            AdmissionPolicy(max_wait_seconds=1.0), clock=lambda: now[0]
        )
        ticket, _ = controller.admit()
        now[0] += 0.5
        assert not controller.overdue(ticket)
        controller.finish(ticket)
        assert controller.pending == 0

    def test_finish_is_idempotent(self):
        controller, _ = make_controller(AdmissionPolicy())
        ticket, _ = controller.admit()
        controller.finish(ticket)
        controller.finish(ticket)
        controller.finish(ticket)
        assert controller.pending == 0


# ---------------------------------------------------------------------------
# server-level edges
# ---------------------------------------------------------------------------


class TestServerEdges:
    def test_zero_capacity_tenant_sheds_every_request(self, tmp_path):
        front_door = FrontDoor(
            directory=str(tmp_path),
            tenants=["default"],
            serve_threads=1,
            policy=AdmissionPolicy(rate=0.0, burst=0.0),
        )
        with serve_in_thread(front_door) as handle:
            with ServeClient(port=handle.port) as client:
                for _ in range(5):
                    with pytest.raises(OverloadedError) as excinfo:
                        client.add_document(1, "a(b)")
                    assert excinfo.value.reason == "rate"
        assert 1 not in front_door.tenant_store("default")

    def test_shed_apply_edits_never_acknowledged_or_applied(self, tmp_path):
        front_door = FrontDoor(
            directory=str(tmp_path),
            tenants=["default"],
            serve_threads=1,
            policy=AdmissionPolicy(rate=0.0, burst=3.0, max_queue=2),
        )
        with serve_in_thread(front_door) as handle:
            with ServeClient(port=handle.port) as client:
                client.add_document(1, "a(b,c)")  # spends one token
                nodes = client.show(1)["nodes"]  # spends another
                # the last token + queue bound: pipeline far more
                requests = [
                    {
                        "verb": "apply_edits",
                        "doc": 1,
                        "ops": f'INS {100 + i} "x" 0 1 0',
                    }
                    for i in range(20)
                ]
                replies, shed = client.burst(requests)
                acked = sum(1 for reply in replies if reply.get("ok"))
                assert shed > 0
                for reply in replies:
                    # a reply is exactly one of acked / shed / error,
                    # and shed replies carry no result payload
                    if reply.get("shed"):
                        assert reply.get("ok") is False
                        assert "result" not in reply
        store = front_door.tenant_store("default")
        store.flush()
        assert len(store.get_document(1)) == nodes + acked

    def test_drain_while_queued_completes_without_hang(self, tmp_path, caplog):
        """The client connection stays open across the whole drain: the
        server must still stop with a clean log (no handler task left
        for the loop to cancel mid-read)."""
        front_door = FrontDoor(
            directory=str(tmp_path),
            tenants=["default"],
            serve_threads=1,
            policy=OPEN_POLICY,
        )
        handle = serve_in_thread(front_door)
        # one slow verb so requests genuinely queue behind the single
        # worker while the drain begins
        slow = threading.Event()

        def slow_ping(tenant, request, connection):
            slow.set()
            time.sleep(0.3)
            return {"pong": True}

        front_door._verbs["ping"] = slow_ping
        client = ServeClient(port=handle.port)
        try:
            drainer = None
            requests = [{"verb": "ping"} for _ in range(4)]

            def drain_soon():
                slow.wait(timeout=10.0)
                handle.drain(timeout=60.0)

            drainer = threading.Thread(target=drain_soon)
            drainer.start()
            replies, shed = client.burst(requests)
            # every admitted-then-queued request finished (the drain
            # waited for them); none was dropped without a reply
            assert len(replies) == 4
            assert all(
                reply.get("ok") or reply.get("shed") for reply in replies
            )
            drainer.join(timeout=60.0)
            assert not drainer.is_alive(), "drain hung"
            assert front_door.admission("default").pending == 0
            assert [
                record.getMessage()
                for record in caplog.records
                if record.name == "asyncio"
            ] == []
        finally:
            client.close()
            handle.drain(timeout=60.0)

    def test_client_disconnect_mid_request_releases_admission(
        self, tmp_path
    ):
        front_door = FrontDoor(
            directory=str(tmp_path),
            tenants=["default"],
            serve_threads=1,
            policy=OPEN_POLICY,
        )
        handle = serve_in_thread(front_door)
        started = threading.Event()

        def slow_ping(tenant, request, connection):
            started.set()
            time.sleep(0.3)
            return {"pong": True}

        front_door._verbs["ping"] = slow_ping
        try:
            client = ServeClient(port=handle.port)
            client._send({"id": 1, "verb": "ping", "tenant": "default"})
            assert started.wait(timeout=10.0)
            client.close()  # vanish while the request executes
            deadline = time.monotonic() + 10.0
            admission = front_door.admission("default")
            while admission.pending and time.monotonic() < deadline:
                time.sleep(0.05)
            assert admission.pending == 0
            # the server survived: a fresh client gets served
            front_door._verbs["ping"] = FrontDoor._verb_ping.__get__(
                front_door
            )
            with ServeClient(port=handle.port) as fresh:
                assert fresh.ping()["pong"] is True
        finally:
            handle.drain(timeout=60.0)
