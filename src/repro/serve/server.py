"""The asyncio front door: per-tenant stores behind one TCP listener.

Architecture (one process)::

    asyncio event loop                       worker threads
    ──────────────────                       ──────────────
    accept / readline                        ThreadPoolExecutor(serve_threads)
      │ parse frame                            │ the verbs that can block:
      │ admission control                      │   add, apply_edits,
      │   (token bucket, queue bound,          │   subscribe, unsubscribe
      │    draining flag)                      │     → store mutex, WAL fsync
      │ shed ► 429 reply                       │   query with k, stats, metrics
      │                                        │     → O(N) Python per call
      ├─ verb can block ─── run_in_executor ─► │   ping → probes loop and pool
      │                                        │   any read before the tenant
      │                                        │     has a published view
      │                                        │     → the first CSR freeze
      │                                        │   a read whose request line
      │                                        │     exceeds INLINE_FRAME_BYTES
      │                                        │     → scan + sweep ∝ its text
      └─ snapshot read (lookup, τ query, show) ▼
           wait-bound check, verb handler ── the same ``_execute`` body
      ◄─────────── reply frame
    per-connection sender task drains an outbound queue
    (replies + streamed standing-query events, bounded)

One static rule decides where a verb runs: *on the event loop unless it
can block*.  ``lookup``, ``query`` with a τ plan and ``show`` only read
published immutable state (the per-generation snapshot handle,
copy-on-write documents), so the thread that received the request
answers it — no task, no future, no hand-off between threads that the
GIL would serialise anyway.  A ``lookup``'s bracket text is never
parsed into a tree: the store scans it once into the query's pq-gram
bag (``PQGramIndex.from_brackets``), which is all the sweep reads.
What a read costs the loop grows with its text, so the rule has a size
clause: a request line longer than ``INLINE_FRAME_BYTES`` hops to the
pool however cheap its verb.  Everything that takes the store mutex,
waits on an fsync, walks the whole collection in Python or would build
something hops to a worker thread via ``run_in_executor``; the event
loop never waits on a mutex, an fsync or a build.  Replies are written
by the connection's sender task, so they may interleave out of request
order (the ``id`` token pairs them back up).  After every inline
request the connection handler yields to the loop once — ``readline``
does not suspend while a line is buffered, so a pipelining connection
would otherwise starve every other one.

Back-pressure is explicit and layered: the token bucket sheds inline
and pooled verbs alike; the admission queue bounds how much *pooled*
work a tenant may have outstanding and the executor bounds its
parallelism at ``serve_threads`` (an inline read finishes before the
next frame is parsed, so for reads the socket buffer is the queue);
and each connection's outbound event buffer is bounded (slow
subscribers lose events, counted in ``serve_events_dropped_total``,
rather than ballooning the server).

Graceful drain (SIGTERM): stop accepting, shed every new request with
a 503 ``draining`` reply, wait for in-flight requests to finish, then
flush each tenant's write coalescer, checkpoint, and close the stores
— the CI serve job follows the drain with ``store verify`` against a
from-scratch rebuild.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.edits.serialize import parse_operations
from repro.errors import (
    ProtocolError,
    QueryError,
    ReproError,
    StorageError,
    StoreFailedError,
)
from repro.obsv.metrics import Histogram, MetricsRegistry, resolve_registry
from repro.serve.admission import AdmissionController, AdmissionPolicy, Ticket
from repro.serve.protocol import (
    BAD_REQUEST,
    INTERNAL,
    NOT_FOUND,
    PROTOCOL_VERSION,
    SHED_DRAINING,
    STORE_FAILED,
    decode_frame,
    encode_frame,
    error_frame,
    event_frame,
    result_frame,
    shed_frame,
)
from repro.service.store import DocumentStore
from repro.stream.standing import Notification, plan_from_spec, plan_to_spec
from repro.tree.builder import tree_from_brackets, tree_to_brackets

#: outbound frames queued per connection before *events* start dropping
#: (replies never drop — a client with this many unread replies is
#: broken and will be disconnected by TCP back-pressure eventually)
EVENT_BUFFER = 256

#: how long a drain waits for connection handlers to see their closed
#: sockets before letting the loop stop anyway (a client that never
#: reads can pin its sender in ``writer.drain()``)
CLOSE_WAIT_SECONDS = 5.0

#: verbs that only read published immutable state and so run on the
#: event-loop thread (``query`` only with a τ plan, and every one of
#: them only once the tenant has a published view — see ``_dispatch``)
INLINE_VERBS = frozenset({"lookup", "query", "show"})

#: longest request line an inline verb may arrive in.  Scanning and
#: sweeping a query costs the loop time in proportion to its text —
#: 1.3 ms of CPU for a 400-node, 4.5 KB query over 1,000 documents
#: (``benchmarks/frontdoor_cpu.py``, ``lookup-400``), so ≈ 5 ms at this
#: bound (≈ 1,500 nodes) — and a longer one hops to the pool like any
#: other verb that could hold the loop.
INLINE_FRAME_BYTES = 16 * 1024


def _noop_listener(event: Notification) -> None:
    """Listener stub for kept subscriptions after their connection
    closed (the subscription stays durable; events resume on the next
    ``subscribe`` with the same id, or via ``store watch``)."""


class _Connection:
    """Per-connection outbound queue + subscription bookkeeping."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self.outbound: "asyncio.Queue[Optional[Dict[str, object]]]" = (
            asyncio.Queue()
        )
        self.closed = False
        #: the ``_on_connection`` task serving this connection
        self.handler = asyncio.current_task()
        #: (tenant name, query id, keep) registered over this connection
        self.subscriptions: List[Tuple[str, str, bool]] = []
        self.events_dropped = 0

    def send(self, frame: Optional[Dict[str, object]]) -> None:
        """Queue one frame (loop thread only); drops events beyond the
        buffer bound, never replies."""
        if self.closed:
            return
        if (
            frame is not None
            and "event" in frame
            and self.outbound.qsize() >= EVENT_BUFFER
        ):
            self.events_dropped += 1
            return
        self.outbound.put_nowait(frame)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.outbound.put_nowait(None)

    async def run_sender(self) -> None:
        try:
            while True:
                frame = await self.outbound.get()
                if frame is None:
                    break
                self._writer.write(encode_frame(frame))
                await self._writer.drain()
        except (ConnectionError, OSError):
            self.closed = True
        finally:
            self.closed = True
            with contextlib.suppress(Exception):
                self._writer.close()
                await self._writer.wait_closed()


class _Tenant:
    """One served collection: a store plus its admission controller."""

    def __init__(
        self,
        name: str,
        store: DocumentStore,
        admission: AdmissionController,
        owned: bool,
    ) -> None:
        self.name = name
        self.store = store
        self.admission = admission
        self.owned = owned  # close() on drain only for stores we opened


class FrontDoor:
    """The serving front door over one or more tenant stores.

    ``directory`` is the serving root: tenant ``t`` lives in
    ``<directory>/<t>`` (created on first start).  ``stores`` injects
    already-open stores instead (tests, benchmarks); injected stores
    must be open in serving mode and are *not* closed on drain unless
    ``own_stores=True``.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        tenants: Sequence[str] = ("default",),
        host: str = "127.0.0.1",
        port: int = 0,
        serve_threads: int = 4,
        policy: Optional[AdmissionPolicy] = None,
        policies: Optional[Dict[str, AdmissionPolicy]] = None,
        stores: Optional[Dict[str, DocumentStore]] = None,
        own_stores: bool = True,
        store_options: Optional[Dict[str, object]] = None,
        metrics: "Optional[MetricsRegistry | bool]" = None,
    ) -> None:
        if stores is None and directory is None:
            raise ValueError("need a serving directory or injected stores")
        self._host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self._serve_threads = max(1, serve_threads)
        self._registry = resolve_registry(
            metrics if metrics is not None else MetricsRegistry()
        )
        default_policy = policy or AdmissionPolicy()
        self._tenants: Dict[str, _Tenant] = {}
        if stores is not None:
            items = [(name, store, own_stores) for name, store in stores.items()]
        else:
            assert directory is not None
            options = dict(store_options or {})
            options.setdefault("serve_threads", self._serve_threads)
            items = [
                (
                    name,
                    DocumentStore(os.path.join(directory, name), **options),
                    True,
                )
                for name in tenants
            ]
        for name, store, owned in items:
            tenant_policy = (policies or {}).get(name, default_policy)
            self._tenants[name] = _Tenant(
                name,
                store,
                AdmissionController(name, tenant_policy, self._registry),
                owned,
            )
        self._pool = ThreadPoolExecutor(
            max_workers=self._serve_threads, thread_name_prefix="serve-worker"
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped: Optional[asyncio.Event] = None
        self._draining = False
        self._drained = False
        self._connections: "set[_Connection]" = set()
        # Which connection a standing query's listener is bound to.  A
        # reconnecting client can re-attach before the server has torn
        # its dead connection down; the late teardown must then leave
        # the subscription alone.  The mutex makes "check the owner,
        # then (re)bind or detach" atomic across worker threads.
        self._subscription_owner: Dict[Tuple[str, str], _Connection] = {}
        self._subscription_mutex = threading.Lock()
        self._tasks: "set[asyncio.Task]" = set()
        self._verb_seconds: Dict[str, Histogram] = {}
        self._verbs: Dict[str, Callable[[_Tenant, Dict[str, object], _Connection], Dict[str, object]]] = {
            "ping": self._verb_ping,
            "add": self._verb_add,
            "show": self._verb_show,
            "apply_edits": self._verb_apply_edits,
            "lookup": self._verb_lookup,
            "query": self._verb_query,
            "subscribe": self._verb_subscribe,
            "unsubscribe": self._verb_unsubscribe,
            "stats": self._verb_stats,
            "metrics": self._verb_metrics,
        }
        registry = self._registry
        self._m_requests = {
            verb: registry.counter(
                "serve_requests_total", "requests received per verb", verb=verb
            )
            for verb in self._verbs
        }
        self._m_shed_draining = registry.counter(
            "serve_shed_total", "", reason=SHED_DRAINING
        )
        self._m_connections = registry.counter(
            "serve_connections_total", "connections accepted"
        )
        self._m_open = registry.gauge(
            "serve_connections_open", "connections currently open"
        )
        self._m_events = registry.counter(
            "serve_events_streamed_total",
            "standing-query notifications streamed to subscribers",
        )
        self._m_events_dropped = registry.counter(
            "serve_events_dropped_total",
            "events dropped on slow subscriber connections",
        )
        self._m_draining = registry.gauge(
            "serve_draining", "1 while the server refuses new work"
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        """The obsv registry holding every ``serve_*`` instrument."""
        return self._registry

    @property
    def draining(self) -> bool:
        return self._draining

    def tenant_store(self, name: str) -> DocumentStore:
        """The open store of one tenant (tests and embedders)."""
        return self._tenants[name].store

    def admission(self, name: str) -> AdmissionController:
        """The admission controller of one tenant."""
        return self._tenants[name].admission

    async def start(self) -> None:
        """Bind the listener; ``self.port`` holds the bound port."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def run(
        self, on_ready: "Optional[Callable[[FrontDoor], None]]" = None
    ) -> None:
        """Start, then serve until :meth:`drain` completes."""
        await self.start()
        if on_ready is not None:
            on_ready(self)
        assert self._stopped is not None
        await self._stopped.wait()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, shed new requests, wait
        for in-flight work, flush + checkpoint + close the stores."""
        if self._draining:
            if self._stopped is not None:
                await self._stopped.wait()
            return
        self._draining = True
        self._m_draining.set(1)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            while self._tasks:
                await asyncio.gather(
                    *list(self._tasks), return_exceptions=True
                )
            assert self._loop is not None
            await self._loop.run_in_executor(None, self._close_stores)
            connections = list(self._connections)
            for connection in connections:
                connection.close()
            if connections:
                # Closing the writer ends each handler's pending read
                # with EOF.  Let the handlers finish: a task still
                # parked in ``readline`` when the loop stops is
                # cancelled by ``asyncio.run`` and logged as an error.
                await asyncio.wait(
                    [connection.handler for connection in connections],
                    timeout=CLOSE_WAIT_SECONDS,
                )
            self._pool.shutdown(wait=True)
            self._drained = True
        finally:
            # the loop must terminate even when a store close fails —
            # a hung process after SIGTERM is worse than a loud error
            if self._stopped is not None:
                self._stopped.set()

    def _close_stores(self) -> None:
        for tenant in self._tenants.values():
            if tenant.owned:
                tenant.store.close()
            else:
                tenant.store.flush()

    # ------------------------------------------------------------------
    # connection handling (event-loop thread)
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(writer)
        self._connections.add(connection)
        self._m_connections.inc()
        self._m_open.set(len(self._connections))
        sender = asyncio.ensure_future(connection.run_sender())
        try:
            while not connection.closed:
                try:
                    line = await reader.readline()
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                try:
                    request = decode_frame(line)
                except ProtocolError as exc:
                    connection.send(
                        error_frame(None, BAD_REQUEST, str(exc))
                    )
                    continue
                if self._dispatch(connection, request, len(line)):
                    # ``readline`` does not suspend while a line is
                    # buffered: without this yield a pipelining
                    # connection would starve every other one.
                    await asyncio.sleep(0)
        finally:
            self._m_events_dropped.inc(connection.events_dropped)
            await self._teardown_subscriptions(connection)
            connection.close()
            with contextlib.suppress(Exception):
                await sender
            # Registered until here, so a drain that starts while this
            # teardown is in flight waits for it: a handler the loop's
            # shutdown cancels mid-teardown is logged as an error.
            self._connections.discard(connection)
            self._m_open.set(len(self._connections))

    def _dispatch(
        self,
        connection: _Connection,
        request: Dict[str, object],
        frame_bytes: int,
    ) -> bool:
        """Admit or shed one request (decoded from a line of
        ``frame_bytes``) and run it where its verb belongs; True when
        it ran inline (the caller then yields to the loop)."""
        request_id = request.get("id")
        verb = request.get("verb")
        counter = self._m_requests.get(verb)  # type: ignore[arg-type]
        if counter is None:
            connection.send(
                error_frame(request_id, BAD_REQUEST, f"unknown verb {verb!r}")
            )
            return False
        counter.inc()
        tenant_name = request.get("tenant", "default")
        tenant = self._tenants.get(tenant_name)  # type: ignore[arg-type]
        if tenant is None:
            connection.send(
                error_frame(
                    request_id, NOT_FOUND, f"unknown tenant {tenant_name!r}"
                )
            )
            return False
        if self._draining:
            self._m_shed_draining.inc()
            connection.send(shed_frame(request_id, SHED_DRAINING))
            return False
        ticket, reason = tenant.admission.admit()
        if ticket is None:
            assert reason is not None
            connection.send(shed_frame(request_id, reason))
            return False
        # The one rule: a verb runs here, on the loop, unless it can
        # block.  A top-k query walks every tree in Python, a long
        # query text takes long to scan and sweep, and before the
        # tenant's first view is published a read would build the CSR
        # — all three hop like the verbs that lock or fsync.
        if (
            verb in INLINE_VERBS
            and frame_bytes <= INLINE_FRAME_BYTES
            and request.get("k") is None
            and tenant.store.has_published_view
        ):
            try:
                frame = self._execute(tenant, connection, ticket, verb, request)  # type: ignore[arg-type]
            finally:
                tenant.admission.finish(ticket)
            connection.send(frame)
            return True
        task = asyncio.ensure_future(
            self._run_request(connection, tenant, ticket, verb, request)  # type: ignore[arg-type]
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return False

    async def _run_request(
        self,
        connection: _Connection,
        tenant: _Tenant,
        ticket: Ticket,
        verb: str,
        request: Dict[str, object],
    ) -> None:
        assert self._loop is not None
        try:
            frame = await self._loop.run_in_executor(
                self._pool,
                self._execute,
                tenant,
                connection,
                ticket,
                verb,
                request,
            )
        finally:
            tenant.admission.finish(ticket)
        connection.send(frame)

    # ------------------------------------------------------------------
    # request execution (the loop thread for inline verbs, a worker
    # thread for the rest)
    # ------------------------------------------------------------------

    def _execute(
        self,
        tenant: _Tenant,
        connection: _Connection,
        ticket: Ticket,
        verb: str,
        request: Dict[str, object],
    ) -> Dict[str, object]:
        """The reply frame of one admitted request; never raises an
        ``Exception`` — a handler failure is an error frame."""
        request_id = request.get("id")
        # The wait bound is checked on the executing thread, *before*
        # the handler runs — a late request sheds without touching a
        # store.  (Inline verbs are picked up at once: observed ≈ 0.)
        if tenant.admission.overdue(ticket):
            return shed_frame(request_id, "wait")
        timer = self._verb_seconds.get(verb)
        if timer is None:
            timer = self._verb_seconds.setdefault(
                verb,
                self._registry.histogram(
                    "serve_request_seconds",
                    "wall seconds per executed request",
                    verb=verb,
                ),
            )
        try:
            with timer.time():
                result = self._verbs[verb](tenant, request, connection)
        except StorageError as exc:
            return error_frame(request_id, NOT_FOUND, str(exc))
        except StoreFailedError as exc:
            return error_frame(request_id, STORE_FAILED, str(exc))
        except (ProtocolError, ReproError, KeyError, ValueError, TypeError) as exc:
            return error_frame(request_id, BAD_REQUEST, str(exc))
        except Exception as exc:  # noqa: BLE001 - reply, never kill the loop
            return error_frame(request_id, INTERNAL, str(exc))
        return result_frame(request_id, result)

    @staticmethod
    def _field(request: Dict[str, object], name: str) -> object:
        try:
            return request[name]
        except KeyError:
            raise ProtocolError(f"request is missing field {name!r}") from None

    def _verb_ping(self, tenant, request, connection) -> Dict[str, object]:
        return {
            "pong": True,
            "protocol": PROTOCOL_VERSION,
            "tenant": tenant.name,
            "draining": self._draining,
        }

    def _verb_add(self, tenant, request, connection) -> Dict[str, object]:
        document_id = int(self._field(request, "doc"))  # type: ignore[arg-type]
        tree = tree_from_brackets(str(self._field(request, "tree")))
        tenant.store.add_document(document_id, tree)
        return {"doc": document_id, "nodes": len(tree)}

    def _verb_show(self, tenant, request, connection) -> Dict[str, object]:
        document_id = int(self._field(request, "doc"))  # type: ignore[arg-type]
        tree = tenant.store.get_document(document_id)
        return {
            "doc": document_id,
            "nodes": len(tree),
            "tree": tree_to_brackets(tree),
        }

    def _verb_apply_edits(self, tenant, request, connection) -> Dict[str, object]:
        document_id = int(self._field(request, "doc"))  # type: ignore[arg-type]
        operations = parse_operations(str(self._field(request, "ops")))
        tenant.store.apply_edits(document_id, operations)
        return {"doc": document_id, "applied": len(operations)}

    def _verb_lookup(self, tenant, request, connection) -> Dict[str, object]:
        # the frame's text goes through as text: a query is only ever
        # a bag, and the store scans it into one (TreeError → 400)
        query = str(self._field(request, "query"))
        tau = float(self._field(request, "tau"))  # type: ignore[arg-type]
        result = tenant.store.lookup(query, tau)
        return {"matches": [[doc, dist] for doc, dist in result.matches]}

    def _verb_query(self, tenant, request, connection) -> Dict[str, object]:
        plan = plan_from_spec(self._plan_spec(request))
        result = tenant.store.query(plan)
        return {"matches": [[doc, dist] for doc, dist in result.matches]}

    @staticmethod
    def _plan_spec(request: Dict[str, object]) -> Dict[str, object]:
        spec: Dict[str, object] = {
            "query": FrontDoor._field(request, "query")
        }
        if "k" in request and request["k"] is not None:
            spec["k"] = int(request["k"])  # type: ignore[arg-type]
        else:
            tau = request.get("tau")
            spec["tau"] = 0.5 if tau is None else float(tau)  # type: ignore[arg-type]
        spec["predicates"] = request.get("predicates", [])
        return spec

    def _verb_subscribe(self, tenant, request, connection) -> Dict[str, object]:
        query_id = str(self._field(request, "query_id"))
        keep = bool(request.get("keep", False))
        plan = plan_from_spec(self._plan_spec(request))
        loop = self._loop
        events_counter = self._m_events
        tenant_name = tenant.name

        def listener(event: Notification) -> None:
            frame = event_frame(
                tenant_name,
                event.query_id,
                event.kind,
                event.document_id,
                event.distance,
                event.seq,
            )
            events_counter.inc()
            if loop is not None:
                try:
                    loop.call_soon_threadsafe(connection.send, frame)
                except RuntimeError:
                    pass  # loop already closed (server stopping)

        store = tenant.store
        with self._subscription_mutex:
            if query_id in store.standing_query_ids():
                # Re-attach: a ``keep`` subscription outlived the
                # connection that registered it.  Same id, same plan
                # re-binds the listener; the membership carries on.
                if plan_to_spec(store.standing_plan(query_id)) != plan_to_spec(plan):
                    raise QueryError(
                        f"standing query {query_id!r} already exists "
                        "with a different plan"
                    )
                store.attach_listener(query_id, listener)
                matches = store.standing_matches(query_id)
            else:
                matches = store.subscribe(query_id, plan, listener)
            self._subscription_owner[(tenant.name, query_id)] = connection
        connection.subscriptions.append((tenant.name, query_id, keep))
        return {
            "query_id": query_id,
            "matches": [[doc, dist] for doc, dist in matches],
        }

    def _verb_unsubscribe(self, tenant, request, connection) -> Dict[str, object]:
        query_id = str(self._field(request, "query_id"))
        with self._subscription_mutex:
            tenant.store.unsubscribe(query_id)
            self._subscription_owner.pop((tenant.name, query_id), None)
        connection.subscriptions = [
            entry
            for entry in connection.subscriptions
            if entry[:2] != (tenant.name, query_id)
        ]
        return {"query_id": query_id, "unsubscribed": True}

    def _verb_stats(self, tenant, request, connection) -> Dict[str, object]:
        return dict(tenant.store.stats())

    def _verb_metrics(self, tenant, request, connection) -> Dict[str, object]:
        snapshot = self._registry.snapshot()
        return {"counters": snapshot["counters"], "gauges": snapshot["gauges"]}

    # ------------------------------------------------------------------
    # subscription teardown
    # ------------------------------------------------------------------

    async def _teardown_subscriptions(self, connection: _Connection) -> None:
        subscriptions = connection.subscriptions
        connection.subscriptions = []
        if not subscriptions or self._draining:
            # During drain the stores are flushed/closed by the drain
            # path itself; kept-or-not, subscriptions stay durable in
            # the final checkpoint.
            return
        assert self._loop is not None
        with contextlib.suppress(Exception):
            await self._loop.run_in_executor(
                self._pool, self._detach_subscriptions, connection, subscriptions
            )

    def _detach_subscriptions(
        self,
        connection: _Connection,
        subscriptions: List[Tuple[str, str, bool]],
    ) -> None:
        for tenant_name, query_id, keep in subscriptions:
            tenant = self._tenants.get(tenant_name)
            if tenant is None:
                continue
            with self._subscription_mutex:
                key = (tenant_name, query_id)
                if self._subscription_owner.get(key) is not connection:
                    continue  # unsubscribed, or re-attached elsewhere
                del self._subscription_owner[key]
                try:
                    if keep:
                        tenant.store.attach_listener(query_id, _noop_listener)
                    else:
                        tenant.store.unsubscribe(query_id)
                except (ReproError, RuntimeError, KeyError):
                    pass  # already unsubscribed, or the store is closing


class ServerHandle:
    """A front door running on a dedicated thread (tests, benchmarks,
    the soak driver) — the in-process twin of ``repro serve``."""

    def __init__(self, front_door: FrontDoor) -> None:
        self.front_door = front_door
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="serve-front-door", daemon=True
        )

    def _run(self) -> None:
        asyncio.run(self.front_door.run(on_ready=lambda _: self._ready.set()))

    def start(self, timeout: float = 30.0) -> "ServerHandle":
        if not self._thread.is_alive() and not self._ready.is_set():
            self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server failed to start within the timeout")
        return self

    @property
    def port(self) -> int:
        port = self.front_door.port
        assert port is not None
        return port

    def drain(self, timeout: float = 60.0) -> None:
        """Trigger a graceful drain from any thread and wait for it."""
        loop = self.front_door._loop
        if loop is None or not self._thread.is_alive():
            return
        try:
            future = asyncio.run_coroutine_threadsafe(
                self.front_door.drain(), loop
            )
            future.result(timeout)
        except RuntimeError:
            pass  # loop already gone
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.drain()


def serve_in_thread(front_door: FrontDoor) -> ServerHandle:
    """Start ``front_door`` on a background thread; returns the handle
    once the listener is bound (``handle.port``)."""
    return ServerHandle(front_door).start()
