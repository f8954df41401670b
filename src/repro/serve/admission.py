"""Admission control: per-tenant token bucket + bounded pending queue.

The front door admits or sheds every request *before* its verb runs
(on a worker thread, or on the event loop for snapshot reads), so a
shed request provably never touches a store.
Three bounds, all per tenant:

- **rate** — a token bucket (``rate`` tokens/second, ``burst``
  capacity) absorbs short spikes and sheds sustained excess
  (``reason="rate"``).  A zero-capacity bucket sheds everything — the
  administrative "tenant off" switch.
- **queue depth** — at most ``max_queue`` requests may be admitted
  but not yet finished (queued on the executor or in flight); beyond
  that the tenant is overloaded and new requests shed
  (``reason="queue"``).
- **queue wait** — an admitted request that waited longer than
  ``max_wait_seconds`` for a worker thread is shed at dequeue time
  (``reason="wait"``): replying 429 late is strictly better than
  serving a reply the client has already timed out on, and the check
  runs before the verb handler, so late sheds mutate nothing either.

A verb the event loop runs itself is admitted and finished in one
step: the bucket sheds it like any other, but it is never pending
while another frame is parsed, so the two queue bounds cannot trigger
for it (its wait is observed as ≈ 0).

Admission decisions are two integer comparisons and a bucket refill —
deliberately cheap, so the shed path costs almost nothing when the
system is at its worst.  All counters land in the obsv registry:
``serve_admitted_total``, ``serve_shed_total{tenant,reason}``, and the
``serve_inflight{tenant}`` gauge.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obsv.metrics import MetricsRegistry
from repro.serve.protocol import SHED_QUEUE, SHED_RATE, SHED_WAIT

Clock = Callable[[], float]


@dataclass(frozen=True)
class AdmissionPolicy:
    """The admission-control knobs of one tenant.

    ``rate <= 0`` disables refill; together with ``burst = 0`` that is
    a zero-capacity bucket that sheds every request.  ``rate > 0``
    with ``burst = 0`` also sheds everything (there is never a whole
    token to take).  ``max_queue < 1`` likewise admits nothing.
    """

    rate: float = 200.0
    burst: float = 50.0
    max_queue: int = 64
    max_wait_seconds: float = 2.0


class TokenBucket:
    """Classic token bucket; thread-safe, injectable clock for tests."""

    def __init__(
        self, rate: float, burst: float, clock: Clock = time.monotonic
    ) -> None:
        self._rate = max(0.0, rate)
        self._capacity = max(0.0, burst)
        self._tokens = self._capacity
        self._clock = clock
        self._stamp = clock()
        self._mutex = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; never blocks."""
        with self._mutex:
            now = self._clock()
            elapsed = now - self._stamp
            self._stamp = now
            if self._rate > 0.0 and elapsed > 0.0:
                self._tokens = min(
                    self._capacity, self._tokens + elapsed * self._rate
                )
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    @property
    def capacity(self) -> float:
        return self._capacity


class Ticket:
    """One admitted request: its admit timestamp plus a once-only
    release latch (finish may race between the normal path and a
    connection teardown)."""

    __slots__ = ("admitted_at", "_released")

    def __init__(self, admitted_at: float) -> None:
        self.admitted_at = admitted_at
        self._released = False

    def release_once(self) -> bool:
        if self._released:
            return False
        self._released = True
        return True


class AdmissionController:
    """Admit/shed decisions for one tenant.

    ``admit`` runs on the event-loop thread, ``overdue`` on the thread
    that executes the verb (a worker, or the loop itself for inline
    reads), ``finish`` on the loop — the pending counter is
    mutex-guarded.
    """

    def __init__(
        self,
        tenant: str,
        policy: AdmissionPolicy,
        registry: MetricsRegistry,
        clock: Clock = time.monotonic,
    ) -> None:
        self.tenant = tenant
        self.policy = policy
        self._clock = clock
        self._bucket = TokenBucket(policy.rate, policy.burst, clock)
        self._pending = 0
        self._mutex = threading.Lock()
        self._m_admitted = registry.counter(
            "serve_admitted_total",
            "requests admitted past rate + queue bounds",
            tenant=tenant,
        )
        self._m_shed_rate = registry.counter(
            "serve_shed_total",
            "requests shed by admission control",
            tenant=tenant,
            reason=SHED_RATE,
        )
        self._m_shed_queue = registry.counter(
            "serve_shed_total", "", tenant=tenant, reason=SHED_QUEUE
        )
        self._m_shed_wait = registry.counter(
            "serve_shed_total", "", tenant=tenant, reason=SHED_WAIT
        )
        self._m_inflight = registry.gauge(
            "serve_inflight",
            "admitted requests not yet finished (queued + executing)",
            tenant=tenant,
        )
        self._m_queue_wait = registry.histogram(
            "serve_queue_wait_seconds",
            "seconds between admission and worker pickup",
            tenant=tenant,
        )

    @property
    def pending(self) -> int:
        """Admitted-but-unfinished requests right now."""
        with self._mutex:
            return self._pending

    def admit(self) -> "tuple[Optional[Ticket], Optional[str]]":
        """``(ticket, None)`` when admitted, ``(None, reason)`` when
        shed.  The queue bound is checked before the bucket so a full
        tenant does not also drain its own tokens."""
        with self._mutex:
            if self._pending >= self.policy.max_queue:
                self._m_shed_queue.inc()
                return None, SHED_QUEUE
            if not self._bucket.try_acquire():
                self._m_shed_rate.inc()
                return None, SHED_RATE
            self._pending += 1
            self._m_inflight.set(self._pending)
        self._m_admitted.inc()
        return Ticket(self._clock()), None

    def overdue(self, ticket: Ticket) -> bool:
        """Worker-side wait check: True (and the ticket is finished,
        counted as ``reason="wait"``) when the request sat queued past
        the bound — the caller must shed instead of executing."""
        waited = self._clock() - ticket.admitted_at
        self._m_queue_wait.observe(waited)
        if waited > self.policy.max_wait_seconds:
            if ticket.release_once():
                self._m_shed_wait.inc()
                self._release()
            return True
        return False

    def finish(self, ticket: Ticket) -> None:
        """Release one admitted request (idempotent per ticket)."""
        if ticket.release_once():
            self._release()

    def _release(self) -> None:
        with self._mutex:
            self._pending -= 1
            self._m_inflight.set(self._pending)
