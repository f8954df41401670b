"""Lightweight nested tracing spans.

A :class:`Tracer` records *where wall time went* inside one request —
``lookup`` wrapping ``backend.sweep``, ``store.apply_group`` wrapping
``maintain.batch`` — without any external collector: finished spans
land in a bounded ring buffer that the metrics snapshot exposes.

Spans nest per thread (a thread-local depth stack), cost two
``perf_counter`` calls plus one append each, and degrade to a shared
no-op context manager on the null tracer.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional


class Span:
    """One finished span: name, start offset, duration, nesting depth."""

    __slots__ = ("name", "started", "duration", "depth")

    def __init__(
        self, name: str, started: float, duration: float, depth: int
    ) -> None:
        self.name = name
        self.started = started        # seconds since the tracer's epoch
        self.duration = duration      # seconds
        self.depth = depth            # 0 = root of its thread's stack

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "started_ms": round(self.started * 1e3, 3),
            "duration_ms": round(self.duration * 1e3, 3),
            "depth": self.depth,
        }


class _ActiveSpan:
    __slots__ = ("_tracer", "_name", "_started", "_depth")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._started = 0.0
        self._depth = 0

    def __enter__(self) -> "_ActiveSpan":
        local = self._tracer._local
        depth = getattr(local, "depth", 0)
        self._depth = depth
        local.depth = depth + 1
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        ended = time.perf_counter()
        tracer = self._tracer
        tracer._local.depth = self._depth
        tracer._finished.append(
            Span(
                self._name,
                self._started - tracer.epoch,
                ended - self._started,
                self._depth,
            )
        )


class Tracer:
    """Bounded ring of finished spans + per-thread nesting depth."""

    def __init__(self, max_spans: int = 256) -> None:
        self.epoch = time.perf_counter()
        self._finished: Deque[Span] = deque(maxlen=max(0, max_spans))
        self._local = threading.local()

    def span(self, name: str) -> _ActiveSpan:
        return _ActiveSpan(self, name)

    def snapshot(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """The most recent finished spans, oldest first."""
        spans = list(self._finished)
        if limit is not None:
            spans = spans[-limit:]
        return [span.as_dict() for span in spans]

    def clear(self) -> None:
        self._finished.clear()


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """Records nothing; every span is the shared no-op."""

    def __init__(self) -> None:
        super().__init__(max_spans=0)

    def span(self, name: str) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN
