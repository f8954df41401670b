"""Streaming ingest + standing queries over the maintained index.

The write path already computes, for every committed batch, the net
``(minus, plus)`` delta bags of the touched document; this package
turns that byproduct into a continuous query facility:

- :class:`~repro.stream.standing.StandingQueryEngine` keeps the
  τ-neighborhood (or top-k set) of registered :mod:`repro.query` plans
  current from the executor's matches, routing each batch through a
  pq-gram subscription index: a query that shares no key with a batch
  that keeps the document's size is skipped without any distance
  arithmetic, every other re-scores the one touched document;
- :mod:`repro.stream.ingest` feeds full document versions through
  :func:`repro.edits.diff.diff_trees` into the store's coalescing
  write path, closing the loop from raw XML to notification.

:class:`~repro.service.store.DocumentStore` integrates both:
``subscribe``/``unsubscribe`` persist across restarts through the
checkpoint, and recovery reconciles membership against the replayed
WAL so the event stream is exactly-once relative to the durable
frontier.
"""

from repro.stream.ingest import (
    IngestReport,
    ingest_feed,
    ingest_snapshot,
    ingest_xml,
)
from repro.stream.standing import (
    Notification,
    StandingQuery,
    StandingQueryEngine,
    plan_from_spec,
    plan_to_spec,
)

__all__ = [
    "IngestReport",
    "Notification",
    "StandingQuery",
    "StandingQueryEngine",
    "ingest_feed",
    "ingest_snapshot",
    "ingest_xml",
    "plan_from_spec",
    "plan_to_spec",
]
