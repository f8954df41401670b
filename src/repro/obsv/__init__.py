"""Observability: metrics, tracing spans, and exporters.

The paper's evaluation counts *work* — postings touched, candidates
pruned, δ keys re-inverted — not just wall time; a production service
needs the same counters live.  This package provides the one
:class:`MetricsRegistry` every layer reports into:

- the stored relation (postings touched, overlay merges, refreezes),
- the lookup engine (candidates admitted / pruned by the τ size bound
  / scored),
- the maintenance engines (batch timings, delta keys, group counts),
- the document store (WAL appends/bytes/fsyncs, checkpoints, recovery).

Everything is opt-in: components default to :data:`NULL_REGISTRY`, a
no-op recorder whose instruments swallow every call, so the disabled
path costs one attribute load + an empty method call per event (the
regression gate asserts the *enabled* path stays under 5% on the
256-tree lookup workload).
"""

from repro.obsv.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obsv.tracing import NullTracer, Span, Tracer

__all__ = [
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "NullTracer",
    "Span",
]
