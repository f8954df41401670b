"""Counters, gauges and histograms behind one registry.

Hot-path discipline: components resolve their instruments *once* (at
bind time) and the per-event work is a plain attribute update on the
instrument — no name formatting, no dict lookup, no branching on an
"enabled" flag.  The disabled path swaps every instrument for a shared
null twin whose methods are empty, so uninstrumented deployments pay
one no-op call per event.

Counters are monotonically increasing event tallies, gauges hold the
latest value of a sampled quantity, histograms accumulate
count/sum/min/max of an observed distribution (timers observe
:func:`time.perf_counter` deltas, i.e. monotonic wall seconds).

Exporters: :meth:`MetricsRegistry.snapshot` returns one JSON-ready
dict; :meth:`MetricsRegistry.to_prometheus` renders the Prometheus
text exposition format (counters/gauges verbatim, histograms as
``_count`` / ``_sum`` summary pairs).

Instruments are plain ints behind the GIL, not atomics: concurrent
writers (reader threads sweeping snapshots beside the writer) may lose
increments under contention, so counters are exact only when one
thread records them.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obsv.tracing import NullTracer, Tracer

#: (metric name, sorted (label, value) pairs) — one instrument per id.
MetricId = Tuple[str, Tuple[Tuple[str, str], ...]]


def _metric_id(name: str, labels: Dict[str, object]) -> MetricId:
    return (
        name,
        tuple(sorted((key, str(value)) for key, value in labels.items())),
    )


def format_metric(metric_id: MetricId) -> str:
    """``name{label="value",...}`` (bare name without labels)."""
    name, labels = metric_id
    if not labels:
        return name
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing event tally."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Latest value of a sampled quantity."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """count/sum/min/max accumulator of an observed distribution."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def time(self) -> "_Timer":
        """Context manager observing the elapsed monotonic seconds."""
        return _Timer(self)


class _Timer:
    __slots__ = ("_histogram", "_started")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "_Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._histogram.observe(time.perf_counter() - self._started)


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullTimer:
    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def time(self) -> "_NullTimer":  # type: ignore[override]
        return _NULL_TIMER


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_TIMER = _NullTimer()


class MetricsRegistry:
    """The live recorder: named instruments + a tracer.

    ``enabled`` lets call sites skip work that only exists to feed the
    registry (e.g. the lookup engine's admitted/pruned tally); the
    instruments themselves never need the check.
    """

    enabled = True

    def __init__(self, max_spans: int = 256) -> None:
        self._counters: Dict[MetricId, Counter] = {}
        self._gauges: Dict[MetricId, Gauge] = {}
        self._histograms: Dict[MetricId, Histogram] = {}
        self._help: Dict[str, str] = {}
        self.tracer = Tracer(max_spans=max_spans)

    # ------------------------------------------------------------------
    # instrument resolution (bind-time, not hot-path)
    # ------------------------------------------------------------------

    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        """The counter for (name, labels), created on first use."""
        metric_id = _metric_id(name, labels)
        instrument = self._counters.get(metric_id)
        if instrument is None:
            instrument = self._counters[metric_id] = Counter()
            if help:
                self._help.setdefault(name, help)
        return instrument

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        metric_id = _metric_id(name, labels)
        instrument = self._gauges.get(metric_id)
        if instrument is None:
            instrument = self._gauges[metric_id] = Gauge()
            if help:
                self._help.setdefault(name, help)
        return instrument

    def histogram(self, name: str, help: str = "", **labels: object) -> Histogram:
        metric_id = _metric_id(name, labels)
        instrument = self._histograms.get(metric_id)
        if instrument is None:
            instrument = self._histograms[metric_id] = Histogram()
            if help:
                self._help.setdefault(name, help)
        return instrument

    def span(self, name: str):
        """A nested tracing span (context manager)."""
        return self.tracer.span(name)

    # ------------------------------------------------------------------
    # exporters
    # ------------------------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> int:
        """Current value of one counter (0 if never created)."""
        instrument = self._counters.get(_metric_id(name, labels))
        return instrument.value if instrument is not None else 0

    def counter_values(self, name: str) -> Dict[str, int]:
        """All series of one counter name, keyed by formatted id."""
        return {
            format_metric(metric_id): instrument.value
            for metric_id, instrument in self._counters.items()
            if metric_id[0] == name
        }

    def snapshot(self) -> Dict[str, object]:
        """One JSON-ready dict of every instrument and recent spans."""
        histograms: Dict[str, Dict[str, float]] = {}
        for metric_id, histogram in self._histograms.items():
            entry: Dict[str, float] = {
                "count": histogram.count,
                "sum": histogram.total,
            }
            if histogram.count:
                entry["min"] = histogram.minimum
                entry["max"] = histogram.maximum
                entry["avg"] = histogram.total / histogram.count
            histograms[format_metric(metric_id)] = entry
        return {
            "counters": {
                format_metric(metric_id): instrument.value
                for metric_id, instrument in self._counters.items()
            },
            "gauges": {
                format_metric(metric_id): instrument.value
                for metric_id, instrument in self._gauges.items()
            },
            "histograms": histograms,
            "spans": self.tracer.snapshot(),
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition of every instrument."""
        lines: List[str] = []

        def header(name: str, kind: str) -> None:
            help_text = self._help.get(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")

        def series(
            instruments: Dict[MetricId, object], kind: str
        ) -> Iterator[Tuple[str, List[MetricId]]]:
            by_name: Dict[str, List[MetricId]] = {}
            for metric_id in instruments:
                by_name.setdefault(metric_id[0], []).append(metric_id)
            for name in by_name:
                header(name, kind)
                yield name, by_name[name]

        for _, ids in series(self._counters, "counter"):
            for metric_id in ids:
                lines.append(
                    f"{format_metric(metric_id)} "
                    f"{self._counters[metric_id].value}"
                )
        for _, ids in series(self._gauges, "gauge"):
            for metric_id in ids:
                lines.append(
                    f"{format_metric(metric_id)} {self._gauges[metric_id].value}"
                )
        for name, ids in series(self._histograms, "summary"):
            for metric_id in ids:
                _, labels = metric_id
                histogram = self._histograms[metric_id]
                count_id = format_metric((f"{name}_count", labels))
                sum_id = format_metric((f"{name}_sum", labels))
                lines.append(f"{count_id} {histogram.count}")
                lines.append(f"{sum_id} {histogram.total}")
        return "\n".join(lines) + ("\n" if lines else "")


class NullRegistry(MetricsRegistry):
    """The disabled recorder: every instrument is a shared no-op.

    Components bind against this by default, so instrumented code runs
    unconditionally but records nothing and allocates nothing.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(max_spans=0)
        self.tracer = NullTracer()

    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name: str, help: str = "", **labels: object) -> Histogram:
        return _NULL_HISTOGRAM


#: The process-wide disabled recorder (safe to share: it holds nothing).
NULL_REGISTRY = NullRegistry()


def resolve_registry(
    metrics: "Optional[MetricsRegistry | bool]",
) -> MetricsRegistry:
    """Normalize a ``metrics=`` argument: ``None``/``False`` → the null
    registry, ``True`` → a fresh live registry, an instance → itself."""
    if metrics is None or metrics is False:
        return NULL_REGISTRY
    if metrics is True:
        return MetricsRegistry()
    return metrics
