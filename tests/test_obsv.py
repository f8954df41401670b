"""Unit tests of the observability package itself.

The registry is the contract every instrumented component builds on:
instrument identity (name + labels), the exporters, the null twins'
absolute no-op behavior, and the tracer's nesting discipline.
"""

import json
import re
import time
from pathlib import Path

import pytest

from repro.obsv import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
)
from repro.obsv.metrics import (
    _NULL_COUNTER,
    _NULL_GAUGE,
    _NULL_HISTOGRAM,
    format_metric,
    resolve_registry,
)


class TestInstruments:
    def test_counter_memoized_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("requests_total", "help", route="x")
        b = registry.counter("requests_total", route="x")
        c = registry.counter("requests_total", route="y")
        assert a is b
        assert a is not c
        a.inc()
        a.inc(4)
        assert registry.counter_value("requests_total", route="x") == 5
        assert registry.counter_value("requests_total", route="y") == 0
        assert registry.counter_value("requests_total") == 0  # unlabeled series
        assert registry.counter_values("requests_total") == {
            'requests_total{route="x"}': 5,
            'requests_total{route="y"}': 0,
        }

    def test_label_order_does_not_split_series(self):
        registry = MetricsRegistry()
        a = registry.counter("m", x=1, y=2)
        b = registry.counter("m", y=2, x=1)
        assert a is b

    def test_gauge_holds_latest_value(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3)
        gauge.set(1.5)
        assert registry.snapshot()["gauges"]["depth"] == 1.5

    def test_histogram_accumulates_distribution(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        for value in (2.0, 0.5, 1.0):
            histogram.observe(value)
        entry = registry.snapshot()["histograms"]["latency"]
        assert entry["count"] == 3
        assert entry["sum"] == pytest.approx(3.5)
        assert entry["min"] == 0.5
        assert entry["max"] == 2.0
        assert entry["avg"] == pytest.approx(3.5 / 3)

    def test_histogram_timer_observes_monotonic_seconds(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("sleep")
        with histogram.time():
            time.sleep(0.01)
        assert histogram.count == 1
        assert 0.005 < histogram.total < 5.0

    def test_format_metric(self):
        assert format_metric(("plain", ())) == "plain"
        assert (
            format_metric(("m", (("a", "1"), ("b", "x"))))
            == 'm{a="1",b="x"}'
        )


class TestExporters:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("events_total", "things that happened").inc(7)
        registry.counter("per_shard_total", "routed", shard=0).inc(2)
        registry.counter("per_shard_total", shard=1).inc(3)
        registry.gauge("trees", "live trees").set(4)
        registry.histogram("seconds", "wall time").observe(0.25)
        return registry

    def test_snapshot_is_json_ready(self):
        snapshot = self.build().snapshot()
        parsed = json.loads(json.dumps(snapshot))
        assert parsed["counters"]["events_total"] == 7
        assert parsed["counters"]['per_shard_total{shard="0"}'] == 2
        assert parsed["gauges"]["trees"] == 4
        assert parsed["histograms"]["seconds"]["count"] == 1
        assert parsed["spans"] == []

    def test_prometheus_text_format(self):
        text = self.build().to_prometheus()
        assert "# HELP events_total things that happened\n" in text
        assert "# TYPE events_total counter\n" in text
        assert "\nevents_total 7\n" in text
        assert '\nper_shard_total{shard="0"} 2\n' in text
        assert '\nper_shard_total{shard="1"} 3\n' in text
        assert "# TYPE trees gauge\n" in text
        assert "\ntrees 4" in text
        assert "# TYPE seconds summary\n" in text
        assert "\nseconds_count 1\n" in text
        assert "seconds_sum 0.25" in text
        # One TYPE header per metric name, even with many series.
        assert text.count("# TYPE per_shard_total counter") == 1
        assert text.endswith("\n")

    def test_empty_registry_exports_cleanly(self):
        registry = MetricsRegistry()
        assert registry.to_prometheus() == ""
        assert registry.snapshot()["counters"] == {}


class TestNullRegistry:
    def test_shared_no_op_instruments(self):
        registry = NullRegistry()
        counter = registry.counter("anything", route="x")
        assert counter is _NULL_COUNTER
        counter.inc(100)
        assert counter.value == 0
        gauge = registry.gauge("g")
        assert gauge is _NULL_GAUGE
        gauge.set(9)
        assert gauge.value == 0.0
        histogram = registry.histogram("h")
        assert histogram is _NULL_HISTOGRAM
        histogram.observe(1.0)
        with histogram.time():
            pass
        assert histogram.count == 0
        assert not registry.enabled

    def test_null_registry_records_no_series(self):
        registry = NullRegistry()
        registry.counter("a").inc()
        with registry.span("s"):
            pass
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["spans"] == []

    def test_resolve_registry(self):
        assert resolve_registry(None) is NULL_REGISTRY
        assert resolve_registry(False) is NULL_REGISTRY
        live = resolve_registry(True)
        assert isinstance(live, MetricsRegistry) and live.enabled
        own = MetricsRegistry()
        assert resolve_registry(own) is own


class TestTracer:
    def test_spans_record_nesting_depth_and_duration(self):
        registry = MetricsRegistry()
        with registry.span("outer"):
            with registry.span("inner"):
                time.sleep(0.002)
        spans = registry.snapshot()["spans"]
        names = {span["name"]: span for span in spans}
        assert set(names) == {"outer", "inner"}
        assert names["inner"]["depth"] == 1
        assert names["outer"]["depth"] == 0
        # Children finish first but parents cover them.
        assert names["outer"]["duration_ms"] >= names["inner"]["duration_ms"]

    def test_span_ring_is_bounded(self):
        registry = MetricsRegistry(max_spans=4)
        for index in range(10):
            with registry.span(f"s{index}"):
                pass
        spans = registry.tracer.snapshot()
        assert len(spans) == 4
        assert [span["name"] for span in spans] == ["s6", "s7", "s8", "s9"]

    def test_snapshot_limit_returns_most_recent(self):
        registry = MetricsRegistry()
        for index in range(6):
            with registry.span(f"s{index}"):
                pass
        last_two = registry.tracer.snapshot(limit=2)
        assert [span["name"] for span in last_two] == ["s4", "s5"]

    def test_span_survives_exceptions(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            with registry.span("failing"):
                raise ValueError("boom")
        spans = registry.tracer.snapshot()
        assert [span["name"] for span in spans] == ["failing"]
        # Depth unwound: a following span is top-level again.
        with registry.span("after"):
            pass
        assert registry.tracer.snapshot()[-1]["depth"] == 0


class TestServiceExposure:
    def test_store_and_service_share_one_registry(self, tmp_path):
        from repro.core import GramConfig
        from repro.service import DocumentStore
        from repro.tree import tree_from_brackets

        registry = MetricsRegistry()
        store = DocumentStore(
            str(tmp_path / "s"), GramConfig(2, 2), metrics=registry
        )
        store.add_document(1, tree_from_brackets("a(b,c)"))
        store.lookup(tree_from_brackets("a(b)"), tau=1.0)
        assert store.metrics_registry is registry
        snapshot = store.metrics()
        assert snapshot["counters"]["lookup_distance_scans_total"] == 1
        assert snapshot["gauges"]["store_documents"] == 1
        assert snapshot["gauges"]["forest_trees"] == 1
        text = store.metrics_prometheus()
        assert "lookup_distance_scans_total 1" in text

    def test_default_store_records_nothing(self, tmp_path):
        from repro.core import GramConfig
        from repro.service import DocumentStore
        from repro.tree import tree_from_brackets

        store = DocumentStore(str(tmp_path / "s"), GramConfig(2, 2))
        store.add_document(1, tree_from_brackets("a(b)"))
        store.lookup(tree_from_brackets("a"), tau=1.0)
        assert store.metrics_registry is NULL_REGISTRY
        assert store.metrics()["counters"] == {}


# ----------------------------------------------------------------------
# the catalogue in docs/OBSERVABILITY.md
# ----------------------------------------------------------------------

_REPO = Path(__file__).resolve().parent.parent


def _registered_metric_names():
    """Every name literal passed to ``.counter(`` / ``.gauge(`` /
    ``.histogram(`` under ``src/``."""
    call = re.compile(r'\.(?:counter|gauge|histogram)\(\s*"([A-Za-z0-9_]+)"')
    names = set()
    for path in (_REPO / "src").rglob("*.py"):
        names.update(call.findall(path.read_text(encoding="utf-8")))
    return names


def _catalogued_metric_names():
    """Every back-ticked name in the first column of the tables under
    the doc's "Metric catalogue" heading, labels stripped."""
    text = (_REPO / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    section = text.split("## Metric catalogue", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) < 3 or set(cells[1].strip()) <= {"-"}:
            continue
        for token in re.findall(r"`([^`]+)`", cells[1]):
            names.add(token.split("{", 1)[0])
    return names


def test_metric_catalogue_matches_the_code():
    registered = _registered_metric_names()
    catalogued = _catalogued_metric_names()
    assert len(registered) > 50
    assert registered - catalogued == set(), "registered but not catalogued"
    assert catalogued - registered == set(), "catalogued but not registered"
