"""Incremental standing-query maintenance vs naive re-evaluation.

A standing query is a registered plan whose τ-neighborhood must stay
current as write batches stream in.  Two ways to keep it current:

- **incremental** — the store routes each committed batch's net delta
  bags through the subscription index; a query that shares no Δ-key
  with the batch is skipped when the document's size stayed, and every
  other query re-scores only the one touched document, recomputing its
  overlap from the document's current bag (after the size-bound
  admission check);
- **naive** — re-run every registered plan against the whole forest
  after every batch and diff the memberships (what a poller without
  the subscription index would do).

Both produce identical memberships — ``run_stream`` asserts it after
every batch.  The interesting number is the per-batch maintenance
cost: naive pays ``queries x collection`` scoring work per batch while
incremental pays ``touched-queries x |I_Q|`` bag lookups, so the
gap widens with both the collection size and the query count.  The
regression gate (``measure_streaming`` in ``regression.py``) pins the
10k-document / 32-query point: incremental must beat naive by at
least 5x (``standing_incremental_ratio`` <= 0.2).

The standalone series sweeps the standing-query count at a fixed
2k-document collection and also reports sustained-ingest notification
latency (per-batch incremental maintenance wall time: mean / p95 /
max), the figure an alerting pipeline actually cares about.
"""

from __future__ import annotations

import random
import sys
import time
from typing import Dict, List, Tuple

import pytest

from repro.core import GramConfig
from repro.datasets import dblp_tree
from repro.edits.generator import EditScriptGenerator
from repro.edits.script import EditScript
from repro.lookup import ForestIndex
from repro.query import ApproxLookup
from repro.query.executor import execute_plan
from repro.stream import StandingQueryEngine

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from conftest import emit, format_table

TREE_COUNT = 2_000
QUERY_COUNTS = (4, 16, 32, 64)
BATCHES = 8
OPS_PER_BATCH = 4
CONFIG = GramConfig(3, 3)
#: τ rotation across the registered queries: tight neighborhoods,
#: loose ones, and an admit-everything outlier that defeats the
#: size-bound veto — the mix keeps the incremental arm honest.
TAUS = (0.5, 0.7, 0.9, 1.1)
_EDIT_LABELS = ("author", "title", "year", "pages", "booktitle", "ee")


def build_world(
    tree_count: int, seed: int = 0
) -> Tuple[ForestIndex, Dict[int, "object"]]:
    """A compacted ``tree_count``-document DBLP-like forest plus the
    live document map the standing engine resolves predicates (and the
    edit generator draws nodes) from."""
    forest = ForestIndex(CONFIG)
    documents: Dict[int, object] = {}
    collection = []
    for tree_id in range(tree_count):
        tree = dblp_tree(1, seed=seed * 1_000_003 + tree_id)
        documents[tree_id] = tree
        collection.append((tree_id, tree))
    forest.add_trees(collection)
    forest.compact()
    return forest, documents


def make_plans(query_count: int, seed: int = 0) -> List[ApproxLookup]:
    """``query_count`` lookup plans over unedited twins of the first
    documents, τ rotating through :data:`TAUS`."""
    return [
        ApproxLookup(
            dblp_tree(1, seed=seed * 1_000_003 + number),
            TAUS[number % len(TAUS)],
        )
        for number in range(query_count)
    ]


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample list."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[rank]


def run_stream(
    tree_count: int,
    query_count: int,
    batches: int = BATCHES,
    ops_per_batch: int = OPS_PER_BATCH,
    seed: int = 20060912,
) -> Dict[str, float]:
    """Drive ``batches`` edit batches through both arms and report.

    Each batch edits one random document, maintains the forest index
    incrementally, then times (a) the standing engine's Δ-routed
    update and (b) a naive full re-evaluation of every registered plan
    with a membership diff.  After every batch the two memberships are
    asserted identical, so the timing comparison is between two
    correct implementations of the same contract.
    """
    rng = random.Random(seed)
    forest, documents = build_world(tree_count, seed=seed % 997)
    engine = StandingQueryEngine(
        forest, documents=lambda document_id: documents[document_id]
    )
    plans = make_plans(query_count, seed=seed % 997)
    naive_members: List[List[Tuple[int, float]]] = []
    for number, plan in enumerate(plans):
        initial = engine.subscribe(f"stream-q{number}", plan)
        naive_members.append(initial)

    generator = EditScriptGenerator(rng=rng, labels=list(_EDIT_LABELS))
    incremental_seconds: List[float] = []
    naive_seconds: List[float] = []
    notifications = 0
    for seq in range(1, batches + 1):
        document_id = rng.randrange(tree_count)
        document = documents[document_id]
        script = generator.generate(document, ops_per_batch)
        log = EditScript(list(script)).apply(document)
        minus, plus = forest.update_tree(document_id, document, log)

        started = time.perf_counter()
        events = engine.on_delta(document_id, minus, plus, seq, log)
        incremental_seconds.append(time.perf_counter() - started)
        notifications += len(events)

        started = time.perf_counter()
        refreshed = [execute_plan(forest, plan).matches for plan in plans]
        naive_events = sum(
            len(dict(before).keys() ^ dict(after).keys())
            for before, after in zip(naive_members, refreshed)
        )
        naive_seconds.append(time.perf_counter() - started)
        naive_members = refreshed
        assert naive_events >= 0  # the diff is part of the naive cost

        for number in range(query_count):
            incremental = engine.matches(f"stream-q{number}")
            assert incremental == naive_members[number], (
                f"standing query stream-q{number} diverged from full "
                f"re-evaluation after batch {seq}"
            )

    incremental_total = sum(incremental_seconds)
    naive_total = sum(naive_seconds)
    return {
        "stream_documents": float(tree_count),
        "stream_queries": float(query_count),
        "stream_batches": float(batches),
        "stream_notifications": float(notifications),
        "stream_incremental_ms_per_batch": incremental_total / batches * 1e3,
        "stream_naive_ms_per_batch": naive_total / batches * 1e3,
        "standing_incremental_ratio": incremental_total / naive_total,
        "stream_latency_mean_ms": incremental_total
        / len(incremental_seconds)
        * 1e3,
        "stream_latency_p95_ms": percentile(incremental_seconds, 0.95) * 1e3,
        "stream_latency_max_ms": max(incremental_seconds) * 1e3,
    }


@pytest.fixture(scope="module")
def world_2k():
    return build_world(256, seed=1)


def test_incremental_batch(benchmark, world_2k):
    forest, documents = world_2k
    engine = StandingQueryEngine(
        forest, documents=lambda document_id: documents[document_id]
    )
    for number, plan in enumerate(make_plans(32, seed=1)):
        engine.subscribe(f"bench-q{number}", plan)
    rng = random.Random(7)
    generator = EditScriptGenerator(rng=rng, labels=list(_EDIT_LABELS))
    document = documents[0]
    script = generator.generate(document, OPS_PER_BATCH)
    log = EditScript(list(script)).apply(document)
    minus, plus = forest.update_tree(0, document, log)
    benchmark(lambda: engine.on_delta(0, minus, plus, 1, log))


def test_naive_batch(benchmark, world_2k):
    forest, _ = world_2k
    plans = make_plans(32, seed=1)
    benchmark(
        lambda: [execute_plan(forest, plan).matches for plan in plans]
    )


def run_full_series() -> str:
    rows: List[Tuple] = []
    for query_count in QUERY_COUNTS:
        result = run_stream(TREE_COUNT, query_count)
        rows.append(
            (
                query_count,
                int(result["stream_notifications"]),
                f"{result['stream_incremental_ms_per_batch']:.3f}",
                f"{result['stream_naive_ms_per_batch']:.3f}",
                f"{1.0 / result['standing_incremental_ratio']:.1f}x",
                f"{result['stream_latency_p95_ms']:.3f}",
            )
        )
    return format_table(
        (
            "queries",
            "events",
            "incremental [ms/batch]",
            "naive [ms/batch]",
            "speedup",
            "latency p95 [ms]",
        ),
        rows,
    )


if __name__ == "__main__":
    emit(
        "streaming_queries.txt",
        f"Standing-query maintenance: incremental vs naive re-evaluation "
        f"({TREE_COUNT} DBLP-like documents, {BATCHES} batches of "
        f"{OPS_PER_BATCH} ops)",
        run_full_series(),
    )
