"""Metric invariants: counters must agree with the work they describe.

Three families, per ISSUE acceptance:

- the pruning ledger — every candidate a distance scan considers is
  either pruned by the tau size bound or scored, never both, never
  dropped: ``pruned + scored == total`` frozen or not, at every tau;
- roll-up — the delta-key totals of a maintenance call over a frozen
  forest match those over a forest never compacted;
- durability pairing — every ``apply_edits`` batch appends exactly one
  WAL record: ``wal_appends_total == store_edit_batches_total``.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GramConfig, PQGramIndex
from repro.edits.generator import EditScriptGenerator
from repro.edits.script import apply_script
from repro.lookup import ForestIndex, LookupService
from repro.obsv import MetricsRegistry
from repro.perf import HAVE_NUMPY
from repro.query import ApproxLookup, execute_plan
from repro.service import DocumentStore
from repro.tree import tree_from_brackets

from tests.conftest import build_random_tree

CONFIG = GramConfig(2, 3)

PROPERTY_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_forest(seed, tree_count=12):
    registry = MetricsRegistry()
    forest = ForestIndex(CONFIG, metrics=registry)
    forest.add_trees(
        (tree_id, build_random_tree(4 + (seed + tree_id) % 14,
                                    seed=seed * 100 + tree_id))
        for tree_id in range(tree_count)
    )
    return forest, registry


def run_lookups(forest, seed, frozen, taus=(0.05, 0.3, 0.8, 1.5)):
    if frozen:
        forest.compact()
    queries = [build_random_tree(5 + offset, seed=seed * 7 + offset)
               for offset in range(3)]
    for query in queries:
        query_index = PQGramIndex.from_tree(query, CONFIG, forest.hasher)
        for tau in taus:
            forest.distances(query_index, tau=tau)
        forest.distances(query_index)  # full scan: total == scored


class TestPruningLedger:
    @PROPERTY_SETTINGS
    @given(st.integers(min_value=0, max_value=10_000))
    def test_pruned_plus_scored_equals_total_every_backend(self, seed):
        for frozen in (False, True):
            forest, registry = build_forest(seed)
            run_lookups(forest, seed, frozen)
            total = registry.counter_value("lookup_candidates_total")
            pruned = registry.counter_value("lookup_candidates_pruned_total")
            scored = registry.counter_value("lookup_candidates_scored_total")
            assert total == pruned + scored, frozen
            assert registry.counter_value("lookup_distance_scans_total") > 0

    def test_tiny_tau_prunes_and_large_tau_scores(self):
        forest, registry = build_forest(seed=5, tree_count=8)
        big = tree_from_brackets("a(" + ",".join("b" * 1 for _ in range(30)) + ")")
        forest.add_tree(99, big)
        query = tree_from_brackets("a(b,c)")
        query_index = PQGramIndex.from_tree(query, CONFIG, forest.hasher)
        forest.distances(query_index, tau=0.01)
        assert registry.counter_value("lookup_candidates_pruned_total") > 0
        total = registry.counter_value("lookup_candidates_total")
        assert total == (
            registry.counter_value("lookup_candidates_pruned_total")
            + registry.counter_value("lookup_candidates_scored_total")
        )


@pytest.mark.skipif(not HAVE_NUMPY, reason="only array-space scans report tallies")
class TestSnapshotReadsAreCounted:
    """Serving-mode lookups scan a snapshot view, which carries no
    instruments: the executor counts the scan's tallies, so the sweep
    volume reads the same whichever reader answered."""

    SWEEP = ("index_keys_swept_total", "index_postings_touched_total")

    def sweep_volume(self, seed, serving, edits=0, frozen=True):
        forest, registry = build_forest(seed)
        if frozen:
            forest.compact()
        rng = random.Random(seed)
        for _ in range(edits):  # leave an overlay behind
            tree_id = rng.randrange(12)
            base = build_random_tree(6, seed=rng.randrange(1000))
            forest.remove_tree(tree_id)
            forest.add_tree(tree_id, base)
        # Live reads go through the executor, which never compacts: the
        # overlay must survive the lookups.  Served, every (query, τ)
        # is asked once, so the result cache never answers.
        if serving:
            lookup = LookupService(forest, snapshot_reads=True).lookup
        else:
            def lookup(query, tau):
                return execute_plan(forest, ApproxLookup(query, tau))
        for offset in range(3):
            query = build_random_tree(5 + offset, seed=seed * 7 + offset)
            for tau in (0.05, 0.3, 0.8, 1.0):
                lookup(query, tau)
        if frozen:
            view = forest.read_view()
            assert (edits > 0) == bool(view._masked.trees and view._overlay)
        forest.close()
        return [registry.counter_value(name) for name in self.SWEEP]

    @PROPERTY_SETTINGS
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=3),
    )
    def test_snapshot_lookups_count_what_live_lookups_count(self, seed, edits):
        reference = self.sweep_volume(seed, False, edits, frozen=False)
        assert reference[0] > 0
        live = self.sweep_volume(seed, False, edits)
        served = self.sweep_volume(seed, True, edits)
        assert served == live == reference


class TestShardRollUp:
    """(The class keeps the name of the retired sharded backend's
    roll-up checks; what is left compares a forest never compacted with
    a frozen one.)"""

    @PROPERTY_SETTINGS
    @given(st.integers(min_value=0, max_value=10_000))
    def test_delta_keys_match_across_backends(self, seed):
        results = {}
        for frozen in (False, True):
            forest, registry = build_forest(seed)
            if frozen:  # maintain over the frozen CSR
                forest.compact()
            base = build_random_tree(12, seed=seed + 1)
            forest.add_tree(50, base)
            generator = EditScriptGenerator(
                rng=random.Random(seed), labels=["a", "b", "x"]
            )
            script = generator.generate(base, 6)
            edited, log = apply_script(base, script)
            forest.update_tree(50, edited, log)
            results[frozen] = (
                registry.counter_value("maintain_delta_keys_total"),
                registry.counter_value("index_delta_keys_total"),
            )
        # Within one run the relation re-inverts exactly the keys the
        # maintenance delta named, and the totals agree frozen or not.
        for frozen, (maintain_keys, index_keys) in results.items():
            assert maintain_keys == index_keys, frozen
        assert results[False] == results[True]


class TestDurabilityPairing:
    def test_wal_appends_match_batches_applied(self, tmp_path):
        registry = MetricsRegistry()
        store = DocumentStore(
            str(tmp_path / "store"),
            CONFIG,
            metrics=registry,
        )
        store.add_document(1, tree_from_brackets("a(b(c),d)"))
        from repro.edits import Rename

        batches = 5
        for round_number in range(batches):
            store.apply_edits(1, [Rename(2, f"l{round_number}")])
        assert registry.counter_value("wal_appends_total") == batches
        assert registry.counter_value("store_edit_batches_total") == batches
        assert registry.counter_value("store_edit_ops_total") == batches
        assert registry.counter_value("wal_fsyncs_total") >= batches

    def test_replayed_batches_counted_on_reopen(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DocumentStore(directory, CONFIG)
        store.add_document(1, tree_from_brackets("a(b,c)"))
        from repro.edits import Rename

        store.apply_edits(1, [Rename(1, "x")])
        store.apply_edits(1, [Rename(2, "y")])
        registry = MetricsRegistry()
        reopened = DocumentStore(
            directory, CONFIG, metrics=registry
        )
        assert registry.counter_value("wal_replayed_batches_total") == 2
        assert reopened.get_document(1).label(1) == "x"
        snapshot = reopened.metrics()
        assert snapshot["histograms"]["recovery_seconds"]["count"] == 1
