"""Small-scale shape assertions for the paper's experimental claims.

These are fast, assertion-backed versions of the benchmark trends
(the full sweeps live in ``benchmarks/``): who wins and in which
direction quantities grow, at sizes small enough for the unit suite.
Work is counted, not timed, so a loaded machine cannot decide a
comparison: labels hashed (every label read goes through a
:class:`LabelHasher`, whose ``memo_hits + memo_misses`` count them),
pq-grams produced, bag keys probed, and inverted-list postings the
candidate sweep touched.  The timed sweeps live in ``benchmarks/``.
"""

import pytest

import repro.lookup.service
from repro.core import (
    GramConfig,
    PQGramIndex,
    net_delta,
)
from repro.datasets import dblp_tree, xmark_tree
from repro.edits import apply_script
from repro.hashing import LabelHasher
from repro.lookup import ForestIndex, LookupService
from repro.obsv import MetricsRegistry
from repro.xmlio import write_xml

from benchmarks.dblp_workloads import dblp_update_script
from tests.support.reference.baselines import rebuild_index

CONFIG = GramConfig(3, 3)


def _labels_hashed(*hashers):
    return sum(hasher.memo_hits + hasher.memo_misses for hasher in hashers)


@pytest.fixture
def on_the_fly(monkeypatch):
    """A collection, its forest behind a service with the query-index
    LRU off, and the work of one lookup *without* the index: labels
    hashed by the hashers it creates, pq-grams it produces, and the bag
    keys its pairwise comparisons probe (the smaller bag's distinct
    keys, :meth:`PQGramIndex.bag_intersection_size`)."""
    collection = [(i, dblp_tree(40, seed=i)) for i in range(12)]
    registry = MetricsRegistry()
    forest = ForestIndex(CONFIG, metrics=registry)
    forest.add_trees(collection)
    monkeypatch.setattr(LookupService, "QUERY_CACHE_SIZE", 0)
    service = LookupService(forest)
    query = collection[3][1]
    hashers = []

    class CountedHasher(LabelHasher):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            hashers.append(self)

    patch = pytest.MonkeyPatch()
    patch.setattr(repro.lookup.service, "LabelHasher", CountedHasher)
    try:
        without = service.lookup_without_index(query, collection, tau=1.1)
    finally:
        patch.undo()
    indexes = [
        PQGramIndex.from_tree(tree, CONFIG, LabelHasher())
        for _, tree in collection
    ]
    query_index = PQGramIndex.from_tree(query, CONFIG, LabelHasher())
    work = {
        "labels": _labels_hashed(*hashers),
        "grams": query_index.size() + sum(index.size() for index in indexes),
        "probes": sum(
            min(query_index.distinct_size(), index.distinct_size())
            for index in indexes
        ),
    }
    return service, registry, query, without, work


class TestFig13LeftShape:
    def test_index_construction_dominates_lookup_without_index(
        self, on_the_fly
    ):
        """Fig. 13 (left): without a precomputed index, building the
        collection indexes is the dominant cost of a lookup — every
        label of the collection is hashed and every pq-gram produced,
        which outweighs the comparisons that follow."""
        _, _, query, without, work = on_the_fly
        collection_nodes = sum(
            len(dblp_tree(40, seed=i)) for i in range(12)
        )
        assert work["labels"] == collection_nodes + len(query)
        construction = work["labels"] + work["grams"]
        assert construction > work["probes"]
        assert without.trees_compared == 12

    def test_precomputed_lookup_faster(self, on_the_fly):
        """Fig. 13 (left): with the index precomputed, a lookup hashes
        only the query's labels and touches only the postings of the
        query's pq-grams — far less than building and comparing every
        index on the fly — and returns the same matches."""
        service, registry, query, without, work = on_the_fly
        service.lookup(query, tau=1.1)  # first freeze, off the count
        hasher = service.forest.hasher
        labels_before = _labels_hashed(hasher)
        touched_before = registry.counter_value(
            "index_postings_touched_total"
        )
        with_index = service.lookup(query, tau=1.1)
        labels = _labels_hashed(hasher) - labels_before
        touched = (
            registry.counter_value("index_postings_touched_total")
            - touched_before
        )
        assert labels == len(query)
        query_grams = PQGramIndex.from_tree(query, CONFIG, LabelHasher()).size()
        indexed = labels + query_grams + touched
        assert indexed < work["labels"] + work["grams"] + work["probes"]
        assert labels < work["labels"]
        assert with_index.tree_ids() == without.tree_ids()


def _update_and_rebuild_work(tree, script, hasher):
    """(labels hashed, pq-grams produced) by the incremental update and by a
    from-scratch rebuild of the edited tree."""
    index = PQGramIndex.from_tree(tree, CONFIG, hasher)
    edited, log = apply_script(tree, script)
    before = _labels_hashed(hasher)
    minus, plus, counts = net_delta(edited, log, CONFIG, hasher)
    index.apply_delta(minus, plus)
    update = (
        _labels_hashed(hasher) - before,
        counts.gram_count_plus + counts.gram_count_minus,
    )
    before = _labels_hashed(hasher)
    rebuilt = rebuild_index(edited, CONFIG, hasher)
    rebuild = (_labels_hashed(hasher) - before, rebuilt.size())
    assert index == rebuilt
    return update, rebuild


class TestFig13RightShape:
    def test_update_beats_rebuild_on_large_trees(self):
        """Fig. 13 (right): for a fixed small log, incremental update
        beats from-scratch construction once trees are large — it reads
        fewer labels and produces fewer pq-grams."""
        tree = dblp_tree(800, seed=1)  # ~9k nodes
        script = dblp_update_script(tree, 10, seed=2, stable=True)
        update, rebuild = _update_and_rebuild_work(tree, script, LabelHasher())
        assert rebuild[0] == len(apply_script(tree, script)[0])
        assert update[0] < rebuild[0]
        assert update[1] < rebuild[1]

    def test_update_time_nearly_size_independent(self):
        """Quadrupling the tree must not grow the update's work for a
        fixed log of record-local corrections, while the rebuild's
        grows with the tree.  Work is counted, not timed: the labels
        each arm reads (every read goes through the shared hasher) and
        the pq-grams it produces; the timed sweep is
        ``benchmarks/bench_fig13_update_vs_size.py``."""
        from benchmarks.dblp_workloads import record_edit_script

        hasher = LabelHasher()
        config = GramConfig(3, 3)

        def labels_read():
            return hasher.memo_hits + hasher.memo_misses

        update_work = []
        rebuild_work = []
        for records in (400, 1600):
            tree = dblp_tree(records, seed=3)
            index = PQGramIndex.from_tree(tree, config, hasher)
            script = record_edit_script(
                tree, 10, seed=4, insert_share=0.0, delete_share=0.0
            )
            edited, log = apply_script(tree, script)
            before = labels_read()
            minus, plus, counts = net_delta(edited, log, config, hasher)
            index.apply_delta(minus, plus)
            update_work.append(
                (
                    labels_read() - before,
                    counts.gram_count_plus + counts.gram_count_minus,
                )
            )
            before = labels_read()
            rebuilt = rebuild_index(edited, config, hasher)
            rebuild_work.append((labels_read() - before, rebuilt.size()))
            assert index == rebuilt
            assert rebuild_work[-1][0] == len(edited)  # every node, once
        # the update reads O(|log| · (p + q)) labels whatever the size
        assert update_work[1] == update_work[0]
        for small, large in zip(*rebuild_work):
            assert large > 3.5 * small  # rebuild tracks tree size


class TestFig14LeftShape:
    def test_index_smaller_than_document(self):
        """Fig. 14 (left): the index is significantly smaller than the
        serialized tree, for both 1,2- and 3,3-grams."""
        tree = xmark_tree(4000, seed=5)
        document_bytes = len(write_xml(tree).encode("utf-8"))
        for config in (GramConfig(1, 2), GramConfig(3, 3)):
            index = PQGramIndex.from_tree(tree, config, LabelHasher())
            assert index.serialized_size_bytes() < document_bytes

    def test_smaller_grams_smaller_index(self):
        tree = xmark_tree(4000, seed=6)
        small = PQGramIndex.from_tree(tree, GramConfig(1, 2), LabelHasher())
        large = PQGramIndex.from_tree(tree, GramConfig(3, 3), LabelHasher())
        assert small.distinct_size() < large.distinct_size()

    def test_index_growth_sublinear_in_nodes(self):
        """Duplicate pq-grams make the distinct count grow sublinearly."""
        sizes = {}
        for budget in (1000, 4000):
            tree = dblp_tree(budget // 11, seed=7)
            index = PQGramIndex.from_tree(tree, GramConfig(3, 3), LabelHasher())
            sizes[budget] = (len(tree), index.distinct_size())
        nodes_ratio = sizes[4000][0] / sizes[1000][0]
        index_ratio = sizes[4000][1] / sizes[1000][1]
        assert index_ratio < nodes_ratio


class TestFig14RightShape:
    def test_update_time_grows_with_log_size(self):
        """Fig. 14 (right): update work is increasing (≈linear) in the
        number of edit operations — labels read and pq-grams produced
        both grow with the log, on the same tree."""
        tree = dblp_tree(400, seed=8)
        work = [
            _update_and_rebuild_work(
                tree,
                dblp_update_script(tree, ops, seed=9, stable=True),
                LabelHasher(),
            )[0]
            for ops in (5, 80)
        ]
        assert work[1][0] > work[0][0]
        assert work[1][1] > work[0][1]
