"""Small-scale shape assertions for the paper's experimental claims.

These are fast, assertion-backed versions of the benchmark trends
(the full sweeps live in ``benchmarks/``): who wins and in which
direction quantities grow, at sizes small enough for the unit suite.
"""

import time


from repro.baselines import rebuild_index
from repro.core import (
    GramConfig,
    PQGramIndex,
    update_index_replay,
    update_index_replay_timed,
)
from repro.datasets import dblp_tree, dblp_update_script, xmark_tree
from repro.edits import apply_script
from repro.hashing import LabelHasher
from repro.lookup import ForestIndex, LookupService
from repro.xmlio import write_xml


def _timed(callable_):
    started = time.perf_counter()
    result = callable_()
    return result, time.perf_counter() - started


class TestFig13LeftShape:
    def test_index_construction_dominates_lookup_without_index(self):
        """Fig. 13 (left): without a precomputed index, building the
        collection indexes is the dominant cost of a lookup."""
        collection = [(i, dblp_tree(40, seed=i)) for i in range(12)]
        forest = ForestIndex(GramConfig(3, 3))
        for tree_id, tree in collection:
            forest.add_tree(tree_id, tree)
        service = LookupService(forest)
        query = collection[0][1]
        without = service.lookup_without_index(query, collection, tau=1.1)
        assert without.seconds_index_construction > 0.5 * without.seconds_total

    def test_precomputed_lookup_faster(self):
        """Fig. 13 (left) is a steady-state claim: one untimed lookup
        absorbs the first freeze and the lazy imports, then both arms
        are best-of-5 so a GC pause cannot decide the comparison.  The
        query-index LRU is off — every timed lookup indexes its query."""
        collection = [(i, dblp_tree(40, seed=i)) for i in range(12)]
        forest = ForestIndex(GramConfig(3, 3))
        for tree_id, tree in collection:
            forest.add_tree(tree_id, tree)
        service = LookupService(forest, query_cache_size=0)
        query = collection[3][1]
        service.lookup(query, tau=1.1)
        with_index = min(
            (service.lookup(query, tau=1.1) for _ in range(5)),
            key=lambda result: result.seconds_total,
        )
        without = min(
            (
                service.lookup_without_index(query, collection, tau=1.1)
                for _ in range(5)
            ),
            key=lambda result: result.seconds_total,
        )
        assert with_index.seconds_total < without.seconds_total
        assert with_index.tree_ids() == without.tree_ids()


class TestFig13RightShape:
    def test_update_beats_rebuild_on_large_trees(self):
        """Fig. 13 (right): for a fixed small log, incremental update
        beats from-scratch construction once trees are large."""
        hasher = LabelHasher()
        config = GramConfig(3, 3)
        tree = dblp_tree(800, seed=1)  # ~9k nodes
        old_index = PQGramIndex.from_tree(tree, config, hasher)
        script = dblp_update_script(tree, 10, seed=2, stable=True)
        edited, log = apply_script(tree, script)

        _, rebuild_seconds = _timed(lambda: rebuild_index(edited, config, hasher))
        _, update_seconds = _timed(
            lambda: update_index_replay(old_index, edited, log, hasher)
        )
        assert update_seconds < rebuild_seconds

    def test_update_time_nearly_size_independent(self):
        """Quadrupling the tree must not grow the update's work for a
        fixed log of record-local corrections, while the rebuild's
        grows with the tree.  Work is counted, not timed: the labels
        each arm reads (every read goes through the shared hasher) and
        the pq-grams it produces; the timed sweep is
        ``benchmarks/bench_fig13_update_vs_size.py``."""
        from repro.datasets import record_edit_script

        hasher = LabelHasher()
        config = GramConfig(3, 3)

        def labels_read():
            return hasher.memo_hits + hasher.memo_misses

        update_work = []
        rebuild_work = []
        for records in (400, 1600):
            tree = dblp_tree(records, seed=3)
            old_index = PQGramIndex.from_tree(tree, config, hasher)
            script = record_edit_script(
                tree, 10, seed=4, insert_share=0.0, delete_share=0.0
            )
            edited, log = apply_script(tree, script)
            before = labels_read()
            updated, counts = update_index_replay_timed(
                old_index, edited, log, hasher
            )
            update_work.append(
                (
                    labels_read() - before,
                    counts.gram_count_plus + counts.gram_count_minus,
                )
            )
            before = labels_read()
            rebuilt = rebuild_index(edited, config, hasher)
            rebuild_work.append((labels_read() - before, rebuilt.size()))
            assert updated == rebuilt
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
        """Fig. 14 (right): update time is increasing (≈linear) in the
        number of edit operations."""
        hasher = LabelHasher()
        config = GramConfig(3, 3)
        tree = dblp_tree(400, seed=8)
        old_index = PQGramIndex.from_tree(tree, config, hasher)
        seconds = []
        for ops in (5, 80):
            script = dblp_update_script(tree, ops, seed=9, stable=True)
            edited, log = apply_script(tree, script)
            best = min(
                _timed(lambda: update_index_replay(old_index, edited, log, hasher))[1]
                for _ in range(3)
            )
            seconds.append(best)
        assert seconds[1] > seconds[0]
