"""τ push-down, query-index cache and Δ-key inverted maintenance.

The headline guarantee of the fast lookup engine: the pruned indexed
path and the build-everything-on-the-fly reference path return
*identical* match sets — same tree ids, same float distances — for
random forests and random thresholds.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GramConfig, PQGramIndex
from repro.datasets import dblp_tree, random_labelled_tree, xmark_tree
from repro.edits import apply_script
from repro.lookup import ForestIndex, LookupService
from repro.obsv import MetricsRegistry
from repro.perf import HAVE_NUMPY
from repro.query import scan_distances
from repro.service import DocumentStore
from repro.tree import Tree

from benchmarks.dblp_workloads import dblp_update_script

TAUS = (0.2, 0.5, 0.8, 1.0)
LEDGER = (
    "lookup_candidates_total",
    "lookup_candidates_pruned_total",
    "lookup_candidates_scored_total",
    "lookup_matches_total",
)


def random_forest(count, seed, config=GramConfig(2, 3)):
    """A forest plus its raw (id, tree) collection for the baseline."""
    rng = random.Random(seed)
    collection = []
    for tree_id in range(count):
        kind = rng.randrange(3)
        size = rng.randint(3, 40)
        if kind == 0:
            tree = random_labelled_tree(size, seed=seed * 100 + tree_id)
        elif kind == 1:
            tree = dblp_tree(max(1, size // 6), seed=seed * 100 + tree_id)
        else:
            tree = xmark_tree(size, seed=seed * 100 + tree_id)
        collection.append((tree_id, tree))
    forest = ForestIndex(config)
    forest.add_trees(collection)
    return forest, collection


class TestPrunedLookupParity:
    def test_property_pruned_equals_reference(self):
        """Pruned indexed lookup == on-the-fly reference, byte for byte."""
        for seed in range(6):
            forest, collection = random_forest(12, seed=seed)
            service = LookupService(forest)
            rng = random.Random(1000 + seed)
            queries = [
                random_labelled_tree(rng.randint(2, 30), seed=2000 + seed),
                collection[rng.randrange(len(collection))][1],
            ]
            for query in queries:
                for tau in TAUS:
                    indexed = service.lookup(query, tau)
                    reference = service.lookup_without_index(
                        query, collection, tau
                    )
                    assert indexed.matches == reference.matches, (
                        f"seed={seed} tau={tau}"
                    )

    def test_pruned_equals_full_filter(self):
        """distances(query, tau) == filter(distances(query))."""
        forest, collection = random_forest(10, seed=42)
        query_index = PQGramIndex.from_tree(
            collection[3][1], forest.config, forest.hasher
        )
        full = forest.distances(query_index)
        for tau in TAUS + (0.0, 1.05, 2.0):
            expected = {
                tree_id: distance
                for tree_id, distance in full.items()
                if distance < tau
            }
            assert forest.distances(query_index, tau=tau) == expected
            if HAVE_NUMPY:
                forest.compact()
                assert forest.distances(query_index, tau=tau) == expected

    def test_no_overlap_trees_pruned(self):
        """Trees sharing no pq-gram never show up for tau <= 1."""
        forest = ForestIndex(GramConfig(2, 2))
        from repro.tree import tree_from_brackets

        forest.add_tree(0, tree_from_brackets("a(b,c)"))
        forest.add_tree(1, tree_from_brackets("x(y,z)"))
        service = LookupService(forest)
        result = service.lookup(tree_from_brackets("a(b,c)"), tau=1.0)
        assert result.tree_ids() == [0]
        assert result.extra["pruned"] == 1.0
        # tau > 1 admits even the no-overlap tree (distance 1.0 < tau).
        loose = service.lookup(tree_from_brackets("a(b,c)"), tau=1.5)
        assert sorted(loose.tree_ids()) == [0, 1]

    def test_empty_query(self):
        """A single-node query still obeys the parity contract."""
        forest, collection = random_forest(6, seed=7)
        service = LookupService(forest)
        from repro.tree import Tree

        query = Tree("only")
        for tau in TAUS:
            indexed = service.lookup(query, tau)
            reference = service.lookup_without_index(query, collection, tau)
            assert indexed.matches == reference.matches

    def test_tau_zero_matches_nothing(self):
        forest, collection = random_forest(5, seed=3)
        service = LookupService(forest)
        assert service.lookup(collection[0][1], tau=0.0).matches == []


SWEEP = ("index_keys_swept_total", "index_postings_touched_total")


def ledger_of(forest, scan, names=LEDGER):
    """``scan()``'s result and what it added to the pruning ledger."""
    registry = forest.metrics
    before = [registry.counter_value(name) for name in names]
    result = scan()
    after = [registry.counter_value(name) for name in names]
    return result, [b - a for a, b in zip(before, after)]


def assert_scan_equals_reference(forest, query_index, kernel_expected):
    """The array-space scan and the executor's scorer over
    ``candidates`` agree on the same forest — matches bit for bit,
    ledger to the count — for the live backend and for a read view.
    The reader's class is patched to offer no ``tau_scan``, which routes
    the same reader state through the scorer; on the live backend that
    path counts its own sweep volume, so the keys swept and postings
    touched are compared there too (a view's ``candidates`` carries no
    instruments)."""
    view = forest.read_view()
    for reader in (None, view):
        offered = (reader or forest.backend).tau_scan(
            query_index.items(), max(1, query_index.size()), 0.5
        )
        assert (offered is not None) == kernel_expected
        names = LEDGER + SWEEP if reader is None else LEDGER
        for tau in TAUS + (0.0, -0.5):
            scanned = ledger_of(
                forest,
                lambda: forest.distances(query_index, tau=tau, reader=reader),
                names,
            )
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(
                    type(reader or forest.backend),
                    "tau_scan",
                    lambda self, *args: None,
                )
                reference = ledger_of(
                    forest,
                    lambda: forest.distances(
                        query_index, tau=tau, reader=reader
                    ),
                    names,
                )
            assert scanned == reference, (tau, reader)
            assert [d.hex() for d in scanned[0].values()] == [
                reference[0][tree_id].hex() for tree_id in scanned[0]
            ]


# The ``packed`` ids once ran the packed heap form, which shared one bag
# between structurally equal trees; they now run a collection that
# repeats structure — every tree a copy of one of four shapes.  The
# ``segment-*`` ids once ran the retired segment backend; they now run
# a *churned* forest: written newest first, then half of it removed and
# written again, so the CSR a freeze builds lays out slots and keys in
# an order that follows neither the tree ids nor the first writes.
PARITY_ROWS = [
    pytest.param(False, False, id="plain"),
    pytest.param(False, True, id="packed"),
    pytest.param(True, False, id="segment-plain"),
    pytest.param(True, True, id="segment-packed"),
]


def _shape(rng, seed, tree_id):
    if tree_id % 2:
        return dblp_tree(rng.randint(1, 6), seed=seed * 50 + tree_id)
    return random_labelled_tree(rng.randint(3, 30), seed=seed * 50 + tree_id)


@pytest.mark.parametrize(("churned", "repeated"), PARITY_ROWS)
class TestArraySpaceScanParity:
    """The τ-lookup kernel (``repro.perf.sweep.tau_scan``) against the
    per-tree reference (``overlay_candidates`` behind ``candidates``),
    in every state a frozen base and its overlay can be in, over
    distinct trees and over many structurally equal ones, written once
    or churned."""

    def forest(self, churned, repeated, seed=21, count=14):
        forest = ForestIndex(GramConfig(2, 3), metrics=MetricsRegistry())
        rng = random.Random(seed)
        if repeated:
            shapes = [_shape(rng, seed, index) for index in range(4)]
            documents = {
                tree_id: shapes[tree_id % 4].copy() for tree_id in range(count)
            }
        else:
            documents = {
                tree_id: _shape(rng, seed, tree_id) for tree_id in range(count)
            }
        if not churned:
            forest.add_trees(documents.items())
            return forest, documents
        forest.add_trees(sorted(documents.items(), reverse=True))
        for tree_id in sorted(documents)[::2]:
            forest.remove_tree(tree_id)
            forest.add_tree(tree_id, documents[tree_id])
        return forest, documents

    def queries(self, forest, documents):
        trees = [
            documents[min(documents)],
            random_labelled_tree(12, seed=5),
            Tree("only"),
        ]
        return [
            PQGramIndex.from_tree(tree, forest.config, forest.hasher)
            for tree in trees
        ] + [PQGramIndex(forest.config)]  # the empty query

    @staticmethod
    def base_of(forest):
        """The frozen base the backend reads."""
        return forest.backend._frozen

    def test_nothing_frozen_runs_the_reference(self, churned, repeated):
        forest, documents = self.forest(churned, repeated)
        assert self.base_of(forest) is None
        for query_index in self.queries(forest, documents):
            scan = forest.backend.tau_scan(
                query_index.items(), max(1, query_index.size()), 0.5
            )
            assert scan is None
            expected = {
                tree_id: distance
                for tree_id, distance in forest.distances(query_index).items()
                if distance < 0.5
            }
            assert forest.distances(query_index, tau=0.5) == expected

    @pytest.mark.skipif(not HAVE_NUMPY, reason="frozen CSR needs numpy")
    def test_frozen_clean(self, churned, repeated):
        forest, documents = self.forest(churned, repeated)
        forest.compact()
        assert not forest.backend._masked.trees
        for query_index in self.queries(forest, documents):
            assert_scan_equals_reference(forest, query_index, True)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="frozen CSR needs numpy")
    def test_frozen_with_overlay(self, churned, repeated):
        """Edit, add, remove and re-add of the same id after the
        freeze: sizes of masked trees, trees born without a slot, a
        masked tree whose bag emptied, and in the end every tree
        masked."""
        forest, documents = self.forest(churned, repeated)
        forest.compact()
        base = self.base_of(forest)
        masked = forest.backend._masked.trees

        def edit(tree_id, seed):
            script = dblp_update_script(documents[tree_id], 4, seed=seed)
            edited, log = apply_script(documents[tree_id], script)
            forest.update_tree(tree_id, edited, log)
            documents[tree_id] = edited

        def add(tree_id, tree):
            forest.add_tree(tree_id, tree)
            documents[tree_id] = tree

        def remove(tree_id):
            forest.remove_tree(tree_id)
            del documents[tree_id]

        def check(*written):
            assert self.base_of(forest) is base, "refroze: nothing overlaid"
            assert masked >= set(written)
            forest.backend.check_consistency()
            for query_index in self.queries(forest, documents) + [
                forest.index_of(2) if 2 in forest else forest.index_of(1),
                forest.index_of(100) if 100 in forest else forest.index_of(1),
            ]:
                assert_scan_equals_reference(forest, query_index, True)

        bags = {
            tree_id: dict(forest.index_of(tree_id).items())
            for tree_id in documents
        }
        edit(1, seed=3)
        check(1)
        # Only the edited tree's postings moved — equal twins included.
        for tree_id, bag in bags.items():
            if tree_id != 1:
                assert dict(forest.index_of(tree_id).items()) == bag
        if repeated:
            assert bags[5] == bags[9] == bags[13] == bags[1]
            assert dict(forest.index_of(1).items()) != bags[1]
        add(100, random_labelled_tree(9, seed=41))  # born without a slot
        check(100)
        remove(2)
        check(2)
        add(2, dblp_tree(3, seed=77))  # the same id again, another shape
        check(2)
        edit(100, seed=4)
        check()
        remove(3)
        add(3, documents[5].copy())
        check(3)
        # A masked tree whose bag emptied: every pq-gram taken out.
        emptied = dict(forest.index_of(7).items())
        forest.backend.apply_tree_delta(7, emptied, {})
        assert forest.size_of(7) == 0
        check(7)
        forest.backend.apply_tree_delta(7, {}, emptied)
        # Every tree masked: the base contributes nothing any more.
        for tree_id in sorted(documents):
            edit(tree_id, seed=tree_id)
        check(*documents)
        assert masked >= set(base.tree_ids)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="frozen CSR needs numpy")
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_random_mutations(self, churned, repeated, seed):
        """Random add/edit/remove interleavings over a frozen forest,
        with the occasional refreeze (or seal) in between."""
        rng = random.Random(seed)
        forest, documents = self.forest(churned, repeated, seed=seed % 97, count=8)
        forest.compact()
        for round_number in range(10):
            action = rng.randrange(5)
            if action == 0 or len(documents) < 3:
                # Ids come from a small space, so removed ones return.
                tree_id = rng.choice(
                    [tree_id for tree_id in range(24) if tree_id not in documents]
                )
                tree = dblp_tree(rng.randint(1, 5), seed=seed + round_number)
                forest.add_tree(tree_id, tree)
                documents[tree_id] = tree
            elif action in (1, 2):
                tree_id = rng.choice(list(documents))
                script = dblp_update_script(
                    documents[tree_id], rng.randint(1, 6), seed=round_number
                )
                edited, log = apply_script(documents[tree_id], script)
                forest.update_tree(tree_id, edited, log)
                documents[tree_id] = edited
            elif action == 3:
                tree_id = rng.choice(list(documents))
                forest.remove_tree(tree_id)
                del documents[tree_id]
            else:
                forest.backend.compact()  # a no-op below the threshold
            query_tree = documents[rng.choice(list(documents))]
            query_index = PQGramIndex.from_tree(
                query_tree, forest.config, forest.hasher
            )
            assert_scan_equals_reference(forest, query_index, True)
        forest.backend.check_consistency()
        forest.close()

    @pytest.mark.skipif(not HAVE_NUMPY, reason="frozen CSR needs numpy")
    def test_check_consistency_catches_planted_drift(self, churned, repeated):
        """The audit is what proves no write escaped the mask: each
        piece of the mask/overlay bookkeeping, bent by hand, fails it."""
        from repro.errors import IndexConsistencyError

        forest, documents = self.forest(churned, repeated)
        forest.compact()
        script = dblp_update_script(documents[1], 4, seed=3)
        edited, log = apply_script(documents[1], script)
        forest.update_tree(1, edited, log)
        live = forest.backend
        live.check_consistency()
        key = next(iter(live._masked.counts))

        def bent(bend, unbend):
            bend()
            with pytest.raises(IndexConsistencyError):
                live.check_consistency()
            unbend()
            live.check_consistency()

        # the masked-postings count of one key is off by one
        bent(
            lambda: live._masked.counts.update({key: live._masked.counts[key] + 1}),
            lambda: live._masked.counts.update({key: live._masked.counts[key] - 1}),
        )
        # a written tree is not masked: the base would answer for it
        bent(lambda: live._masked.trees.discard(1), lambda: live._masked.trees.add(1))
        # the overlay lost a posting of a masked tree
        overlay = live._overlay
        held = next(key for key, entry in overlay.items() if 1 in entry)
        count = overlay[held][1]
        bent(lambda: overlay[held].pop(1), lambda: overlay[held].update({1: count}))

    def test_without_numpy_the_view_holds_the_whole_relation(
        self, churned, repeated, monkeypatch
    ):
        """No numpy, no array form to share: the view is the base
        class's ``DictSnapshot`` and answers through the dict sweep,
        identically — ``compact`` has nothing to freeze."""
        import repro.backend.compact as compact_module
        from repro.concurrency.snapshot import DictSnapshot

        forest, documents = self.forest(churned, repeated)
        expected = {
            tau: forest.distances(forest.index_of(1), tau=tau) for tau in TAUS
        }
        monkeypatch.setattr(compact_module, "HAVE_NUMPY", False)
        view = forest.read_view()
        assert type(view) is DictSnapshot
        assert forest.backend._frozen is None
        for query_index in self.queries(forest, documents):
            assert_scan_equals_reference(forest, query_index, False)
        for tau in TAUS:
            assert (
                forest.distances(forest.index_of(1), tau=tau, reader=view)
                == expected[tau]
            )


class TestQueryCache:
    def test_repeat_lookup_hits_cache(self):
        forest, collection = random_forest(6, seed=11)
        service = LookupService(forest)
        query = collection[2][1]
        first = service.lookup(query, tau=0.8)
        assert service.query_cache_misses == 1
        assert service.query_cache_hits == 0
        second = service.lookup(query, tau=0.8)
        assert service.query_cache_hits == 1
        assert first.matches == second.matches
        # A structurally identical but distinct Tree object also hits.
        import copy

        service.lookup(copy.deepcopy(query), tau=0.8)
        assert service.query_cache_hits == 2

    def test_cache_eviction_lru(self, monkeypatch):
        monkeypatch.setattr(LookupService, "QUERY_CACHE_SIZE", 2)
        forest, collection = random_forest(4, seed=12)
        service = LookupService(forest)
        a, b, c = (collection[i][1] for i in range(3))
        service.lookup(a, 0.8)
        service.lookup(b, 0.8)
        service.lookup(c, 0.8)  # evicts a
        service.lookup(a, 0.8)  # miss again
        assert service.query_cache_misses == 4
        assert service.query_cache_hits == 0
        service.lookup(a, 0.8)
        assert service.query_cache_hits == 1

    def test_cache_disabled(self, monkeypatch):
        """An LRU of size 0 keeps nothing: every lookup is a miss and
        still answers."""
        monkeypatch.setattr(LookupService, "QUERY_CACHE_SIZE", 0)
        forest, collection = random_forest(3, seed=13)
        service = LookupService(forest)
        query = collection[0][1]
        first = service.lookup(query, 0.8)
        second = service.lookup(query, 0.8)
        assert service.query_cache_hits == 0
        assert service.query_cache_misses == 2
        assert second.matches == first.matches
        assert not service._query_cache

    def test_nearest_uses_cache(self):
        forest, collection = random_forest(5, seed=14)
        service = LookupService(forest)
        query = collection[1][1]
        service.nearest(query, k=2)
        result = service.nearest(query, k=2)
        assert service.query_cache_hits == 1
        assert result.matches[0][0] == 1

    @pytest.mark.parametrize("reader", ["service", "store"])
    def test_served_matches_are_the_callers_own(self, reader, tmp_path):
        """Serving mode caches results per generation; a caller that
        edits the matches it was handed — on the miss that filled the
        cache or on a hit — changes no later answer."""
        forest, collection = random_forest(12, seed=15)
        if reader == "service":
            served = LookupService(forest, snapshot_reads=True)
        else:
            served = DocumentStore(
                str(tmp_path / "store"), forest.config, serve_threads=1
            )
            served.add_documents(collection)
        query = collection[4][1]
        try:
            first = served.lookup(query, 0.9)
            expected = list(first.matches)
            assert expected
            first.matches.clear()
            second = served.lookup(query, 0.9)
            assert second.matches == expected
            second.matches.append((99, 0.0))
            assert served.lookup(query, 0.9).matches == expected
        finally:
            if reader == "store":
                served.close()


def test_removed_keywords_raise_type_error():
    """The read path takes no admission callback, no prefilter and no
    per-service cache or compaction options."""
    forest, collection = random_forest(4, seed=16)
    forest.compact()
    query = PQGramIndex.from_tree(collection[0][1], forest.config, forest.hasher)
    for keyword, value in (
        ("query_cache_size", 0),
        ("auto_compact", False),
        ("result_cache_size", 0),
    ):
        with pytest.raises(TypeError):
            LookupService(forest, **{keyword: value})
    with pytest.raises(TypeError):
        forest.distances(query, 0.5, prefilter=lambda tree_id: True)
    with pytest.raises(TypeError):
        scan_distances(forest, query, 0.5, prefilter=lambda tree_id: True)
    for reader in (forest.backend, forest.read_view()):
        with pytest.raises(TypeError):
            reader.candidates(query.items(), lambda tree_id: True)
        with pytest.raises(TypeError):
            reader.candidates(query.items(), admit=lambda tree_id: True)


def rebuilt_inversion(forest):
    """Fresh ``pqg → {treeId: cnt}`` inversion from the stored indexes."""
    inverted = {}
    for tree_id in forest.tree_ids():
        for key, count in forest.index_of(tree_id).items():
            inverted.setdefault(key, {})[tree_id] = count
    return inverted


class TestDeltaInversionConsistency:
    def test_interleaved_add_update_remove(self):
        """`_inverted` == fresh rebuild after any mutation interleaving."""
        rng = random.Random(99)
        forest = ForestIndex(GramConfig(2, 3))
        documents = {}
        next_id = 0
        for round_number in range(40):
            action = rng.randrange(3)
            if action == 0 or not documents:
                tree = dblp_tree(rng.randint(2, 10), seed=round_number)
                forest.add_tree(next_id, tree)
                documents[next_id] = tree
                next_id += 1
            elif action == 1:
                tree_id = rng.choice(list(documents))
                document = documents[tree_id]
                script = dblp_update_script(
                    document, rng.randint(1, 8), seed=round_number
                )
                edited, log = apply_script(document, script)
                forest.update_tree(tree_id, edited, log)
                documents[tree_id] = edited
            else:
                tree_id = rng.choice(list(documents))
                forest.remove_tree(tree_id)
                del documents[tree_id]
            assert forest.inverted_lists() == rebuilt_inversion(forest), (
                f"inversion drift after round {round_number} action {action}"
            )
            # Size metadata follows the indexes.
            assert dict(forest.backend.iter_sizes()) == {
                tree_id: forest.index_of(tree_id).size()
                for tree_id in documents
            }
            forest.backend.check_consistency()

    def test_update_only_touches_delta_keys(self):
        """Postings of untouched pq-grams are not rewritten."""
        forest = ForestIndex(GramConfig(2, 3))
        tree = dblp_tree(12, seed=5)
        forest.add_tree(0, tree)
        forest.add_tree(1, dblp_tree(12, seed=6))
        script = dblp_update_script(tree, 3, seed=1)
        edited, log = apply_script(tree, script)
        before = forest.inverted_lists()
        forest.update_tree(0, edited, log)
        after = forest.inverted_lists()
        changed = {
            key
            for key in set(before) | set(after)
            if before.get(key) != after.get(key)
        }
        new_index = forest.index_of(0)
        old_index = PQGramIndex.from_tree(tree, forest.config, forest.hasher)
        delta_keys = {
            key
            for key in set(dict(old_index.items())) | set(dict(new_index.items()))
            if old_index.count(key) != new_index.count(key)
        }
        assert changed == delta_keys

    def test_lookup_correct_after_updates(self):
        """End to end: service results stay correct across maintenance."""
        forest = ForestIndex(GramConfig(2, 3))
        documents = {i: dblp_tree(8, seed=i) for i in range(5)}
        for tree_id, tree in documents.items():
            forest.add_tree(tree_id, tree)
        service = LookupService(forest)
        rng = random.Random(4)
        for round_number in range(8):
            tree_id = rng.randrange(5)
            document = documents[tree_id]
            script = dblp_update_script(document, 4, seed=round_number)
            edited, log = apply_script(document, script)
            forest.update_tree(tree_id, edited, log)
            documents[tree_id] = edited
            for tau in (0.5, 1.0):
                indexed = service.lookup(edited, tau)
                reference = service.lookup_without_index(
                    edited, list(documents.items()), tau
                )
                assert indexed.matches == reference.matches
