"""Query-plan layer tests: plan algebra, the structural predicates, and
post-filter ≡ legacy-lookup ≡ brute-force equivalence in every state
of the forest."""

import random
from collections import Counter

import pytest

from repro.backend import compact as compact_module
from repro.core import GramConfig, PQGramIndex
from repro.core.distance import index_distance
from repro.datasets import dblp_tree, random_labelled_tree
from repro.errors import QueryError
from repro.lookup import ForestIndex, LookupService
from repro.perf import HAVE_NUMPY
from repro.query import (
    And,
    ApproxLookup,
    HasLabel,
    HasPath,
    Not,
    TopK,
    describe,
    execute_plan,
    normalize_plan,
    plan_fingerprint,
)
from repro.query.structural import tree_has_label, tree_has_path, tree_matches
from repro.tree import Tree

CONFIG = GramConfig(2, 3)

# The ids name the storage backends the forest once had; each row runs
# the one class that is left in another state.  The ``compact`` row is
# never frozen and sweeps the dicts (its service, which compacts before
# every live read, runs with numpy hidden from the backend).  ``sharded-2``
# freezes once the collection is in, so plans sweep a clean CSR in
# array space; ``segment`` freezes before the first write, so every tree
# is in the overlay over an empty base.  ``memory`` (``VIEW_ROWS``)
# runs every plan against the forest's published read view, the way a
# serving store does.  ``rel`` runs on a live metrics registry, so the
# instrumented scan and the per-mode plan counter run under every plan.
BACKENDS = [
    ("memory", {}),
    ("compact", {}),
    ("sharded-2", {}),
    ("segment", {}),
    ("rel", {"metrics": True}),
]
BACKEND_IDS = [name for name, _ in BACKENDS]
VIEW_ROWS = {"memory"}


def make_forest(name, kwargs, collection):
    """The row's forest over ``collection``, frozen as the row says."""
    forest = ForestIndex(CONFIG, **kwargs)
    if name == "segment":
        forest.compact()
    forest.add_trees(collection)
    if name == "sharded-2":
        forest.compact()
    if HAVE_NUMPY and name in ("sharded-2", "segment"):
        stats = forest.backend_stats()
        assert stats["frozen"] and bool(stats["dirty_keys"]) == (name == "segment")
    return forest


def make_collection(count, seed):
    rng = random.Random(seed)
    collection = []
    for tree_id in range(count):
        if rng.random() < 0.5:
            tree = random_labelled_tree(rng.randint(2, 20), seed=seed + tree_id)
        else:
            tree = dblp_tree(rng.randint(1, 5), seed=seed + tree_id)
        collection.append((tree_id, tree))
    return collection


# ----------------------------------------------------------------------
# plan algebra
# ----------------------------------------------------------------------


class TestPlanAlgebra:
    def test_haspath_accepts_string_and_sequence(self):
        assert HasPath("a/b/c").labels == ("a", "b", "c")
        assert HasPath(["a", "b"]).labels == ("a", "b")
        assert HasPath("solo").labels == ("solo",)

    def test_and_flattens(self):
        tree = random_labelled_tree(3, seed=0)
        plan = And(And(ApproxLookup(tree, 0.5), HasLabel("a")), HasLabel("b"))
        assert len(plan.parts) == 3

    def test_normalize_splits_retrieval_and_predicates(self):
        tree = random_labelled_tree(3, seed=0)
        plan = And(HasLabel("x"), ApproxLookup(tree, 0.5), Not(HasPath("a/b")))
        normalized = normalize_plan(plan)
        assert isinstance(normalized.retrieval, ApproxLookup)
        kinds = sorted(
            (type(pred).__name__, negated)
            for pred, negated in normalized.predicates
        )
        assert kinds == [("HasLabel", False), ("HasPath", True)]

    def test_double_negation_unwraps(self):
        tree = random_labelled_tree(3, seed=0)
        plan = And(TopK(tree, 2), Not(Not(HasLabel("x"))))
        ((predicate, negated),) = normalize_plan(plan).predicates
        assert isinstance(predicate, HasLabel) and not negated

    def test_rejections(self):
        tree = random_labelled_tree(3, seed=0)
        with pytest.raises(QueryError):
            normalize_plan(HasLabel("x"))  # no retrieval root
        with pytest.raises(QueryError):
            normalize_plan(
                And(ApproxLookup(tree, 0.5), TopK(tree, 1))
            )  # two retrievals
        with pytest.raises(QueryError):
            normalize_plan(And(ApproxLookup(tree, 0.5), Not(TopK(tree, 1))))
        with pytest.raises(QueryError):
            normalize_plan(TopK(tree, 0))
        with pytest.raises(QueryError):
            normalize_plan(And(ApproxLookup(tree, 0.5), HasPath("")))
        with pytest.raises(QueryError):
            normalize_plan(And(ApproxLookup(tree, 0.5), HasLabel("")))
        with pytest.raises(QueryError):
            normalize_plan(ApproxLookup(tree, "half"))

    def test_fingerprint_is_order_insensitive_for_predicates(self):
        tree = random_labelled_tree(5, seed=1)
        left = And(ApproxLookup(tree, 0.5), HasLabel("a"), HasPath("b/c"))
        right = And(HasPath("b/c"), HasLabel("a"), ApproxLookup(tree, 0.5))
        assert plan_fingerprint(left) == plan_fingerprint(right)

    def test_fingerprint_separates_plans(self):
        tree = random_labelled_tree(5, seed=1)
        other = random_labelled_tree(5, seed=2)
        base = plan_fingerprint(ApproxLookup(tree, 0.5))
        assert base != plan_fingerprint(ApproxLookup(tree, 0.6))
        assert base != plan_fingerprint(ApproxLookup(other, 0.5))
        assert base != plan_fingerprint(TopK(tree, 3))
        assert plan_fingerprint(
            And(ApproxLookup(tree, 0.5), HasLabel("a"))
        ) != plan_fingerprint(And(ApproxLookup(tree, 0.5), Not(HasLabel("a"))))

    def test_fingerprint_tau_float_representation(self):
        """Regression: τ values that print identically at repr's usual
        precision — or compare unequal to themselves (NaN) — must still
        key distinct, self-consistent fingerprints, while numerically
        equal spellings keep colliding."""
        from repro.query import normalize_tau

        tree = random_labelled_tree(5, seed=1)
        # Distinct doubles that many format strings collapse: the next
        # representable double after 0.5 selects a (potentially)
        # different neighborhood and must never share a cache entry.
        nudged = float.fromhex("0x1.0000000000001p-1")
        assert f"{0.5:.12g}" == f"{nudged:.12g}"  # printably identical
        assert plan_fingerprint(ApproxLookup(tree, 0.5)) != plan_fingerprint(
            ApproxLookup(tree, nudged)
        )
        # Numerically equal spellings still collide (int vs float).
        assert plan_fingerprint(ApproxLookup(tree, 1)) == plan_fingerprint(
            ApproxLookup(tree, 1.0)
        )
        # NaN is unequal to itself, which would poison a raw-float key;
        # the normalized form is a stable, self-equal text.
        nan = float("nan")
        assert normalize_tau(nan) == normalize_tau(nan)
        assert plan_fingerprint(ApproxLookup(tree, nan)) == plan_fingerprint(
            ApproxLookup(tree, nan)
        )
        assert normalize_tau(0.5) == normalize_tau(0.5)
        assert normalize_tau(0.5) != normalize_tau(nudged)

    def test_describe_mentions_every_node(self):
        tree = random_labelled_tree(3, seed=0)
        text = describe(
            And(ApproxLookup(tree, 0.25), HasPath("a/b"), Not(HasLabel("x")))
        )
        assert "approx_lookup(tau=0.25)" in text
        assert "has_path(a/b)" in text
        assert "not has_label(x)" in text


# ----------------------------------------------------------------------
# the pre/post encoding
# ----------------------------------------------------------------------


def brute_force_has_path(tree, chain):
    """Whether some node sequence ``n1, …, nk`` carries ``chain`` with
    each node a strict descendant of the one before, found by trying
    every candidate node at every step against explicit ancestor sets."""
    ancestors = {}
    stack = [(tree.root_id, frozenset())]
    while stack:
        node, above = stack.pop()
        ancestors[node] = above
        for child in tree.children(node):
            stack.append((child, above | {node}))

    def extend(previous, depth):
        if depth == len(chain):
            return True
        return any(
            tree.label(node) == chain[depth]
            and (previous is None or previous in ancestors[node])
            and extend(node, depth + 1)
            for node in ancestors
        )

    return extend(None, 0)


class TestPrePostEncoding:
    """The structural predicates a plan's post-filter evaluates (the
    class keeps the name of the retired pre/post node encoding)."""

    def test_match_rows_equals_tree_walk(self):
        """``tree_has_path`` — one greedy walk — agrees with a brute
        force over explicit ancestor chains."""
        rng = random.Random(77)
        for seed in range(25):
            tree = random_labelled_tree(rng.randint(1, 30), seed=seed)
            labels = [tree.label(node) for node in tree.node_ids()]
            for _ in range(6):
                depth = rng.randint(1, 4)
                chain = [rng.choice(labels + ["missing"]) for _ in range(depth)]
                assert brute_force_has_path(tree, chain) == tree_has_path(
                    tree, chain
                ), (seed, chain)

    def test_has_label_and_path_basics(self):
        tree = Tree("a")
        b = tree.add_child(tree.root_id, "b")
        tree.add_child(b, "c")
        assert tree_has_label(tree, "c")
        assert not tree_has_label(tree, "z")
        assert tree_has_path(tree, ("a", "c"))  # descendant axis skips b
        assert tree_has_path(tree, ("a", "b", "c"))
        assert not tree_has_path(tree, ("c", "a"))
        assert not tree_has_path(tree, ("a", "a"))


# ----------------------------------------------------------------------
# executor equivalence
# ----------------------------------------------------------------------


def predicate_pool(collection):
    labels = sorted(
        {
            tree.label(node)
            for _, tree in collection
            for node in tree.node_ids()
        }
    )
    rng = random.Random(13)
    pool = []
    for label in labels[:4] + ["nolabel"]:
        pool.append(HasLabel(label))
        pool.append(Not(HasLabel(label)))
    for _ in range(6):
        chain = [rng.choice(labels + ["nolabel"]) for _ in range(rng.randint(2, 3))]
        pool.append(HasPath(chain))
        pool.append(Not(HasPath(chain)))
    return pool


@pytest.mark.parametrize(("name", "kwargs"), BACKENDS, ids=BACKEND_IDS)
class TestExecutorEquivalence:
    def test_plan_lookup_matches_legacy_lookup(self, name, kwargs, monkeypatch):
        """A bare retrieval plan is bit-identical to the legacy
        ``lookup``/``nearest`` entry points in every row."""
        collection = make_collection(12, seed=900)
        forest = make_forest(name, kwargs, collection)
        if name == "compact":
            monkeypatch.setattr(compact_module, "HAVE_NUMPY", False)
        service = LookupService(forest, snapshot_reads=name in VIEW_ROWS)
        query = collection[4][1]
        for tau in (0.3, 0.7, 1.0):
            legacy = service.lookup(query, tau).matches
            planned = service.query(ApproxLookup(query, tau)).matches
            assert planned == legacy
        for k in (1, 3, 50):
            legacy = service.nearest(query, k).matches
            planned = service.query(TopK(query, k)).matches
            assert planned == legacy

    def test_predicates_match_document_post_filter(self, name, kwargs):
        """Plans with structural predicates produce the same matches in
        every row as on a reference forest that is never compacted."""
        collection = make_collection(14, seed=901)
        forest = make_forest(name, kwargs, collection)
        reader = forest.read_view() if name in VIEW_ROWS else None
        documents = dict(collection)
        reference = ForestIndex(CONFIG)
        reference.add_trees(collection)
        rng = random.Random(5)
        pool = predicate_pool(collection)
        query = collection[2][1]
        for round_number in range(12):
            predicates = rng.sample(pool, rng.randint(1, 3))
            if rng.random() < 0.5:
                retrieval = ApproxLookup(query, rng.choice((0.4, 0.8, 1.2)))
            else:
                retrieval = TopK(query, rng.randint(1, 6))
            plan = And(retrieval, *predicates)
            expected = execute_plan(
                reference, plan, documents=documents.__getitem__
            )
            got = execute_plan(
                forest, plan, reader=reader, documents=documents.__getitem__
            )
            assert got.matches == expected.matches, (round_number, plan)
            assert got.population == expected.population


def brute_force_plan(collection, plan):
    """A plan's matches by hand: every tree's distance from its own
    index, the predicates tested on the tree, sorted, then truncated."""
    normalized = normalize_plan(plan)
    retrieval = normalized.retrieval
    hasher = ForestIndex(CONFIG).hasher
    query = PQGramIndex.from_tree(retrieval.query, CONFIG, hasher)
    matches = []
    for tree_id, tree in collection:
        distance = index_distance(query, PQGramIndex.from_tree(tree, CONFIG, hasher))
        if isinstance(retrieval, ApproxLookup) and not distance < retrieval.tau:
            continue
        if all(
            tree_matches(tree, predicate) != negated
            for predicate, negated in normalized.predicates
        ):
            matches.append((tree_id, distance))
    matches.sort(key=lambda pair: (pair[1], pair[0]))
    return matches[: retrieval.k] if isinstance(retrieval, TopK) else matches


class TestRelPushdownProperties:
    """The post-filter, the one strategy for structural predicates
    (the class keeps the name of the retired pushdown it was checked
    against)."""

    def test_pushdown_equals_postfilter_randomized(self):
        """Property: the post-filter on a frozen forest, on a forest
        that is never compacted and by brute force yield identical matches for
        random plans over random forests — and compact's pruning
        ledger stays exact."""
        from repro.obsv import MetricsRegistry

        for seed in range(8):
            registry = MetricsRegistry()
            collection = make_collection(10, seed=1000 + seed)
            documents = dict(collection).__getitem__
            compact = ForestIndex(CONFIG, metrics=registry)
            compact.add_trees(collection)
            compact.compact()
            memory = ForestIndex(CONFIG)
            memory.add_trees(collection)
            rng = random.Random(seed)
            pool = predicate_pool(collection)
            query = collection[rng.randrange(len(collection))][1]
            for _ in range(6):
                predicates = rng.sample(pool, rng.randint(1, 3))
                retrieval = (
                    ApproxLookup(query, rng.choice((0.3, 0.6, 0.9)))
                    if rng.random() < 0.6
                    else TopK(query, rng.randint(1, 5))
                )
                plan = And(retrieval, *predicates)
                filtered = execute_plan(compact, plan, documents=documents)
                reference = execute_plan(memory, plan, documents=documents)
                assert filtered.mode == reference.mode == "postfilter"
                assert filtered.matches == reference.matches, plan
                assert filtered.matches == brute_force_plan(collection, plan)
            assert registry.counter_value(
                "lookup_candidates_total"
            ) == registry.counter_value(
                "lookup_candidates_pruned_total"
            ) + registry.counter_value("lookup_candidates_scored_total")
            assert registry.counter_value("query_plans_total", mode="postfilter") == 6

    def test_force_pushdown_without_encoding_raises(self):
        """No physical strategy can be forced: ``force_mode`` is not a
        parameter of any query entry point."""
        from repro.service import DocumentStore

        forest = ForestIndex(CONFIG)
        collection = make_collection(4, seed=3)
        forest.add_trees(collection)
        query = random_labelled_tree(5, seed=3)
        plan = And(ApproxLookup(query, 0.5), HasLabel("a"))
        documents = dict(collection).__getitem__
        with pytest.raises(TypeError):
            execute_plan(forest, plan, documents=documents, force_mode="postfilter")
        with pytest.raises(TypeError):
            LookupService(forest).query(plan, documents, force_mode="postfilter")
        with pytest.raises(TypeError):
            DocumentStore.query(None, plan, force_mode="postfilter")

    def test_predicates_without_documents_raise_on_plain_backends(self):
        forest = ForestIndex(CONFIG)
        forest.add_trees(make_collection(4, seed=3))
        query = random_labelled_tree(5, seed=3)
        with pytest.raises(QueryError):
            execute_plan(forest, And(ApproxLookup(query, 0.5), HasLabel("a")))


class TestServicePlanCache:
    def test_serving_mode_caches_by_plan_fingerprint(self):
        from repro.obsv import MetricsRegistry

        forest = ForestIndex(CONFIG, metrics=MetricsRegistry())
        collection = make_collection(8, seed=77)
        forest.add_trees(collection)
        documents = dict(collection).__getitem__
        service = LookupService(forest, snapshot_reads=True)
        query = collection[1][1]
        plan = And(ApproxLookup(query, 0.8), HasLabel("a"))
        first = service.query(plan, documents)
        hits_before = forest.metrics.counter_value("result_cache_hits_total")
        second = service.query(
            And(HasLabel("a"), ApproxLookup(query, 0.8)),  # same fingerprint
            documents,
        )
        assert second.matches == first.matches
        assert (
            forest.metrics.counter_value("result_cache_hits_total")
            == hits_before + 1
        )
        # A different tau fingerprints differently: no further hit.
        service.query(And(ApproxLookup(query, 0.9), HasLabel("a")), documents)
        assert (
            forest.metrics.counter_value("result_cache_hits_total")
            == hits_before + 1
        )
        # A write bumps the generation, invalidating the cached entry.
        extra = random_labelled_tree(6, seed=99)
        forest.add_tree(99, extra)
        service.query(plan, {**dict(collection), 99: extra}.__getitem__)
        assert (
            forest.metrics.counter_value("result_cache_hits_total")
            == hits_before + 1
        )

    def test_served_lookup_fingerprints_its_query_once(self, monkeypatch):
        """The query-index LRU and the result cache key on the same
        structural fingerprint: one computation per lookup, and keys
        byte for byte what two computations gave."""
        import repro.lookup.service as service_module
        import repro.tree.fingerprint as fingerprint_module
        from repro.tree.fingerprint import tree_fingerprint

        forest = ForestIndex(CONFIG)
        collection = make_collection(6, seed=11)
        forest.add_trees(collection)
        service = LookupService(forest, snapshot_reads=True)
        query = collection[2][1]
        calls = []

        def counting(tree):
            calls.append(tree)
            return tree_fingerprint(tree)

        monkeypatch.setattr(service_module, "tree_fingerprint", counting)
        monkeypatch.setattr(fingerprint_module, "tree_fingerprint", counting)
        service.lookup(query, 0.7)
        service.query(And(ApproxLookup(query, 0.7), HasLabel("a")),
                      documents=dict(collection).__getitem__)
        assert len(calls) == 2
        for plan in (ApproxLookup(query, 0.7), TopK(query, 2)):
            assert plan_fingerprint(
                plan, tree_fingerprint(query)
            ) == plan_fingerprint(plan)
        assert (
            plan_fingerprint(ApproxLookup(query, 0.7)),
            CONFIG.p,
            CONFIG.q,
            forest.generation,
        ) in service._result_cache
        assert (tree_fingerprint(query), CONFIG.p, CONFIG.q) in service._query_cache

    def test_store_query_round_trip(self, tmp_path):
        from repro.service import DocumentStore

        collection = make_collection(10, seed=55)
        directory = str(tmp_path / "store")
        query = collection[3][1]
        plan = And(ApproxLookup(query, 0.9), HasLabel("a"))
        expected = brute_force_plan(collection, plan)
        with DocumentStore(directory, CONFIG) as store:
            store.add_documents(collection)
            first = store.query(plan)
            assert first.matches == expected
            assert "pushdown" not in first.extra
        with DocumentStore(directory) as reopened:
            assert reopened.query(plan).matches == expected


@pytest.mark.parametrize("backend", ["compact", "memory"])
def test_post_filter_walks_each_match_once(backend):
    """The post-filter's cost, counted instead of timed: the document
    provider is called exactly once for every tree the τ-scan returns
    and never for a tree it rejected — so a predicate costs one walk
    per match, whatever its selectivity.  The ``compact`` row scans the
    frozen CSR, the ``memory`` row a forest never compacted, which
    sweeps its dicts."""
    collection = make_collection(30, seed=21)
    forest = ForestIndex(CONFIG)
    forest.add_trees(collection)
    if backend == "compact":
        forest.compact()
    assert forest.backend_stats()["frozen"] == (HAVE_NUMPY and backend == "compact")
    documents = dict(collection)
    calls = Counter()

    def provider(tree_id):
        calls[tree_id] += 1
        return documents[tree_id]

    pool = predicate_pool(collection)
    rng = random.Random(4)
    for tau in (0.3, 0.6, 0.9, 1.0):
        query = collection[rng.randrange(len(collection))][1]
        scanned = forest.distances(
            PQGramIndex.from_tree(query, CONFIG, forest.hasher), tau=tau
        )
        for _ in range(4):
            predicates = rng.sample(pool, rng.randint(1, 3))
            calls.clear()
            execute_plan(
                forest, And(ApproxLookup(query, tau), *predicates), documents=provider
            )
            assert calls == Counter(dict.fromkeys(scanned, 1)), (tau, predicates)


@pytest.mark.parametrize("backend", ["compact", "memory"])
def test_top_k_post_filter_stops_at_the_kth_match(backend):
    """A ``TopK`` plan with predicates walks trees nearest first and
    stops once k have passed: the provider is called once for each tree
    of that prefix of the ``(distance, id)`` order and never for a tree
    behind it.  ``population`` counts every tree the scan scored."""
    collection = make_collection(40, seed=33)
    forest = ForestIndex(CONFIG)
    forest.add_trees(collection)
    if backend == "compact":
        forest.compact()
    documents = dict(collection)
    calls = Counter()

    def provider(tree_id):
        calls[tree_id] += 1
        return documents[tree_id]

    pool = predicate_pool(collection)
    rng = random.Random(8)
    walked_short = 0
    for _ in range(16):
        query = collection[rng.randrange(len(collection))][1]
        ranked = sorted(
            forest.distances(
                PQGramIndex.from_tree(query, CONFIG, forest.hasher)
            ).items(),
            key=lambda pair: (pair[1], pair[0]),
        )
        k = rng.randint(1, 5)
        plan = And(TopK(query, k), *rng.sample(pool, rng.randint(1, 2)))
        calls.clear()
        execution = execute_plan(forest, plan, documents=provider)
        assert execution.matches == brute_force_plan(collection, plan)
        assert execution.population == len(collection)
        if len(execution.matches) == k:
            last = ranked.index(execution.matches[-1])
            prefix = [tree_id for tree_id, _ in ranked[: last + 1]]
        else:
            prefix = [tree_id for tree_id, _ in ranked]
        assert calls == Counter(dict.fromkeys(prefix, 1)), plan
        walked_short += len(prefix) < len(collection)
    assert walked_short >= 4
