"""Differential oracle for the standing-query subsystem.

The contract under test: after every committed write batch, each
registered standing query's incrementally maintained membership is
*identical* to re-running its plan from scratch through the executor
(``store.query``), and the emitted enter/leave/update events, replayed
forward from the initial matches, reconstruct exactly that membership.
Property-tested over random edit streams, across all five storage
backends; the index the re-evaluation reads must itself equal a
from-scratch rebuild after every round, and the ``engine`` rows name
the ``repro.core`` reference path (``tests/conftest.py::
reference_update``) each edit round is also checked against.
"""

import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GramConfig
from repro.datasets import dblp_tree
from repro.edits.generator import EditScriptGenerator
from repro.edits.move import Move
from repro.edits.ops import Rename
from repro.errors import QueryError
from repro.lookup.forest import ForestIndex
from repro.query import And, ApproxLookup, HasLabel, HasPath, Not, TopK
from repro.service.soak import random_tree
from repro.service.store import DocumentStore
from repro.stream import StandingQueryEngine, plan_from_spec, plan_to_spec
from repro.tree.builder import tree_from_brackets

from tests.conftest import (
    BAD_PLAN_SPECS,
    REFERENCE_ENGINES,
    assert_store_is_rebuild,
    reference_update,
)

# Row id → the DocumentStore keyword arguments of that row.  The ids
# name the storage backends stores once had; each row runs the one that
# is left in another state.  ``sharded``, ``segment`` and ``rel`` run a
# *served* store, whose writes go through the write coalescer and whose
# queries read the published snapshot over the frozen CSR — ``segment``
# on a live metrics registry, so the instrumented branches of the store
# and the standing engine run too.  ``memory`` and ``rel``
# (``FROZEN_EMPTY_ROWS``) freeze the CSR before the first document is
# added, so the collection starts out in the overlay over an empty base.
BACKENDS = {
    "memory": {},
    "compact": {},
    "sharded": {"serve_threads": 2},
    "segment": {"serve_threads": 2, "metrics": True},
    "rel": {"serve_threads": 2},
}
FROZEN_EMPTY_ROWS = {"memory", "rel"}


def _query_plans(rng):
    """A representative plan mix: tight and loose τ, τ > 1 (full
    membership), top-k, and predicate combinations."""
    probes = [random_tree(rng, 10) for _ in range(4)]
    return [
        ("tight", ApproxLookup(probes[0], 0.45)),
        ("loose", ApproxLookup(probes[1], 0.9)),
        ("everything", ApproxLookup(probes[2], 1.5)),
        ("nearest", TopK(probes[3], 4)),
        ("labelled", And(ApproxLookup(probes[1], 0.95), HasLabel("b"))),
        (
            "pathless",
            And(ApproxLookup(probes[0], 1.5), Not(HasPath("a/b"))),
        ),
    ]


def _replay_events(initial, events, query_id):
    """Replay one query's event stream forward from its initial
    matches — the subscriber's view of the membership."""
    members = dict(initial)
    for event in events:
        if event.query_id != query_id:
            continue
        if event.kind == "leave":
            assert event.document_id in members, "leave without membership"
            del members[event.document_id]
        elif event.kind == "enter":
            assert event.document_id not in members, "enter while member"
            members[event.document_id] = event.distance
        else:
            assert event.document_id in members, "update without membership"
            members[event.document_id] = event.distance
    return sorted(members.items(), key=lambda pair: (pair[1], pair[0]))


def _run_stream(directory, backend, engine, seed, rounds=6):
    rng = random.Random(seed)
    store = DocumentStore(directory, config=GramConfig(2, 3), **BACKENDS[backend])
    if backend in FROZEN_EMPTY_ROWS:
        store._forest.compact()
    documents = [
        (document_id, random_tree(rng, 14)) for document_id in range(10)
    ]
    store.add_documents(documents)
    plans = _query_plans(rng)
    initial = {}
    for query_id, plan in plans:
        initial[query_id] = store.subscribe(query_id, plan)
        assert initial[query_id] == store.query(plan).matches
    generator = EditScriptGenerator(
        rng=rng, labels=["a", "b", "c", "d", "x", "y"]
    )
    next_id = len(documents)
    for round_number in range(rounds):
        action = rng.random()
        if action < 0.15:
            store.add_document(next_id, random_tree(rng, 12))
            next_id += 1
        elif action < 0.25 and len(store) > 3:
            victim = rng.choice(list(store.document_ids()))
            store.remove_document(victim)
        else:
            document_id = rng.choice(list(store.document_ids()))
            document = store.get_document(document_id)
            script = list(generator.generate(document, rng.randint(1, 5)))
            _, expected = reference_update(
                engine, store.get_index(document_id), document, script
            )
            store.apply_edits(document_id, script)
            assert store.get_index(document_id) == expected
        assert_store_is_rebuild(store)
        for query_id, plan in plans:
            assert store.standing_matches(query_id) == store.query(plan).matches, (
                f"{backend}/{engine} round {round_number}: standing membership "
                f"of {query_id!r} diverged from full re-evaluation"
            )
    events = store.drain_notifications()
    for query_id, _ in plans:
        assert (
            _replay_events(initial[query_id], events, query_id)
            == store.standing_matches(query_id)
        ), f"event stream of {query_id!r} does not replay to the membership"
    store.close()


@pytest.mark.parametrize("engine", REFERENCE_ENGINES)
@pytest.mark.parametrize("backend", list(BACKENDS))
def test_incremental_membership_matches_full_reevaluation(
    tmp_path, backend, engine
):
    _run_stream(str(tmp_path / "store"), backend, engine, seed=7)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_property_random_edit_streams(seed):
    """Hypothesis sweep over random edit streams (the ``memory`` row —
    the matrix above covers the other states)."""
    with tempfile.TemporaryDirectory() as directory:
        _run_stream(directory + "/store", "memory", "replay", seed, rounds=4)


def test_move_batches_keep_predicates_current(tmp_path):
    """A subtree Move relocates ancestry without a label-visible delta;
    the engine must still re-evaluate structural predicates."""
    store = DocumentStore(str(tmp_path / "store"))
    tree = tree_from_brackets("r(a(c),b)")
    store.add_document(1, tree)
    stored = store.get_document(1)
    node_a = next(
        node_id
        for node_id in stored.node_ids()
        if stored.label(node_id) == "a"
    )
    node_b = next(
        node_id
        for node_id in stored.node_ids()
        if stored.label(node_id) == "b"
    )
    node_c = next(
        node_id
        for node_id in stored.node_ids()
        if stored.label(node_id) == "c"
    )
    plan = And(ApproxLookup(tree_from_brackets("r(a,b)"), 1.5), HasPath("b/c"))
    matches = store.subscribe("watch", plan)
    assert matches == []
    store.apply_edits(1, [Move(node_c, node_b, 1)])
    assert store.standing_matches("watch") == store.query(plan).matches
    assert [m[0] for m in store.standing_matches("watch")] == [1]
    events = store.drain_notifications()
    assert [e.kind for e in events if e.query_id == "watch"] == ["enter"]
    # ... and back out again.
    store.apply_edits(1, [Move(node_c, node_a, 1)])
    assert store.standing_matches("watch") == []
    store.close()


def test_subscriptions_survive_reopen(tmp_path):
    directory = str(tmp_path / "store")
    rng = random.Random(3)
    store = DocumentStore(directory)
    store.add_documents([(i, random_tree(rng, 12)) for i in range(6)])
    plan = ApproxLookup(random_tree(rng, 10), 0.8)
    before = store.subscribe("persistent", plan)
    store.close()

    reopened = DocumentStore(directory)
    assert reopened.standing_query_ids() == ["persistent"]
    assert reopened.standing_matches("persistent") == before
    # A clean close/open cycle swallowed nothing: no catch-up events.
    assert reopened.drain_notifications() == []
    # The restored subscription keeps tracking new writes.
    listener_events = []
    reopened.attach_listener("persistent", listener_events.append)
    reopened.add_document(100, reopened.get_document(0))
    assert (
        reopened.standing_matches("persistent")
        == reopened.query(plan).matches
    )
    drained = reopened.drain_notifications()
    assert listener_events == drained
    reopened.close()


def test_unsubscribe_is_durable(tmp_path):
    directory = str(tmp_path / "store")
    rng = random.Random(4)
    store = DocumentStore(directory)
    store.add_documents([(i, random_tree(rng, 10)) for i in range(4)])
    store.subscribe("ephemeral", ApproxLookup(random_tree(rng, 8), 0.7))
    store.unsubscribe("ephemeral")
    with pytest.raises(QueryError):
        store.standing_matches("ephemeral")
    store.close()
    reopened = DocumentStore(directory)
    assert reopened.standing_query_ids() == []
    reopened.close()


def test_duplicate_subscription_rejected(tmp_path):
    store = DocumentStore(str(tmp_path / "store"))
    store.add_document(1, tree_from_brackets("a(b)"))
    plan = ApproxLookup(tree_from_brackets("a(b)"), 0.5)
    store.subscribe("once", plan)
    with pytest.raises(QueryError):
        store.subscribe("once", plan)
    store.close()


def test_predicates_need_document_provider():
    forest = ForestIndex()
    engine = StandingQueryEngine(forest)
    with pytest.raises(QueryError):
        engine.subscribe(
            "q",
            And(ApproxLookup(tree_from_brackets("a(b)"), 0.5), HasLabel("b")),
        )


def test_plan_spec_round_trip():
    plan = And(
        ApproxLookup(tree_from_brackets("a(b,c(d))"), 0.625),
        HasLabel("b"),
        Not(HasPath("a/c/d")),
    )
    spec = plan_to_spec(plan)
    rebuilt = plan_from_spec(spec)
    assert plan_to_spec(rebuilt) == spec
    top = TopK(tree_from_brackets("a(b)"), 3)
    assert plan_to_spec(plan_from_spec(plan_to_spec(top))) == plan_to_spec(top)


@pytest.mark.parametrize("fields", BAD_PLAN_SPECS.values(), ids=BAD_PLAN_SPECS)
def test_malformed_plan_spec_is_a_query_error(tmp_path, fields):
    """A malformed spec is refused with ``QueryError``, and nothing
    reaches the store: no subscription, no new checkpoint."""
    directory = str(tmp_path / "store")
    store = DocumentStore(directory)
    store.add_document(1, tree_from_brackets("a(b)"))
    with open(os.path.join(directory, "store.db"), "rb") as handle:
        snapshot = handle.read()
    spec = {"query": "a(b)", "tau": 0.5, **fields}
    with pytest.raises(QueryError):
        store.subscribe("bad", plan_from_spec(spec))
    assert store.standing_query_ids() == []
    with open(os.path.join(directory, "store.db"), "rb") as handle:
        assert handle.read() == snapshot
    store.close()


def test_delta_key_prune_ledger_counts_skips(tmp_path):
    """Disjoint-vocabulary queries are skipped without arithmetic and
    the skip is accounted in ``standing_eval_skipped_total``."""
    store = DocumentStore(str(tmp_path / "store"), metrics=True)
    store.add_document(1, tree_from_brackets("a(b,b(c))"))
    store.add_document(2, tree_from_brackets("z(w,w(v))"))
    # Vocabulary disjoint from document 1's: its edits never intersect.
    store.subscribe("far", ApproxLookup(tree_from_brackets("z(w,v)"), 0.4))
    stored = store.get_document(1)
    leaf = next(
        node_id
        for node_id in stored.node_ids()
        if stored.label(node_id) == "c"
    )
    store.apply_edits(1, [Rename(leaf, "d")])
    registry = store.metrics_registry
    assert (
        registry.counter_value("standing_eval_skipped_total", reason="delta_keys")
        >= 1
    )
    assert store.standing_matches("far") == store.query(
        ApproxLookup(tree_from_brackets("z(w,v)"), 0.4)
    ).matches
    store.close()


DECODED = "store_documents_decoded_total"
#: 240 DBLP-like records; the probe's τ-neighborhood holds 41 of them,
#: and 3 of those carry the label the predicate asks for
RECORDS = 240
PROBE = dblp_tree(1, seed=7)
PROBE_TAU, PROBE_LABEL = 0.7, "2005"
PROBE_PLAN = And(ApproxLookup(PROBE, PROBE_TAU), HasLabel(PROBE_LABEL))


def _reopened_records_store(directory):
    store = DocumentStore(directory)
    store.add_documents([(i, dblp_tree(1, seed=i)) for i in range(RECORDS)])
    store.close()
    return DocumentStore(directory, metrics=True)


def test_a_predicate_subscribe_decodes_only_its_tau_matches(tmp_path):
    """Subscribing a τ + predicate plan walks the predicate over the
    τ-matches alone: every other document stays a record."""
    store = _reopened_records_store(str(tmp_path / "store"))
    registry = store.metrics_registry
    near = store.lookup(PROBE, PROBE_TAU).tree_ids()
    assert registry.counter_value(DECODED) == 0
    matches = store.subscribe("watch", PROBE_PLAN)
    assert 0 < len(matches) < len(near) < RECORDS // 2
    assert registry.counter_value(DECODED) == len(near)
    assert matches == store.query(PROBE_PLAN).matches
    assert registry.counter_value(DECODED) == len(near)
    store.close()


def test_a_reopen_reconciles_a_predicate_subscription_decoding_its_matches(
    tmp_path,
):
    """Reconciling a predicate subscription after WAL replay decodes
    the τ-matches and the documents the WAL edits, nothing more — and
    still emits the entry a swallowed edit made."""
    directory = str(tmp_path / "store")
    store = _reopened_records_store(directory)
    store.subscribe("watch", PROBE_PLAN)
    near = store.lookup(PROBE, PROBE_TAU).tree_ids()
    members = dict(store.standing_matches("watch"))
    entrant = next(i for i in near if i not in members)
    outsider = next(i for i in range(RECORDS) if i not in near)
    for document_id in (entrant, outsider):
        tree = store.get_document(document_id)
        year = next(n for n in tree.node_ids() if tree.label(n) == "year")
        store.apply_edits(
            document_id, [Rename(tree.children(year)[0], PROBE_LABEL)]
        )
    del store  # unclosed: the edits stay in the WAL
    reopened = DocumentStore(directory, metrics=True)
    registry = reopened.metrics_registry
    matches = reopened.standing_matches("watch")
    assert entrant in dict(matches)
    assert registry.counter_value(DECODED) <= len(near) + 2
    events = reopened.drain_notifications()
    assert [(e.kind, e.document_id) for e in events] == [("enter", entrant)]
    assert matches == reopened.query(PROBE_PLAN).matches
    reopened.close()
