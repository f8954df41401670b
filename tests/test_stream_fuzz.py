"""Hypothesis fuzz of the snapshot-ingest → standing-query pipeline.

Random tree *versions* (not edit scripts) are drawn as shrinkable
hypothesis data, pushed through ``repro.edits.diff`` by the ingest
layer, applied via the store's write path, and the resulting standing
state is checked against full re-evaluation after every version — so a
failing example shrinks to the smallest version sequence exposing the
divergence.  Seeds are pinned (``derandomize=True``) so CI runs are
reproducible.
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GramConfig
from repro.query import And, ApproxLookup, HasLabel, TopK
from repro.service.store import DocumentStore
from repro.stream import ingest_feed, ingest_snapshot
from repro.tree.builder import tree_to_brackets
from repro.tree.tree import Tree

_LABELS = ["a", "b", "c", "d", "e"]

# A tree as shrinkable data: each (parent_choice, label_choice) pair
# attaches one node under an already-created node.  The root label is
# fixed so every version pair stays diffable.
_tree_shapes = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63), st.integers(0, 4)),
    min_size=0,
    max_size=12,
)


def _build_tree(shape) -> Tree:
    tree = Tree("r")
    ids = [tree.root_id]
    for parent_choice, label_choice in shape:
        parent = ids[parent_choice % len(ids)]
        ids.append(tree.add_child(parent, _LABELS[label_choice]))
    return tree


def _probe(labels) -> Tree:
    tree = Tree("r")
    for label in labels:
        tree.add_child(tree.root_id, label)
    return tree


_PLANS = [
    ("near", ApproxLookup(_probe(["a", "b", "c"]), 0.6)),
    ("wide", ApproxLookup(_probe(["d", "e"]), 1.5)),
    ("top", TopK(_probe(["b", "b"]), 3)),
    ("guarded", And(ApproxLookup(_probe(["a"]), 0.95), HasLabel("c"))),
]


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    initial=st.lists(_tree_shapes, min_size=1, max_size=3),
    updates=st.lists(
        st.tuples(st.integers(min_value=0, max_value=7), _tree_shapes),
        min_size=0,
        max_size=6,
    ),
)
def test_ingested_versions_keep_standing_state_consistent(initial, updates):
    with tempfile.TemporaryDirectory() as directory:
        store = DocumentStore(
            directory + "/store",
            config=GramConfig(2, 3),
        )
        for document_id, shape in enumerate(initial):
            outcome, _ = ingest_snapshot(store, document_id, _build_tree(shape))
            assert outcome == "added"
        initial_matches = {}
        for query_id, plan in _PLANS:
            initial_matches[query_id] = store.subscribe(query_id, plan)
        for document_choice, shape in updates:
            document_id = document_choice % len(initial)
            ingest_snapshot(store, document_id, _build_tree(shape))
            for query_id, plan in _PLANS:
                assert (
                    store.standing_matches(query_id)
                    == store.query(plan).matches
                ), f"standing state of {query_id!r} diverged after ingest"
        # The event stream replays forward to the final membership.
        events = store.drain_notifications()
        for query_id, _ in _PLANS:
            members = dict(initial_matches[query_id])
            for event in events:
                if event.query_id != query_id:
                    continue
                if event.kind == "leave":
                    del members[event.document_id]
                else:
                    members[event.document_id] = event.distance
            assert (
                sorted(members.items(), key=lambda pair: (pair[1], pair[0]))
                == store.standing_matches(query_id)
            )
        store.close()


@settings(derandomize=True, max_examples=10, deadline=None)
@given(
    shapes=st.lists(_tree_shapes, min_size=1, max_size=4),
    repeat_choice=st.integers(min_value=0, max_value=3),
)
def test_feed_report_accounts_every_item(shapes, repeat_choice):
    """``ingest_feed`` classifies every item exactly once: first
    sighting → added, identical resend → unchanged, changed version →
    updated; operation counts only accrue for real diffs."""
    with tempfile.TemporaryDirectory() as directory:
        store = DocumentStore(directory + "/store")
        items = [
            (document_id, _build_tree(shape))
            for document_id, shape in enumerate(shapes)
        ]
        first = ingest_feed(store, items)
        assert first.added == len(items)
        assert first.updated == first.unchanged == first.replaced == 0
        assert not first.errors
        # Resend one unchanged item.
        repeat_id = repeat_choice % len(items)
        second = ingest_feed(store, [(repeat_id, items[repeat_id][1])])
        assert second.unchanged == 1 and second.operations == 0
        # Send a changed version of the same document.
        changed = items[repeat_id][1].copy()
        changed.add_child(changed.root_id, "z")
        third = ingest_feed(store, [(repeat_id, changed)])
        assert third.updated == 1 and third.operations >= 1
        assert tree_to_brackets(store.get_document(repeat_id)) == (
            tree_to_brackets(changed)
        )
        store.close()
