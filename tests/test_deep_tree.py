"""Stress: build and maintain indexes over trees deeper than the
Python recursion limit.

Every production path — bulk construction, streaming construction,
maintenance with and without log compaction, the bracket notation in both
directions, the served ``lookup`` / ``show`` that carry it, snapshot
ingestion (the diff) and ``Tree.__eq__`` — must be iterative.  A
path-shaped tree of depth ``sys.getrecursionlimit() + 200`` blows up
any hidden recursion immediately.
"""

import sys

from repro.core import (
    GramConfig,
    PQGramIndex,
    update_index_batch,
    update_index_batch_delta,
)
from repro.edits import Delete, Insert, Rename, apply_script
from repro.hashing import LabelHasher
from repro.serve import ServeClient
from repro.service import DocumentStore
from repro.stream import ingest_feed, ingest_snapshot
from repro.tree.builder import tree_from_brackets, tree_to_brackets
from repro.tree.traversal import tree_depth
from repro.tree.tree import Tree
from repro.xmlio.stream import stream_index_xml

from tests.conftest import assert_store_is_rebuild
from tests.test_serve_inline import serving

DEPTH = sys.getrecursionlimit() + 200


def _path_tree(depth: int) -> Tree:
    tree = Tree("n0", 0)
    parent = 0
    for level in range(1, depth):
        parent = tree.add_child(parent, f"n{level % 7}")
    return tree


def test_build_index_beyond_recursion_limit():
    tree = _path_tree(DEPTH)
    assert tree_depth(tree) == DEPTH - 1  # edges, not nodes
    config = GramConfig(3, 2)
    hasher = LabelHasher()
    index = PQGramIndex.from_tree(tree, config, hasher)
    assert index.size() > 0
    # Copy is iterative too, and copies index-identically.
    clone = tree.copy()
    assert PQGramIndex.from_tree(clone, config, hasher) == index


def test_stream_builder_matches_dom_on_deep_document():
    depth = DEPTH
    labels = [f"n{level % 7}" for level in range(depth)]
    text = "".join(f"<{label}>" for label in labels) + "".join(
        f"</{label}>" for label in reversed(labels)
    )
    config = GramConfig(2, 3)
    hasher = LabelHasher()
    streamed = stream_index_xml(text, config, hasher)
    assert streamed == PQGramIndex.from_tree(_path_tree(depth), config, hasher)


def test_maintain_deep_tree_with_both_engines():
    tree = _path_tree(DEPTH)
    config = GramConfig(2, 2)
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    # Edits near the leaf: the delta walks p ancestors up from the
    # deepest nodes, never the whole path.
    deepest = max(tree.node_ids())
    twig = tree.fresh_id()
    script = [
        Rename(deepest, "tip"),
        Insert(twig, "twig", deepest, 1, 0),
        Rename(tree.parent(deepest), "near-tip"),
        Delete(twig),
        Insert(tree.fresh_id() + 1, "bud", deepest, 1, 0),
    ]
    edited, log = apply_script(tree, script)
    rebuilt = PQGramIndex.from_tree(edited, config, hasher)
    uncompacted, _, _ = update_index_batch_delta(
        old_index, edited, log, hasher, compact=False
    )
    assert uncompacted == rebuilt
    assert update_index_batch(old_index, edited, log, hasher) == rebuilt


def test_maintain_deep_tree_with_edit_near_root():
    # A rename just below the root touches grams along the top of the
    # path only (the root itself must not be edited).
    tree = _path_tree(DEPTH)
    config = GramConfig(2, 2)
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    below_root = tree.children(0)[0]
    edited, log = apply_script(tree, [Rename(below_root, "new-top")])
    rebuilt = PQGramIndex.from_tree(edited, config, hasher)
    assert update_index_batch(old_index, edited, log, hasher) == rebuilt


def test_bracket_notation_round_trips_a_deep_tree():
    tree = _path_tree(DEPTH)
    text = tree_to_brackets(tree)
    assert text.count("(") == text.count(")") == DEPTH - 1
    parsed = tree_from_brackets(text)
    assert tree_depth(parsed) == DEPTH - 1
    assert tree_to_brackets(parsed) == text
    config = GramConfig(3, 2)
    hasher = LabelHasher()
    assert PQGramIndex.from_brackets(
        text, config, hasher
    ) == PQGramIndex.from_tree(tree, config, hasher)


def test_served_lookup_and_show_of_a_deep_document(tmp_path):
    text = tree_to_brackets(_path_tree(DEPTH))
    with serving(tmp_path) as (_, port), ServeClient(port=port) as client:
        client.add_document(1, text)
        client.add_document(2, "n0(n1,n2)")
        # the first lookup hops to the pool, the second runs inline
        for _ in range(2):
            assert client.lookup(text, 0.5) == [(1, 0.0)]
        shown = client.show(1)
        assert shown["nodes"] == DEPTH and shown["tree"] == text


def _edited_copy(tree: Tree, tag: str) -> Tree:
    """A copy of a deep path with its tip renamed and a subtree hung
    off the middle."""
    edited = tree.copy()
    tip = max(edited.node_ids())
    edited.rename_node(tip, f"tip-{tag}")
    middle = tip // 2
    leaf = edited.add_child(middle, f"side-{tag}")
    edited.add_child(leaf, "leaf")
    return edited


def test_deep_document_ingests_and_compares(tmp_path):
    directory = str(tmp_path / "store")
    tree = _path_tree(DEPTH)
    first = _edited_copy(tree, "a")
    second = _edited_copy(first, "b")
    with DocumentStore(directory, GramConfig(2, 2)) as store:
        store.add_document(1, tree)
        outcome, operations = ingest_snapshot(store, 1, first)
        assert outcome == "updated" and 0 < operations < 10
        assert store.get_document(1) == first
        report = ingest_feed(store, [(1, second), (2, first)])
        assert report.errors == []
        assert (report.updated, report.added) == (1, 1)
        assert store.get_document(1) == second
        assert ingest_snapshot(store, 1, second.copy()) == ("unchanged", 0)
        assert_store_is_rebuild(store)
    with DocumentStore(directory) as reopened:
        assert reopened.get_document(1) == second
        assert reopened.get_document(2) == first
        assert_store_is_rebuild(reopened)


def test_deep_trees_compare_by_structure():
    tree = _path_tree(DEPTH)
    clone = tree.copy()
    assert tree == clone
    assert tree.structural_key() == clone.structural_key()
    assert hash(tree.structural_key()) == hash(clone.structural_key())
    clone.rename_node(max(clone.node_ids()), "other")
    assert tree != clone
