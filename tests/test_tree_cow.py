"""Copy-on-write trees: a copy and its source never see each other's
writes, whichever side is written, however long the chain of copies.

The oracle is a second family of trees built node by node through the
public constructors — they share nothing by construction — that
receives exactly the same operations.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edits import Delete, Insert, Move, Rename
from repro.edits.script import EditScript
from repro.errors import EditError, TreeError
from repro.tree import Tree, preorder, tree_from_brackets, validate_tree

from tests.conftest import trees


def independent_clone(tree: Tree) -> Tree:
    """A structurally identical tree that shares no storage with
    ``tree`` (``Tree.copy`` is the code under test)."""
    root = tree.root_id
    return Tree.from_edges(
        (root, tree.label(root)),
        [
            (tree.parent(node_id), node_id, tree.label(node_id))
            for node_id in preorder(tree)
            if node_id != root
        ],
    )


def draw_operation(rng: random.Random, tree: Tree):
    """An applicable operation for ``tree`` — all four kinds."""
    nodes = list(tree.node_ids())
    inner = [node_id for node_id in nodes if node_id != tree.root_id]
    kind = rng.choice(("insert", "delete", "rename", "move")) if inner else "insert"
    if kind == "insert":
        parent = rng.choice(nodes)
        fanout = tree.fanout(parent)
        k = rng.randint(1, fanout + 1)
        adopted = rng.randint(0, fanout - k + 1)
        return Insert(tree.fresh_id(), rng.choice("xyz"), parent, k, k + adopted - 1)
    node_id = rng.choice(inner)
    if kind == "delete":
        return Delete(node_id)
    if kind == "rename":
        return Rename(node_id, tree.label(node_id) + "'")
    below = set(tree.subtree_ids(node_id))
    parent = rng.choice([other for other in nodes if other not in below])
    fanout = tree.fanout(parent) - (tree.parent(node_id) == parent)
    return Move(node_id, parent, rng.randint(1, fanout + 1))


def failing_write(rng: random.Random, tree: Tree) -> None:
    """A mutator call that raises *after* it reached for the record it
    would have written (the operation classes check first and never get
    that far)."""
    node_id = rng.choice(list(tree.node_ids()))
    with pytest.raises(TreeError):
        if rng.random() < 0.5:
            tree.add_child(node_id, "dup", node_id=tree.root_id)
        else:
            tree.insert_node(tree.fresh_id(), "far", node_id, 1, tree.fanout(node_id) + 3)


@settings(max_examples=120, deadline=None)
@given(trees(max_size=16), st.integers(0, 2**32 - 1), st.integers(1, 30))
def test_family_of_copies_stays_independent(base, seed, steps):
    rng = random.Random(seed)
    family = [base]
    models = [independent_clone(base)]
    for _ in range(steps):
        chosen = rng.randrange(len(family))
        if rng.random() < 0.35:
            # Copy, then write either side of the new pair.
            family.append(family[chosen].copy())
            models.append(independent_clone(models[chosen]))
            chosen = rng.choice((chosen, len(family) - 1))
        if rng.random() < 0.15:
            failing_write(rng, family[chosen])
        else:
            operation = draw_operation(rng, models[chosen])
            operation.apply(family[chosen])
            operation.apply(models[chosen])
        validate_tree(family[chosen])
        # Every member equals its own model: the written one changed
        # exactly as an unshared tree does, no other one changed at all.
        for member, model in zip(family, models):
            assert member.structural_key() == model.structural_key()


@settings(max_examples=60, deadline=None)
@given(trees(max_size=16), st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_operation_failing_mid_script_never_reaches_the_source(base, seed, prefix):
    rng = random.Random(seed)
    model = independent_clone(base)
    applied = []
    for _ in range(prefix):
        operation = draw_operation(rng, model)
        operation.apply(model)
        applied.append(operation)
    before = base.structural_key()
    probe = base.copy()
    with pytest.raises(EditError):
        EditScript(applied + [Delete(base.root_id)]).apply(probe)
    assert base.structural_key() == before
    assert probe.structural_key() == model.structural_key()
    # The abandoned probe does not poison later copies of the source.
    retry = base.copy()
    EditScript(applied).apply(retry)
    assert retry == model
    assert base.structural_key() == before


@settings(max_examples=60, deadline=None)
@given(trees(max_size=16), st.integers(0, 2**32 - 1))
def test_pickle_round_trip_of_shared_trees(base, seed):
    """A tree that travels by pickle arrives equal to what was sent and
    still copy-on-write safe, also when source and copy travel in one
    message."""
    rng = random.Random(seed)
    clone = base.copy()
    draw_operation(rng, clone).apply(clone)
    shipped_base, shipped_clone = pickle.loads(pickle.dumps((base, clone)))
    assert shipped_base == base
    assert shipped_clone == clone
    before = shipped_base.structural_key()
    for _ in range(4):
        draw_operation(rng, shipped_clone).apply(shipped_clone)
    assert shipped_base.structural_key() == before
    validate_tree(shipped_clone)
    alone = pickle.loads(pickle.dumps(clone))
    sent = clone.structural_key()
    assert alone.structural_key() == sent
    draw_operation(rng, alone).apply(alone)
    validate_tree(alone)
    assert clone.structural_key() == sent


def test_a_write_clones_only_the_records_it_touches():
    source = tree_from_brackets("a(b(c,d),e(f),g)")
    clone = source.copy()

    def shared() -> int:
        return sum(
            clone._records[node_id] is source._records[node_id]
            for node_id in source.node_ids()
        )

    assert shared() == len(source)
    clone.rename_node(2, "cc")
    assert shared() == len(source) - 1
    # A move writes both parents and the moved node, nothing else.
    Move(5, 1, 1).apply(clone)
    assert shared() == len(source) - 4
    assert source == tree_from_brackets("a(b(c,d),e(f),g)")
    # The source is no longer the owner of what it shares either.
    source.rename_node(6, "gg")
    assert clone.label(6) == "g"
