"""Child-list tests: ``Tree``'s positional API behaves exactly like a
plain nested-list model — one list of child ids per node."""

import random
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edits import Move
from repro.errors import DuplicateNodeError, InvalidPositionError
from repro.tree import Tree


def wide(fanout: int) -> Tree:
    """Root 0 with children 1..fanout, in order."""
    return Tree.from_edges((0, "r"), [(0, child, "c") for child in range(1, fanout + 1)])


class TestBasics:
    def test_empty(self):
        tree = Tree("r", 0)
        assert tree.children(0) == ()
        assert tree.fanout(0) == 0
        assert tree.is_leaf(0)
        assert tree.child_slice(0, 1, 2) == [None, None]

    def test_bulk_load(self):
        tree = wide(100)
        assert tree.children(0) == tuple(range(1, 101))
        assert tree.fanout(0) == 100
        assert tree.child(0, 1) == 1
        assert tree.child(0, 100) == 100

    def test_insert_positions(self):
        tree = Tree("r", 0)
        tree.add_child(0, "c", node_id=10)
        tree.add_child(0, "c", node_id=20, position=1)
        tree.add_child(0, "c", node_id=30, position=2)
        tree.add_child(0, "c", node_id=40, position=4)
        assert tree.children(0) == (20, 30, 10, 40)

    def test_index(self):
        tree = Tree.from_edges((0, "r"), [(0, child, "c") for child in range(2, 202, 2)])
        assert tree.sibling_position(2) == 1
        assert tree.sibling_position(102) == 51
        assert tree.sibling_position(0) == 1  # the root

    def test_duplicate_insert_rejected(self):
        tree = wide(3)
        with pytest.raises(DuplicateNodeError):
            tree.add_child(0, "c", node_id=2, position=1)
        with pytest.raises(DuplicateNodeError):
            tree.insert_node(2, "c", 0, 1, 0)
        assert tree.children(0) == (1, 2, 3)

    def test_remove_returns_position(self):
        edges = [(0, 5, "c"), (0, 6, "c"), (0, 7, "c"), (0, 8, "c"), (7, 9, "g"), (7, 10, "g")]
        tree = Tree.from_edges((0, "r"), edges)
        tree.delete_node(7)
        assert tree.children(0) == (5, 6, 9, 10, 8)
        assert tree.sibling_position(9) == 3
        assert tree.parent(10) == 0
        assert 7 not in tree

    def test_getitem_bounds(self):
        tree = wide(2)
        for position in (0, 3, -1):
            with pytest.raises(InvalidPositionError):
                tree.child(0, position)

    def test_pop_range(self):
        tree = wide(20)
        tree.insert_node(99, "n", 0, 6, 12)
        assert tree.children(99) == tuple(range(6, 13))
        assert tree.children(0) == (1, 2, 3, 4, 5, 99, *range(13, 21))
        assert all(tree.parent(child) == 99 for child in range(6, 13))

    def test_insert_range(self):
        edges = [(0, 1, "c"), (0, 2, "c"), (0, 3, "c"), (1, 10, "g"), (1, 11, "g"), (1, 12, "g")]
        tree = Tree.from_edges((0, "r"), edges)
        tree.delete_node(1)
        assert tree.children(0) == (10, 11, 12, 2, 3)
        with pytest.raises(InvalidPositionError):
            tree.insert_node(13, "n", 0, 2, 6)

    def test_slice_values(self):
        tree = wide(100)
        assert tree.child_slice(0, 11, 25) == list(range(11, 26))
        assert tree.child_slice(0, 91, 103) == list(range(91, 101)) + [None] * 3
        assert tree.child_slice(0, -1, 2) == [None, None, 1, 2]
        assert tree.child_slice(0, 101, 102) == [None, None]


class _Model:
    """Reference implementation: one plain list of child ids per node."""

    def __init__(self, fanout: int) -> None:
        self.kids: Dict[int, List[int]] = {0: list(range(1, fanout + 1))}
        self.parent: Dict[int, int] = {}
        for child in self.kids[0]:
            self.kids[child] = []
            self.parent[child] = 0

    def copy(self) -> "_Model":
        clone = _Model(0)
        clone.kids = {node: list(kids) for node, kids in self.kids.items()}
        clone.parent = dict(self.parent)
        return clone

    def below(self, node: int) -> List[int]:
        out, stack = [], [node]
        while stack:
            current = stack.pop()
            out.append(current)
            stack.extend(self.kids[current])
        return out

    def attach(self, node: int, parent: int, kids: List[int]) -> None:
        self.kids[node] = kids
        self.parent[node] = parent
        for child in kids:
            self.parent[child] = node


def step(rng: random.Random, tree: Tree, model: _Model, next_id: int) -> int:
    """One random positional write, applied to the tree and the model.
    Returns the parent whose child list changed last."""
    nodes = sorted(model.kids)
    choice = rng.random()
    if choice < 0.3 or len(nodes) < 3:
        parent = rng.choice(nodes[:3])
        position = rng.randint(1, len(model.kids[parent]) + 1)
        tree.add_child(parent, "a", node_id=next_id, position=position)
        model.kids[parent].insert(position - 1, next_id)
        model.attach(next_id, parent, [])
        return parent
    if choice < 0.55:
        parent = rng.choice(nodes[:3])
        fanout = len(model.kids[parent])
        k = rng.randint(1, fanout + 1)
        m = rng.randint(k - 1, min(fanout, k + 20))
        tree.insert_node(next_id, "i", parent, k, m)
        siblings = model.kids[parent]
        moved = siblings[k - 1 : m]
        siblings[k - 1 : m] = [next_id]
        model.attach(next_id, parent, moved)
        return parent
    node = rng.choice(nodes[1:])
    parent = model.parent[node]
    siblings = model.kids[parent]
    if choice < 0.8:
        tree.delete_node(node)
        position = siblings.index(node)
        siblings[position : position + 1] = model.kids[node]
        for child in model.kids.pop(node):
            model.parent[child] = parent
        del model.parent[node]
        return parent
    below = set(model.below(node))
    target = rng.choice([other for other in nodes if other not in below])
    siblings.remove(node)
    k = rng.randint(1, len(model.kids[target]) + 1)
    Move(node, target, k).apply(tree)
    model.kids[target].insert(k - 1, node)
    model.parent[node] = target
    return target


def assert_matches(tree: Tree, model: _Model, parent: int) -> None:
    kids = model.kids[parent]
    assert tree.children(parent) == tuple(kids)
    for position, child in enumerate(kids, start=1):
        assert tree.sibling_position(child) == position
        assert tree.child(parent, position) == child
    for start in (-2, 1, len(kids) - 2, len(kids)):
        padded = [None] * 6 + kids + [None] * 6
        assert tree.child_slice(parent, start, start + 4) == padded[start + 5 : start + 10]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(129, 400), st.booleans())
def test_matches_list_model_under_random_ops(seed, fanout, write_copy):
    """Random ``add_child`` / ``insert_node`` / ``delete_node`` / ``Move``
    over a fanout past 128 match the model; a ``copy()`` taken midway is
    written on one side only and the other side stays as it was."""
    rng = random.Random(seed)
    tree, model = wide(fanout), _Model(fanout)
    next_id = fanout + 1
    for round_number in range(120):
        if round_number == 40:
            clone = tree.copy()
            frozen, tree = (tree, clone) if write_copy else (clone, tree)
            frozen_model = model.copy()
        assert_matches(tree, model, step(rng, tree, model, next_id))
        next_id += 1
    for parent in model.kids:
        assert_matches(tree, model, parent)
    assert len(tree) == len(model.kids)
    for parent in frozen_model.kids:
        assert_matches(frozen, frozen_model, parent)
    assert len(frozen) == len(frozen_model.kids)
