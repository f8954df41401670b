"""First-class subtree move tests (the paper's Section 10 future work)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GramConfig,
    PQGramIndex,
    update_index,
)
from repro.edits import Move, Rename, apply_script, move_subtree_ops
from repro.edits.script import undo_log
from repro.edits.serialize import format_operations, parse_operations
from repro.errors import EditError, InvalidLogError, RootEditError
from repro.hashing import LabelHasher
from repro.tree import tree_from_brackets, tree_to_brackets, validate_tree

from tests.conftest import gram_configs, trees
from tests.support.reference import is_address_stable, update_index_tablewise


def random_moves(tree, count, seed):
    """A list of applicable moves for a tree (applied while drawing)."""
    rng = random.Random(seed)
    working = tree.copy()
    script = []
    for _ in range(count):
        movable = [n for n in working.node_ids() if n != working.root_id]
        if not movable:
            break
        node = rng.choice(movable)
        forbidden = set(working.subtree_ids(node))
        parents = [n for n in working.node_ids() if n not in forbidden]
        parent = rng.choice(parents)
        fanout = working.fanout(parent)
        if working.parent(node) == parent:
            fanout -= 1
        operation = Move(node, parent, rng.randint(1, fanout + 1))
        operation.apply(working)
        script.append(operation)
    return script


class TestSemantics:
    def test_move_to_other_parent(self):
        tree = tree_from_brackets("r(a(b,c),d)")
        Move(1, 4, 1).apply(tree)
        assert tree_to_brackets(tree) == "r(d(a(b,c)))"
        validate_tree(tree)

    def test_move_within_parent(self):
        tree = tree_from_brackets("r(a,b,c)")
        Move(1, 0, 3).apply(tree)
        assert tree_to_brackets(tree) == "r(b,c,a)"

    def test_move_preserves_subtree_ids(self):
        tree = tree_from_brackets("r(a(b(c)),d)")
        before = set(tree.subtree_ids(1))
        Move(1, 4, 1).apply(tree)
        assert set(tree.subtree_ids(1)) == before

    def test_inverse_restores(self):
        tree = tree_from_brackets("r(a(b),c(d))")
        operation = Move(1, 3, 2)
        inverse = operation.inverse(tree)
        before = tree.structural_key()
        operation.apply(tree)
        inverse.apply(tree)
        assert tree.structural_key() == before

    def test_move_below_itself_rejected(self):
        tree = tree_from_brackets("r(a(b))")
        with pytest.raises(EditError):
            Move(1, 2, 1).apply(tree)
        with pytest.raises(EditError):
            Move(1, 1, 1).apply(tree)

    def test_move_root_rejected(self):
        tree = tree_from_brackets("r(a)")
        with pytest.raises(RootEditError):
            Move(tree.root_id, 1, 1).apply(tree)

    def test_bad_position_rejected(self):
        tree = tree_from_brackets("r(a,b)")
        with pytest.raises(EditError):
            Move(1, 0, 3).apply(tree)  # post-detach fanout is 1

    def test_missing_nodes_rejected(self):
        tree = tree_from_brackets("r(a)")
        with pytest.raises(EditError):
            Move(42, 0, 1).apply(tree)
        with pytest.raises(EditError):
            Move(1, 42, 1).apply(tree)

    def test_serialization_roundtrip(self):
        ops = [Move(3, 7, 2), Rename(1, "x"), Move(5, 0, 1)]
        assert parse_operations(format_operations(ops)) == ops


class TestMaintenance:
    @settings(max_examples=80, deadline=None)
    @given(trees(max_size=20), gram_configs(), st.integers(0, 2**31))
    def test_replay_engine_exact_on_move_logs(self, tree, config, seed):
        script = random_moves(tree, 5, seed)
        edited, log = apply_script(tree, script)
        assert undo_log(edited, log) == tree
        hasher = LabelHasher()
        old_index = PQGramIndex.from_tree(tree, config, hasher)
        new_index = update_index(old_index, edited, log, hasher)
        assert new_index == PQGramIndex.from_tree(edited, config, hasher)

    @settings(max_examples=60, deadline=None)
    @given(trees(max_size=18), gram_configs(max_p=3), st.integers(0, 2**31))
    def test_mixed_logs_with_node_ops(self, tree, config, seed):
        from repro.edits import EditScriptGenerator

        rng = random.Random(seed)
        working = tree.copy()
        script = []
        generator = EditScriptGenerator(rng=rng)
        for _ in range(6):
            if rng.random() < 0.4 and len(working) > 1:
                batch = random_moves(working, 1, rng.randint(0, 2**31))
            else:
                batch = list(generator.generate(working, 1))
            for operation in batch:
                operation.apply(working)
                script.append(operation)
        edited, log = apply_script(tree, script)
        hasher = LabelHasher()
        old_index = PQGramIndex.from_tree(tree, config, hasher)
        new_index = update_index(old_index, edited, log, hasher)
        assert new_index == PQGramIndex.from_tree(edited, config, hasher)

    def test_move_equivalent_to_lowering(self):
        """A native move and its delete+reinsert lowering produce the
        same final tree structure and the same maintained index."""
        tree = tree_from_brackets("r(a(b,c(d)),e)")
        hasher = LabelHasher()
        config = GramConfig(2, 2)
        old_index = PQGramIndex.from_tree(tree, config, hasher)

        native, native_log = apply_script(tree, [Move(1, 5, 1)])
        lowering, _ = move_subtree_ops(tree, 1, 5, 1)
        lowered, lowered_log = apply_script(tree, lowering)
        assert tree_to_brackets(native) == tree_to_brackets(lowered)
        assert len(native_log) == 1
        assert len(lowered_log) == len(lowering)

        via_native = update_index(old_index, native, native_log, hasher)
        assert via_native == PQGramIndex.from_tree(native, config, hasher)

    def test_tablewise_engine_rejects_moves(self, paper_tree_t0):
        hasher = LabelHasher()
        old_index = PQGramIndex.from_tree(paper_tree_t0, GramConfig(), hasher)
        edited, log = apply_script(paper_tree_t0, [Move(3, 4, 1)])
        with pytest.raises(InvalidLogError):
            update_index_tablewise(old_index, edited, log, hasher)

    def test_move_logs_flagged_unstable(self, paper_tree_t0):
        edited, log = apply_script(paper_tree_t0, [Move(3, 4, 1)])
        assert not is_address_stable(edited, log)
