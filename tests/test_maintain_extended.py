"""Extended maintenance coverage: extreme shapes, deep (p, q) grids,
hostile edit patterns.  Complements ``test_maintain_properties`` with
deterministic corner geometry instead of random sampling."""

import random

import pytest

from repro.core import (
    GramConfig,
    PQGramIndex,
    update_index,
)
from repro.datasets.random_trees import random_chain, random_star
from repro.edits import (
    Delete,
    EditScriptGenerator,
    Insert,
    Move,
    Rename,
    apply_script,
)
from repro.hashing import LabelHasher
from repro.tree import Tree, tree_from_brackets

from tests.support.reference import update_index_tablewise

GRID = [(1, 1), (1, 4), (2, 2), (3, 3), (4, 1), (5, 2), (5, 4)]


ENGINES = {"replay": update_index, "tablewise": update_index_tablewise}


def check(tree, script, config, engine="replay"):
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    edited, log = apply_script(tree, script)
    new_index = ENGINES[engine](old_index, edited, log, hasher)
    assert new_index == PQGramIndex.from_tree(edited, config, hasher)


class TestExtremeShapes:
    @pytest.mark.parametrize("p,q", GRID)
    def test_chain_tree_edits(self, p, q):
        """Maximum depth: p-parts dominate."""
        tree = random_chain(30, seed=1)
        middle = list(tree.node_ids())[15]
        script = [Rename(middle, "zz"), Delete(middle)]
        check(tree, script, GramConfig(p, q))

    @pytest.mark.parametrize("p,q", GRID)
    def test_star_tree_edits(self, p, q):
        """Maximum fanout: q-windows dominate."""
        tree = random_star(30, seed=2)
        children = tree.children(tree.root_id)
        script = [
            Delete(children[0]),
            Delete(children[15]),
            Insert(99, "x", tree.root_id, 5, 10),
            Rename(children[20], "yy"),
        ]
        check(tree, script, GramConfig(p, q))

    @pytest.mark.parametrize("p,q", GRID)
    def test_chain_collapse(self, p, q):
        """Deleting every inner node of a chain, bottom-up."""
        tree = random_chain(12, seed=3)
        inner = [n for n in tree.node_ids() if n != tree.root_id and not tree.is_leaf(n)]
        script = [Delete(node) for node in reversed(inner)]
        check(tree, script, GramConfig(p, q))

    @pytest.mark.parametrize("p,q", GRID)
    def test_grow_a_deep_spine_then_prune(self, p, q):
        tree = Tree("r")
        script = []
        parent = tree.root_id
        next_id = 1
        work = tree.copy()
        for _ in range(10):
            op = Insert(next_id, "s", parent, 1, 0)
            op.apply(work)
            script.append(op)
            parent = next_id
            next_id += 1
        for node in range(5, 10):
            op = Delete(node)
            op.apply(work)
            script.append(op)
        check(tree, script, GramConfig(p, q))


class TestHostilePatterns:
    @pytest.mark.parametrize("p,q", [(2, 2), (3, 3), (4, 3)])
    def test_repeated_adoption_of_same_range(self, p, q):
        """Nested adopting inserts stacking above the same children."""
        tree = tree_from_brackets("r(a,b,c,d)")
        script = [
            Insert(10, "x", tree.root_id, 1, 4),
            Insert(11, "y", 10, 1, 4),
            Insert(12, "z", 11, 2, 3),
        ]
        check(tree, script, GramConfig(p, q))
        check(tree, script, GramConfig(p, q), engine="tablewise")

    @pytest.mark.parametrize("p,q", [(2, 2), (3, 3)])
    def test_rename_storm_single_node(self, p, q):
        tree = tree_from_brackets("r(a(b))")
        script = [Rename(1, label) for label in "cdefghij"]
        check(tree, script, GramConfig(p, q))
        check(tree, script, GramConfig(p, q), engine="tablewise")

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 3), (4, 2)])
    def test_move_shuffle(self, p, q):
        """Repeatedly moving the same subtree around the document."""
        tree = tree_from_brackets("r(a(b,c),d(e),f(g(h)))")
        script = [Move(1, 4, 1), Move(1, 6, 2), Move(1, 0, 3)]
        check(tree, script, GramConfig(p, q))

    @pytest.mark.parametrize("p,q", [(3, 3)])
    def test_long_random_script_on_dblp(self, p, q):
        from repro.datasets import dblp_tree
        from benchmarks.dblp_workloads import dblp_update_script

        tree = dblp_tree(40, seed=4)
        script = dblp_update_script(tree, 200, seed=5)
        check(tree, script, GramConfig(p, q))

    def test_deep_pq_on_mixed_script(self):
        tree = tree_from_brackets("r(a(b(c(d))),e(f,g),h)")
        generator = EditScriptGenerator(rng=random.Random(6))
        script = generator.generate(tree, 25)
        for p, q in [(5, 4), (6, 2), (2, 5)]:
            check(tree, script, GramConfig(p, q))


class TestUnicodeLabels:
    def test_unicode_pipeline(self):
        """Unicode labels flow through hashing, maintenance, logs."""
        tree = Tree("café")
        tree.add_child(0, "früh", 1)
        tree.add_child(0, "日本語", 2)
        tree.add_child(1, "ångström", 3)
        script = [Rename(3, "emoji 🙂 label"), Delete(2),
                  Insert(9, "ŷ", 0, 1, 1)]
        check(tree, script, GramConfig(2, 2))
        check(tree, script, GramConfig(2, 2), engine="tablewise")

    def test_unicode_log_serialization(self):
        from repro.edits import format_operations, parse_operations

        ops = [Rename(3, "emoji 🙂 label"), Insert(9, "ŷ", 0, 1, 1)]
        assert parse_operations(format_operations(ops)) == ops
