"""Dataset generator tests: determinism and structural shape."""

from repro.datasets import dblp_tree, random_labelled_tree, xmark_tree
from repro.datasets.dblp import fields_of, record_ids
from repro.datasets.random_trees import random_chain, random_star
from repro.edits import apply_script
from repro.tree import tree_depth, validate_tree
from repro.xmlio import parse_xml, write_xml

from benchmarks.dblp_workloads import dblp_update_script, record_edit_script


class TestDblp:
    def test_deterministic(self):
        assert dblp_tree(25, seed=3) == dblp_tree(25, seed=3)
        assert dblp_tree(25, seed=3) != dblp_tree(25, seed=4)

    def test_record_count_and_root(self):
        tree = dblp_tree(40, seed=0)
        validate_tree(tree)
        assert tree.label(tree.root_id) == "dblp"
        assert len(record_ids(tree)) == 40

    def test_shallow_wide_shape(self):
        tree = dblp_tree(50, seed=1)
        assert tree_depth(tree) == 3  # root -> record -> field -> text
        assert tree.fanout(tree.root_id) == 50

    def test_nodes_per_record_ratio(self):
        tree = dblp_tree(200, seed=2)
        ratio = len(tree) / 200
        assert 8 <= ratio <= 14  # ~11 nodes per record, like real DBLP

    def test_records_have_required_fields(self):
        tree = dblp_tree(20, seed=5)
        for record in record_ids(tree):
            labels = [label for _, label in fields_of(tree, record)]
            assert "author" in labels
            assert "title" in labels
            assert "year" in labels

    def test_roundtrips_through_xml(self):
        tree = dblp_tree(10, seed=6)
        assert parse_xml(write_xml(tree)) == tree


class TestXmark:
    def test_deterministic(self):
        assert xmark_tree(500, seed=1) == xmark_tree(500, seed=1)

    def test_budget_respected(self):
        for budget in (50, 500, 5000):
            tree = xmark_tree(budget, seed=2)
            validate_tree(tree)
            assert len(tree) <= budget

    def test_budget_mostly_used(self):
        tree = xmark_tree(2000, seed=3)
        assert len(tree) >= 1800

    def test_deeper_than_dblp(self):
        assert tree_depth(xmark_tree(2000, seed=4)) >= 4

    def test_site_schema_roots(self):
        tree = xmark_tree(100, seed=5)
        assert tree.label(tree.root_id) == "site"
        top = {tree.label(child) for child in tree.children(tree.root_id)}
        assert {"regions", "people", "open_auctions"} <= top


class TestTreebank:
    def test_deterministic(self):
        from benchmarks.treebank import treebank_tree

        assert treebank_tree(300, seed=1) == treebank_tree(300, seed=1)
        assert treebank_tree(300, seed=1) != treebank_tree(300, seed=2)

    def test_deep_and_narrow(self):
        from benchmarks.treebank import treebank_tree
        from repro.tree import preorder

        tree = treebank_tree(800, seed=3)
        validate_tree(tree)
        assert tree_depth(tree) >= 8
        inner_fanouts = [
            tree.fanout(node)
            for node in preorder(tree)
            if not tree.is_leaf(node) and node != tree.root_id
        ]
        assert max(inner_fanouts) <= 3

    def test_budget_respected(self):
        from benchmarks.treebank import treebank_tree

        for budget in (30, 300):
            assert len(treebank_tree(budget, seed=4)) <= budget + 3

    def test_sentence_tree_standalone(self):
        from benchmarks.treebank import sentence_tree

        tree = sentence_tree(seed=5)
        validate_tree(tree)
        assert tree.label(tree.root_id) == "S"
        assert len(tree) >= 3


class TestRandomTrees:
    def test_sizes_exact(self):
        for size in (1, 2, 17):
            assert len(random_labelled_tree(size, seed=1)) == size

    def test_chain_and_star_shapes(self):
        chain = random_chain(10, seed=0)
        star = random_star(10, seed=0)
        assert tree_depth(chain) == 9
        assert star.fanout(star.root_id) == 9


class TestWorkloads:
    def test_script_is_applicable_and_sized(self):
        tree = dblp_tree(30, seed=7)
        script = record_edit_script(tree, 25, seed=8)
        assert len(script) == 25
        edited, log = apply_script(tree, script)
        validate_tree(edited)
        assert len(log) == 25

    def test_deterministic(self):
        tree = dblp_tree(30, seed=7)
        first = record_edit_script(tree, 20, seed=9)
        second = record_edit_script(tree, 20, seed=9)
        assert list(first) == list(second)

    def test_stable_variant_has_no_record_deletions(self):
        from repro.edits import Delete

        tree = dblp_tree(30, seed=7)
        script = dblp_update_script(tree, 40, seed=10, stable=True)
        assert not any(isinstance(op, Delete) for op in script)

    def test_mix_includes_all_kinds(self):
        from repro.edits import Delete, Insert, Rename

        tree = dblp_tree(60, seed=11)
        script = dblp_update_script(tree, 120, seed=12)
        kinds = {type(op) for op in script}
        assert kinds == {Insert, Delete, Rename}
