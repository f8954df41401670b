"""Address-stability checker tests."""

from repro.edits import Delete, Insert, Rename, apply_script
from repro.tree import tree_from_brackets

from tests.support.reference import is_address_stable


class TestStableCases:
    def test_rename_only_log(self):
        tree = tree_from_brackets("r(a,b)")
        log = [Rename(1, "x"), Rename(2, "y"), Rename(1, "z")]
        assert is_address_stable(tree, log)

    def test_delete_only_log(self):
        """Inverse DELs (forward inserts) are node-addressed and safe."""
        tree = tree_from_brackets("r(a(b),c)")
        log = [Delete(1), Delete(3)]
        assert is_address_stable(tree, log)

    def test_empty_log(self):
        assert is_address_stable(tree_from_brackets("r"), [])

    def test_single_insert(self):
        tree = tree_from_brackets("r(a,b)")
        assert is_address_stable(tree, [Insert(9, "x", 0, 1, 0)])

    def test_inserts_under_disjoint_parents(self):
        tree = tree_from_brackets("r(a,b)")
        log = [Insert(9, "x", 1, 1, 0), Insert(10, "y", 2, 1, 0)]
        assert is_address_stable(tree, log)

    def test_insert_plus_unrelated_delete(self):
        tree = tree_from_brackets("r(a(b),c(d))")
        # Insert under a (node 1), delete d (child of c): disjoint scopes.
        log = [Insert(9, "x", 1, 1, 0), Delete(4)]
        assert is_address_stable(tree, log)


class TestUnstableCases:
    def test_two_inserts_same_parent(self):
        tree = tree_from_brackets("r(a)")
        log = [Insert(9, "x", 0, 1, 0), Insert(10, "y", 0, 1, 0)]
        assert not is_address_stable(tree, log)

    def test_insert_plus_delete_same_parent(self):
        tree = tree_from_brackets("r(a,b)")
        log = [Insert(9, "x", 0, 1, 0), Delete(2)]
        assert not is_address_stable(tree, log)

    def test_insert_parent_missing_from_tn(self):
        tree = tree_from_brackets("r(a)")
        log = [Insert(9, "x", 42, 1, 0)]
        assert not is_address_stable(tree, log)

    def test_delete_of_unknown_node_is_conservative(self):
        tree = tree_from_brackets("r(a)")
        log = [Insert(9, "x", 1, 1, 0), Delete(42)]
        assert not is_address_stable(tree, log)

    def test_paper_gap_scenario(self):
        from tests.test_paper_gap import scenario

        _, t2, log = scenario()
        assert not is_address_stable(t2, log)


class TestWorkloadIntegration:
    def test_stable_dblp_workload_is_stable(self):
        from repro.datasets import dblp_tree
        from benchmarks.dblp_workloads import dblp_update_script

        tree = dblp_tree(40, seed=0)
        script = dblp_update_script(tree, 30, seed=1, stable=True)
        edited, log = apply_script(tree, script)
        assert is_address_stable(edited, log)
