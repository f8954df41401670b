"""Direct unit tests for the (P, Q) delta table pair and its matrix
operators (Fig. 9/10 on the stored representation)."""

import pytest

from repro.core import GramConfig
from repro.errors import InvalidLogError
from repro.hashing import LabelHasher
from repro.tree import tree_from_brackets

from tests.support.reference.tables import NO_PARENT, ChildWindow, DeltaTables

H = LabelHasher()


def hashes(*labels):
    return tuple(0 if label == "*" else H.hash_label(label) for label in labels)


def tables_for(brackets: str, config=GramConfig(2, 3)):
    """Tables preloaded with the full profile of a bracket tree."""
    tree = tree_from_brackets(brackets)
    tables = DeltaTables(config)
    for node_id in tree.node_ids():
        tables.add_p_row_from_tree(tree, node_id, H)
        tables.add_all_q_rows_from_tree(tree, node_id, H)
    return tree, tables


class TestRowInsertion:
    def test_p_row_from_tree_contents(self):
        tree, tables = tables_for("r(a(b),c)")
        row = tables.get_p(1)  # node a
        assert row["parId"] == tree.root_id
        assert row["sibPos"] == 1
        assert row["fanout"] == 1
        assert row["ppart"] == hashes("r", "a")

    def test_root_row_has_no_parent_sentinel(self):
        tree, tables = tables_for("r(a)")
        row = tables.get_p(tree.root_id)
        assert row["parId"] == NO_PARENT
        assert row["ppart"] == hashes("*", "r")

    def test_q_rows_of_inner_node(self):
        tree, tables = tables_for("r(a,b,c)")
        rows = tables.q_rows(tree.root_id)
        assert [row for row, _ in rows] == [1, 2, 3, 4, 5]
        assert rows[0][1] == hashes("*", "*", "a")
        assert rows[2][1] == hashes("a", "b", "c")
        assert rows[4][1] == hashes("c", "*", "*")

    def test_leaf_q_row(self):
        _, tables = tables_for("r(a)")
        assert tables.q_rows(1) == [(1, hashes("*", "*", "*"))]

    def test_duplicate_identical_rows_are_noop(self):
        tree, tables = tables_for("r(a)")
        tables.add_p_row_from_tree(tree, 1, H)
        tables.add_all_q_rows_from_tree(tree, 1, H)
        assert tables.anchor_count() == 2

    def test_conflicting_p_row_rejected(self):
        _, tables = tables_for("r(a)")
        with pytest.raises(InvalidLogError):
            tables.add_p_row(1, 2, 0, 0, hashes("r", "a"))

    def test_conflicting_q_row_rejected(self):
        _, tables = tables_for("r(a)")
        with pytest.raises(InvalidLogError):
            tables.add_q_row(1, 1, hashes("x", "x", "x"))


class TestWindows:
    def test_read_child_window_contexts(self):
        tree, tables = tables_for("r(a,b,c,d)")
        window = tables.read_child_window(tree.root_id, 2, 3)
        assert window.kids == hashes("b", "c")
        assert window.left_context == hashes("*", "a")
        assert window.right_context == hashes("d", "*")
        assert not window.was_leaf

    def test_read_gap_window(self):
        tree, tables = tables_for("r(a,b)")
        window = tables.read_child_window(tree.root_id, 2, 1)
        assert window.kids == ()
        assert window.left_context == hashes("*", "a")
        assert window.right_context == hashes("b", "*")

    def test_read_leaf_window(self):
        _, tables = tables_for("r(a)")
        window = tables.read_child_window(1, 1, 0)
        assert window.was_leaf
        assert window.kids == ()

    def test_missing_rows_detected(self):
        tree, tables = tables_for("r(a,b,c)")
        del tables.Q[tree.root_id][3]
        with pytest.raises(InvalidLogError):
            tables.read_child_window(tree.root_id, 2, 2)

    def test_leaf_window_with_wrong_range_rejected(self):
        _, tables = tables_for("r(a)")
        with pytest.raises(InvalidLogError):
            tables.read_child_window(1, 2, 2)


class TestReplaceChildren:
    def test_replace_one_with_two(self):
        """DEL-style splice: one diagonal becomes two children."""
        tree, tables = tables_for("r(a,b,c)")
        window = tables.read_child_window(tree.root_id, 2, 2)
        tables.replace_children(window, hashes("x", "y"), new_fanout=4)
        rows = tables.q_rows(tree.root_id)
        assert [row for row, _ in rows] == [1, 2, 3, 4, 5, 6]
        assert rows[1][1] == hashes("*", "a", "x")
        assert rows[2][1] == hashes("a", "x", "y")
        assert rows[3][1] == hashes("x", "y", "c")
        assert rows[5][1] == hashes("c", "*", "*")  # tail renumbered

    def test_replace_two_with_one(self):
        """INS-style splice: two adopted children collapse to one."""
        tree, tables = tables_for("r(a,b,c)")
        window = tables.read_child_window(tree.root_id, 1, 2)
        tables.replace_children(window, hashes("n"), new_fanout=2)
        rows = tables.q_rows(tree.root_id)
        assert [row for row, _ in rows] == [1, 2, 3, 4]
        assert rows[0][1] == hashes("*", "*", "n")
        assert rows[2][1] == hashes("n", "c", "*")

    def test_collapse_to_leaf(self):
        tree, tables = tables_for("r(a)")
        window = tables.read_child_window(tree.root_id, 1, 1)
        tables.replace_children(window, (), new_fanout=0)
        assert tables.q_rows(tree.root_id) == [(1, hashes("*", "*", "*"))]

    def test_leaf_gains_child(self):
        _, tables = tables_for("r(a)")
        window = tables.read_child_window(1, 1, 0)
        tables.replace_children(window, hashes("n"), new_fanout=1)
        rows = tables.q_rows(1)
        assert rows == [
            (1, hashes("*", "*", "n")),
            (2, hashes("*", "n", "*")),
            (3, hashes("n", "*", "*")),
        ]

    def test_fanout_zero_with_real_context_rejected(self):
        tree, tables = tables_for("r(a,b)")
        window = tables.read_child_window(tree.root_id, 1, 1)
        with pytest.raises(InvalidLogError):
            tables.replace_children(window, (), new_fanout=0)


class TestDiagonalAndDecoding:
    def test_update_q_diagonal(self):
        tree, tables = tables_for("r(a,b,c)")
        tables.update_q_diagonal(tree.root_id, 2, H.hash_label("z"))
        rows = dict(tables.q_rows(tree.root_id))
        assert rows[2] == hashes("*", "a", "z")
        assert rows[3] == hashes("a", "z", "c")
        assert rows[4] == hashes("z", "c", "*")
        assert rows[1] == hashes("*", "*", "a")  # untouched

    def test_decode_anchor_children(self):
        tree, tables = tables_for("r(a,b,c)")
        assert tables.decode_anchor_children(tree.root_id) == hashes("a", "b", "c")

    def test_decode_leaf(self):
        _, tables = tables_for("r(a)")
        assert tables.decode_anchor_children(1) == ()

    def test_decode_requires_full_matrix(self):
        tree, tables = tables_for("r(a,b)")
        del tables.Q[tree.root_id][2]
        with pytest.raises(InvalidLogError):
            tables.decode_anchor_children(tree.root_id)

    def test_write_anchor_rows(self):
        _, tables = tables_for("r")
        tables.write_anchor_rows(99, hashes("x", "y"))
        rows = tables.q_rows(99)
        assert [row for row, _ in rows] == [1, 2, 3, 4]
        assert rows[1][1] == hashes("*", "x", "y")


class TestPPartMaintenance:
    def test_change_p_parts_levels(self):
        tree, tables = tables_for("r(a(b(c)))", GramConfig(3, 2))
        # Pretend node a (id 1) was renamed to z: s = (h(r)... level 0
        # replaces a's own tail, level 1 replaces b's middle, level 2
        # would touch c but d=1 stops before it.
        s = hashes("*", "r", "z")
        updated = tables.change_p_parts(1, s, 1)
        assert updated == 2
        assert tables.get_p(1)["ppart"] == hashes("*", "r", "z")
        assert tables.get_p(2)["ppart"] == hashes("r", "z", "b")
        assert tables.get_p(3)["ppart"] == hashes("a", "b", "c")  # untouched

    def test_change_p_parts_negative_distance_noop(self):
        _, tables = tables_for("r(a)")
        assert tables.change_p_parts(1, hashes("r", "a"), -1) == 0

    def test_shift_sib_positions(self):
        tree, tables = tables_for("r(a,b,c)")
        tables.shift_sib_positions(tree.root_id, 1, 5)
        assert tables.get_p(1)["sibPos"] == 1      # position 1: untouched
        assert tables.get_p(2)["sibPos"] == 7
        assert tables.get_p(3)["sibPos"] == 8

    def test_children_p_rows_ordered(self):
        tree, tables = tables_for("r(a,b,c)")
        rows = tables.children_p_rows(tree.root_id, 2, 3)
        assert [row["anchId"] for row in rows] == [2, 3]


class TestLabelBag:
    def test_join_counts(self):
        tree, tables = tables_for("r(a,a)")
        bag = tables.label_bag()
        assert bag[hashes("*", "r", "*", "*", "a")] == 1
        assert bag[hashes("r", "a", "*", "*", "*")] == 2  # two a-leaves
        assert sum(bag.values()) == tables.gram_count()

    def test_dangling_p_rows_contribute_nothing(self):
        tree, tables = tables_for("r(a)")
        tables.add_p_row(42, 1, tree.root_id, 0, hashes("r", "x"))
        bag = tables.label_bag()
        assert not any(key[-1] == H.hash_label("x") for key in bag)

    def test_q_row_without_p_row_rejected(self):
        _, tables = tables_for("r")
        tables.add_q_row(42, 1, hashes("*", "*", "*"))
        with pytest.raises(InvalidLogError):
            tables.label_bag()

    def test_no_anchor_index_mode_equivalent(self):
        tree, _ = tables_for("r(a(b),c)")
        fast = DeltaTables(GramConfig(2, 3), use_anchor_index=True)
        slow = DeltaTables(GramConfig(2, 3), use_anchor_index=False)
        for tables in (fast, slow):
            for node_id in tree.node_ids():
                tables.add_p_row_from_tree(tree, node_id, H)
                tables.add_all_q_rows_from_tree(tree, node_id, H)
        assert fast.label_bag() == slow.label_bag()
        assert fast.q_rows(tree.root_id) == slow.q_rows(tree.root_id)
        assert fast.q_rows_range(tree.root_id, 2, 3) == slow.q_rows_range(
            tree.root_id, 2, 3
        )
        assert fast.children_p_rows(tree.root_id, 1, 2) == slow.children_p_rows(
            tree.root_id, 1, 2
        )
