"""Relational-algebra layer tests: index selections, join, bags."""

import pytest

from repro.relstore import Column, Schema, Table
from repro.relstore.query import group_count, join


def sample_table():
    table = Table(
        "t",
        Schema(
            [
                Column("id", int),
                Column("kind", str),
                Column("size", int),
                Column("parent", int, nullable=True),
            ]
        ),
        primary_key=("id",),
    )
    table.create_index("by_kind", ("kind",), kind="hash")
    table.create_index("by_parent_size", ("parent", "size"), kind="sorted")
    for i in range(20):
        table.insert(
            {
                "id": i,
                "kind": "even" if i % 2 == 0 else "odd",
                "size": i * 10,
                "parent": i % 4,
            }
        )
    return table


class TestSelection:
    def test_results_match_scan_filter(self):
        """Each index read returns exactly the rows a filtered scan
        keeps: an equality on the hash index, an equality prefix plus
        a range on the sorted index, and a full composite key."""
        table = sample_table()
        rows = list(table.scan())
        for got, keep in (
            (table.find("by_kind", "odd"), lambda row: row[1] == "odd"),
            (
                table.find_range("by_parent_size", (2, 0), (2, 120)),
                lambda row: row[3] == 2 and 0 <= row[2] <= 120,
            ),
            (
                table.find_range("by_parent_size", (1, 0), (2, 10**6)),
                lambda row: row[3] in (1, 2),
            ),
            (table.find("by_parent_size", (0, 40)), lambda row: row[0] == 4),
        ):
            assert sorted(got) == sorted(row for row in rows if keep(row))

    def test_range_excludes_null(self):
        table = Table(
            "n",
            Schema([Column("id", int), Column("v", int, nullable=True)]),
            primary_key=("id",),
        )
        table.create_index("by_v", ("v",), kind="sorted")
        table.insert({"id": 1, "v": None})
        table.insert({"id": 2, "v": 5})
        assert table.find_range("by_v", 0, 10) == [(2, 5)]


class TestJoinProjectGroup:
    def test_hash_join_pairs(self):
        left = sample_table()
        right = Table(
            "names",
            Schema([Column("parent", int), Column("name", str)]),
            primary_key=("parent",),
        )
        for parent in range(4):
            right.insert({"parent": parent, "name": f"p{parent}"})
        pairs = list(join(left, right, on=("parent", "parent")))
        assert len(pairs) == 20  # every left row finds its parent name
        for left_row, right_row in pairs:
            assert left_row[3] == right_row[0]

    def test_join_with_predicates(self):
        """Selections apply to the join's output pairs; ``join`` itself
        takes no predicates."""
        left = sample_table()
        right = sample_table()
        pairs = [
            (left_row, right_row)
            for left_row, right_row in join(left, right, on=("id", "id"))
            if left_row[1] == "even" and 0 <= right_row[2] <= 50
        ]
        assert sorted(left_row[0] for left_row, _ in pairs) == [0, 2, 4]
        with pytest.raises(TypeError):
            join(left, right, on=("id", "id"), left_predicate=None)

    def test_project_bag_semantics(self):
        table = sample_table()
        counts = group_count(row[1] for row in table.scan())
        assert counts == {"even": 10, "odd": 10}

    def test_group_count(self):
        assert group_count(["a", "b", "a"]) == {"a": 2, "b": 1}
        assert group_count([]) == {}


class TestEq31Integration:
    def test_label_bag_through_algebra(self, paper_tree_t0, hasher):
        """λ(P, Q) via the algebra equals the profile's label bag."""
        from repro.core import GramConfig, compute_profile
        from repro.core.tables import DeltaTables

        config = GramConfig(3, 3)
        tables = DeltaTables(config)
        for node_id in paper_tree_t0.node_ids():
            tables.add_p_row_from_tree(paper_tree_t0, node_id, hasher)
            tables.add_all_q_rows_from_tree(paper_tree_t0, node_id, hasher)
        expected = compute_profile(paper_tree_t0, config).label_bag(hasher)
        assert tables.label_bag() == expected


class TestEdgeCases:
    """Degenerate inputs the backends lean on: empty relations, empty
    ranges, composite keys, and mixed hash+sorted conjunctions."""

    def empty_table(self, name="e"):
        return Table(
            name,
            Schema([Column("id", int), Column("kind", str)]),
            primary_key=("id",),
        )

    def test_select_and_join_on_empty_tables(self):
        left = self.empty_table("left")
        left.create_index("by_kind", ("kind",), kind="hash")
        right = self.empty_table("right")
        assert left.find("by_kind", "even") == []
        assert list(left.scan()) == []
        assert list(join(left, right, on=("id", "id"))) == []
        # One empty side is enough to empty the join.
        right.insert({"id": 1, "kind": "odd"})
        assert list(join(left, right, on=("id", "id"))) == []
        assert list(join(right, left, on=("id", "id"))) == []

    def test_group_count_on_empty_input(self):
        assert group_count([]) == {}
        assert group_count(row[1] for row in self.empty_table().scan()) == {}

    def test_empty_and_inverted_ranges(self):
        table = sample_table()
        assert table.find_range("by_parent_size", (1, 55), (1, 55)) == []
        # inverted: empty
        assert table.find_range("by_parent_size", (1, 100), (1, 10)) == []
        assert table.find_range("by_parent_size", (1, 500), (1, 10)) == []

    def test_composite_key_range_on_sorted_index(self):
        table = sample_table()
        # Equality prefix + range over the ("parent", "size") sorted key.
        rows = table.find_range("by_parent_size", (2, 20), (2, 140))
        expected = [
            row
            for row in table.scan()
            if row[3] == 2 and 20 <= row[2] <= 140
        ]
        assert rows and sorted(rows) == sorted(expected)
        # A range spanning prefixes runs in key order, not size order.
        spanning = table.find_range("by_parent_size", (1, 0), (2, 10**6))
        assert [(row[3], row[2]) for row in spanning] == sorted(
            (row[3], row[2]) for row in table.scan() if row[3] in (1, 2)
        )

    def test_and_mixing_hash_and_sorted_coverage(self):
        table = sample_table()
        # kind is hash-indexed; (parent, size) is the sorted index.  A
        # range read on one plus a residual filter on the other keeps
        # exactly the rows a full scan does, whichever index reads.
        def wanted(row):
            return row[1] == "even" and row[3] == 2 and 0 <= row[2] <= 120

        expected = sorted(row for row in table.scan() if wanted(row))
        by_range = table.find_range("by_parent_size", (2, 0), (2, 120))
        by_hash = table.find("by_kind", "even")
        assert sorted(row for row in by_range if wanted(row)) == expected
        assert sorted(row for row in by_hash if wanted(row)) == expected

    def test_join_on_composite_projected_values(self):
        table = sample_table()
        other = Table(
            "sizes",
            Schema([Column("size", int), Column("note", str)]),
            primary_key=("size",),
        )
        other.insert({"size": 40, "note": "forty"})
        other.insert({"size": 160, "note": "one-sixty"})
        pairs = list(join(table, other, on=("size", "size")))
        assert {left[0] for left, _ in pairs} == {4, 16}
        assert group_count(left[1] for left, _ in pairs) == {"even": 2}
