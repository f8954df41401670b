"""Remaining edge-path coverage across subsystems."""

import pytest

from repro.core import GramConfig, PQGramIndex, index_distance
from repro.datasets import dblp_tree, xmark_tree
from repro.errors import StorageError
from repro.hashing import LabelHasher
from repro.relstore import Column, Schema
from repro.tree import Tree
from repro.xmlio import parse_xml, write_xml
from repro.xmlio.stream import stream_index_xml

from benchmarks.treebank import treebank_tree
from tests.support.rpdb import Database


class TestStreamingOnRealisticDocuments:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: dblp_tree(30, seed=1),
            lambda: xmark_tree(800, seed=2),
            lambda: treebank_tree(400, seed=3),
        ],
        ids=["dblp", "xmark", "treebank"],
    )
    def test_stream_equals_dom_on_dataset(self, make):
        tree = make()
        text = write_xml(tree)
        config = GramConfig(3, 3)
        streamed = stream_index_xml(text, config, LabelHasher())
        dom = PQGramIndex.from_tree(parse_xml(text), config, LabelHasher())
        assert streamed == dom


class TestRelstoreEdges:
    def test_drop_table_and_recreate(self):
        database = Database()
        schema = Schema([Column("k", int)])
        database.create_table("t", schema, ("k",))
        assert "t" in database
        database.drop_table("t")
        assert "t" not in database
        database.create_table("t", schema, ("k",))  # name reusable

    def test_duplicate_table_rejected(self):
        database = Database()
        schema = Schema([Column("k", int)])
        database.create_table("t", schema, ("k",))
        with pytest.raises(StorageError):
            database.create_table("t", schema, ("k",))

    def test_has_index_and_drop_index(self):
        from repro.relstore import Table

        table = Table("t", Schema([Column("k", int), Column("v", int)]), ("k",))
        table.create_index("by_v", ("v",))
        assert table.has_index("by_v")
        table.drop_index("by_v")
        assert not table.has_index("by_v")
        with pytest.raises(StorageError):
            table.find("by_v", 1)

    def test_empty_database_snapshot(self, tmp_path):
        path = str(tmp_path / "empty.db")
        Database().save(path)
        assert len(list(Database.load(path).tables())) == 0


class TestDistanceEdges:
    def test_two_singleton_trees(self):
        hasher = LabelHasher()
        config = GramConfig(3, 3)
        same = index_distance(
            PQGramIndex.from_tree(Tree("a"), config, hasher),
            PQGramIndex.from_tree(Tree("a"), config, hasher),
        )
        different = index_distance(
            PQGramIndex.from_tree(Tree("a"), config, hasher),
            PQGramIndex.from_tree(Tree("b"), config, hasher),
        )
        assert same == 0.0
        assert different == 1.0

    def test_empty_indexes_distance_zero(self):
        config = GramConfig(1, 1)
        assert index_distance(PQGramIndex(config), PQGramIndex(config)) == 0.0


class TestTreeFromEdgesErrors:
    def test_child_before_parent_rejected(self):
        from repro.errors import UnknownNodeError

        with pytest.raises(UnknownNodeError):
            Tree.from_edges((0, "r"), [(5, 1, "a")])

    def test_duplicate_child_id_rejected(self):
        from repro.errors import DuplicateNodeError

        with pytest.raises(DuplicateNodeError):
            Tree.from_edges((0, "r"), [(0, 1, "a"), (0, 1, "b")])


class TestStabilityCheckerEdges:
    def test_rename_only_log_with_huge_tree(self):
        from repro.core import is_address_stable
        from repro.edits import Rename

        tree = dblp_tree(100, seed=9)
        records = tree.children(tree.root_id)
        log = [Rename(record, f"kind{i}") for i, record in enumerate(records[:20])]
        assert is_address_stable(tree, log)

    def test_mixed_insert_scopes_counted_once_each(self):
        from repro.core import is_address_stable
        from repro.edits import Insert

        tree = dblp_tree(5, seed=10)
        records = tree.children(tree.root_id)
        # One insert per distinct record parent: stable.
        log = [
            Insert(tree.fresh_id() + offset, "x", record, 1, 0)
            for offset, record in enumerate(records)
        ]
        assert is_address_stable(tree, log)
        # Two inserts under the same record: unstable.
        log.append(Insert(tree.fresh_id() + 99, "y", records[0], 1, 0))
        assert not is_address_stable(tree, log)
