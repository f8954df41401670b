"""Unit tests for the embedded relational store."""

import pytest

from repro.errors import DuplicateKeyError, SchemaError, StorageError

from tests.support.relstore import Column, Schema, Table


def make_table():
    schema = Schema(
        [
            Column("id", int),
            Column("name", str),
            Column("parent", int, nullable=True),
            Column("payload", tuple),
        ]
    )
    return Table("t", schema, primary_key=("id",))


class TestSchema:
    def test_offsets(self):
        schema = Schema([Column("a", int), Column("b", str)])
        assert schema.offset("b") == 1
        assert schema.offsets(("b", "a")) == (1, 0)
        with pytest.raises(SchemaError):
            schema.offset("missing")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Column("a", int), Column("a", str)])

    def test_type_checks(self):
        schema = Schema([Column("a", int), Column("b", str, nullable=True)])
        schema.check_row((1, None))
        with pytest.raises(SchemaError):
            schema.check_row(("x", "y"))
        with pytest.raises(SchemaError):
            schema.check_row((1, "y", 3))
        with pytest.raises(SchemaError):
            schema.check_row((None, "y"))  # non-nullable

    def test_bool_rejected(self):
        schema = Schema([Column("a", int)])
        with pytest.raises(SchemaError):
            schema.check_row((True,))

    def test_tuple_contents_checked(self):
        schema = Schema([Column("a", tuple)])
        schema.check_row(((1, 2),))
        with pytest.raises(SchemaError):
            schema.check_row((("x",),))

    def test_unsupported_type_rejected(self):
        with pytest.raises(SchemaError):
            Column("a", list)

    def test_row_dict_roundtrip(self):
        schema = Schema([Column("a", int), Column("b", str)])
        row = schema.row_from_dict({"a": 1, "b": "x"})
        assert schema.row_to_dict(row) == {"a": 1, "b": "x"}
        with pytest.raises(SchemaError):
            schema.row_from_dict({"a": 1, "b": "x", "zz": 2})


class TestTableCrud:
    def test_insert_get_delete(self):
        table = make_table()
        table.insert({"id": 1, "name": "a", "parent": None, "payload": (1,)})
        assert table.get(1)["name"] == "a"
        assert table.get((1,))["name"] == "a"
        assert table.delete(1)
        assert table.get(1) is None
        assert not table.delete(1)

    def test_duplicate_key_rejected(self):
        table = make_table()
        table.insert({"id": 1, "name": "a", "parent": None, "payload": ()})
        with pytest.raises(DuplicateKeyError):
            table.insert({"id": 1, "name": "b", "parent": None, "payload": ()})

    def test_upsert_replaces(self):
        table = make_table()
        table.insert({"id": 1, "name": "a", "parent": None, "payload": ()})
        table.upsert({"id": 1, "name": "b", "parent": None, "payload": ()})
        assert table.get(1)["name"] == "b"
        assert len(table) == 1

    def test_update_changes_key(self):
        table = make_table()
        table.insert({"id": 1, "name": "a", "parent": None, "payload": ()})
        assert table.update(1, {"id": 5})
        assert table.get(1) is None
        assert table.get(5)["name"] == "a"

    def test_update_key_collision_rejected(self):
        table = make_table()
        table.insert({"id": 1, "name": "a", "parent": None, "payload": ()})
        table.insert({"id": 2, "name": "b", "parent": None, "payload": ()})
        with pytest.raises(DuplicateKeyError):
            table.update(1, {"id": 2})

    def test_scan_order(self):
        table = make_table()
        for i in range(5):
            table.insert({"id": i, "name": str(i), "parent": None, "payload": ()})
        assert [row[0] for row in table.scan()] == [0, 1, 2, 3, 4]

    def test_clear(self):
        table = make_table()
        table.create_index("by_name", ("name",))
        table.insert({"id": 1, "name": "a", "parent": None, "payload": ()})
        table.clear()
        assert len(table) == 0
        assert table.find("by_name", "a") == []


class TestIndexes:
    def test_hash_index_lookup(self):
        table = make_table()
        table.create_index("by_name", ("name",))
        for i in range(6):
            table.insert({"id": i, "name": "even" if i % 2 == 0 else "odd",
                          "parent": None, "payload": ()})
        evens = table.find("by_name", "even")
        assert sorted(row[0] for row in evens) == [0, 2, 4]

    def test_index_follows_updates(self):
        table = make_table()
        table.create_index("by_name", ("name",))
        table.insert({"id": 1, "name": "a", "parent": None, "payload": ()})
        table.update(1, {"name": "b"})
        assert table.find("by_name", "a") == []
        assert len(table.find("by_name", "b")) == 1

    def test_sorted_index_range(self):
        table = make_table()
        table.create_index("by_parent", ("parent", "id"), kind="sorted")
        for i in range(10):
            table.insert({"id": i, "name": "n", "parent": i % 3, "payload": ()})
        rows = table.find_range("by_parent", (1, 0), (1, 99))
        assert sorted(row[0] for row in rows) == [1, 4, 7]

    def test_sorted_index_exact(self):
        table = make_table()
        table.create_index("by_parent", ("parent",), kind="sorted")
        table.insert({"id": 1, "name": "n", "parent": 7, "payload": ()})
        table.insert({"id": 2, "name": "n", "parent": 7, "payload": ()})
        assert sorted(row[0] for row in table.find("by_parent", 7)) == [1, 2]

    def test_range_on_hash_index_rejected(self):
        table = make_table()
        table.create_index("by_name", ("name",))
        with pytest.raises(StorageError):
            table.find_range("by_name", ("a",), ("b",))

    def test_late_index_covers_existing_rows(self):
        table = make_table()
        table.insert({"id": 1, "name": "a", "parent": None, "payload": ()})
        table.create_index("by_name", ("name",))
        assert len(table.find("by_name", "a")) == 1

    def test_duplicate_index_name_rejected(self):
        table = make_table()
        table.create_index("x", ("name",))
        with pytest.raises(StorageError):
            table.create_index("x", ("name",))

    def test_update_where_and_delete_where(self):
        table = make_table()
        table.create_index("by_parent", ("parent",), kind="sorted")
        for i in range(4):
            table.insert({"id": i, "name": "n", "parent": 1, "payload": ()})
        changed = table.update_where(
            "by_parent", 1, lambda row: {"name": row["name"] + "!"}
        )
        assert changed == 4
        assert all(row[1] == "n!" for row in table.scan())
        removed = table.delete_where("by_parent", 1)
        assert removed == 4
        assert len(table) == 0
