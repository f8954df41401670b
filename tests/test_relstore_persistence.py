"""Codec and snapshot persistence round trips."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.relstore import Column, Schema

from tests.support.rpdb import (
    Database,
    decode_row,
    decode_value,
    encode_row,
    encode_value,
)

scalar_values = st.one_of(
    st.none(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.text(max_size=40),
    st.floats(allow_nan=False),
    st.binary(max_size=40),
)

values = st.one_of(
    scalar_values,
    st.lists(
        st.one_of(st.integers(-(2**40), 2**40), st.text(max_size=10)), max_size=8
    ).map(tuple),
)


class TestCodec:
    @given(values)
    def test_value_roundtrip(self, value):
        out = bytearray()
        encode_value(value, out)
        decoded, pos = decode_value(bytes(out), 0)
        assert decoded == value
        assert pos == len(out)

    @given(st.lists(values, max_size=8).map(tuple))
    def test_row_roundtrip(self, row):
        data = encode_row(row)
        decoded, pos = decode_row(data, 0)
        assert decoded == row
        assert pos == len(data)

    def test_bool_rejected(self):
        with pytest.raises(CodecError):
            encode_value(True, bytearray())

    def test_nested_tuple_rejected(self):
        with pytest.raises(CodecError):
            encode_value(((1, 2),), bytearray())

    def test_truncation_detected(self):
        out = bytearray()
        encode_value("hello world", out)
        with pytest.raises(CodecError):
            decode_value(bytes(out[:-3]), 0)

    def test_unknown_tag_detected(self):
        with pytest.raises(CodecError):
            decode_value(b"\xff", 0)


class TestDatabaseSnapshots:
    def _sample_db(self):
        database = Database()
        table = database.create_table(
            "items",
            Schema(
                [
                    Column("id", int),
                    Column("label", str),
                    Column("weights", tuple),
                    Column("parent", int, nullable=True),
                ]
            ),
            primary_key=("id",),
        )
        table.create_index("by_label", ("label",))
        table.create_index("by_parent", ("parent", "id"), kind="sorted")
        table.insert({"id": 1, "label": "α", "weights": (1, 2), "parent": None})
        table.insert({"id": 2, "label": "b", "weights": (), "parent": 1})
        return database

    def test_roundtrip(self, tmp_path):
        database = self._sample_db()
        path = str(tmp_path / "snap.db")
        database.save(path)
        loaded = Database.load(path)
        table = loaded.table("items")
        assert len(table) == 2
        assert table.get(1)["label"] == "α"
        assert table.get(2)["parent"] == 1
        # Indexes survive and work.
        assert len(table.find("by_label", "b")) == 1
        assert len(table.find_range("by_parent", (1, 0), (1, 10))) == 1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_bytes(b"NOTADB")
        with pytest.raises(CodecError):
            Database.load(str(path))

    def test_missing_table_raises(self):
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            Database().table("nope")

    def test_save_is_atomic_replace(self, tmp_path):
        database = self._sample_db()
        path = str(tmp_path / "snap.db")
        database.save(path)
        database.table("items").insert(
            {"id": 3, "label": "c", "weights": (), "parent": None}
        )
        database.save(path)
        assert len(Database.load(path).table("items")) == 3

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.text(max_size=12),
                st.lists(st.integers(0, 2**60), max_size=5).map(tuple),
            ),
            max_size=30,
            unique_by=lambda row: row[0],
        )
    )
    def test_roundtrip_arbitrary_rows(self, rows, tmp_path_factory):
        database = Database()
        table = database.create_table(
            "t",
            Schema([Column("k", int), Column("s", str), Column("v", tuple)]),
            primary_key=("k",),
        )
        for key, text, payload in rows:
            table.insert({"k": key, "s": text, "v": payload})
        path = str(tmp_path_factory.mktemp("db") / "snap.db")
        database.save(path)
        loaded = Database.load(path).table("t")
        assert sorted(loaded.scan()) == sorted(table.scan())
