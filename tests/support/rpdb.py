"""The relstore ``Database`` and its snapshot file, kept as a test fixture.

Stores used to write ``store.db`` as a relstore snapshot: a magic
header, then for every table its name, schema, primary key, index
definitions and rows, every field a tagged type–length–value (``int``
as a zig-zag varint, ``str`` as UTF-8, ``float`` as an IEEE 754 double,
``bytes``, ``None`` and flat tuples of them), then a CRC32 of that body
(magic ``RPDB\\x02``; ``RPDB\\x01`` files have no checksum).  The
store now only reads such files (``repro.service.rpdb``); the tests
write them with :meth:`Database.save` to check that they still open.
``save``/``load`` round trips are exact; a file whose checksum or
decoding fails raises :class:`~repro.errors.CodecError`, never a
partial database.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from repro.errors import CodecError, StorageError
from repro.service.record import read_varint, unzigzag, write_varint, zigzag

from tests.support.relstore.schema import Column, Schema
from tests.support.relstore.table import Table

_MAGIC = b"RPDB\x02"
#: the format before the checksum trailer: read, never written
_MAGIC_UNCHECKED = b"RPDB\x01"
_CRC_BYTES = 4

_TAG_NONE = 0
_TAG_INT = 1
_TAG_STR = 2
_TAG_FLOAT = 3
_TAG_BYTES = 4
_TAG_TUPLE = 5

_TYPE_NAMES = {int: "int", str: "str", float: "float", bytes: "bytes", tuple: "tuple"}
_TYPES_BY_NAME = {name: tp for tp, name in _TYPE_NAMES.items()}


class Database:
    """A named collection of tables with save/load."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}

    def create_table(
        self, name: str, schema: Schema, primary_key: Sequence[str]
    ) -> Table:
        """Create and register a new table."""
        if name in self._tables:
            raise StorageError(f"table {name!r} already exists")
        table = Table(name, schema, primary_key)
        self._tables[name] = table
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table and its contents."""
        self._tables.pop(name, None)

    def table(self, name: str) -> Table:
        """Fetch a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise StorageError(f"no table named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> Iterator[Table]:
        """Iterate over all tables."""
        return iter(self._tables.values())

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write a snapshot of every table to ``path`` (temp file, then
        rename)."""
        out = bytearray(_MAGIC)
        encode_value(len(self._tables), out)
        for table in self._tables.values():
            self._encode_table(table, out)
        checksum = zlib.crc32(memoryview(out)[len(_MAGIC) :])
        out.extend(checksum.to_bytes(_CRC_BYTES, "little"))
        tmp_path = f"{path}.tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(bytes(out))
        os.replace(tmp_path, path)

    @classmethod
    def load(cls, path: str) -> "Database":
        """Read a snapshot written by :meth:`save`."""
        with open(path, "rb") as handle:
            data = handle.read()
        magic = data[: len(_MAGIC)]
        if magic == _MAGIC:
            body = data[len(_MAGIC) : -_CRC_BYTES]
            stored = data[len(_MAGIC) + len(body) :]
            if zlib.crc32(body).to_bytes(_CRC_BYTES, "little") != stored:
                raise CodecError(f"{path}: checksum mismatch")
        elif magic == _MAGIC_UNCHECKED:
            body = data[len(_MAGIC) :]
        else:
            raise CodecError(f"{path}: not a repro database snapshot")
        try:
            table_count, pos = decode_value(body, 0)
            database = cls()
            for _ in range(table_count):
                pos = database._decode_table(body, pos)
        except CodecError:
            raise
        except (StorageError, LookupError, ValueError, TypeError, AttributeError) as exc:
            # An unchecked file can decode into nonsense (a type name
            # that is no type, a duplicate key): still the codec's error.
            raise CodecError(f"{path}: undecodable snapshot ({exc!r})") from exc
        if pos != len(body):
            raise CodecError(f"{path}: {len(body) - pos} trailing bytes")
        return database

    @staticmethod
    def _encode_table(table: Table, out: bytearray) -> None:
        encode_value(table.name, out)
        encode_value(len(table.schema), out)
        for column in table.schema.columns:
            encode_value(column.name, out)
            encode_value(_TYPE_NAMES[column.type], out)
            encode_value(1 if column.nullable else 0, out)
        encode_value(tuple_to_value(table._pk_names), out)
        index_defs: List[Tuple[str, str, Tuple[str, ...]]] = []
        for index_name, index in table._indexes.items():
            columns = tuple(
                table.schema.names[offset] for offset in index._key_offsets
            )
            index_defs.append((index_name, index.kind, columns))
        encode_value(len(index_defs), out)
        for index_name, kind, columns in index_defs:
            encode_value(index_name, out)
            encode_value(kind, out)
            encode_value(tuple_to_value(columns), out)
        rows = list(table.scan())
        encode_value(len(rows), out)
        for row in rows:
            out.extend(encode_row(row))

    def _decode_table(self, data: bytes, pos: int) -> int:
        name, pos = decode_value(data, pos)
        column_count, pos = decode_value(data, pos)
        columns: List[Column] = []
        for _ in range(column_count):
            column_name, pos = decode_value(data, pos)
            type_name, pos = decode_value(data, pos)
            nullable, pos = decode_value(data, pos)
            columns.append(
                Column(column_name, _TYPES_BY_NAME[type_name], bool(nullable))
            )
        pk_value, pos = decode_value(data, pos)
        table = self.create_table(name, Schema(columns), value_to_tuple(pk_value))
        index_count, pos = decode_value(data, pos)
        for _ in range(index_count):
            index_name, pos = decode_value(data, pos)
            kind, pos = decode_value(data, pos)
            index_columns, pos = decode_value(data, pos)
            table.create_index(index_name, value_to_tuple(index_columns), kind)
        row_count, pos = decode_value(data, pos)
        for _ in range(row_count):
            row, pos = decode_row(data, pos)
            table.insert_row(row)
        return pos


def tuple_to_value(names: Sequence[str]) -> str:
    """Encode a name list as one string (names cannot contain NUL)."""
    return "\x00".join(names)


def value_to_tuple(value: str) -> Tuple[str, ...]:
    """Inverse of :func:`tuple_to_value`."""
    if not value:
        return ()
    return tuple(value.split("\x00"))


def encode_value(value: Any, out: bytearray) -> None:
    """Append the encoding of one value to ``out``."""
    if value is None:
        out.append(_TAG_NONE)
    elif isinstance(value, bool):
        raise CodecError("bool is not a supported storage type")
    elif isinstance(value, int):
        out.append(_TAG_INT)
        write_varint(out, zigzag(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_TAG_STR)
        write_varint(out, len(raw))
        out.extend(raw)
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out.extend(struct.pack("<d", value))
    elif isinstance(value, bytes):
        out.append(_TAG_BYTES)
        write_varint(out, len(value))
        out.extend(value)
    elif isinstance(value, tuple):
        out.append(_TAG_TUPLE)
        write_varint(out, len(value))
        for item in value:
            if isinstance(item, tuple):
                raise CodecError("nested tuples are not supported")
            encode_value(item, out)
    else:
        raise CodecError(f"cannot encode {type(value).__name__}")


def decode_value(data: bytes, pos: int) -> Tuple[Any, int]:
    """Decode one value at ``pos``; return ``(value, next_pos)``."""
    if pos >= len(data):
        raise CodecError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_INT:
        raw, pos = read_varint(data, pos)
        return unzigzag(raw), pos
    if tag == _TAG_STR:
        length, pos = read_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise CodecError("truncated string")
        return data[pos:end].decode("utf-8"), end
    if tag == _TAG_FLOAT:
        end = pos + 8
        if end > len(data):
            raise CodecError("truncated float")
        return struct.unpack("<d", data[pos:end])[0], end
    if tag == _TAG_BYTES:
        length, pos = read_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise CodecError("truncated bytes")
        return data[pos:end], end
    if tag == _TAG_TUPLE:
        length, pos = read_varint(data, pos)
        items: List[Any] = []
        for _ in range(length):
            item, pos = decode_value(data, pos)
            items.append(item)
        return tuple(items), pos
    raise CodecError(f"unknown tag {tag}")


def encode_row(row: Tuple[Any, ...]) -> bytes:
    """Encode a row tuple: a field count followed by the fields."""
    out = bytearray()
    write_varint(out, len(row))
    for value in row:
        encode_value(value, out)
    return bytes(out)


def decode_row(data: bytes, pos: int) -> Tuple[Tuple[Any, ...], int]:
    """Decode a row tuple at ``pos``; return ``(row, next_pos)``."""
    width, pos = read_varint(data, pos)
    values: List[Any] = []
    for _ in range(width):
        value, pos = decode_value(data, pos)
        values.append(value)
    return tuple(values), pos


def write_store_snapshot(path: str, checkpoint: Any, **meta: str) -> None:
    """Write a store checkpoint (``repro.service.checkpoint.Checkpoint``)
    at ``path`` as a relstore snapshot, the ``store.db`` of earlier
    versions: ``meta`` (p, q, ``commit_seq`` and the extra ``meta``
    rows given), ``documents`` and, with standing queries, ``subs`` and
    ``standing``."""
    database = Database()
    rows = database.create_table(
        "meta", Schema([Column("key", str), Column("value", str)]), ("key",)
    )
    for key, value in {
        "p": str(checkpoint.config.p),
        "q": str(checkpoint.config.q),
        "commit_seq": str(checkpoint.commit_seq),
        **meta,
    }.items():
        rows.insert({"key": key, "value": value})
    documents = database.create_table(
        "documents", Schema([Column("docId", int), Column("tree", bytes)]), ("docId",)
    )
    for row in checkpoint.documents:
        documents.insert_row(row)
    if checkpoint.subscriptions:
        subs = database.create_table(
            "subs", Schema([Column("queryId", str), Column("spec", str)]), ("queryId",)
        )
        standing = database.create_table(
            "standing",
            Schema([Column("queryId", str), Column("docId", int), Column("dist", float)]),
            ("queryId", "docId"),
        )
        for query_id, spec, members in checkpoint.subscriptions:
            subs.insert_row((query_id, json.dumps(spec, sort_keys=True)))
            for document_id, distance in sorted(members.items()):
                standing.insert_row((query_id, document_id, distance))
    database.save(path)
