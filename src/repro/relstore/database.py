"""Databases: named tables plus durable snapshots.

A snapshot file starts with a magic header, then for every table its
name, schema, primary key, index definitions and rows, all written with
the codec from :mod:`repro.relstore.codec`, then a CRC32 of that body.
``save``/``load`` round trips are exact, which the persistence tests
assert property-based; a file whose checksum or decoding fails raises
:class:`~repro.errors.CodecError`, never a partial database.  Files of
the previous format (magic ``RPDB\\x01``, no checksum) still load.
"""

from __future__ import annotations

import os
import zlib
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.errors import CodecError, StorageError
from repro.relstore.codec import decode_row, decode_value, encode_row, encode_value
from repro.relstore.schema import Column, Schema
from repro.relstore.table import Table

_MAGIC = b"RPDB\x02"
#: the format before the checksum trailer: read, never written
_MAGIC_UNCHECKED = b"RPDB\x01"
_CRC_BYTES = 4

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
        """Write an atomic snapshot of every table to ``path``."""
        # Imported here: the service package imports this module.
        from repro.service import failpoints

        out = bytearray(_MAGIC)
        encode_value(len(self._tables), out)
        for table in self._tables.values():
            self._encode_table(table, out)
        checksum = zlib.crc32(memoryview(out)[len(_MAGIC) :])
        out.extend(checksum.to_bytes(_CRC_BYTES, "little"))
        tmp_path = f"{path}.tmp"
        with open(tmp_path, "wb") as handle:
            failpoints.write("database.write", handle, bytes(out))
            handle.flush()
            failpoints.run("database.fsync", os.fsync, handle.fileno())
        failpoints.run("database.replace", os.replace, tmp_path, path)
        # Callers discard what the snapshot supersedes (the store
        # truncates its WAL) as soon as this returns, so the rename
        # itself has to be on disk, not only the file's contents.
        failpoints.run(
            "database.fsync_directory",
            fsync_directory,
            os.path.dirname(path) or ".",
        )

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


def fsync_directory(directory: str) -> None:
    """Make a rename or creation inside ``directory`` durable; a no-op
    where the platform or file system cannot fsync a directory."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(fd)


def tuple_to_value(names: Sequence[str]) -> str:
    """Encode a name list as one string (names cannot contain NUL)."""
    return "\x00".join(names)


def value_to_tuple(value: str) -> Tuple[str, ...]:
    """Inverse of :func:`tuple_to_value`."""
    if not value:
        return ()
    return tuple(value.split("\x00"))
