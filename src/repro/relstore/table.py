"""Tables: rows, primary key, secondary indexes, selections and updates.

Rows are plain tuples laid out by the table's :class:`~repro.relstore.schema.Schema`.
Every table has an internal monotonically increasing *row id* that the
indexes reference, so updating a row never invalidates index entries of
other rows.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import DuplicateKeyError, SchemaError, StorageError
from repro.relstore.index import HashIndex, SortedIndex
from repro.relstore.schema import Schema

Row = Tuple[Any, ...]


class Table:
    """One relation with a mandatory unique primary key.

    >>> from repro.relstore import Column, Schema, Table
    >>> t = Table("P", Schema([Column("anchId", int), Column("ppart", tuple)]),
    ...           primary_key=("anchId",))
    >>> t.insert({"anchId": 7, "ppart": (0, 0, 3)})
    >>> t.get((7,))
    {'anchId': 7, 'ppart': (0, 0, 3)}
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        primary_key: Sequence[str],
    ) -> None:
        if not primary_key:
            raise SchemaError("a table needs a primary key")
        self.name = name
        self.schema = schema
        self._pk_names = tuple(primary_key)
        self._pk_offsets = schema.offsets(self._pk_names)
        self._rows: Dict[int, Row] = {}
        self._next_row_id = 0
        self._pk_index: Dict[Tuple[Any, ...], int] = {}
        self._indexes: Dict[str, HashIndex | SortedIndex] = {}

    # ------------------------------------------------------------------
    # index management
    # ------------------------------------------------------------------

    def create_index(
        self, index_name: str, columns: Sequence[str], kind: str = "hash"
    ) -> None:
        """Add a secondary index over ``columns``.

        ``kind`` is ``"hash"`` for equality lookups or ``"sorted"`` for
        range scans.  Existing rows are indexed immediately.
        """
        if index_name in self._indexes:
            raise StorageError(f"index {index_name!r} already exists")
        offsets = self.schema.offsets(columns)
        index: HashIndex | SortedIndex
        if kind == "hash":
            index = HashIndex(offsets)
        elif kind == "sorted":
            index = SortedIndex(offsets)
        else:
            raise StorageError(f"unknown index kind {kind!r}")
        for row_id, row in self._rows.items():
            index.add(row_id, row)
        self._indexes[index_name] = index

    def drop_index(self, index_name: str) -> None:
        """Remove a secondary index."""
        self._indexes.pop(index_name, None)

    def has_index(self, index_name: str) -> bool:
        """True iff the named secondary index exists."""
        return index_name in self._indexes

    # ------------------------------------------------------------------
    # primary-key helpers
    # ------------------------------------------------------------------

    def _pk_of(self, row: Row) -> Tuple[Any, ...]:
        return tuple(row[offset] for offset in self._pk_offsets)

    @staticmethod
    def _as_key(key: Any) -> Tuple[Any, ...]:
        return key if isinstance(key, tuple) else (key,)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def insert(self, values: Dict[str, Any]) -> None:
        """Insert a row given as a column → value mapping."""
        self.insert_row(self.schema.row_from_dict(values))

    def insert_row(self, row: Row) -> None:
        """Insert a row tuple (schema-checked)."""
        self.schema.check_row(row)
        key = self._pk_of(row)
        if key in self._pk_index:
            raise DuplicateKeyError(f"{self.name}: duplicate key {key!r}")
        row_id = self._next_row_id
        self._next_row_id += 1
        self._rows[row_id] = row
        self._pk_index[key] = row_id
        for index in self._indexes.values():
            index.add(row_id, row)

    def upsert(self, values: Dict[str, Any]) -> None:
        """Insert, or replace the row with the same primary key."""
        row = self.schema.row_from_dict(values)
        key = self._pk_of(row)
        if key in self._pk_index:
            self.delete(key)
        self.insert_row(row)

    def delete(self, key: Any) -> bool:
        """Delete by primary key; returns whether a row existed."""
        key = self._as_key(key)
        row_id = self._pk_index.pop(key, None)
        if row_id is None:
            return False
        row = self._rows.pop(row_id)
        for index in self._indexes.values():
            index.remove(row_id, row)
        return True

    def update(self, key: Any, changes: Dict[str, Any]) -> bool:
        """Point-update columns of the row with the given primary key.

        The primary key itself may change; uniqueness is enforced.
        Returns whether a row existed.
        """
        key = self._as_key(key)
        row_id = self._pk_index.get(key)
        if row_id is None:
            return False
        old_row = self._rows[row_id]
        values = self.schema.row_to_dict(old_row)
        values.update(changes)
        new_row = self.schema.row_from_dict(values)
        new_key = self._pk_of(new_row)
        if new_key != key and new_key in self._pk_index:
            raise DuplicateKeyError(f"{self.name}: duplicate key {new_key!r}")
        for index in self._indexes.values():
            index.remove(row_id, old_row)
        self._rows[row_id] = new_row
        del self._pk_index[key]
        self._pk_index[new_key] = row_id
        for index in self._indexes.values():
            index.add(row_id, new_row)
        return True

    def update_where(
        self,
        index_name: str,
        key: Any,
        transform: Callable[[Dict[str, Any]], Dict[str, Any]],
    ) -> int:
        """Apply ``transform`` to every row matched by a secondary index.

        ``transform`` receives the row as a dict and returns the changed
        columns.  Returns the number of rows updated.
        """
        matches = [self.schema.row_to_dict(row) for row in self.find(index_name, key)]
        for values in matches:
            pk = tuple(values[name] for name in self._pk_names)
            self.update(pk, transform(dict(values)))
        return len(matches)

    def delete_where(self, index_name: str, key: Any) -> int:
        """Delete every row matched by a secondary index lookup."""
        matches = [self.schema.row_to_dict(row) for row in self.find(index_name, key)]
        for values in matches:
            pk = tuple(values[name] for name in self._pk_names)
            self.delete(pk)
        return len(matches)

    def clear(self) -> None:
        """Remove all rows (indexes stay defined)."""
        self._rows.clear()
        self._pk_index.clear()
        for name, index in list(self._indexes.items()):
            offsets = index._key_offsets  # rebuild empty of same shape
            self._indexes[name] = type(index)(offsets)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def get(self, key: Any) -> Optional[Dict[str, Any]]:
        """Fetch one row by primary key, as a dict (or ``None``)."""
        row_id = self._pk_index.get(self._as_key(key))
        if row_id is None:
            return None
        return self.schema.row_to_dict(self._rows[row_id])

    def get_row(self, key: Any) -> Optional[Row]:
        """Fetch one row tuple by primary key (or ``None``)."""
        row_id = self._pk_index.get(self._as_key(key))
        if row_id is None:
            return None
        return self._rows[row_id]

    def find(self, index_name: str, key: Any) -> List[Row]:
        """Rows whose secondary-index key equals ``key``."""
        index = self._require_index(index_name)
        key = self._as_key(key)
        return [self._rows[row_id] for row_id in index.find(key)]

    def find_range(self, index_name: str, low: Any, high: Any) -> List[Row]:
        """Rows whose sorted-index key is within ``[low, high]``."""
        index = self._require_index(index_name)
        if not isinstance(index, SortedIndex):
            raise StorageError(f"index {index_name!r} does not support ranges")
        return [
            self._rows[row_id]
            for row_id in index.find_range(self._as_key(low), self._as_key(high))
        ]

    def scan(self) -> Iterator[Row]:
        """Iterate over all row tuples (insertion order)."""
        return iter(list(self._rows.values()))

    def _require_index(self, index_name: str) -> HashIndex | SortedIndex:
        try:
            return self._indexes[index_name]
        except KeyError:
            raise StorageError(
                f"table {self.name!r} has no index {index_name!r}"
            ) from None

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Table {self.name} rows={len(self._rows)}>"
