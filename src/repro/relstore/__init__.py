"""A small embedded relational store.

The paper stores the pq-gram index and the temporary delta tables in an
RDBMS and expresses its maintenance algorithms as relational selections
and updates (Sections 8.1–8.4).  This package is the corresponding
substrate: schema'd tables with hash and sorted secondary indexes and
composite primary keys, held in memory (the paper's algorithms as
written run on it; the production engine and the store do not).

It is deliberately *not* a SQL engine — the algorithms only need exact
selections, range selections, point updates, scans and one join, so
that is the whole query surface.
"""

from repro.relstore.schema import Column, Schema
from repro.relstore.table import Table
from repro.relstore.index import HashIndex, SortedIndex
from repro.relstore.query import group_count, join

__all__ = [
    "Column",
    "Schema",
    "Table",
    "HashIndex",
    "SortedIndex",
    "join",
    "group_count",
]
