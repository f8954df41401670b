"""A small embedded relational store: the layer older versions wrote
``store.db`` with.

Schema'd tables with hash and sorted secondary indexes and composite
primary keys, held in memory, with exact selections, range
selections, point updates, scans and one join.  Nothing under
``src/repro`` uses it: the fixture :mod:`tests.support.rpdb` (the old
``Database``) builds relstore snapshots on it, so the tests can check
that a current store still opens them through
:mod:`repro.service.rpdb`.
"""

from tests.support.relstore.index import HashIndex, SortedIndex
from tests.support.relstore.query import group_count, join
from tests.support.relstore.schema import Column, Schema
from tests.support.relstore.table import Table

__all__ = [
    "Column",
    "Schema",
    "Table",
    "HashIndex",
    "SortedIndex",
    "join",
    "group_count",
]
