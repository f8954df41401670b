"""Two relational operators over the store's tables.

Selections are the tables' own index reads
(:meth:`~tests.support.relstore.table.Table.find` and
:meth:`~tests.support.relstore.table.Table.find_range`); this module adds

- a hash :func:`join` building on the smaller input,
- :func:`group_count` for the bag arithmetic.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

from tests.support.relstore.table import Row, Table


def join(
    left: Table, right: Table, on: Tuple[str, str]
) -> Iterable[Tuple[Row, Row]]:
    """``left ⋈ right`` as a hash join built on the smaller side."""
    left_rows = list(left.scan())
    right_rows = list(right.scan())
    left_offset = left.schema.offset(on[0])
    right_offset = right.schema.offset(on[1])
    if len(left_rows) <= len(right_rows):
        buckets: Dict[Any, List[Row]] = {}
        for row in left_rows:
            buckets.setdefault(row[left_offset], []).append(row)
        for right_row in right_rows:
            for left_row in buckets.get(right_row[right_offset], ()):
                yield left_row, right_row
    else:
        buckets = {}
        for row in right_rows:
            buckets.setdefault(row[right_offset], []).append(row)
        for left_row in left_rows:
            for right_row in buckets.get(left_row[left_offset], ()):
                yield left_row, right_row


def group_count(values: Iterable[Any]) -> Dict[Any, int]:
    """SELECT value, COUNT(*) GROUP BY value — the bag constructor."""
    counts: Dict[Any, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    return counts
