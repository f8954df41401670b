"""The two relational operators Algorithm 1 needs over the store's tables.

The paper expresses its maintenance algorithms in relational algebra —
selections like ``σ_{anchId=n, k ≤ row ≤ m+q-1}(Q)``, the join
``λ(P, Q) = π_{ppart ∘ qpart}(P ⋈ Q)`` (Eq. 31) — and implements them
as SQL over an RDBMS.  Selections are the tables' own index reads
(:meth:`~repro.relstore.table.Table.find` and
:meth:`~repro.relstore.table.Table.find_range`); this module adds

- a hash :func:`join` building on the smaller input,
- :func:`group_count` for the bag arithmetic.

``DeltaTables.label_bag`` evaluates Eq. 31 through this layer.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

from repro.relstore.table import Row, Table


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
