"""Per-object memory of the hot value classes (the `__slots__` satellite).

Measures the amortized bytes per instance with ``tracemalloc`` —
allocate a large batch, divide the traced delta by the batch size —
for the real (slotted) classes *and* for structurally identical
plain-dataclass shadows, so the before/after comparison is reproduced
live on every run instead of trusting historical numbers.  Run
standalone::

    PYTHONPATH=src python benchmarks/bench_memory_slots.py

Representative numbers on the development container (CPython 3.11,
Linux x86-64): Node 128.8 → 88.7 B (−31%), Insert 152.8 → 112.7 B
(−26%), Delete 120.8 → 80.7 B (−33%), Rename/Move similar — the
dropped ``__dict__`` saves ~40 B per instance, which is what matters
when a 32k-node profile materializes hundreds of thousands of Nodes.
(The pre-PR NamedTuple Node measured 104.2 B/obj; the slotted
dataclass at 88.7 B/obj beats that too while allowing `is_null` to
stay a cheap attribute.)
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from dataclasses import dataclass
from typing import Callable, List, Tuple

sys.path.insert(0, __file__.rsplit("/", 1)[0])
# The paper's reference stack lives in the test tree, under the repo root.
sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from conftest import emit, format_table

from repro.edits.move import Move
from repro.edits.ops import Delete, Insert, Rename
from repro.tree.node import Node

from tests.support.reference.gram import PQGram

BATCH = 50_000


# Unslotted shadows — same fields, no ``slots=True`` — stand in for the
# pre-optimization layout.
@dataclass(frozen=True)
class NodeNoSlots:
    id: object
    label: str


@dataclass(frozen=True)
class InsertNoSlots:
    node_id: int
    label: str
    parent_id: int
    k: int
    m: int


@dataclass(frozen=True)
class DeleteNoSlots:
    node_id: int


@dataclass(frozen=True)
class RenameNoSlots:
    node_id: int
    label: str


@dataclass(frozen=True)
class MoveNoSlots:
    node_id: int
    parent_id: int
    k: int


def bytes_per_object(factory: Callable[[int], object]) -> float:
    """Amortized bytes of one instance over a batch allocation."""
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    objects = [factory(i) for i in range(BATCH)]
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del objects
    return (after - before) / BATCH


PQ_NODES = (Node(1, "a"), Node(2, "b"), Node(3, "c"), Node(4, "d"))

PAIRS: List[Tuple[str, Callable[[int], object], Callable[[int], object]]] = [
    ("Node", lambda i: NodeNoSlots(i, "label"), lambda i: Node(i, "label")),
    (
        "Insert",
        lambda i: InsertNoSlots(i, "a", 0, 1, 0),
        lambda i: Insert(i, "a", 0, 1, 0),
    ),
    ("Delete", lambda i: DeleteNoSlots(i), lambda i: Delete(i)),
    ("Rename", lambda i: RenameNoSlots(i, "b"), lambda i: Rename(i, "b")),
    ("Move", lambda i: MoveNoSlots(i, 0, 1), lambda i: Move(i, 0, 1)),
]


def run_full_series() -> str:
    rows = []
    for name, unslotted, slotted in PAIRS:
        before = bytes_per_object(unslotted)
        after = bytes_per_object(slotted)
        rows.append(
            (
                name,
                f"{before:.1f}",
                f"{after:.1f}",
                f"{100.0 * (before - after) / before:.0f}%",
            )
        )
    # PQGram shares its node tuple across instances here, so the row
    # reports the gram object itself (the tuple is counted once).
    rows.append(
        ("PQGram", "-", f"{bytes_per_object(lambda i: PQGram(PQ_NODES, 2, 2)):.1f}", "-")
    )
    return format_table(
        ("class", "dict [B/obj]", "slots [B/obj]", "saved"), rows
    )


def test_hot_classes_are_slotted():
    """The optimization is meaningless if __dict__ sneaks back in."""
    for instance in (
        Node(1, "a"),
        PQGram(PQ_NODES, 2, 2),
        Insert(1, "a", 0, 1, 0),
        Delete(1),
        Rename(1, "b"),
        Move(1, 0, 1),
    ):
        assert not hasattr(instance, "__dict__")


def test_slots_actually_save_memory():
    for name, unslotted, slotted in PAIRS:
        assert bytes_per_object(slotted) < bytes_per_object(unslotted), name


if __name__ == "__main__":
    emit(
        "memory_slots.txt",
        f"Per-object memory, plain dataclass vs slots=True "
        f"(tracemalloc over {BATCH} instances)",
        run_full_series(),
    )
