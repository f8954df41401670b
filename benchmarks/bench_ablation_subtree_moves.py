"""Ablation A7: native subtree moves vs. the node-operation lowering.

Section 10 of the paper defers "index updates for subtree operations"
to future work and simulates them as node-edit sequences.  We
implement both: ``repro.edits.compound.move_subtree_ops`` (the
lowering: delete the subtree bottom-up, re-insert it top-down, log
length O(|subtree|)) and ``repro.edits.move.Move`` (one log entry, the
subtree interior untouched).  This ablation measures log length and
maintenance time as the moved subtree grows.
"""

from __future__ import annotations

import sys

import pytest

from repro.core import GramConfig, PQGramIndex, update_index
from repro.edits import Move, apply_script, move_subtree_ops
from repro.hashing import LabelHasher
from repro.tree import Tree

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from conftest import emit, format_table, wall_time

CONFIG = GramConfig(3, 3)


def scenario(subtree_size: int):
    """A host tree with a dedicated subtree of the wanted size that is
    moved between two section nodes."""
    tree = Tree("root")
    source_section = tree.add_child(tree.root_id, "source")
    target_section = tree.add_child(tree.root_id, "target")
    moved_root = tree.add_child(source_section, "payload")
    # Grow the payload to the requested size (simple broad tree).
    frontier = [moved_root]
    while len(tree) < subtree_size + 3:
        parent = frontier[len(tree) % len(frontier)]
        frontier.append(tree.add_child(parent, f"n{len(tree) % 13}"))
    # Surrounding content so the parents are not trivial.
    for i in range(5):
        tree.add_child(source_section, f"s{i}")
        tree.add_child(target_section, f"t{i}")
    return tree, moved_root, target_section


@pytest.fixture(scope="module")
def medium():
    return scenario(400)


def test_native_move_update(benchmark, medium):
    tree, moved_root, target = medium
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, CONFIG, hasher)
    edited, log = apply_script(tree, [Move(moved_root, target, 1)])
    benchmark(lambda: update_index(old_index, edited, log, hasher))


def test_lowered_move_update(benchmark, medium):
    tree, moved_root, target = medium
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, CONFIG, hasher)
    operations, _ = move_subtree_ops(tree, moved_root, target, 1)
    edited, log = apply_script(tree, operations)
    benchmark.pedantic(
        lambda: update_index(old_index, edited, log, hasher),
        rounds=3,
        iterations=1,
    )


def run_full_series() -> str:
    hasher = LabelHasher()
    rows = []
    for subtree_size in (50, 200, 800, 3200):
        tree, moved_root, target = scenario(subtree_size)
        old_index = PQGramIndex.from_tree(tree, CONFIG, hasher)
        truth_base = None

        native_edited, native_log = apply_script(tree, [Move(moved_root, target, 1)])
        native_seconds = wall_time(
            lambda: update_index(old_index, native_edited, native_log, hasher),
            repeats=3,
        )
        native_index = update_index(
            old_index, native_edited, native_log, hasher
        )
        truth_base = PQGramIndex.from_tree(native_edited, CONFIG, hasher)
        assert native_index == truth_base

        operations, _ = move_subtree_ops(tree, moved_root, target, 1)
        lowered_edited, lowered_log = apply_script(tree, operations)
        lowered_seconds = wall_time(
            lambda: update_index(
                old_index, lowered_edited, lowered_log, hasher
            ),
            repeats=3,
        )
        rows.append(
            (
                subtree_size,
                1,
                len(lowered_log),
                f"{native_seconds * 1e3:.2f}",
                f"{lowered_seconds * 1e3:.2f}",
                f"{lowered_seconds / native_seconds:.0f}x",
            )
        )
    return format_table(
        (
            "subtree nodes",
            "native log ops",
            "lowered log ops",
            "native update [ms]",
            "lowered update [ms]",
            "native speedup",
        ),
        rows,
    )


if __name__ == "__main__":
    emit(
        "ablation_a7_subtree_moves.txt",
        "Ablation A7 — native subtree Move vs. delete+reinsert lowering "
        "(update_index, 3,3-grams)",
        run_full_series(),
    )
