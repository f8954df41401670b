"""Ablation A3: log preprocessing (Section 10 future work).

"Later edit operations in the log might undo earlier ones. In future
we will investigate how the log can be preprocessed in order to
eliminate redundant edit operations."  We implement two reductions
(rename-chain collapse, insert/delete annihilation) and measure the
update-time gain on adversarially redundant workloads.
"""

from __future__ import annotations

import random
import sys
from typing import List

import pytest

from repro.core import GramConfig, PQGramIndex, update_index_batch_delta
from repro.datasets import dblp_tree
from repro.edits import Delete, Insert, Rename, apply_script, reduce_log
from repro.edits.ops import EditOperation
from repro.hashing import LabelHasher

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from conftest import emit, format_table, wall_time

RECORDS = 1_000
CONFIG = GramConfig(3, 3)


def maintain_verbatim(old_index, edited, log, hasher) -> PQGramIndex:
    """The engine with its own log compaction off, so the two arms
    differ only in the script-level reduction."""
    new_index, _, _ = update_index_batch_delta(
        old_index, edited, log, hasher, compact=False
    )
    return new_index


def churn_script(tree, operations: int, seed: int = 61) -> List[EditOperation]:
    """A redundant script: rename churn on a few fields plus
    insert-then-delete leaf pairs."""
    rng = random.Random(seed)
    working = tree.copy()
    script: List[EditOperation] = []
    records = list(working.children(working.root_id))
    hot_targets = []
    for record in rng.sample(records, 5):
        field = working.children(record)[0]
        leaves = working.children(field)
        hot_targets.append(leaves[0] if leaves else field)
    while len(script) < operations:
        if rng.random() < 0.7:
            target = rng.choice(hot_targets)
            new_label = f"churn-{rng.randint(0, 3)}"
            if working.label(target) != new_label:
                operation = Rename(target, new_label)
            else:
                operation = Rename(target, new_label + "'")
            operation.apply(working)
            script.append(operation)
        else:
            record = rng.choice(records)
            node_id = working.fresh_id()
            insert = Insert(node_id, "tmp", record, 1, 0)
            insert.apply(working)
            script.append(insert)
            if len(script) < operations:
                delete = Delete(node_id)
                delete.apply(working)
                script.append(delete)
    return script


@pytest.fixture(scope="module")
def base():
    tree = dblp_tree(RECORDS, seed=62)
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, CONFIG, hasher)
    return tree, old_index, hasher


def _scenarios(tree, operations, seed=61):
    raw_script = churn_script(tree, operations, seed)
    reduced_script = reduce_log(tree, raw_script)
    edited_raw, raw_log = apply_script(tree, raw_script)
    edited_reduced, reduced_log = apply_script(tree, reduced_script)
    assert edited_raw == edited_reduced
    return edited_raw, raw_log, reduced_log


def test_update_with_raw_log(benchmark, base):
    tree, old_index, hasher = base
    edited, raw_log, _ = _scenarios(tree, 200)
    benchmark(lambda: maintain_verbatim(old_index, edited, raw_log, hasher))


def test_update_with_reduced_log(benchmark, base):
    tree, old_index, hasher = base
    edited, _, reduced_log = _scenarios(tree, 200)
    benchmark(lambda: maintain_verbatim(old_index, edited, reduced_log, hasher))


def run_full_series() -> str:
    tree = dblp_tree(RECORDS, seed=62)
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, CONFIG, hasher)
    rows = []
    for operations in (50, 200, 800):
        edited, raw_log, reduced_log = _scenarios(tree, operations)
        raw_seconds = wall_time(
            lambda: maintain_verbatim(old_index, edited, raw_log, hasher),
            repeats=2,
        )
        reduced_seconds = wall_time(
            lambda: maintain_verbatim(old_index, edited, reduced_log, hasher),
            repeats=2,
        )
        raw_result = maintain_verbatim(old_index, edited, raw_log, hasher)
        reduced_result = maintain_verbatim(old_index, edited, reduced_log, hasher)
        assert raw_result == reduced_result
        rows.append(
            (
                operations,
                len(reduced_log),
                f"{raw_seconds * 1e3:.2f}",
                f"{reduced_seconds * 1e3:.2f}",
                f"{raw_seconds / max(reduced_seconds, 1e-9):.1f}x",
            )
        )
    return format_table(
        (
            "raw log ops",
            "reduced log ops",
            "update raw [ms]",
            "update reduced [ms]",
            "speedup",
        ),
        rows,
    )


if __name__ == "__main__":
    emit(
        "ablation_a3_log_reduction.txt",
        f"Ablation A3 — redundant-log preprocessing "
        f"(DBLP-like, {RECORDS} records, churn workload)",
        run_full_series(),
    )
