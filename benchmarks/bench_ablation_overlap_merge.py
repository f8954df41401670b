"""Ablation A8: merging overlapping delta regions (§10 future work).

"The deltas that we compute span several nodes and can overlap.  A
preprocessing step could merge overlapping regions to optimize the
computation of the deltas."  Our (P, Q) pair memoizes fully-stored
anchors, so overlapping deltas skip re-reading the same subtree
regions.  This ablation clusters many edits on a few records (deltas
overlap heavily) and compares the Δ⁺ phase with the memo against a
variant that recomputes every region.
"""

from __future__ import annotations

import random
import sys
from typing import List

import pytest

from repro.core import GramConfig, PQGramIndex
from repro.core.delta import delta_into_tables
from repro.core.tables import DeltaTables
from repro.datasets import dblp_tree
from repro.edits import EditOperation, Rename, apply_script
from repro.hashing import LabelHasher

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from conftest import emit, format_table, wall_time

RECORDS = 2_000
HOT_RECORDS = 5
CONFIG = GramConfig(3, 3)


def clustered_script(tree, operations: int, seed: int = 81) -> List[EditOperation]:
    """Rename churn clustered on a handful of records — maximally
    overlapping deltas."""
    rng = random.Random(seed)
    working = tree.copy()
    hot = rng.sample(list(working.children(working.root_id)), HOT_RECORDS)
    script: List[EditOperation] = []
    counter = 0
    while len(script) < operations:
        record = rng.choice(hot)
        fields = working.children(record)
        field = rng.choice(fields)
        leaves = working.children(field)
        target = leaves[0] if leaves else field
        counter += 1
        operation = Rename(target, f"v{counter}")
        operation.apply(working)
        script.append(operation)
    return script


def delta_phase(tree, log, hasher, merge: bool) -> int:
    tables = DeltaTables(CONFIG)
    if not merge:
        # Disable the memo: every delta re-reads its regions.
        class _AlwaysEmpty(set):
            def __contains__(self, item):  # noqa: D401
                return False

            def add(self, item):
                pass

            def discard(self, item):
                pass

        tables.full_anchors = _AlwaysEmpty()
    for inverse_op in log:
        delta_into_tables(tree, inverse_op, tables, hasher)
    return tables.gram_count()


@pytest.fixture(scope="module")
def scenario():
    tree = dblp_tree(RECORDS, seed=80)
    hasher = LabelHasher()
    script = clustered_script(tree, 400)
    edited, log = apply_script(tree, script)
    return edited, log, hasher


def test_delta_phase_with_merge(benchmark, scenario):
    edited, log, hasher = scenario
    benchmark(lambda: delta_phase(edited, log, hasher, merge=True))


def test_delta_phase_without_merge(benchmark, scenario):
    edited, log, hasher = scenario
    benchmark.pedantic(
        lambda: delta_phase(edited, log, hasher, merge=False),
        rounds=3,
        iterations=1,
    )


def deep_scenario(operations: int):
    """Rename churn on phrase nodes high in deep parse trees: with
    p = 4, each delta spans a three-level subtree frontier, so
    clustered deltas overlap massively."""
    from treebank import treebank_tree

    tree = treebank_tree(8_000, seed=80)
    sentences = tree.children(tree.root_id)[:5]
    hot = [child for s in sentences for child in tree.children(s)][:8]
    rng = random.Random(83)
    working = tree.copy()
    script: List[EditOperation] = []
    for counter in range(operations):
        operation = Rename(rng.choice(hot), f"v{counter}")
        operation.apply(working)
        script.append(operation)
    return apply_script(tree, script)


def run_full_series() -> str:
    hasher = LabelHasher()
    rows = []
    flat_tree = dblp_tree(RECORDS, seed=80)
    for name, config, make in (
        ("flat/DBLP p=3", GramConfig(3, 3),
         lambda ops: apply_script(flat_tree, clustered_script(flat_tree, ops))),
        ("deep/treebank p=4", GramConfig(4, 3), deep_scenario),
    ):
        for operations in (100, 400):
            edited, log = make(operations)

            def phase(merge, edited=edited, log=log, config=config):
                tables = DeltaTables(config)
                if not merge:
                    class _AlwaysEmpty(set):
                        def __contains__(self, item):
                            return False

                        def add(self, item):
                            pass

                        def discard(self, item):
                            pass

                    tables.full_anchors = _AlwaysEmpty()
                for inverse_op in log:
                    delta_into_tables(edited, inverse_op, tables, hasher)
                return tables.gram_count()

            assert phase(True) == phase(False)
            merged_seconds = wall_time(lambda: phase(True), repeats=2)
            raw_seconds = wall_time(lambda: phase(False), repeats=2)
            rows.append(
                (
                    name,
                    operations,
                    f"{merged_seconds * 1e3:.2f}",
                    f"{raw_seconds * 1e3:.2f}",
                    f"{raw_seconds / merged_seconds:.1f}x",
                )
            )
    return format_table(
        (
            "workload",
            "clustered ops",
            "Δ+ merged [ms]",
            "Δ+ recomputed [ms]",
            "speedup",
        ),
        rows,
    )


if __name__ == "__main__":
    emit(
        "ablation_a8_overlap_merge.txt",
        f"Ablation A8 — overlapping delta regions "
        f"({HOT_RECORDS} hot records, tablewise delta phase)",
        run_full_series(),
    )
