"""Ablation A2: the anchor-id index on the temporary (P, Q) tables.

Section 8.1 of the paper: "An index on the anchor IDs proved to give a
substantial performance advantage."  The tablewise engine can run with
or without the secondary indexes on the delta tables (falling back to
full scans for every anchor selection); this ablation quantifies the
gap as the log grows.
"""

from __future__ import annotations

import sys

import pytest

from repro.core import GramConfig, PQGramIndex
from repro.core.maintain import update_index_timed
from repro.datasets import dblp_tree
from repro.edits import apply_script
from repro.hashing import LabelHasher

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from conftest import emit, format_table, wall_time
from dblp_workloads import dblp_update_script

RECORDS = 4_000
LOG_SIZES = (10, 100, 500, 2000)
CONFIG = GramConfig(3, 3)


@pytest.fixture(scope="module")
def base():
    tree = dblp_tree(RECORDS, seed=51)
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, CONFIG, hasher)
    script = dblp_update_script(tree, 50, seed=52, stable=True)
    edited, log = apply_script(tree, script)
    return old_index, edited, log, hasher


def test_update_with_anchor_index(benchmark, base):
    old_index, edited, log, hasher = base
    benchmark(
        lambda: update_index_timed(
            old_index, edited, log, hasher, use_anchor_index=True
        )
    )


def test_update_without_anchor_index(benchmark, base):
    old_index, edited, log, hasher = base
    benchmark.pedantic(
        lambda: update_index_timed(
            old_index, edited, log, hasher, use_anchor_index=False
        ),
        rounds=3,
        iterations=1,
    )


def run_full_series() -> str:
    tree = dblp_tree(RECORDS, seed=51)
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, CONFIG, hasher)
    rows = []
    for log_size in LOG_SIZES:
        script = dblp_update_script(tree, log_size, seed=52, stable=True)
        edited, log = apply_script(tree, script)
        repeats = 2 if log_size <= 500 else 1
        with_index = wall_time(
            lambda: update_index_timed(
                old_index, edited, log, hasher, use_anchor_index=True
            ),
            repeats=repeats,
        )
        without_index = wall_time(
            lambda: update_index_timed(
                old_index, edited, log, hasher, use_anchor_index=False
            ),
            repeats=repeats,
        )
        rows.append(
            (
                log_size,
                f"{with_index * 1e3:.2f}",
                f"{without_index * 1e3:.2f}",
                f"{without_index / with_index:.1f}x",
            )
        )
    # The index only pays off once the delta tables are large: at small
    # log sizes its maintenance overhead dominates, from a few hundred
    # operations on the full scans lose by a growing factor (the paper
    # ran far larger, disk-backed tables — hence its "substantial
    # advantage").
    return format_table(
        ("edit operations", "with index [ms]", "without index [ms]", "speedup"),
        rows,
    )


if __name__ == "__main__":
    emit(
        "ablation_a2_anchor_index.txt",
        f"Ablation A2 — anchor-id index on the (P,Q) delta tables "
        f"(DBLP-like, {RECORDS} records, tablewise engine)",
        run_full_series(),
    )
