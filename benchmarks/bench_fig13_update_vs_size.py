"""Fig. 13 (right): index construction vs. incremental update, as a
function of tree size.

Paper setup: XMark trees up to 27M nodes; the from-scratch index build
time grows linearly with the tree while the incremental update (fixed
log) is nearly independent of the tree size.

Scaled setup: XMark-like trees swept x2 from 2k to 32k nodes, a fixed
log of 20 record-local operations; the maintenance engine and the
paper's Algorithm 1 (tablewise) measured.
"""

from __future__ import annotations

import sys

import pytest

from repro.baselines import rebuild_index
from repro.core import (
    GramConfig,
    PQGramIndex,
    update_index,
    update_index_tablewise,
)
from repro.datasets import dblp_tree
from repro.edits import apply_script
from repro.hashing import LabelHasher

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from conftest import emit, format_table, wall_time
from dblp_workloads import dblp_update_script

TREE_SIZES = (2_000, 4_000, 8_000, 16_000, 32_000)
LOG_SIZE = 20
CONFIG = GramConfig(3, 3)


def scenario(node_budget: int):
    tree = dblp_tree(node_budget // 11, seed=node_budget)
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, CONFIG, hasher)
    script = dblp_update_script(tree, LOG_SIZE, seed=7, stable=True)
    edited, log = apply_script(tree, script)
    return tree, old_index, edited, log, hasher


@pytest.fixture(scope="module")
def medium_scenario():
    return scenario(8_000)


def test_rebuild_from_scratch(benchmark, medium_scenario):
    _, _, edited, _, hasher = medium_scenario
    index = benchmark.pedantic(
        lambda: rebuild_index(edited, CONFIG, hasher), rounds=3, iterations=1
    )
    assert index.size() > 0


def test_incremental_update(benchmark, medium_scenario):
    _, old_index, edited, log, hasher = medium_scenario
    index = benchmark(
        lambda: update_index(old_index, edited, log, hasher)
    )
    assert index.size() > 0


def test_incremental_update_tablewise(benchmark, medium_scenario):
    _, old_index, edited, log, hasher = medium_scenario
    index = benchmark(
        lambda: update_index_tablewise(old_index, edited, log, hasher)
    )
    assert index.size() > 0


def run_full_series() -> str:
    rows = []
    for node_budget in TREE_SIZES:
        tree, old_index, edited, log, hasher = scenario(node_budget)
        rebuild_seconds = wall_time(
            lambda: rebuild_index(edited, CONFIG, hasher), repeats=2
        )
        update_seconds = wall_time(
            lambda: update_index(old_index, edited, log, hasher), repeats=3
        )
        tablewise_seconds = wall_time(
            lambda: update_index_tablewise(old_index, edited, log, hasher),
            repeats=3,
        )
        rows.append(
            (
                len(tree),
                f"{rebuild_seconds * 1e3:.1f}",
                f"{update_seconds * 1e3:.2f}",
                f"{tablewise_seconds * 1e3:.2f}",
            )
        )
    return format_table(
        ("tree nodes", "rebuild [ms]", "update [ms]", "update/tablewise [ms]"),
        rows,
    )


if __name__ == "__main__":
    emit(
        "fig13_right_update_vs_size.txt",
        "Fig. 13 (right) — from-scratch build vs. incremental update "
        f"({LOG_SIZE}-operation logs, 3,3-grams)",
        run_full_series(),
    )
