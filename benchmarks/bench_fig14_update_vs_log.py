"""Fig. 14 (right): update time vs. number of edit operations (DBLP).

Paper setup: the real DBLP file (11M nodes); the incremental update
time is linear in the log size, up to several thousand operations.

Scaled setup: a DBLP-like bibliography of ~90k nodes (8k records);
logs of 1 … 1000 operations drawn from the accretion-plus-correction
workload; the maintenance engine and the paper's Algorithm 1
(tablewise) measured.
"""

from __future__ import annotations

import sys

import pytest

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

RECORDS = 8_000
LOG_SIZES = (1, 10, 100, 1000)
CONFIG = GramConfig(3, 3)


@pytest.fixture(scope="module")
def base():
    tree = dblp_tree(RECORDS, seed=21)
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, CONFIG, hasher)
    return tree, old_index, hasher


def _scenario(tree, log_size):
    script = dblp_update_script(tree, log_size, seed=22, stable=True)
    return apply_script(tree, script)


def test_update_100_ops(benchmark, base):
    tree, old_index, hasher = base
    edited, log = _scenario(tree, 100)
    benchmark(lambda: update_index(old_index, edited, log, hasher))


def test_update_100_ops_tablewise(benchmark, base):
    tree, old_index, hasher = base
    edited, log = _scenario(tree, 100)
    benchmark(lambda: update_index_tablewise(old_index, edited, log, hasher))


def run_full_series() -> str:
    tree = dblp_tree(RECORDS, seed=21)
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, CONFIG, hasher)
    rows = []
    for log_size in LOG_SIZES:
        edited, log = _scenario(tree, log_size)
        update_seconds = wall_time(
            lambda: update_index(old_index, edited, log, hasher),
            repeats=2,
        )
        tablewise_seconds = wall_time(
            lambda: update_index_tablewise(old_index, edited, log, hasher),
            repeats=2,
        )
        rows.append(
            (
                log_size,
                f"{update_seconds * 1e3:.2f}",
                f"{tablewise_seconds * 1e3:.2f}",
                f"{update_seconds * 1e3 / log_size:.3f}",
            )
        )
    return format_table(
        (
            "edit operations",
            "update [ms]",
            "update/tablewise [ms]",
            "update per op [ms]",
        ),
        rows,
    )


if __name__ == "__main__":
    emit(
        "fig14_right_update_vs_log.txt",
        f"Fig. 14 (right) — update time vs. log size "
        f"(DBLP-like, {RECORDS} records, 3,3-grams)",
        run_full_series(),
    )
