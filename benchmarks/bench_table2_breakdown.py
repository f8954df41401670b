"""Table 2: breakdown of the index update time by phase.

Paper setup: DBLP, logs of 1/10/100/1000 edit operations; the phases
are the Δ⁺ computation, λ(Δ⁺), the Δ⁻ computation (U passes), λ(Δ⁻)
and the final bag update of I_0.  Findings: the Δ⁺ and Δ⁻ phases are
approximately linear in the log size, the λ() conversions are
negligible, and the final bag update is sublinear.

Scaled setup: DBLP-like bibliography (~65k nodes), same log sizes, the
faithful tablewise engine (Algorithm 1) instrumented per phase.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.core import GramConfig, PQGramIndex
from repro.datasets import dblp_tree
from repro.edits import apply_script
from repro.hashing import LabelHasher

sys.path.insert(0, __file__.rsplit("/", 1)[0])
# The paper's reference stack lives in the test tree, under the repo root.
sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from conftest import emit, format_table
from dblp_workloads import dblp_update_script

from tests.support.reference import update_index_timed

RECORDS = 6_000
LOG_SIZES = (1, 10, 100, 1000)
CONFIG = GramConfig(3, 3)


@pytest.fixture(scope="module")
def base():
    tree = dblp_tree(RECORDS, seed=31)
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, CONFIG, hasher)
    return tree, old_index, hasher


def test_full_update_10_ops(benchmark, base):
    tree, old_index, hasher = base
    script = dblp_update_script(tree, 10, seed=32, stable=True)
    edited, log = apply_script(tree, script)
    benchmark(lambda: update_index_timed(old_index, edited, log, hasher))


def test_full_update_1000_ops(benchmark, base):
    tree, old_index, hasher = base
    script = dblp_update_script(tree, 1000, seed=32, stable=True)
    edited, log = apply_script(tree, script)
    benchmark.pedantic(
        lambda: update_index_timed(old_index, edited, log, hasher),
        rounds=3,
        iterations=1,
    )


def run_full_series() -> str:
    tree = dblp_tree(RECORDS, seed=31)
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, CONFIG, hasher)
    columns = {}
    for log_size in LOG_SIZES:
        script = dblp_update_script(tree, log_size, seed=32, stable=True)
        edited, log = apply_script(tree, script)
        _, timings = update_index_timed(old_index, edited, log, hasher)
        columns[log_size] = timings
    phases = (
        ("delta_plus", "Δ+"),
        ("lambda_plus", "I+ = λ(Δ+)"),
        ("delta_minus", "Δ-"),
        ("lambda_minus", "I- = λ(Δ-)"),
        ("index_update", "I0 \\ I- ∪ I+"),
    )
    rows = []
    for attribute, label in phases:
        rows.append(
            [label]
            + [f"{getattr(columns[size], attribute) * 1e3:.2f}" for size in LOG_SIZES]
        )
    rows.append(
        ["total"] + [f"{columns[size].total * 1e3:.2f}" for size in LOG_SIZES]
    )
    rows.append(
        ["pq-grams in Δ+"]
        + [str(columns[size].gram_count_plus) for size in LOG_SIZES]
    )
    headers = ["action [ms]"] + [f"{size} ops" for size in LOG_SIZES]
    return format_table(headers, rows)


if __name__ == "__main__":
    emit(
        "table2_breakdown.txt",
        f"Table 2 — breakdown of the index update time "
        f"(DBLP-like, {RECORDS} records, tablewise engine)",
        run_full_series(),
    )
