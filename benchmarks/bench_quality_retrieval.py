"""Ablation A6: retrieval quality of the approximate lookup.

The paper's use case — "return all documents similar to the search
document" — implies a quality question its companion paper studies:
how well does thresholding the pq-gram distance separate true
near-duplicates from unrelated documents?  We plant edited copies of
query documents in a collection of unrelated ones and sweep τ,
reporting precision and recall of the lookup.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Set, Tuple

import pytest

from repro.core import GramConfig
from repro.datasets import dblp_tree
from repro.edits import apply_script
from repro.lookup import ForestIndex, LookupService
from repro.tree import Tree

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from conftest import emit, format_table
from dblp_workloads import dblp_update_script

QUERIES = 15
DISTRACTORS = 60
EDIT_OPS = (5, 25, 60)       # light / medium / heavy divergence
CONFIG = GramConfig(3, 3)
TAUS = (0.1, 0.2, 0.3, 0.4, 0.6)


def build_scenario() -> Tuple[List[Tree], ForestIndex, Dict[int, Set[int]]]:
    """Queries, an indexed collection, and ground-truth relevant ids."""
    queries: List[Tree] = []
    forest = ForestIndex(CONFIG)
    relevant: Dict[int, Set[int]] = {}
    tree_id = 0
    for query_number in range(QUERIES):
        base = dblp_tree(25, seed=query_number)
        queries.append(base)
        relevant[query_number] = set()
        for operations in EDIT_OPS:
            script = dblp_update_script(
                base, operations, seed=500 + query_number * 7 + operations
            )
            edited, _ = apply_script(base, script)
            forest.add_tree(tree_id, edited)
            relevant[query_number].add(tree_id)
            tree_id += 1
    for distractor in range(DISTRACTORS):
        forest.add_tree(tree_id, dblp_tree(25, seed=10_000 + distractor))
        tree_id += 1
    return queries, forest, relevant


@pytest.fixture(scope="module")
def scenario():
    return build_scenario()


def test_lookup_sweep(benchmark, scenario):
    queries, forest, _ = scenario
    service = LookupService(forest)
    results = benchmark(
        lambda: [service.lookup(query, 0.3) for query in queries]
    )
    assert all(result.trees_compared == len(forest) for result in results)


def run_full_series() -> str:
    queries, forest, relevant = build_scenario()
    service = LookupService(forest)
    rows = []
    for tau in TAUS:
        true_positives = false_positives = false_negatives = 0
        for query_number, query in enumerate(queries):
            found = set(service.lookup(query, tau).tree_ids())
            truth = relevant[query_number]
            true_positives += len(found & truth)
            false_positives += len(found - truth)
            false_negatives += len(truth - found)
        precision = (
            true_positives / (true_positives + false_positives)
            if true_positives + false_positives
            else 1.0
        )
        recall = true_positives / (true_positives + false_negatives)
        rows.append(
            (tau, f"{precision:.3f}", f"{recall:.3f}",
             true_positives, false_positives)
        )
    return format_table(
        ("tau", "precision", "recall", "true pos", "false pos"), rows
    )


if __name__ == "__main__":
    emit(
        "ablation_a6_retrieval_quality.txt",
        f"Ablation A6 — lookup precision/recall "
        f"({QUERIES} queries x {len(EDIT_OPS)} planted duplicates, "
        f"{DISTRACTORS} distractors, 3,3-grams)",
        run_full_series(),
    )
