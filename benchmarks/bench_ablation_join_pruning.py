"""Ablation A4: join strategies on homogeneous vs. heterogeneous data.

The related work (Guha et al. 2002) motivates reducing the number of
distance computations in approximate XML joins.  Our sweep join runs
one candidate sweep of the right forest per left tree, accumulating
that tree's bag intersection with every co-occurring tree, so pairs
sharing no pq-gram never materialize.  Its cost is Σ_left Σ_key
|postings_right(key)| — great when most pairs are unrelated, no
better than the dense all-pairs loop when a shared schema makes all
pq-grams co-occur.  This ablation measures both regimes:

- **homogeneous**: one DBLP-like schema, every pair shares grams,
- **heterogeneous**: 12 disjoint label vocabularies (e.g. a data lake
  of differently-shaped documents), cross-group pairs share nothing.
"""

from __future__ import annotations

import sys
from typing import List, Tuple

import pytest

from repro.core import GramConfig
from repro.datasets import dblp_tree
from repro.datasets.random_trees import random_labelled_tree
from repro.edits import apply_script
from repro.lookup import ForestIndex, self_join, similarity_join_allpairs

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from conftest import emit, format_table, wall_time
from dblp_workloads import dblp_update_script

COLLECTION = 120
NEAR_DUPLICATES = 20
GROUPS = 12
CONFIG = GramConfig(3, 3)
TAU = 0.3


def homogeneous_forest() -> ForestIndex:
    forest = ForestIndex(CONFIG)
    trees = [dblp_tree(20, seed=seed) for seed in range(COLLECTION - NEAR_DUPLICATES)]
    for copy_number in range(NEAR_DUPLICATES):
        base = trees[copy_number]
        script = dblp_update_script(base, 6, seed=900 + copy_number, stable=True)
        edited, _ = apply_script(base, script)
        trees.append(edited)
    for tree_id, tree in enumerate(trees):
        forest.add_tree(tree_id, tree)
    return forest


def heterogeneous_forest() -> ForestIndex:
    forest = ForestIndex(CONFIG)
    per_group = COLLECTION // GROUPS
    tree_id = 0
    for group in range(GROUPS):
        alphabet = [f"g{group}_{letter}" for letter in "abcde"]
        for member in range(per_group):
            tree = random_labelled_tree(
                200, seed=group * 1000 + member, alphabet=alphabet
            )
            forest.add_tree(tree_id, tree)
            tree_id += 1
    return forest


@pytest.fixture(scope="module")
def forests():
    return homogeneous_forest(), heterogeneous_forest()


def test_inverted_join_heterogeneous(benchmark, forests):
    _, heterogeneous = forests
    joined, stats = benchmark(lambda: self_join(heterogeneous, TAU))
    assert stats.candidate_pairs < stats.total_pairs


def test_allpairs_join_heterogeneous(benchmark, forests):
    _, heterogeneous = forests
    benchmark.pedantic(
        lambda: similarity_join_allpairs(heterogeneous, heterogeneous, TAU),
        rounds=3,
        iterations=1,
    )


def test_allpairs_join_homogeneous(benchmark, forests):
    homogeneous, _ = forests
    joined, _ = benchmark.pedantic(
        lambda: similarity_join_allpairs(homogeneous, homogeneous, TAU),
        rounds=3,
        iterations=1,
    )
    assert len(joined) >= NEAR_DUPLICATES


def run_full_series() -> str:
    rows: List[Tuple] = []
    for name, forest in (
        ("homogeneous", homogeneous_forest()),
        ("heterogeneous", heterogeneous_forest()),
    ):
        inverted_joined, stats = self_join(forest, TAU)
        dense_joined, _ = similarity_join_allpairs(forest, forest, TAU)
        assert inverted_joined == dense_joined
        inverted_seconds = wall_time(lambda: self_join(forest, TAU), repeats=2)
        dense_seconds = wall_time(
            lambda: similarity_join_allpairs(forest, forest, TAU), repeats=2
        )
        rows.append(
            (
                name,
                stats.total_pairs,
                stats.candidate_pairs,
                stats.results,
                f"{inverted_seconds * 1e3:.1f}",
                f"{dense_seconds * 1e3:.1f}",
                f"{dense_seconds / inverted_seconds:.1f}x",
            )
        )
    return format_table(
        (
            "collection",
            "all pairs",
            "co-occurring",
            "results",
            "inverted join [ms]",
            "all-pairs join [ms]",
            "inverted speedup",
        ),
        rows,
    )


if __name__ == "__main__":
    emit(
        "ablation_a4_join_pruning.txt",
        f"Ablation A4 — similarity-join strategies "
        f"({COLLECTION} documents, tau={TAU}, 3,3-grams)",
        run_full_series(),
    )
