"""Ablation A1: approximation quality of the pq-gram distance.

The pq-gram distance is an approximation of the tree edit distance;
this ablation quantifies how well it ranks pairs, and how the (p, q)
choice affects that, by correlating dist^{p,q} with exact Zhang–Shasha
distance over random tree pairs at controlled edit distances.

Reported: Spearman rank correlation per (p, q), plus the timing gap
between the approximate and the exact distance (the reason pq-grams
exist at all).
"""

from __future__ import annotations

import os
import random
import sys
from typing import List, Tuple

import pytest

from repro.core import GramConfig, pq_gram_distance
from repro.datasets.random_trees import random_labelled_tree
from repro.edits.generator import EditScriptGenerator
from repro.edits.script import apply_script

sys.path.insert(0, __file__.rsplit("/", 1)[0])
# The paper's reference stack lives in the test tree, under the repo root.
sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from conftest import emit, format_table, wall_time

from tests.support.reference.baselines import tree_edit_distance

CONFIGS = (GramConfig(1, 1), GramConfig(1, 2), GramConfig(2, 3), GramConfig(3, 3))
PAIRS = 40
BASE_SIZE = 40


def tree_pairs(seed: int = 41, shape: str = "random") -> List[Tuple[object, object, int]]:
    """(left, right, edit ops applied) pairs at varied distances.

    ``shape`` selects the base-tree regime: ``random`` (mixed),
    ``deep`` (treebank-like parse trees) or ``flat`` (DBLP-like
    records) — the quality of each (p, q) depends on it.
    """
    from repro.datasets import dblp_tree
    from treebank import sentence_tree

    rng = random.Random(seed)
    pairs = []
    for index in range(PAIRS):
        if shape == "deep":
            base = sentence_tree(seed=seed + index)
        elif shape == "flat":
            base = dblp_tree(5, seed=seed + index)
        else:
            base = random_labelled_tree(BASE_SIZE, seed=seed + index)
        operations = rng.randint(1, 20)
        generator = EditScriptGenerator(rng=random.Random(seed + 1000 + index))
        script = generator.generate(base, operations)
        edited, _ = apply_script(base, script)
        pairs.append((base, edited, operations))
    return pairs


def spearman(xs: List[float], ys: List[float]) -> float:
    """Spearman rank correlation (ties broken by average rank)."""

    def ranks(values: List[float]) -> List[float]:
        order = sorted(range(len(values)), key=lambda i: values[i])
        result = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            average = (i + j) / 2 + 1
            for k in range(i, j + 1):
                result[order[k]] = average
            i = j + 1
        return result

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    mean = (n + 1) / 2
    cov = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    var_x = sum((a - mean) ** 2 for a in rx)
    var_y = sum((b - mean) ** 2 for b in ry)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / (var_x * var_y) ** 0.5


@pytest.fixture(scope="module")
def sample_pair():
    pairs = tree_pairs()
    return pairs[0][0], pairs[0][1]


def test_pq_gram_distance_speed(benchmark, sample_pair):
    left, right = sample_pair
    benchmark(lambda: pq_gram_distance(left, right, GramConfig(3, 3)))


def test_tree_edit_distance_speed(benchmark, sample_pair):
    left, right = sample_pair
    benchmark.pedantic(
        lambda: tree_edit_distance(left, right), rounds=3, iterations=1
    )


def run_full_series() -> str:
    rows = []
    shaped_pairs = {shape: tree_pairs(shape=shape) for shape in ("random", "deep", "flat")}
    exact = {
        shape: [float(tree_edit_distance(l, r)) for l, r, _ in pairs]
        for shape, pairs in shaped_pairs.items()
    }
    for config in CONFIGS:
        correlations = []
        for shape in ("random", "deep", "flat"):
            approx = [
                pq_gram_distance(l, r, config) for l, r, _ in shaped_pairs[shape]
            ]
            correlations.append(f"{spearman(exact[shape], approx):.3f}")
        seconds = wall_time(
            lambda: [
                pq_gram_distance(l, r, config)
                for l, r, _ in shaped_pairs["random"][:10]
            ]
        )
        rows.append((str(config), *correlations, f"{seconds * 1e3 / 10:.2f}"))
    exact_seconds = wall_time(
        lambda: [tree_edit_distance(l, r) for l, r, _ in shaped_pairs["random"][:10]]
    )
    rows.append(
        ("Zhang-Shasha (exact)", "1.000", "1.000", "1.000",
         f"{exact_seconds * 1e3 / 10:.2f}")
    )
    return format_table(
        (
            "distance",
            "Spearman (random)",
            "Spearman (deep)",
            "Spearman (flat)",
            "per pair [ms]",
        ),
        rows,
    )


if __name__ == "__main__":
    emit(
        "ablation_a1_pq_quality.txt",
        f"Ablation A1 — pq-gram distance vs. exact tree edit distance "
        f"({PAIRS} pairs, base size {BASE_SIZE})",
        run_full_series(),
    )
