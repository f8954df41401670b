"""Fig. 14 (left): index size vs. document size.

Paper setup: tree sizes swept; the serialized index — hash values and
counts only, duplicates stored once — is significantly smaller than
the document for both 1,2- and 3,3-grams, and grows sublinearly in the
node count (duplicate pq-grams become more likely in larger trees).

Scaled setup: XMark-like documents from 2k to 32k nodes; sizes are
compared in bytes (UTF-8 XML vs. 12 bytes per distinct index row).

Beyond the paper's serialized estimate this bench also measures the
*resident* index: :func:`memsize.deep_sizeof` (``benchmarks/memsize.py``) walks the
whole object graph (earlier revisions used shallow ``sys.getsizeof``,
which missed the posting tuples entirely and made every backend look
equally small).  The resident series reports bytes-per-tree of the
compact backend's heap CSR on a DBLP-like forest;
``benchmarks/regression.py`` records the same number in
``BENCH_size.json``.
"""

from __future__ import annotations

import sys

import pytest

from repro.core import GramConfig, PQGramIndex
from repro.datasets import dblp_tree, xmark_tree
from repro.hashing import LabelHasher
from repro.lookup import ForestIndex
from repro.xmlio import write_xml

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from conftest import emit, format_table
from memsize import deep_sizeof

TREE_SIZES = (2_000, 4_000, 8_000, 16_000, 32_000)
CONFIGS = (GramConfig(1, 2), GramConfig(3, 3))
FOREST_TREE_COUNTS = (1_000, 4_000, 10_000)


@pytest.fixture(scope="module")
def medium_tree():
    return xmark_tree(8_000, seed=14)


def test_index_construction_12_grams(benchmark, medium_tree):
    index = benchmark.pedantic(
        lambda: PQGramIndex.from_tree(medium_tree, GramConfig(1, 2), LabelHasher()),
        rounds=3,
        iterations=1,
    )
    assert index.serialized_size_bytes() > 0


def test_index_construction_33_grams(benchmark, medium_tree):
    index = benchmark.pedantic(
        lambda: PQGramIndex.from_tree(medium_tree, GramConfig(3, 3), LabelHasher()),
        rounds=3,
        iterations=1,
    )
    assert index.serialized_size_bytes() > 0


def test_document_serialization(benchmark, medium_tree):
    text = benchmark.pedantic(
        lambda: write_xml(medium_tree), rounds=3, iterations=1
    )
    assert len(text) > 0


def measure_forest_size(tree_count: int, config: GramConfig) -> dict:
    """Resident bytes-per-tree of a DBLP-like forest: the compact
    backend's deep resident size with its CSR frozen."""
    collection = [
        (tree_id, dblp_tree(1, seed=tree_id)) for tree_id in range(tree_count)
    ]
    results: dict = {"tree_count": tree_count}

    plain = ForestIndex(config)
    plain.add_trees(collection)
    plain.compact()
    results["heap_bytes"] = deep_sizeof(plain.backend)
    results["heap_bytes_per_tree"] = results["heap_bytes"] / tree_count
    return results


def run_full_series() -> str:
    rows = []
    for node_budget in TREE_SIZES:
        tree = xmark_tree(node_budget, seed=14)
        document_bytes = len(write_xml(tree).encode("utf-8"))
        index_bytes = {}
        for config in CONFIGS:
            index = PQGramIndex.from_tree(tree, config, LabelHasher())
            index_bytes[config] = index.serialized_size_bytes()
        rows.append(
            (
                len(tree),
                f"{document_bytes / 1024:.0f}",
                f"{index_bytes[CONFIGS[0]] / 1024:.0f}",
                f"{index_bytes[CONFIGS[1]] / 1024:.0f}",
            )
        )
    return format_table(
        ("tree nodes", "document [KiB]", "1,2-gram index [KiB]", "3,3-gram index [KiB]"),
        rows,
    )


def run_resident_series() -> str:
    rows = []
    for tree_count in FOREST_TREE_COUNTS:
        sizes = measure_forest_size(tree_count, CONFIGS[1])
        rows.append((tree_count, f"{sizes['heap_bytes_per_tree']:.0f}"))
    return format_table(("trees", "heap CSR [B/tree]"), rows)


if __name__ == "__main__":
    emit(
        "fig14_left_index_size.txt",
        "Fig. 14 (left) — serialized index size vs. document size",
        run_full_series(),
    )
    emit(
        "fig14_left_resident_size.txt",
        "Fig. 14 (left, resident) — deep index size of the heap CSR",
        run_resident_series(),
    )
