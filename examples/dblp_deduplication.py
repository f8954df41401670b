"""Approximate lookup over a bibliography collection.

The motivating application of the paper: find the documents of a
collection that are similar to a query document — here, detect which
bibliography in a federation of (synthetically generated) DBLP-style
collections is a near-duplicate of a query snapshot that was edited
independently (fields corrected, nodes added).

The example builds a forest index over the collections and contrasts
the indexed lookup with the index-free baseline.

Run with:  python examples/dblp_deduplication.py
"""

import random
import time

from repro import (
    EditScriptGenerator,
    ForestIndex,
    GramConfig,
    LookupService,
    apply_script,
)
from repro.datasets import dblp_tree


def main() -> None:
    config = GramConfig(3, 3)

    # A federation of 20 bibliography collections (~2.3k nodes each).
    collections = {tree_id: dblp_tree(200, seed=tree_id) for tree_id in range(20)}

    # One of them (id 13) was copied elsewhere and edited independently:
    # fields corrected (renames) and new nodes added, nothing deleted.
    snapshot = collections[13]
    corrections = EditScriptGenerator(rng=random.Random(777), weights=(0.6, 0.0, 0.4))
    script = corrections.generate(snapshot, 60)
    query, _ = apply_script(snapshot, script)

    # --- Build the forest index --------------------------------------
    forest = ForestIndex(config)
    started = time.perf_counter()
    for tree_id, tree in collections.items():
        forest.add_tree(tree_id, tree)
    build_seconds = time.perf_counter() - started
    print(f"indexed {len(forest)} collections "
          f"({sum(len(t) for t in collections.values())} nodes) "
          f"in {build_seconds * 1e3:.0f} ms")

    # --- Approximate lookup ------------------------------------------
    service = LookupService(forest)
    result = service.lookup(query, tau=0.5)
    print(f"\nlookup with precomputed index: {result.seconds_total * 1e3:.1f} ms")
    print("matches within tau=0.5 (nearest first):")
    for tree_id, distance in result.matches[:3]:
        print(f"  collection {tree_id:2d}  distance {distance:.3f}")
    assert result.matches[0][0] == 13, "the edited original must rank first"

    # --- The baseline without a precomputed index --------------------
    baseline = service.lookup_without_index(
        query, list(collections.items()), tau=0.5
    )
    print(f"\nlookup without index: {baseline.seconds_total * 1e3:.1f} ms "
          f"({baseline.seconds_index_construction * 1e3:.1f} ms of which is "
          "index construction)")
    assert baseline.tree_ids() == result.tree_ids()
    speedup = baseline.seconds_total / result.seconds_total
    print(f"precomputed index speedup: {speedup:.0f}x")


if __name__ == "__main__":
    main()
