"""Long-lived index maintenance under a stream of document edits.

This is the paper's Fig. 1 scenario run continuously: a document
evolves through batches of edit operations; after every batch only the
resulting document and the batch's inverse-operation log are available
(imagine the edits arriving from a replication stream), and the
persistent index is maintained incrementally.  The example verifies
the index against a rebuild after every batch and reports how much
work the incremental path saved, plus the effect of log preprocessing
on a redundant batch.

Run with:  python examples/incremental_sync.py
"""

import random
import time

from repro import (
    EditScriptGenerator,
    GramConfig,
    LabelHasher,
    PQGramIndex,
    Rename,
    update_index,
)
from repro.datasets import dblp_tree
from repro.edits import apply_script, reduce_log
from repro.edits.serialize import format_operations, parse_operations


def main() -> None:
    config = GramConfig(3, 3)
    hasher = LabelHasher()

    document = dblp_tree(1500, seed=3)
    index = PQGramIndex.from_tree(document, config, hasher)
    print(f"initial document: {len(document)} nodes, "
          f"index: {index.distinct_size()} distinct pq-grams")

    total_incremental = 0.0
    total_rebuild = 0.0
    for batch_number in range(1, 6):
        # A batch of edits arrives.  We serialize the log to text and
        # parse it back, as a replication channel would.
        rng = random.Random(100 + batch_number)
        script = EditScriptGenerator(rng=rng).generate(document, 40)
        edited, log = apply_script(document, script)
        wire_format = format_operations(log)
        received_log = parse_operations(wire_format)

        started = time.perf_counter()
        index = update_index(index, edited, received_log, hasher)
        incremental_seconds = time.perf_counter() - started

        started = time.perf_counter()
        rebuilt = PQGramIndex.from_tree(edited, config, hasher)
        rebuild_seconds = time.perf_counter() - started

        assert index == rebuilt, "incremental maintenance diverged!"
        total_incremental += incremental_seconds
        total_rebuild += rebuild_seconds
        print(f"batch {batch_number}: {len(received_log)} ops "
              f"({len(wire_format)} bytes on the wire)  "
              f"incremental {incremental_seconds * 1e3:6.1f} ms  "
              f"rebuild {rebuild_seconds * 1e3:6.1f} ms  "
              f"document now {len(edited)} nodes")
        document = edited

    print(f"\ntotals: incremental {total_incremental * 1e3:.1f} ms vs. "
          f"rebuild {total_rebuild * 1e3:.1f} ms "
          f"({total_rebuild / total_incremental:.0f}x saved)")

    # --- A churny batch benefits from log preprocessing --------------
    first_record = document.children(document.root_id)[0]
    field = document.children(first_record)[0]
    leaf = document.children(field)[0]
    churny = []
    label_cycle = ["v1", "v2", "v3", document.label(leaf)]
    for label in label_cycle * 5:
        churny.append(Rename(leaf, label))
    reduced = reduce_log(document, churny)
    print(f"\nchurny batch: {len(churny)} renames reduce to "
          f"{len(reduced)} operation(s) "
          "(the cycle restores the original label)")


if __name__ == "__main__":
    main()
