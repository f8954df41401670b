"""A durable document service: snapshots in, incremental indexes out.

Combines the extension modules into the full production loop:

1. documents live in a :class:`~repro.service.DocumentStore` — durable
   snapshots plus a write-ahead log of edit batches,
2. upstream systems deliver *new snapshots* only (no edit logs);
   :func:`~repro.edits.diff_trees` derives the edit script, which the
   store applies durably while maintaining the pq-gram index
   incrementally,
3. a simulated crash (reopening the directory without a checkpoint)
   recovers from snapshot + WAL,
4. the maintained indexes power near-duplicate detection across the
   stored documents via the similarity self-join.

Run with:  python examples/document_store_service.py
"""

import os
import random
import tempfile

from repro import DocumentStore, EditScriptGenerator, GramConfig, diff_trees
from repro.datasets import dblp_tree
from repro.edits import apply_script
from repro.lookup.join import self_join


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:
        store_dir = os.path.join(directory, "service")
        store = DocumentStore(store_dir, GramConfig(3, 3))

        # Ingest a few bibliographies; two of them are near-duplicates.
        for document_id in range(5):
            store.add_document(document_id, dblp_tree(80, seed=document_id))
        corrections = EditScriptGenerator(rng=random.Random(50), weights=(0.6, 0.0, 0.4))
        near_duplicate, _ = apply_script(
            dblp_tree(80, seed=2), corrections.generate(dblp_tree(80, seed=2), 12)
        )
        store.add_document(5, near_duplicate)
        print(f"ingested {len(store)} documents")

        # --- Snapshot-based sync: diff, apply, maintain ---------------
        for round_number in range(3):
            current = store.get_document(1)
            upstream = current.copy()
            rng = random.Random(60 + round_number)
            script = EditScriptGenerator(rng=rng).generate(upstream, 25)
            for operation in script:
                operation.apply(upstream)
            derived = diff_trees(current, upstream)
            store.apply_edits(1, derived)
            print(f"sync round {round_number + 1}: derived "
                  f"{len(derived)} edits from the new snapshot, "
                  "index maintained incrementally")

        # --- Crash and recover ----------------------------------------
        wal_bytes = os.path.getsize(os.path.join(store_dir, "wal.log"))
        del store  # "crash": nothing flushed beyond WAL + last checkpoint
        recovered = DocumentStore(store_dir)
        print(f"\nrecovered after crash (WAL had {wal_bytes} bytes): "
              f"{len(recovered)} documents intact")

        # --- Duplicate detection over the maintained indexes -----------
        pairs, stats = self_join(recovered._forest, tau=0.35)
        print(f"\nnear-duplicate scan: {stats.total_pairs} pairs, "
              f"{stats.candidate_pairs} shared pq-grams, "
              f"{stats.results} within tau")
        for left_id, right_id, distance in pairs:
            print(f"  documents {left_id} and {right_id}: "
                  f"distance {distance:.3f}")
        assert any({left, right} == {2, 5} for left, right, _ in pairs)


if __name__ == "__main__":
    main()
