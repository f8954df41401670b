"""The scale ladder's first rungs: what an open and a membership change
cost, by collection size, and what an edit batch costs, by document
size.

    python benchmarks/scale.py [--smoke] [--ops 20]

For N in {1 k, 10 k} ``small_collection`` documents (``--smoke``: 200
and 2 k) it builds a store in one ``add_documents`` and checkpoints it,
logs a one-operation edit batch on each of ``--ops`` documents, and
leaves the store without closing it, as a crash would.  Then it
reopens the store and prints, per N:

``checkpoint_s``        median wall seconds of three ``checkpoint()``
                        calls on the built store (every record is
                        cached: the file's encoding, compression and
                        durable write)
``checkpoint_b_per_node``  ``store.db`` bytes after ``checkpoint()``
                        per stored node: the checkpoint format's size,
                        with no WAL in it
``reopen_s``            median wall seconds of three reopens, and
                        their split: reading ``store.db``
                        (``reopen_load_s``), reading and applying the
                        WAL (``reopen_replay_s``), building every bag
                        (``reopen_build_s``)
``decoded_by_open``     documents the open decoded into trees (the WAL
                        edits ``--ops`` of them)
``heap_b_per_node``     bytes the open left allocated (tracemalloc),
                        per stored node
``add_document_*``,     per call, as the reopened store runs ``--ops``
``remove_document_*``   of each: median milliseconds, bytes written
                        (WAL bytes plus every ``store.db`` a checkpoint
                        rewrote) and checkpoints run

Then, for one ``dblp_tree`` document of N ≈ 19 k / 76 k / 304 k /
1.21 M nodes (``--smoke``: 19 k only; the paper's Fig. 13 shape), it
stores the document alone and applies ``1 + REPEATS`` edit batches of
an ``--ops``-operation stable ``dblp_update_script`` log each, and
prints, per N (the tree's exact node count):

``document_first_edit_ms``  the first ``apply_edits`` batch, which also
                        decodes the document
``document_apply_edits_ms``  median milliseconds of the ``REPEATS``
                        batches after it (the WAL fsync included)

A row the store does not report (an older store has no phase split or
decode counter) reads ``n/a``.  It reads ``benchmarks/e2e/`` and
changes nothing there.

The script measures the checkout it sits in, whatever ``PYTHONPATH``
says: it imports ``loadgen``, whose ``harness`` puts its own
checkout's ``src`` first on ``sys.path``.  To compare two trees, copy
the script into each tree's ``benchmarks/`` and run each copy there.
"""

import argparse
import gc
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from typing import Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "e2e"))

import loadgen  # noqa: E402
from dblp_workloads import dblp_update_script  # noqa: E402

from repro.datasets import dblp_tree  # noqa: E402
from repro.edits.ops import Rename  # noqa: E402
from repro.edits.script import apply_script  # noqa: E402
from repro.service.store import DocumentStore  # noqa: E402

REPEATS = 3  # reopens, checkpoints and edit batches, timed per rung
DOCUMENT_NODES = (19_000, 76_000, 304_000, 1_210_000)
NODES_PER_RECORD = 13  # of a dblp_tree, roughly
PHASES = ("load", "replay", "build")


def build(directory: str, documents, ops: int) -> dict:
    """The store the reopens read: a snapshot of ``documents`` and a
    WAL of ``ops`` edit batches, left unclosed; returns the checkpoint
    rows."""
    store = DocumentStore(directory)
    store.add_documents(documents)
    seconds = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        store.checkpoint()
        seconds.append(time.perf_counter() - started)
    rows = {
        "checkpoint_s": statistics.median(seconds),
        "checkpoint_b_per_node": os.path.getsize(
            os.path.join(directory, "store.db")
        )
        / store.stats()["nodes"],
    }
    for document_id in range(ops):
        tree = store.get_document(document_id)
        node = tree.children(tree.root_id)[0]
        store.apply_edits(document_id, [Rename(node, "renamed")])
    return rows


def reopen_rows(directory: str) -> dict:
    seconds, phases, decoded = [], {phase: [] for phase in PHASES}, None
    for _ in range(REPEATS):
        started = time.perf_counter()
        store = DocumentStore(directory, metrics=True)
        seconds.append(time.perf_counter() - started)
        snapshot = store.metrics_registry.snapshot()
        for phase in PHASES:
            series = snapshot["histograms"].get(
                f'recovery_phase_seconds{{phase="{phase}"}}'
            )
            if series is not None:
                phases[phase].append(series["sum"])
        decoded = snapshot["counters"].get("store_documents_decoded_total")
        del store, snapshot
    rows = {"reopen_s": statistics.median(seconds)}
    for phase in PHASES:
        values = phases[phase]
        rows[f"reopen_{phase}_s"] = statistics.median(values) if values else None
    rows["decoded_by_open"] = decoded
    gc.collect()  # an older store is cyclic garbage until collected
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    store = DocumentStore(directory)
    held = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    rows["heap_b_per_node"] = held / store.stats()["nodes"]
    del store
    return rows


def membership_rows(directory: str, documents, ops: int) -> dict:
    """What one membership change costs: ``ops`` adds of new
    documents, then ``ops`` removals, on the reopened store."""
    store = DocumentStore(directory, metrics=True)
    registry = store.metrics_registry
    snapshot = os.path.join(directory, "store.db")
    calls = (
        ("add_document", store.add_document, documents),
        ("remove_document", store.remove_document, [(i,) for i in range(ops)]),
    )
    rows = {}
    for name, call, arguments in calls:
        seconds = []
        written = -registry.counter_value("wal_bytes_total")
        started_checkpoints = registry.counter_value("checkpoints_total")
        for argument in arguments:
            checkpoints = registry.counter_value("checkpoints_total")
            started = time.perf_counter()
            call(*argument)
            seconds.append(time.perf_counter() - started)
            if registry.counter_value("checkpoints_total") > checkpoints:
                written += os.path.getsize(snapshot)
        written += registry.counter_value("wal_bytes_total")
        rows[f"{name}_ms"] = statistics.median(seconds) * 1e3
        rows[f"{name}_b"] = written / ops
        rows[f"{name}_checkpoints"] = (
            registry.counter_value("checkpoints_total") - started_checkpoints
        )
    store.close()
    return rows


def document_rows(nodes: int, ops: int) -> Tuple[int, dict]:
    """One document of about ``nodes`` nodes in a store of its own:
    its exact node count, and what its edit batches cost."""
    tree = dblp_tree(nodes // NODES_PER_RECORD, seed=1)
    # Every script is drawn up front on a private copy, so the store
    # decodes the document in its first batch and nowhere else.
    scripts, working = [], tree
    for seed in range(1 + REPEATS):
        script = dblp_update_script(working, ops, seed=seed, stable=True)
        working, _ = apply_script(working, script)
        scripts.append(list(script))
    seconds = []
    with tempfile.TemporaryDirectory(prefix="scale-") as directory:
        store = DocumentStore(directory)
        store.add_documents([(0, tree)])
        for script in scripts:
            started = time.perf_counter()
            store.apply_edits(0, script)
            seconds.append(time.perf_counter() - started)
        store.close()
    return len(tree), {
        "document_first_edit_ms": seconds[0] * 1e3,
        "document_apply_edits_ms": statistics.median(seconds[1:]) * 1e3,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--ops", type=int, default=20)
    args = parser.parse_args()
    print(f"{'N':>7} {'row':<28} {'value':>12}", flush=True)
    for size in (200, 2_000) if args.smoke else (1_000, 10_000):
        documents = loadgen.small_collection(size + args.ops)
        with tempfile.TemporaryDirectory(prefix="scale-") as directory:
            rows = build(directory, documents[:size], args.ops)
            rows.update(reopen_rows(directory))
            rows.update(membership_rows(directory, documents[size:], args.ops))
        show(size, rows)
    for nodes in DOCUMENT_NODES[:1] if args.smoke else DOCUMENT_NODES:
        show(*document_rows(nodes, args.ops))


def show(size: int, rows: dict) -> None:
    for name, value in rows.items():
        shown = "n/a" if value is None else f"{value:.4g}"
        print(f"{size:>7} {name:<28} {shown:>12}", flush=True)


if __name__ == "__main__":
    main()
