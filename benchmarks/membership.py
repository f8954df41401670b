"""What one membership change costs, by collection size.

    python benchmarks/membership.py [--smoke] [--ops 20]

For N in {1 k, 10 k} ``small_collection`` documents (``--smoke``: 200
and 2 k) it builds a store in one ``add_documents``, checkpoints it,
then times ``--ops`` ``add_document`` calls of new documents followed
by as many ``remove_document`` calls.  Per call kind it prints the
median wall milliseconds, the bytes written per call (WAL bytes plus
the size of every ``store.db`` a checkpoint rewrote) and how many
checkpoints the calls ran.  A change that costs what it touches is
flat in N and writes no snapshot.  It reads ``benchmarks/e2e/`` and
changes nothing there.
"""

import argparse
import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "e2e"))

import loadgen  # noqa: E402

from repro.service.store import DocumentStore  # noqa: E402


def measure(directory: str, size: int, ops: int) -> None:
    documents = loadgen.small_collection(size + ops)
    store = DocumentStore(directory, metrics=True)
    store.add_documents(documents[:size])
    store.checkpoint()
    registry = store.metrics_registry
    snapshot = os.path.join(directory, "store.db")
    calls = (
        ("add_document", store.add_document, documents[size:]),
        ("remove_document", store.remove_document, [(i,) for i in range(ops)]),
    )
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
        print(
            f"{size:>7} {name:<16} {statistics.median(seconds) * 1e3:10.3f}"
            f" {written / ops:11.0f}"
            f" {registry.counter_value('checkpoints_total') - started_checkpoints:12d}",
            flush=True,
        )
    store.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--ops", type=int, default=20)
    args = parser.parse_args()
    print(f"{'N':>7} {'call':<16} {'median ms':>10} {'bytes/call':>11} {'checkpoints':>12}")
    for size in (200, 2_000) if args.smoke else (1_000, 10_000):
        with tempfile.TemporaryDirectory(prefix="membership-") as directory:
            measure(directory, size, args.ops)


if __name__ == "__main__":
    main()
