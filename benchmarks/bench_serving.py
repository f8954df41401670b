"""Serving front-door benchmark: latency under a mixed workload plus
the shed-correctness gate.

A 10k-document DBLP-like collection is served over a real TCP socket
(the asyncio front door with worker-thread execution, exactly the
``repro serve`` production path).  Two tenants:

- **bench** — effectively-unbounded admission; a client runs the mixed
  read/write/standing workload (lookups, coalesced edit batches, one
  standing-query subscription streaming events back) and records
  client-side wall latencies.  The numbers in ``BENCH_serve.json`` are
  full round trips: frame encode, socket, admission, executor hop,
  store work, reply — the latency a real client sees, not the store's
  internal cost.
- **edge** — a deliberately tight admission policy (small bucket,
  short queue); a pipelined burst of single-leaf-insert batches
  overwhelms it and the **shed-correctness invariant** is checked: the
  document's final node count must equal its count before the burst
  plus exactly the number of acknowledged batches.  Every shed reply
  (429) must correspond to a batch that never touched the store; every
  ack to one durably applied.  ``serve_shed_correctness`` is 1.0 only
  when that holds and the burst actually shed — it is the regression
  gate's proof that load shedding cannot corrupt state.

Latency percentiles are *recorded*, not wall-time-gated: socket
round-trip times are machine- and load-sensitive in a way the in-process
kernel benchmarks are not (same reasoning that keeps the
metrics-overhead arms out of the baseline).  The gate is the
correctness bit.
"""

from __future__ import annotations

import os
import random
import sys
import tempfile
import time
from typing import Dict, List

sys.path.insert(0, os.path.dirname(__file__))
from conftest import results_path

from repro.datasets import dblp_tree
from repro.edits.generator import EditScriptGenerator
from repro.errors import OverloadedError
from repro.serve import AdmissionPolicy, FrontDoor, ServeClient, serve_in_thread
from repro.service.store import DocumentStore
from repro.tree.builder import tree_from_brackets, tree_to_brackets

DOCUMENT_COUNT = 10_000
SEED_BATCH = 1_000
LOOKUP_ROUNDS = 40
EDIT_ROUNDS = 40
BURST_REQUESTS = 300
TAU = 0.6

OPEN_POLICY = AdmissionPolicy(
    rate=1e6, burst=1e6, max_queue=8192, max_wait_seconds=60.0
)
EDGE_POLICY = AdmissionPolicy(rate=50.0, burst=10.0, max_queue=8)


def _percentile(samples: List[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _seed_store(
    directory: str, serve_threads: int, document_count: int
) -> DocumentStore:
    # the WAL of the measured window stays far below the share of a
    # 10k-document snapshot that triggers a checkpoint, so no full
    # snapshot rewrite lands in the p95 record (the drain checkpoint at
    # the end still runs)
    store = DocumentStore(directory, serve_threads=serve_threads)
    for start in range(0, document_count, SEED_BATCH):
        batch = [
            (document_id, dblp_tree(1, seed=document_id))
            for document_id in range(
                start, min(start + SEED_BATCH, document_count)
            )
        ]
        store.add_documents(batch)
    return store


def run_serving(document_count: int = DOCUMENT_COUNT) -> Dict[str, float]:
    """The full serving benchmark; returns the ``BENCH_serve.json``
    payload (latency percentiles + the shed-correctness gate bit)."""
    results: Dict[str, float] = {"serve_documents": float(document_count)}
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as root:
        bench_store = _seed_store(
            os.path.join(root, "bench"), 4, document_count
        )
        edge_store = DocumentStore(os.path.join(root, "edge"), serve_threads=2)
        front_door = FrontDoor(
            stores={"bench": bench_store, "edge": edge_store},
            own_stores=True,
            serve_threads=4,
            policies={"bench": OPEN_POLICY, "edge": EDGE_POLICY},
            policy=OPEN_POLICY,
        )
        handle = serve_in_thread(front_door)
        try:
            _mixed_workload(handle.port, document_count, results)
            _overload_burst(handle.port, results)
        finally:
            handle.drain(timeout=120.0)
    return results


def _mixed_workload(
    port: int, document_count: int, results: Dict[str, float]
) -> None:
    rng = random.Random(42)
    generator = EditScriptGenerator(rng=rng)
    lookup_times: List[float] = []
    apply_times: List[float] = []
    events = 0
    with ServeClient(port=port, tenant="bench") as client:
        # the watched + edited documents, mirrored with server ids
        mirror_ids = [rng.randrange(document_count) for _ in range(8)]
        mirrors = {
            document_id: tree_from_brackets(
                client.show(document_id)["tree"]
            )
            for document_id in mirror_ids
        }
        watched = mirror_ids[0]
        client.subscribe("bench-watch", mirrors[watched], tau=0.9)
        for round_index in range(max(LOOKUP_ROUNDS, EDIT_ROUNDS)):
            if round_index < EDIT_ROUNDS:
                document_id = mirror_ids[round_index % len(mirror_ids)]
                mirror = mirrors[document_id]
                script = generator.generate(mirror, 2)
                operations = list(script)
                started = time.perf_counter()
                client.apply_edits(document_id, operations)
                apply_times.append(time.perf_counter() - started)
                script.apply(mirror)
            if round_index < LOOKUP_ROUNDS:
                probe = mirrors[mirror_ids[round_index % len(mirror_ids)]]
                started = time.perf_counter()
                client.lookup(probe, TAU)
                lookup_times.append(time.perf_counter() - started)
            events += len(client.drain_events(timeout=0.01))
        events += len(client.drain_events(timeout=0.25))
        client.unsubscribe("bench-watch")
    results["serve_lookup_mean_ms"] = (
        sum(lookup_times) / len(lookup_times) * 1e3
    )
    results["serve_lookup_p95_ms"] = _percentile(lookup_times, 0.95) * 1e3
    results["serve_apply_mean_ms"] = (
        sum(apply_times) / len(apply_times) * 1e3
    )
    results["serve_apply_p95_ms"] = _percentile(apply_times, 0.95) * 1e3
    results["serve_events_streamed"] = float(events)


def _overload_burst(port: int, results: Dict[str, float]) -> None:
    with ServeClient(port=port, tenant="edge") as client:
        tree = tree_from_brackets(tree_to_brackets(dblp_tree(1, seed=999)))
        _patient(lambda: client.add_document(1, tree))
        before = _patient(lambda: client.show(1))["nodes"]
        requests = [
            {
                "verb": "apply_edits",
                "doc": 1,
                "ops": f'INS {10_000 + index} "burst" {tree.root_id} 1 0',
            }
            for index in range(BURST_REQUESTS)
        ]
        replies, shed = client.burst(requests)
        acked = sum(1 for reply in replies if reply.get("ok"))
        hard_errors = len(replies) - acked - shed
        after = _patient(lambda: client.show(1))["nodes"]
        correct = (
            shed > 0 and hard_errors == 0 and after == before + acked
        )
        results["serve_burst_requests"] = float(BURST_REQUESTS)
        results["serve_burst_acked"] = float(acked)
        results["serve_burst_shed"] = float(shed)
        results["serve_shed_correctness"] = 1.0 if correct else 0.0


def _patient(call, attempts: int = 200):
    """Ride out the edge tenant's tiny token bucket between phases."""
    for _ in range(attempts - 1):
        try:
            return call()
        except OverloadedError:
            time.sleep(0.05)
    return call()


def main() -> int:
    import json

    results = run_serving()
    path = results_path("BENCH_serve.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"results written to {path}")
    for key in sorted(results):
        print(f"  {key}: {results[key]:.3f}")
    return 0 if results["serve_shed_correctness"] == 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
