"""CPU per served request, server and client side, verb by verb.

    python benchmarks/frontdoor_cpu.py [--seconds 5] [--smoke]

Seeds the ``read_small`` collection of the repo benchmark, starts
``repro serve`` as a child with the harness's ``SERVE_ARGUMENTS`` and
drives ``ping``, ``lookup``, ``lookup-400`` and ``apply_edits`` from two
closed-loop connections, one verb at a time.  ``lookup-400`` sends
400-node queries that never repeat within the caches' reach: a read
that long is still answered on the event loop (its line is under
``repro.serve.server.INLINE_FRAME_BYTES``), so its server CPU per op is
how long one request may hold the loop — scale it by the bound over
the line length for the worst admitted case.  Per verb it prints the
server child's CPU per op (user and sys, from ``/proc/<pid>/stat``),
this process's CPU per op and the wall time per op (window / ops: the
server is saturated, so that is the inverse of its throughput).  No
gate: this is the per-layer number ROADMAP asks every front-door claim
to quote — wall latency cannot tell a thread hand-off from work, CPU
can.  It reads ``benchmarks/e2e/`` and changes nothing there.
"""

import argparse
import itertools
import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "e2e"))

import harness  # noqa: E402
import loadgen  # noqa: E402

from repro.tree.builder import tree_to_brackets  # noqa: E402

TICK = os.sysconf("SC_CLK_TCK")
CONNECTIONS = 2


def server_cpu(pid: int) -> "tuple[float, float]":
    """(user, sys) CPU seconds of a live process and its threads."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return int(fields[11]) / TICK, int(fields[12]) / TICK


def drive(port: int, seconds: float, make_call) -> int:
    """Closed loop over ``CONNECTIONS`` connections; the op count."""
    counts = [0] * CONNECTIONS
    deadline = time.perf_counter() + seconds

    def run(lane: int) -> None:
        with harness.ServeClient(port=port) as client:
            call = make_call(lane)
            while time.perf_counter() < deadline:
                call(client)
                counts[lane] += 1

    threads = [threading.Thread(target=run, args=(lane,)) for lane in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sum(counts)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=5.0, help="window per verb")
    parser.add_argument("--smoke", action="store_true", help="200 documents, 1 s")
    arguments = parser.parse_args()
    seconds = 1.0 if arguments.smoke else arguments.seconds
    documents = loadgen.small_collection(200 if arguments.smoke else 1000)
    hot = loadgen.hot_queries(documents, "read_small", 1)

    def lookups(lane: int):
        queries = loadgen.lookup_stream(
            documents, hot, loadgen.lane_rng("read_small", 1, str(lane))
        )
        return lambda client: client.lookup(next(queries), loadgen.LOOKUP_TAU)

    # more 400-node queries than the query LRU (64) and the result
    # cache (128) hold together: cycled, every one of them misses
    long_queries = [
        tree_to_brackets(tree) for _, tree in loadgen.large_collection(160, 400)
    ]

    def long_lookups(lane: int):
        queries = itertools.cycle(long_queries[lane::CONNECTIONS])
        return lambda client: client.lookup(next(queries), loadgen.LOOKUP_TAU)

    def writes(lane: int):
        batches = loadgen.edit_stream(
            documents[lane::CONNECTIONS], loadgen.lane_rng("frontdoor", 1, str(lane))
        )

        def call(client) -> None:
            document_id, _, text = next(batches)
            client.apply_edits(document_id, text)

        return call

    verbs = {
        "ping": lambda lane: lambda client: client.ping(),
        "lookup": lookups,
        "lookup-400": long_lookups,
        "apply_edits": writes,
    }
    with harness.scratch("frontdoor-cpu") as base:
        harness.seed_store(os.path.join(base, "default"), documents)
        server = harness.ServerChild(base)
        try:
            with harness.ServeClient(port=server.port) as client:
                client.lookup(hot[0], loadgen.LOOKUP_TAU)  # the first read freezes
            print(
                f"{'verb':<12}{'ops':>8}{'server user':>13}{'server sys':>12}"
                f"{'client user':>13}{'client sys':>12}{'wall':>9}   (ms per op)"
            )
            for verb, make_call in verbs.items():
                before = server_cpu(server.process.pid) + os.times()[:2]
                started = time.perf_counter()
                ops = drive(server.port, seconds, make_call)
                wall = time.perf_counter() - started
                after = server_cpu(server.process.pid) + os.times()[:2]
                per_op = [(b - a) / ops * 1e3 for a, b in zip(before, after)]
                print(
                    f"{verb:<12}{ops:>8}{per_op[0]:>13.3f}{per_op[1]:>12.3f}"
                    f"{per_op[2]:>13.3f}{per_op[3]:>12.3f}{wall / ops * 1e3:>9.3f}"
                )
            server.drain()
        finally:
            server.kill()
        harness.verify_store(os.path.join(base, "default"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
