"""End-to-end serving workload driver (``python benchmarks/serve_driver.py``).

The CI ``serve`` job's client side: seeds documents over the wire,
registers a standing-query subscription, streams edit batches with
interleaved lookups, then fires a pipelined overload burst and checks
the serving contract:

- every acknowledged ``apply_edits`` is durably applied, every shed
  one is **not** applied — verified by the node-count invariant
  (final node count == seeded count + acknowledged inserts; each
  burst batch inserts exactly one leaf, so the check is independent
  of the order concurrent batches committed in);
- lookups return distance-sorted matches and always find the
  document the query was cloned from;
- the subscription streams at least one membership event while its
  document is being edited (``--require-event``);
- the burst sheds at least one request (``--assert-shed``) — the
  admission bounds are real, not decorative.

Exit code 0 means every check passed; violations are listed on
stderr.  The driver keeps a local mirror of every document it seeds
(bracket node ids are assigned deterministically, so client and
server agree), which is what lets it generate valid edit scripts
without a read-modify-write round trip.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.edits.generator import EditScriptGenerator
from repro.errors import OverloadedError
from repro.serve.client import ServeClient, wait_for_server
from repro.service.soak import random_tree
from repro.tree.builder import tree_from_brackets, tree_to_brackets
from repro.tree.tree import Tree

#: burst-insert node ids live far above anything the seeder or the
#: edit generator hands out, so they can never collide
BURST_ID_BASE = 1_000_000


class DriverReport:
    """Counters + violations of one driver run."""

    def __init__(self) -> None:
        self.documents = 0
        self.batches_applied = 0
        self.lookups = 0
        self.events = 0
        self.burst_sent = 0
        self.burst_acked = 0
        self.burst_shed = 0
        self.errors: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        lines = [
            f"serve driver: {self.documents} document(s), "
            f"{self.batches_applied} edit batch(es), {self.lookups} lookup(s)",
            f"  standing-query events: {self.events}",
            f"  overload burst:        {self.burst_sent} sent, "
            f"{self.burst_acked} acked, {self.burst_shed} shed",
            f"  violations:            {len(self.errors)}",
        ]
        lines.extend(f"    {error}" for error in self.errors[:10])
        return "\n".join(lines)


def run_workload(
    host: str,
    port: int,
    tenant: str = "default",
    documents: int = 8,
    batches: int = 24,
    ops_per_batch: int = 3,
    tree_size: int = 30,
    burst: int = 200,
    tau: float = 0.8,
    seed: int = 0,
    base_id: int = 1000,
    subscribe: bool = True,
    require_event: bool = False,
    assert_shed: bool = False,
    boot_timeout: float = 30.0,
) -> DriverReport:
    """Run the full workload; see the module docstring for the checks."""
    report = DriverReport()
    wait_for_server(host, port, timeout=boot_timeout, tenant=tenant)
    rng = random.Random(seed)
    generator = EditScriptGenerator(rng=rng)
    with ServeClient(host, port, tenant=tenant) as client:
        # --- seed -----------------------------------------------------
        mirrors: Dict[int, Tree] = {}
        for offset in range(documents):
            document_id = base_id + offset
            # round-trip through brackets so the mirror's node ids are
            # the preorder ids the server assigns when it parses them
            mirror = tree_from_brackets(
                tree_to_brackets(random_tree(rng, tree_size))
            )
            nodes = client.add_document(document_id, mirror)
            if nodes != len(mirror):
                report.errors.append(
                    f"doc {document_id}: server indexed {nodes} nodes, "
                    f"mirror has {len(mirror)}"
                )
            mirrors[document_id] = mirror
        report.documents = documents

        # --- standing query over the first document -------------------
        watched = base_id
        if subscribe:
            matches = client.subscribe(
                "driver-watch", mirrors[watched], tau=tau
            )
            if watched not in [doc for doc, _ in matches]:
                report.errors.append(
                    f"subscription initial matches miss doc {watched} "
                    f"(distance 0 < tau={tau}): {matches}"
                )

        # --- mixed edit/lookup traffic --------------------------------
        document_ids = sorted(mirrors)
        for step in range(batches):
            document_id = document_ids[step % len(document_ids)]
            mirror = mirrors[document_id]
            script = generator.generate(
                mirror, 1 + rng.randrange(ops_per_batch)
            )
            operations = list(script)
            try:
                client.apply_edits(document_id, operations)
            except OverloadedError:
                continue  # shed under load: state unchanged, mirror kept
            script.apply(mirror)
            report.batches_applied += 1
            if step % 3 == 0:
                probe = document_ids[rng.randrange(len(document_ids))]
                found = client.lookup(mirrors[probe], tau)
                report.lookups += 1
                distances = [dist for _, dist in found]
                if distances != sorted(distances):
                    report.errors.append(
                        f"lookup matches not distance-sorted: {found}"
                    )
                if probe not in [doc for doc, _ in found]:
                    report.errors.append(
                        f"lookup of doc {probe}'s own tree (distance 0) "
                        f"missed it: {found}"
                    )
            if subscribe:
                report.events += len(client.drain_events(timeout=0.05))

        # --- forced-overload burst ------------------------------------
        if burst > 0:
            burst_doc = document_ids[-1]
            mirror = mirrors[burst_doc]
            before = client.show(burst_doc)["nodes"]
            root = mirror.root_id
            requests = [
                {
                    "verb": "apply_edits",
                    "doc": burst_doc,
                    "ops": (
                        f'INS {BURST_ID_BASE + index} "burst" {root} 1 0'
                    ),
                }
                for index in range(burst)
            ]
            replies, shed = client.burst(requests)
            acked = sum(1 for reply in replies if reply.get("ok"))
            failed = len(replies) - acked - shed
            report.burst_sent = burst
            report.burst_acked = acked
            report.burst_shed = shed
            if failed:
                report.errors.append(
                    f"burst: {failed} replies were hard errors "
                    f"(neither acked nor shed)"
                )
            after = client.show(burst_doc)["nodes"]
            if after != before + acked:
                report.errors.append(
                    f"shed-correctness violated: doc {burst_doc} has "
                    f"{after} nodes, expected {before} + {acked} acked "
                    f"insert(s) = {before + acked} — a shed request "
                    f"mutated state"
                )
            if assert_shed and shed == 0:
                report.errors.append(
                    f"burst of {burst} pipelined writes shed nothing — "
                    f"admission control is not engaging"
                )

        # --- settle + final event sweep -------------------------------
        if subscribe:
            deadline = time.monotonic() + 5.0
            while report.events == 0 and time.monotonic() < deadline:
                report.events += len(client.drain_events(timeout=0.25))
            report.events += len(client.drain_events(timeout=0.25))
            if require_event and report.events == 0:
                report.errors.append(
                    "no standing-query event arrived although the "
                    "watched document was edited"
                )
            client.unsubscribe("driver-watch")
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="end-to-end client workload against a repro serve "
        "front door (seeding, edits, lookups, a standing query, and a "
        "forced-overload burst with shed-correctness checks)"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--tenant", default="default")
    parser.add_argument("--docs", type=int, default=8)
    parser.add_argument("--batches", type=int, default=24)
    parser.add_argument("--ops-per-batch", type=int, default=3)
    parser.add_argument("--tree-size", type=int, default=30)
    parser.add_argument(
        "--burst",
        type=int,
        default=200,
        help="pipelined apply_edits requests in the overload burst "
        "(0 disables the burst)",
    )
    parser.add_argument("--tau", type=float, default=0.8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--base-id", type=int, default=1000)
    parser.add_argument(
        "--no-subscribe",
        action="store_true",
        help="skip the standing-query subscription",
    )
    parser.add_argument(
        "--require-event",
        action="store_true",
        help="fail unless at least one standing-query event arrived",
    )
    parser.add_argument(
        "--assert-shed",
        action="store_true",
        help="fail unless the overload burst shed at least one request",
    )
    parser.add_argument("--boot-timeout", type=float, default=30.0)
    arguments = parser.parse_args(argv)
    report = run_workload(
        arguments.host,
        arguments.port,
        tenant=arguments.tenant,
        documents=arguments.docs,
        batches=arguments.batches,
        ops_per_batch=arguments.ops_per_batch,
        tree_size=arguments.tree_size,
        burst=arguments.burst,
        tau=arguments.tau,
        seed=arguments.seed,
        base_id=arguments.base_id,
        subscribe=not arguments.no_subscribe,
        require_event=arguments.require_event,
        assert_shed=arguments.assert_shed,
        boot_timeout=arguments.boot_timeout,
    )
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
