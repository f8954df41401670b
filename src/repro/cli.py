"""Command-line interface.

``python -m repro <command>`` exposes the library's main workflows
over XML files and store directories:

- ``index``     build the pq-gram index of an XML file, print stats
- ``distance``  pq-gram distance between two XML files
- ``diff``      edit script between two XML file versions
- ``metrics``   open a store with observability on, emit the registry
- ``serve``     run the network front door over per-tenant stores
  (NDJSON protocol, admission control, graceful SIGTERM drain)
- ``store ...`` manage a durable document store:
  ``store create / add / edit / lookup / list / show /
  stats / verify / duplicates / soak``

``store --serve-threads N`` opens the store in concurrent serving mode
(snapshot-isolated lookups, coalesced group-commit writes, background
refreeze); ``store soak`` runs the concurrent endurance workload and is
expected to be followed by ``store verify``.

Examples::

    python -m repro index doc.xml --p 2 --q 3
    python -m repro distance old.xml new.xml
    python -m repro diff old.xml new.xml > edits.log
    python -m repro store --dir ./mystore --p 2 --q 3 create
    python -m repro store --dir ./mystore add 1 doc.xml
    python -m repro store --dir ./mystore edit 1 edits.log
    python -m repro store --dir ./mystore lookup query.xml --tau 0.4
    python -m repro store --dir ./mystore stats --metrics
    python -m repro store --dir ./mystore soak --threads 8 --duration 60
    python -m repro store --dir ./mystore verify
    python -m repro metrics --dir ./mystore --format prometheus
    python -m repro metrics --dir ./mystore --query query.xml --tau 0.4
    python -m repro serve --dir ./serving --port 7410 --tenants alpha,beta
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.config import GramConfig
from repro.core.distance import pq_gram_distance
from repro.core.index import PQGramIndex
from repro.edits.diff import diff_trees
from repro.edits.serialize import format_operations, parse_operations
from repro.errors import IndexConsistencyError, StorageError
from repro.hashing.labelhash import LabelHasher
from repro.service.store import DocumentStore
from repro.tree.traversal import tree_depth
from repro.xmlio.parser import tree_from_xml


def _add_gram_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=int, default=3, help="p-part length (default 3)")
    parser.add_argument("--q", type=int, default=3, help="q-part width (default 3)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Incrementally maintainable pq-gram index (VLDB 2006 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    index_parser = commands.add_parser("index", help="index an XML file")
    index_parser.add_argument("file", help="XML document")
    index_parser.add_argument(
        "--stream",
        action="store_true",
        help="build the index from the token stream without a DOM "
        "(O(depth) memory; tree statistics are skipped)",
    )
    index_parser.add_argument(
        "--dump",
        type=int,
        metavar="N",
        help="also print the N most frequent label tuples, decoded",
    )
    _add_gram_arguments(index_parser)

    distance_parser = commands.add_parser(
        "distance", help="pq-gram distance between two XML files"
    )
    distance_parser.add_argument("left")
    distance_parser.add_argument("right")
    _add_gram_arguments(distance_parser)

    diff_parser = commands.add_parser(
        "diff", help="edit script between two XML versions (old -> new)"
    )
    diff_parser.add_argument("old")
    diff_parser.add_argument("new")

    metrics_parser = commands.add_parser(
        "metrics",
        help="open a store with metrics enabled and emit the registry "
        "(covers recovery; add --query to also exercise a lookup)",
    )
    metrics_parser.add_argument("--dir", required=True, help="store directory")
    metrics_parser.add_argument(
        "--format",
        choices=("json", "prometheus"),
        default="json",
        help="exporter format (default json)",
    )
    metrics_parser.add_argument(
        "--query",
        metavar="FILE",
        default=None,
        help="also run one approximate lookup of this XML query so the "
        "pruning counters populate",
    )
    metrics_parser.add_argument("--tau", type=float, default=0.5)
    _add_gram_arguments(metrics_parser)

    serve_parser = commands.add_parser(
        "serve",
        help="run the network front door: an asyncio TCP server "
        "multiplexing per-tenant stores behind a newline-delimited "
        "JSON protocol (lookup/query/apply_edits/subscribe) with "
        "token-bucket + bounded-queue admission control; SIGTERM "
        "drains gracefully (stop accepting, flush, checkpoint, close)",
    )
    serve_parser.add_argument("--dir", required=True, help="serving root; tenant T lives in <dir>/T")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 binds an ephemeral port, announced on stdout)",
    )
    serve_parser.add_argument(
        "--tenants",
        default="default",
        help="comma-separated tenant names (default 'default')",
    )
    serve_parser.add_argument(
        "--serve-threads",
        type=int,
        default=4,
        metavar="N",
        help="worker threads for the verbs that can block (writes, "
        "subscriptions, stats; default 4) — snapshot reads run on the "
        "event loop",
    )
    serve_parser.add_argument(
        "--rate",
        type=float,
        default=200.0,
        help="token-bucket refill per tenant, requests/second (default 200)",
    )
    serve_parser.add_argument(
        "--burst",
        type=float,
        default=50.0,
        help="token-bucket capacity per tenant (default 50; 0 sheds "
        "every request — the tenant-off switch)",
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="admitted-but-unfinished requests per tenant before "
        "load-shedding (default 64)",
    )
    serve_parser.add_argument(
        "--max-wait",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="queue wait past which an admitted request is shed at "
        "pickup instead of executed (default 2.0)",
    )

    store_parser = commands.add_parser("store", help="manage a document store")
    store_parser.add_argument("--dir", required=True, help="store directory")
    store_parser.add_argument(
        "--serve-threads",
        type=int,
        default=0,
        metavar="N",
        help="open the store in concurrent serving mode for N client "
        "threads (snapshot-isolated lookups, coalesced group-commit "
        "writes, background refreeze); 0 (default) is the synchronous "
        "single-threaded mode",
    )
    _add_gram_arguments(store_parser)
    store_commands = store_parser.add_subparsers(dest="store_command", required=True)

    create_parser = store_commands.add_parser(
        "create",
        help="create an empty store (gram shape from store --p / --q)",
    )

    add_parser = store_commands.add_parser("add", help="add an XML document")
    add_parser.add_argument("doc_id", type=int)
    add_parser.add_argument("file")

    bulk_parser = store_commands.add_parser(
        "bulk", help="add many XML documents in one batch"
    )
    bulk_parser.add_argument("files", nargs="+", help="XML documents")
    bulk_parser.add_argument(
        "--start-id",
        type=int,
        default=None,
        help="id of the first document (default: first free id)",
    )

    edit_parser = store_commands.add_parser(
        "edit", help="apply an edit-log file to a document"
    )
    edit_parser.add_argument("doc_id", type=int)
    edit_parser.add_argument("log_file")

    lookup_parser = store_commands.add_parser(
        "lookup", help="approximate lookup of an XML query"
    )
    lookup_parser.add_argument("file")
    lookup_parser.add_argument("--tau", type=float, default=0.5)

    query_parser = store_commands.add_parser(
        "query",
        help="approximate lookup with structural predicates "
        "(post-filtered over the stored documents of the matches)",
    )
    query_parser.add_argument("file", help="XML query document")
    query_group = query_parser.add_mutually_exclusive_group()
    query_group.add_argument(
        "--tau",
        type=float,
        default=None,
        help="distance threshold (default 0.5 unless --top-k is given)",
    )
    query_group.add_argument(
        "--top-k",
        type=int,
        default=None,
        metavar="K",
        help="return the K nearest matches instead of thresholding",
    )
    query_parser.add_argument(
        "--has-path",
        action="append",
        default=[],
        metavar="A/B/C",
        help="keep only documents containing this root-to-leaf label "
        "chain along the descendant axis (repeatable)",
    )
    query_parser.add_argument(
        "--has-label",
        action="append",
        default=[],
        metavar="LABEL",
        help="keep only documents containing this label (repeatable)",
    )
    query_parser.add_argument(
        "--without-path",
        action="append",
        default=[],
        metavar="A/B/C",
        help="drop documents containing this label chain (repeatable)",
    )
    query_parser.add_argument(
        "--without-label",
        action="append",
        default=[],
        metavar="LABEL",
        help="drop documents containing this label (repeatable)",
    )
    query_parser.add_argument(
        "--explain",
        action="store_true",
        help="also print the normalized plan",
    )

    store_commands.add_parser("list", help="list stored documents")

    stats_parser = store_commands.add_parser(
        "stats",
        help="store-wide counters (documents, pq-grams, index "
        "postings, hasher memo, WAL bytes "
        "since the last snapshot and the snapshot's size)",
    )
    stats_parser.add_argument(
        "--metrics",
        action="store_true",
        help="also emit the full observability registry (recovery, "
        "WAL, sweep and pruning counters)",
    )
    stats_parser.add_argument(
        "--format",
        choices=("json", "prometheus"),
        default="json",
        help="registry exporter format used with --metrics",
    )

    show_parser = store_commands.add_parser("show", help="document statistics")
    show_parser.add_argument("doc_id", type=int)

    store_commands.add_parser(
        "verify",
        help="check every maintained index against a from-scratch rebuild",
    )

    dupes_parser = store_commands.add_parser(
        "duplicates", help="similarity self-join over the stored documents"
    )
    dupes_parser.add_argument("--tau", type=float, default=0.3)

    soak_parser = store_commands.add_parser(
        "soak",
        help="concurrent soak: writer threads stream edit batches while "
        "reader threads run lookups against snapshot-isolated views; "
        "follow up with 'store verify' to check the maintained indexes",
    )
    soak_parser.add_argument(
        "--threads", type=int, default=4, metavar="N",
        help="writer threads (each owns a disjoint document slice)",
    )
    soak_parser.add_argument(
        "--readers", type=int, default=None, metavar="M",
        help="reader threads (default: same as --threads)",
    )
    soak_parser.add_argument(
        "--duration", type=float, default=10.0, metavar="SECONDS",
        help="wall-clock run time (default 10s)",
    )
    soak_parser.add_argument(
        "--docs-per-writer", type=int, default=4, metavar="K",
        help="fresh documents seeded per writer (default 4)",
    )
    soak_parser.add_argument(
        "--ops-per-batch", type=int, default=4, metavar="X",
        help="max edit operations per batch (default 4)",
    )
    soak_parser.add_argument(
        "--tree-size", type=int, default=40, metavar="NODES",
        help="node count of the seeded documents (default 40)",
    )
    soak_parser.add_argument("--tau", type=float, default=0.6)
    soak_parser.add_argument("--seed", type=int, default=0)
    soak_parser.add_argument(
        "--standing", type=int, default=0, metavar="Q",
        help="register Q standing queries before the run and assert "
        "continuous notification correctness (default 0)",
    )

    watch_parser = store_commands.add_parser(
        "watch",
        help="register a standing query: matches are maintained "
        "incrementally from each write batch's delta pq-grams and "
        "membership changes stream out as enter/leave/update events",
    )
    watch_parser.add_argument("file", help="XML query document")
    watch_group = watch_parser.add_mutually_exclusive_group()
    watch_group.add_argument(
        "--tau",
        type=float,
        default=None,
        help="distance threshold (default 0.5 unless --top-k is given)",
    )
    watch_group.add_argument(
        "--top-k", type=int, default=None, metavar="K",
        help="watch the K nearest matches instead of thresholding",
    )
    watch_parser.add_argument(
        "--has-path", action="append", default=[], metavar="A/B/C",
        help="keep only documents containing this label chain (repeatable)",
    )
    watch_parser.add_argument(
        "--has-label", action="append", default=[], metavar="LABEL",
        help="keep only documents containing this label (repeatable)",
    )
    watch_parser.add_argument(
        "--without-path", action="append", default=[], metavar="A/B/C",
        help="drop documents containing this label chain (repeatable)",
    )
    watch_parser.add_argument(
        "--without-label", action="append", default=[], metavar="LABEL",
        help="drop documents containing this label (repeatable)",
    )
    watch_parser.add_argument(
        "--id", default="watch", metavar="QUERY_ID",
        help="standing query id (default 'watch')",
    )
    watch_parser.add_argument(
        "--feed", default=None, metavar="FILE",
        help="ingest a feed of document versions ('DOC_ID XML_PATH' per "
        "line) and print each notification as it fires",
    )
    watch_parser.add_argument(
        "--keep",
        action="store_true",
        help="leave the subscription registered at exit (it persists in "
        "the store checkpoint; without this flag it is unsubscribed)",
    )
    return parser


def _command_index(arguments: argparse.Namespace) -> int:
    config = GramConfig(arguments.p, arguments.q)
    hasher = LabelHasher(keep_reverse_map=arguments.dump is not None)
    print(f"document:            {arguments.file}")
    if arguments.stream:
        from repro.xmlio.stream import stream_index_xml_file

        index = stream_index_xml_file(arguments.file, config, hasher)
        print("mode:                streaming (no DOM)")
    else:
        tree = tree_from_xml(arguments.file)
        index = PQGramIndex.from_tree(tree, config, hasher)
        print(f"nodes:               {len(tree)}")
        print(f"depth:               {tree_depth(tree)}")
    print(f"gram shape:          {config}")
    print(f"pq-grams:            {index.size()}")
    print(f"distinct label tuples: {index.distinct_size()}")
    print(f"index size (approx): {index.serialized_size_bytes()} bytes")
    if arguments.dump is not None:
        from repro.core.inspect import explain_index

        print()
        print(explain_index(index, hasher, limit=arguments.dump))
    return 0


def _command_distance(arguments: argparse.Namespace) -> int:
    left = tree_from_xml(arguments.left)
    right = tree_from_xml(arguments.right)
    config = GramConfig(arguments.p, arguments.q)
    distance = pq_gram_distance(left, right, config)
    print(f"{distance:.6f}")
    return 0


def _command_diff(arguments: argparse.Namespace) -> int:
    old = tree_from_xml(arguments.old)
    new = tree_from_xml(arguments.new)
    script = diff_trees(old, new)
    if script:
        print(format_operations(script))
    print(f"# {len(script)} operation(s)", file=sys.stderr)
    return 0


def _print_metrics(store: DocumentStore, format_name: str) -> None:
    if format_name == "prometheus":
        sys.stdout.write(store.metrics_prometheus())
        return
    import json

    print(json.dumps(store.metrics(), indent=2, sort_keys=True))


def _command_metrics(arguments: argparse.Namespace) -> int:
    store = DocumentStore(
        arguments.dir, GramConfig(arguments.p, arguments.q), metrics=True
    )
    if arguments.query is not None:
        store.lookup(tree_from_xml(arguments.query), arguments.tau)
    _print_metrics(store, arguments.format)
    return 0


def _command_serve(arguments: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serve import AdmissionPolicy, FrontDoor

    tenants = [
        name.strip() for name in arguments.tenants.split(",") if name.strip()
    ] or ["default"]
    front_door = FrontDoor(
        directory=arguments.dir,
        tenants=tenants,
        host=arguments.host,
        port=arguments.port,
        serve_threads=arguments.serve_threads,
        policy=AdmissionPolicy(
            rate=arguments.rate,
            burst=arguments.burst,
            max_queue=arguments.max_queue,
            max_wait_seconds=arguments.max_wait,
        ),
    )

    async def serve() -> None:
        loop = asyncio.get_running_loop()

        def report_drain(task: "asyncio.Task[None]") -> None:
            error = task.exception()
            if error is not None:
                print(f"drain failed: {error}", file=sys.stderr)

        def initiate_drain(signal_name: str) -> None:
            print(f"{signal_name}: draining...", file=sys.stderr)
            asyncio.ensure_future(front_door.drain()).add_done_callback(
                report_drain
            )

        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, initiate_drain, signal.Signals(signum).name
            )

        def announce(door: FrontDoor) -> None:
            print(
                f"serving tenant(s) {', '.join(tenants)} on "
                f"{arguments.host}:{door.port}",
                flush=True,
            )

        await front_door.run(on_ready=announce)

    asyncio.run(serve())
    print("drained and closed", flush=True)
    return 0


def _command_store(arguments: argparse.Namespace) -> int:
    if arguments.store_command == "create":
        import os

        if os.path.exists(os.path.join(arguments.dir, "store.db")):
            raise StorageError(f"store already exists at {arguments.dir}")
        DocumentStore(arguments.dir, GramConfig(arguments.p, arguments.q))
        print(f"created store at {arguments.dir}")
        return 0
    serve_threads = arguments.serve_threads
    if arguments.store_command == "soak" and serve_threads == 0:
        # The soak is meaningless without the serving machinery.
        serve_threads = arguments.threads
    store = DocumentStore(
        arguments.dir,
        GramConfig(arguments.p, arguments.q),
        metrics=getattr(arguments, "metrics", False) or None,
        serve_threads=serve_threads,
    )
    try:
        return _run_store_command(store, arguments)
    finally:
        if serve_threads:
            store.close()


def _plan_from_arguments(arguments: argparse.Namespace):
    """The shared plan builder of ``store query`` and ``store watch``:
    one retrieval root (τ threshold or top-k) plus the repeatable
    structural predicate flags."""
    from repro.query import And, ApproxLookup, HasLabel, HasPath, Not, TopK

    query = tree_from_xml(arguments.file)
    if arguments.top_k is not None:
        retrieval = TopK(query, arguments.top_k)
    else:
        retrieval = ApproxLookup(
            query, 0.5 if arguments.tau is None else arguments.tau
        )
    parts = [retrieval]
    parts.extend(HasPath(path) for path in arguments.has_path)
    parts.extend(HasLabel(label) for label in arguments.has_label)
    parts.extend(Not(HasPath(path)) for path in arguments.without_path)
    parts.extend(Not(HasLabel(label)) for label in arguments.without_label)
    return parts[0] if len(parts) == 1 else And(*parts)


def _run_store_command(
    store: DocumentStore, arguments: argparse.Namespace
) -> int:
    if arguments.store_command == "add":
        store.add_document(arguments.doc_id, tree_from_xml(arguments.file))
        print(f"added document {arguments.doc_id}")
    elif arguments.store_command == "bulk":
        start_id = arguments.start_id
        if start_id is None:
            start_id = max(store.document_ids(), default=-1) + 1
        items = [
            (start_id + offset, tree_from_xml(path))
            for offset, path in enumerate(arguments.files)
        ]
        store.add_documents(items)
        print(
            f"added {len(items)} document(s) "
            f"(ids {start_id}..{start_id + len(items) - 1})"
        )
    elif arguments.store_command == "edit":
        with open(arguments.log_file, "r", encoding="utf-8") as handle:
            operations = parse_operations(handle.read())
        store.apply_edits(arguments.doc_id, operations)
        print(
            f"applied {len(operations)} operation(s) to document "
            f"{arguments.doc_id}; index maintained incrementally"
        )
    elif arguments.store_command == "stats":
        for key, value in store.stats().items():
            print(f"{key}: {value}")
        if arguments.metrics:
            print()
            _print_metrics(store, arguments.format)
    elif arguments.store_command == "lookup":
        query = tree_from_xml(arguments.file)
        result = store.lookup(query, arguments.tau)
        if not result.matches:
            print(f"no documents within tau={arguments.tau}")
        for document_id, distance in result.matches:
            print(f"doc {document_id}\tdistance {distance:.4f}")
    elif arguments.store_command == "query":
        from repro.query import describe

        plan = _plan_from_arguments(arguments)
        result = store.query(plan)
        if arguments.explain:
            print(f"# plan: {describe(plan)}", file=sys.stderr)
        if not result.matches:
            print("no documents matched")
        for document_id, distance in result.matches:
            print(f"doc {document_id}\tdistance {distance:.4f}")
    elif arguments.store_command == "list":
        for document_id in store.document_ids():
            document = store.get_document(document_id)
            print(f"doc {document_id}\t{len(document)} nodes")
    elif arguments.store_command == "show":
        document = store.get_document(arguments.doc_id)
        index = store.get_index(arguments.doc_id)
        print(f"doc {arguments.doc_id}: {len(document)} nodes, "
              f"depth {tree_depth(document)}, "
              f"{index.size()} pq-grams "
              f"({index.distinct_size()} distinct)")
    elif arguments.store_command == "verify":
        mismatched: List[int] = []
        for document_id in store.document_ids():
            rebuilt = PQGramIndex.from_tree(
                store.get_document(document_id),
                store.config,
                store._forest.hasher,
            )
            status = "ok" if rebuilt == store.get_index(document_id) else "MISMATCH"
            if status != "ok":
                mismatched.append(document_id)
            print(f"doc {document_id}\t{status}")
        backend_ok = True
        try:
            store._forest.backend.check_consistency()
            print("backend consistency\tok")
        except IndexConsistencyError as exc:
            backend_ok = False
            print(f"backend consistency\tFAILED: {exc}")
        print(
            f"{len(store)} document(s) verified, "
            f"{len(mismatched)} mismatch(es)"
        )
        if mismatched:
            print(
                "mismatched ids: "
                + ", ".join(str(document_id) for document_id in mismatched)
            )
        return 1 if mismatched or not backend_ok else 0
    elif arguments.store_command == "duplicates":
        from repro.lookup.join import self_join

        pairs, stats = self_join(store._forest, arguments.tau)
        for left_id, right_id, distance in pairs:
            print(f"doc {left_id}\tdoc {right_id}\tdistance {distance:.4f}")
        print(
            f"# {stats.results} pair(s) within tau={arguments.tau} "
            f"({stats.candidate_pairs}/{stats.total_pairs} pairs shared pq-grams)",
            file=sys.stderr,
        )
    elif arguments.store_command == "watch":
        plan = _plan_from_arguments(arguments)

        def print_notification(event) -> None:
            print(
                f"{event.kind}\tdoc {event.document_id}"
                f"\tdistance {event.distance:.4f}\tseq {event.seq}"
            )

        matches = store.subscribe(
            arguments.id, plan, listener=print_notification
        )
        print(
            f"# standing query {arguments.id!r}: "
            f"{len(matches)} initial match(es)",
            file=sys.stderr,
        )
        for document_id, distance in matches:
            print(f"doc {document_id}\tdistance {distance:.4f}")
        if arguments.feed is not None:
            from repro.stream import ingest_snapshot

            with open(arguments.feed, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    document_id_text, xml_path = line.split(None, 1)
                    outcome, operation_count = ingest_snapshot(
                        store, int(document_id_text), tree_from_xml(xml_path)
                    )
                    print(
                        f"# feed: doc {document_id_text} {outcome} "
                        f"({operation_count} operation(s))",
                        file=sys.stderr,
                    )
            store.flush()
        if arguments.keep:
            print(
                f"# subscription {arguments.id!r} kept "
                "(durable in the store checkpoint)",
                file=sys.stderr,
            )
        else:
            store.unsubscribe(arguments.id)
    elif arguments.store_command == "soak":
        from repro.service.soak import run_soak

        report = run_soak(
            store,
            writers=arguments.threads,
            readers=(
                arguments.readers
                if arguments.readers is not None
                else arguments.threads
            ),
            duration=arguments.duration,
            docs_per_writer=arguments.docs_per_writer,
            ops_per_batch=arguments.ops_per_batch,
            tree_size=arguments.tree_size,
            tau=arguments.tau,
            seed=arguments.seed,
            standing_queries=arguments.standing,
        )
        print(report.summary())
        return 0 if report.ok else 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    arguments = _build_parser().parse_args(argv)
    handlers = {
        "index": _command_index,
        "distance": _command_distance,
        "diff": _command_diff,
        "metrics": _command_metrics,
        "serve": _command_serve,
        "store": _command_store,
    }
    try:
        return handlers[arguments.command](arguments)
    except BrokenPipeError:
        return 0  # output piped into a pager/head that closed early
    except Exception as exc:  # surface errors as clean one-liners
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
