"""Deterministic load generation: ``(workload, seed)`` → inputs.

The program under test receives only what is generated here.  Every
seed tree is normalised through brackets — raw ``xmark_tree`` node ids
are not preorder, so a client mirror built from the raw tree would
disagree with the server on ids and ``apply_edits`` would be rejected
(``INS: range … invalid for fanout``).

Streams are drawn from ``random.Random("<workload>:<seed>:<lane>")``,
so the same seed yields the same requests whatever the timing, and the
digest of the generated frames (``inputs_sha256``) proves it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import harness  # noqa: F401  (puts the package source on sys.path)

from repro.core.config import GramConfig
from repro.core.distance import index_distance
from repro.core.index import PQGramIndex
from repro.datasets import dblp_tree, xmark_tree
from repro.edits.generator import EditScriptGenerator
from repro.edits.ops import EditOperation, Rename
from repro.edits.script import EditScript
from repro.edits.serialize import format_operations
from repro.hashing.labelhash import LabelHasher
from repro.serve.protocol import encode_frame
from repro.tree.builder import tree_from_brackets, tree_to_brackets
from repro.tree.tree import Tree

Documents = List[Tuple[int, Tree]]

LOOKUP_TAU = 0.5
HOT_QUERIES = 32
HOT_SHARE = 0.2
#: the `query` verb's structural predicate; about 57 % of the DBLP-like
#: records carry the label, so the predicate filters but never empties
QUERY_PREDICATE = [{"kind": "has_label", "label": "journal", "negated": False}]


def normalise(tree: Tree) -> Tree:
    return tree_from_brackets(tree_to_brackets(tree))


def lane_rng(workload: str, seed: int, lane: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{lane}")


def small_collection(count: int) -> Documents:
    """``count`` one-record DBLP documents (~14 nodes each).  The
    collection is the same for every seed — a seed draws the requests —
    so runs on different seeds differ in their inputs, not their data."""
    return [
        (index, normalise(dblp_tree(1, seed=index))) for index in range(count)
    ]


def large_collection(count: int, nodes: int) -> Documents:
    """``count`` XMark documents of ``nodes`` nodes each."""
    return [
        (index, normalise(xmark_tree(nodes, seed=index)))
        for index in range(count)
    ]


def node_count(documents: Sequence[Tuple[int, Tree]]) -> int:
    return sum(len(tree) for _, tree in documents)


# ----------------------------------------------------------------------
# lookups: 80 % never-repeated perturbed documents, 20 % a hot set
# ----------------------------------------------------------------------


def _perturbed(
    tree: Tree, rng: random.Random, generator: EditScriptGenerator
) -> Tree:
    """A stored document under 0–2 generated edits."""
    edits = rng.randrange(3)
    if not edits:
        return tree
    query = tree.copy()
    generator.generate(query, edits).apply(query)
    return query


def hot_queries(documents: Documents, workload: str, seed: int) -> List[str]:
    """The hot set: fits the 64-entry query LRU and, while nothing is
    written, the per-generation result cache."""
    rng = lane_rng(workload, seed, "hot")
    generator = EditScriptGenerator(rng=rng)
    return [
        tree_to_brackets(
            _perturbed(documents[rng.randrange(len(documents))][1], rng, generator)
        )
        for _ in range(HOT_QUERIES)
    ]


def lookup_stream(
    documents: Documents, hot: Sequence[str], rng: random.Random
) -> Iterator[str]:
    """Query brackets, endlessly."""
    generator = EditScriptGenerator(rng=rng)
    while True:
        if rng.random() < HOT_SHARE:
            yield hot[rng.randrange(len(hot))]
        else:
            tree = documents[rng.randrange(len(documents))][1]
            yield tree_to_brackets(_perturbed(tree, rng, generator))


# ----------------------------------------------------------------------
# edits: 1-op and 8-op batches, half aimed at the hottest tenth
# ----------------------------------------------------------------------

Batch = Tuple[int, List[EditOperation], str]


def edit_stream(owned: Documents, rng: random.Random) -> Iterator[Batch]:
    """``(document id, operations, WAL text)`` batches against evolving
    mirrors of the documents one connection owns, endlessly."""
    generator = EditScriptGenerator(rng=rng)
    mirrors = {document_id: tree.copy() for document_id, tree in owned}
    ids = [document_id for document_id, _ in owned]
    hot = ids[: max(1, len(ids) // 10)]
    cold = ids[len(hot) :] or hot
    while True:
        document_id = rng.choice(hot if rng.random() < 0.5 else cold)
        script = generator.generate(mirrors[document_id], rng.choice((1, 8)))
        script.apply(mirrors[document_id])
        operations = list(script)
        yield document_id, operations, format_operations(operations)


def replay(
    documents: Documents, batches: Sequence[Tuple[int, Sequence[EditOperation]]]
) -> Dict[int, Tree]:
    """The generator's own copy of every document after ``batches`` —
    what the store must hold once they are acknowledged."""
    expected = {document_id: tree.copy() for document_id, tree in documents}
    for document_id, operations in batches:
        EditScript(list(operations)).apply(expected[document_id])
    return expected


# ----------------------------------------------------------------------
# the feed and the crash log of `lifecycle`
# ----------------------------------------------------------------------


def changed_version(
    tree: Tree, rng: random.Random, generator: EditScriptGenerator
) -> Tree:
    """A later version of ``tree``, 1–3 generated edits away (edits can
    cancel out; an unchanged version would be no feed item)."""
    version = tree
    while tree_to_brackets(version) == tree_to_brackets(tree):
        version = tree.copy()
        generator.generate(version, 1 + rng.randrange(3)).apply(version)
    return version


def lifecycle_inputs(
    documents: Documents, seed: int, versions: int, crash_batches: int
) -> Tuple[Documents, List[Batch]]:
    """The changed versions fed after the build (each of a distinct
    document) and the edit batches the crash child acknowledges before
    it is killed (on documents the feed leaves alone)."""
    rng = lane_rng("lifecycle", seed, "feed")
    generator = EditScriptGenerator(rng=rng)
    feed = [
        (documents[index][0], changed_version(documents[index][1], rng, generator))
        for index in rng.sample(range(len(documents)), versions)
    ]
    fed = {document_id for document_id, _ in feed}
    untouched = [item for item in documents if item[0] not in fed]
    stream = edit_stream(
        untouched[:crash_batches], lane_rng("lifecycle", seed, "crash")
    )
    return feed, [next(stream) for _ in range(crash_batches)]


# ----------------------------------------------------------------------
# the open-loop mix with standing queries
# ----------------------------------------------------------------------

#: one period of the request mix: 27 lookups, 1 write, 2 predicate
#: queries.  At 60 requests a second that is 2 writes a second, so the
#: shipped checkpoint cadence (every 16 batches) stalls the store once
#: per 12 s window and well under 5 % of the requests meet the stall:
#: the p95 then reads the system between stalls and
#: ``within_limit_share`` the stall, and neither sits on the edge where
#: a slightly slower machine moves it from one regime to the other.
MIX_PERIOD = 30
_WRITE_SLOTS = (11,)
_QUERY_SLOTS = (4, 19)
STANDING_QUERIES = 4
#: even standing queries see `update` events (the toggled rename stays
#: inside τ), odd ones `leave`/`enter` (it crosses τ)
STANDING_TAUS = (0.3, 0.1)
_RECENT_WRITES = 16


@dataclass
class Request:
    """One scheduled request of the open loop."""

    due: float  # seconds after the window opens
    fields: Dict[str, object]  # what goes over the wire
    frame: bytes
    write: Optional[Tuple[int, List[EditOperation]]] = None  # apply_edits only

    @property
    def id(self) -> int:
        return self.fields["id"]  # type: ignore[return-value]

    @property
    def verb(self) -> str:
        return self.fields["verb"]  # type: ignore[return-value]


class MixedSchedule:
    """Every request of one ``mixed_open`` run, with due times, plus
    the standing-query events the writes must produce.

    Writes never revisit a document within ``_RECENT_WRITES`` writes:
    two pipelined batches for one document could otherwise be coalesced
    (one event, not two) or reordered by the two server workers.
    """

    def __init__(
        self, documents: Documents, seed: int, rate: float, seconds: float
    ) -> None:
        rng = lane_rng("mixed_open", seed, "requests")
        generator = EditScriptGenerator(rng=rng)
        hot = hot_queries(documents, "mixed_open", seed)
        lookups = lookup_stream(documents, hot, rng)
        mirrors = {document_id: tree.copy() for document_id, tree in documents}
        self.watched = [
            documents[index][0]
            for index in rng.sample(range(len(documents)), STANDING_QUERIES)
        ]
        self.subscriptions = [
            (
                f"watch-{position}",
                tree_to_brackets(mirrors[document_id]),
                STANDING_TAUS[position % 2],
            )
            for position, document_id in enumerate(self.watched)
        ]
        oracle = _StandingOracle(documents, self.subscriptions)
        self.initial_matches = oracle.initial_matches()
        self.requests: List[Request] = []
        #: (request index, query id, document id, kind, distance)
        self.expected_events: List[Tuple[int, str, int, str, float]] = []
        recent: List[int] = []
        writes = 0
        for index in range(int(rate * seconds)):
            slot = index % MIX_PERIOD
            fields: Dict[str, object] = {"id": index + 1, "tenant": "default"}
            write = None
            if slot in _WRITE_SLOTS:
                if writes % 2 == 0:
                    document_id = self.watched[(writes // 2) % STANDING_QUERIES]
                    operations = toggle_rename(mirrors[document_id])
                else:
                    document_id = rng.choice(
                        [
                            candidate
                            for candidate, _ in rng.sample(documents, 32)
                            if candidate not in recent
                            and candidate not in self.watched
                        ]
                    )
                    operations = list(
                        generator.generate(mirrors[document_id], 2)
                    )
                writes += 1
                recent = (recent + [document_id])[-_RECENT_WRITES:]
                EditScript(operations).apply(mirrors[document_id])
                write = (document_id, operations)
                for query_id, kind, distance in oracle.on_write(
                    document_id, mirrors[document_id]
                ):
                    self.expected_events.append(
                        (index, query_id, document_id, kind, distance)
                    )
                fields.update(
                    verb="apply_edits",
                    doc=document_id,
                    ops=format_operations(operations),
                )
            elif slot in _QUERY_SLOTS:
                fields.update(
                    verb="query",
                    query=next(lookups),
                    tau=LOOKUP_TAU,
                    predicates=QUERY_PREDICATE,
                )
            else:
                fields.update(verb="lookup", query=next(lookups), tau=LOOKUP_TAU)
            self.requests.append(
                Request(index / rate, fields, encode_frame(fields), write)
            )


def toggle_rename(tree: Tree) -> List[EditOperation]:
    """Rename the document's last leaf to a marked label, or back: the
    watched document oscillates around its standing query, so every
    such write yields an event for as long as the run lasts."""
    node_id = max(tree.node_ids())
    label = tree.label(node_id)
    renamed = label[:-1] if label.endswith("~") else label + "~"
    return [Rename(node_id, renamed)]


class _StandingOracle:
    """Brute-force membership of every standing query over the
    generator's own copies — the reference for the streamed events."""

    def __init__(
        self, documents: Documents, subscriptions: Sequence[Tuple[str, str, float]]
    ) -> None:
        self._config = GramConfig()
        self._hasher = LabelHasher()
        self._queries = [
            (query_id, self._index(tree_from_brackets(brackets)), tau)
            for query_id, brackets, tau in subscriptions
        ]
        self._members: Dict[str, Dict[int, float]] = {}
        for query_id, query_index, tau in self._queries:
            members = {}
            for document_id, tree in documents:
                distance = index_distance(query_index, self._index(tree))
                if distance < tau:
                    members[document_id] = distance
            self._members[query_id] = members

    def _index(self, tree: Tree) -> PQGramIndex:
        return PQGramIndex.from_tree(tree, self._config, self._hasher)

    def initial_matches(self) -> Dict[str, List[Tuple[int, float]]]:
        return {
            query_id: sorted(members.items(), key=lambda pair: (pair[1], pair[0]))
            for query_id, members in self._members.items()
        }

    def on_write(
        self, document_id: int, tree: Tree
    ) -> List[Tuple[str, str, float]]:
        events = []
        document_index = self._index(tree)
        for query_id, query_index, tau in self._queries:
            members = self._members[query_id]
            distance = index_distance(query_index, document_index)
            previous = members.get(document_id)
            if distance < tau:
                members[document_id] = distance
                if previous is None:
                    events.append((query_id, "enter", distance))
                elif previous != distance:
                    events.append((query_id, "update", distance))
            elif previous is not None:
                del members[document_id]
                events.append((query_id, "leave", distance))
        return events


# ----------------------------------------------------------------------
# brute-force lookup reference
# ----------------------------------------------------------------------


class BruteForce:
    """pq-gram distances of a query against the generator's own copies
    of the collection, with no index."""

    def __init__(self, documents: Documents) -> None:
        self._config = GramConfig()
        self._hasher = LabelHasher()
        self._indexes = [
            (document_id, PQGramIndex.from_tree(tree, self._config, self._hasher))
            for document_id, tree in documents
        ]

    def lookup(self, brackets: str, tau: float) -> List[Tuple[int, float]]:
        query = PQGramIndex.from_tree(
            tree_from_brackets(brackets), self._config, self._hasher
        )
        matches = []
        for document_id, index in self._indexes:
            distance = index_distance(query, index)
            if distance < tau:
                matches.append((document_id, distance))
        matches.sort(key=lambda pair: (pair[1], pair[0]))
        return matches
