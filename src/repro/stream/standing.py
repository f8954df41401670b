"""Standing queries: continuous τ-neighborhood evaluation from Δ-keys.

The paper's incremental maintenance machinery computes, for every edit
batch, the net delta bags ``(minus, plus)`` of the touched document.
This module closes the loop for *live* workloads: a
:class:`StandingQuery` registers a normalized :mod:`repro.query` plan
(``ApproxLookup``/``TopK`` plus structural predicates) and is notified
with ``enter``/``leave``/``update`` events whenever a write batch moves
a document across (or within) its neighborhood — the continuous
variant of Oflazer's error-tolerant retrieval setting.

The cost model is the whole point.  A subscription index maps every
distinct pq-gram key of every registered query to the queries holding
it, and each write batch is routed by its Δ-keys:

- a query whose key set is disjoint from the Δ-keys *and* whose
  per-document state cannot have moved (document size unchanged, no
  predicate trigger label in the Δ) is skipped without any arithmetic
  (``standing_eval_skipped_total{reason="delta_keys"}``);
- an intersecting query updates its cached bag overlap in
  O(|Δ ∩ query keys|) integer steps — the same net delta the backend
  applied, so the cached overlap stays exactly
  ``Σ_k min(cnt_query(k), cnt_doc(k))``;
- before any distance is materialized, the τ size bound
  (:func:`repro.core.distance.size_bound_admits`) gets a veto: a
  non-member whose sizes already forbid ``distance < τ`` is dropped
  untouched (``standing_eval_skipped_total{reason="size_bound"}``).

Soundness of the skip rule: the pq-gram distance depends only on the
bag overlap and the two bag sizes.  Edits that change neither the
overlap (no shared Δ-key) nor the document size cannot move the
distance; zero-overlap documents sit pinned at the no-overlap distance
1.0 whatever their size (for a non-empty query bag), so size-only
changes skip those too.  Structural predicates re-evaluate only when a
Δ-key tuple contains one of the predicate's label hashes — every node
edit folds the touched node's label hash into its delta pq-grams, and
insert/delete of unrelated intermediate nodes can neither create nor
break a descendant chain — except for subtree ``Move`` batches, whose
ancestry rewiring is not label-visible, so a batch containing a move
always re-evaluates the predicates.

Distances are computed with the exact expressions of the scan path
(:func:`distance_from_overlap` over integer overlaps), so incremental
membership is bit-identical to re-running
:func:`repro.query.executor.execute_plan` from scratch — the invariant
the differential oracle suite enforces per batch.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.distance import distance_from_overlap, size_bound_admits
from repro.core.index import PQGramIndex
from repro.edits.move import Move
from repro.edits.ops import EditOperation
from repro.errors import QueryError
from repro.lookup.forest import ForestIndex
from repro.obsv.metrics import MetricsRegistry, resolve_registry
from repro.query.plan import (
    ApproxLookup,
    HasLabel,
    HasPath,
    NormalizedPlan,
    Not,
    Plan,
    TopK,
    normalize_plan,
)
from repro.query.structural import tree_matches
from repro.tree.builder import tree_from_brackets, tree_to_brackets
from repro.tree.tree import Tree

Key = Tuple[int, ...]
Bag = Mapping[Key, int]
DocumentProvider = Callable[[int], Tree]
Listener = Callable[["Notification"], None]

#: event kinds, in the order ties are reported within one batch
ENTER, LEAVE, UPDATE = "enter", "leave", "update"


@dataclass(frozen=True)
class Notification:
    """One membership event of one standing query.

    ``distance`` is the document's pq-gram distance *after* the batch
    (for a removed document: its last known distance).  ``seq`` is the
    commit sequence of the batch that caused the event — recovery
    reconciliation stamps the post-replay frontier.
    """

    query_id: str
    document_id: int
    kind: str  # "enter" | "leave" | "update"
    distance: float
    seq: int


class StandingQuery:
    """One registered plan plus its incremental evaluation state."""

    __slots__ = (
        "query_id",
        "plan",
        "qbag",
        "qsize",
        "keys",
        "tau",
        "k",
        "predicates",
        "trigger_hashes",
        "overlaps",
        "members",
        "pred_ok",
        "listener",
    )

    def __init__(
        self,
        query_id: str,
        plan: NormalizedPlan,
        qbag: Dict[Key, int],
        trigger_hashes: FrozenSet[int],
        listener: Optional[Listener],
    ) -> None:
        self.query_id = query_id
        self.plan = plan
        self.qbag = qbag
        self.qsize = sum(qbag.values())
        self.keys: FrozenSet[Key] = frozenset(qbag)
        retrieval = plan.retrieval
        self.tau: Optional[float] = (
            float(retrieval.tau) if isinstance(retrieval, ApproxLookup) else None
        )
        self.k: Optional[int] = (
            retrieval.k if isinstance(retrieval, TopK) else None
        )
        self.predicates = plan.predicates
        self.trigger_hashes = trigger_hashes
        #: sparse cache: document → multiset bag overlap (> 0 only)
        self.overlaps: Dict[int, int] = {}
        #: current neighborhood: document → distance
        self.members: Dict[int, float] = {}
        #: predicate verdict per document (only when predicates exist)
        self.pred_ok: Dict[int, bool] = {}
        self.listener = listener

    def matches(self) -> List[Tuple[int, float]]:
        """Current membership, sorted like executor matches."""
        return sorted(self.members.items(), key=lambda pair: (pair[1], pair[0]))


def plan_to_spec(plan: "Plan | NormalizedPlan") -> Dict[str, object]:
    """A JSON-ready description of one plan (checkpoint persistence)."""
    normalized = normalize_plan(plan)
    retrieval = normalized.retrieval
    spec: Dict[str, object] = {
        "query": tree_to_brackets(retrieval.query)  # type: ignore[attr-defined]
    }
    if isinstance(retrieval, ApproxLookup):
        spec["tau"] = float(retrieval.tau)
    else:
        spec["k"] = retrieval.k  # type: ignore[attr-defined]
    predicates = []
    for predicate, negated in normalized.predicates:
        if isinstance(predicate, HasLabel):
            predicates.append(
                {"kind": "has_label", "label": predicate.label, "negated": negated}
            )
        else:
            predicates.append(
                {
                    "kind": "has_path",
                    "labels": list(predicate.labels),  # type: ignore[attr-defined]
                    "negated": negated,
                }
            )
    spec["predicates"] = predicates
    return spec


def plan_from_spec(spec: Mapping[str, object]) -> NormalizedPlan:
    """Rebuild a normalized plan persisted with :func:`plan_to_spec`.

    Specs also arrive in untrusted ``query`` / ``subscribe`` frames, and
    ``subscribe`` persists them, so each field is checked for the type
    :func:`plan_to_spec` writes: a malformed spec raises
    :class:`~repro.errors.QueryError` instead of decoding to some other
    plan."""
    query = tree_from_brackets(spec["query"])  # type: ignore[arg-type]
    if "tau" in spec:
        tau = float(spec["tau"])  # type: ignore[arg-type]
        if math.isnan(tau):
            raise QueryError("tau must be a number, not NaN")
        retrieval: Plan = ApproxLookup(query, tau)
    else:
        retrieval = TopK(query, int(spec["k"]))  # type: ignore[arg-type]
    predicates = spec.get("predicates", [])
    if not isinstance(predicates, list):
        raise QueryError("predicates must be a list of objects")
    parts: List[Plan] = [retrieval]
    parts.extend(_predicate_from_spec(entry) for entry in predicates)
    from repro.query.plan import And

    return normalize_plan(And(*parts) if len(parts) > 1 else parts[0])


def _predicate_from_spec(entry: object) -> Plan:
    if not isinstance(entry, Mapping):
        raise QueryError("each predicate must be an object")
    kind = entry.get("kind")
    if kind == "has_label":
        label = entry.get("label")
        if not isinstance(label, str):
            raise QueryError("has_label needs a string label")
        predicate: Plan = HasLabel(label)
    elif kind == "has_path":
        labels = entry.get("labels")
        if not isinstance(labels, list) or not all(
            isinstance(label, str) for label in labels
        ):
            raise QueryError("has_path needs labels as a list of strings")
        predicate = HasPath(tuple(labels))
    else:
        raise QueryError(
            f"unknown predicate kind {kind!r}; valid kinds: has_label, has_path"
        )
    negated = entry.get("negated", False)
    if not isinstance(negated, bool):
        raise QueryError("negated must be true or false")
    return Not(predicate) if negated else predicate


def _predicate_labels(predicates) -> Set[str]:
    labels: Set[str] = set()
    for predicate, _ in predicates:
        if isinstance(predicate, HasLabel):
            labels.add(predicate.label)
        else:
            labels.update(predicate.labels)
    return labels


class StandingQueryEngine:
    """Routes write-batch delta bags to registered standing queries.

    Works against a bare :class:`ForestIndex` (benchmarks, embedders)
    or as the :class:`~repro.service.store.DocumentStore`'s engine —
    the store feeds ``on_add``/``on_remove``/``on_delta`` from its
    commit path, persists subscriptions + membership in its checkpoint,
    and calls :meth:`reconcile` after recovery so the event stream is
    exactly-once relative to the durable frontier.

    Thread-safety: all mutating entry points serialize on one internal
    lock; callers dispatch the returned events *outside* their own
    commit critical section via :meth:`dispatch`.
    """

    def __init__(
        self,
        forest: ForestIndex,
        documents: Optional[DocumentProvider] = None,
        metrics: "Optional[MetricsRegistry | bool]" = None,
        buffer_limit: Optional[int] = 65536,
    ) -> None:
        self._forest = forest
        self._documents = documents
        self._metrics = (
            forest.metrics if metrics is None else resolve_registry(metrics)
        )
        self._queries: Dict[str, StandingQuery] = {}
        self._subscriptions: Dict[Key, Set[str]] = {}
        self._docs: Set[int] = set(forest.tree_ids())
        self._lock = threading.RLock()
        self._buffer: Deque[Notification] = deque(maxlen=buffer_limit)
        #: wall seconds spent in incremental maintenance (benchmarks)
        self.seconds_total = 0.0
        self.batches_total = 0
        registry = self._metrics
        self._m_active = registry.gauge(
            "standing_queries_active", "currently registered standing queries"
        )
        self._m_notifications = {
            kind: registry.counter(
                "notifications_total",
                "standing-query membership events emitted",
                kind=kind,
            )
            for kind in (ENTER, LEAVE, UPDATE)
        }
        self._m_skipped = {
            reason: registry.counter(
                "standing_eval_skipped_total",
                "per-(query, document) evaluations skipped by the "
                "Δ-key prune ledger",
                reason=reason,
            )
            for reason in ("delta_keys", "size_bound")
        }
        self._m_evaluations = registry.counter(
            "standing_evaluations_total",
            "per-(query, document) incremental re-scores performed",
        )
        self._m_batches = registry.counter(
            "standing_batches_total", "write batches routed to standing queries"
        )
        self._m_listener_errors = registry.counter(
            "standing_listener_errors_total",
            "listener callbacks that raised (swallowed by dispatch)",
        )
        self._m_notify_seconds = registry.histogram(
            "standing_notify_seconds",
            "incremental standing-query maintenance per write batch",
        )

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._queries)

    def query_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._queries)

    def plan_of(self, query_id: str) -> NormalizedPlan:
        return self._require(query_id).plan

    def matches(self, query_id: str) -> List[Tuple[int, float]]:
        """Current τ-neighborhood of one query, nearest first."""
        with self._lock:
            return self._require(query_id).matches()

    def _require(self, query_id: str) -> StandingQuery:
        try:
            return self._queries[query_id]
        except KeyError:
            raise QueryError(f"no standing query {query_id!r}") from None

    def subscribe(
        self,
        query_id: str,
        plan: "Plan | NormalizedPlan",
        listener: Optional[Listener] = None,
    ) -> List[Tuple[int, float]]:
        """Register a plan and return its initial neighborhood.

        The initial evaluation is one candidates sweep (the same
        overlap accumulation the lookup path runs); subsequent batches
        maintain the membership incrementally.  Events are emitted only
        for *changes* after this call.
        """
        with self._lock:
            if query_id in self._queries:
                raise QueryError(f"standing query {query_id!r} already exists")
            state = self._make_state(query_id, plan, listener)
            self._evaluate_full(state)
            self._queries[query_id] = state
            for key in state.keys:
                self._subscriptions.setdefault(key, set()).add(query_id)
            self._m_active.set(len(self._queries))
            return state.matches()

    def restore_subscription(
        self,
        query_id: str,
        spec: Mapping[str, object],
        members: Dict[int, float],
        listener: Optional[Listener] = None,
    ) -> None:
        """Re-attach a persisted subscription at its durable frontier.

        ``members`` is the membership the checkpoint recorded; the
        caller must follow up with :meth:`reconcile` (after WAL replay)
        to refresh the caches and emit exactly the catch-up events the
        crash swallowed.
        """
        with self._lock:
            if query_id in self._queries:
                raise QueryError(f"standing query {query_id!r} already exists")
            state = self._make_state(query_id, plan_from_spec(spec), listener)
            state.members = dict(members)
            self._queries[query_id] = state
            for key in state.keys:
                self._subscriptions.setdefault(key, set()).add(query_id)
            self._m_active.set(len(self._queries))

    def attach_listener(
        self, query_id: str, listener: Optional[Listener]
    ) -> None:
        """(Re)bind the listener of one registered query — listeners
        are process-local and do not survive a restore."""
        with self._lock:
            self._require(query_id).listener = listener

    def unsubscribe(self, query_id: str) -> None:
        with self._lock:
            state = self._require(query_id)
            del self._queries[query_id]
            for key in state.keys:
                holders = self._subscriptions.get(key)
                if holders is not None:
                    holders.discard(query_id)
                    if not holders:
                        del self._subscriptions[key]
            self._m_active.set(len(self._queries))

    def describe_subscriptions(
        self,
    ) -> List[Tuple[str, Dict[str, object], Dict[int, float]]]:
        """``(query_id, plan spec, membership)`` rows for checkpointing."""
        with self._lock:
            return [
                (query_id, plan_to_spec(state.plan), dict(state.members))
                for query_id, state in sorted(self._queries.items())
            ]

    def _make_state(
        self,
        query_id: str,
        plan: "Plan | NormalizedPlan",
        listener: Optional[Listener],
    ) -> StandingQuery:
        normalized = normalize_plan(plan)
        if normalized.predicates and self._documents is None:
            raise QueryError(
                "standing queries with structural predicates need a "
                "document provider"
            )
        query_index = PQGramIndex.from_tree(
            normalized.retrieval.query,  # type: ignore[attr-defined]
            self._forest.config,
            self._forest.hasher,
        )
        triggers = frozenset(
            self._forest.hasher.hash_label(label)
            for label in _predicate_labels(normalized.predicates)
        )
        return StandingQuery(
            query_id, normalized, dict(query_index.items()), triggers, listener
        )

    # ------------------------------------------------------------------
    # full (re-)evaluation — subscribe time and recovery reconcile
    # ------------------------------------------------------------------

    def _evaluate_full(self, state: StandingQuery) -> None:
        """Rebuild overlaps, predicate verdicts and membership from the
        live backend — the non-incremental reference path."""
        backend = self._forest.backend
        self._docs = set(backend.tree_ids())
        state.overlaps = {
            tree_id: shared
            for tree_id, shared in backend.candidates(
                state.qbag.items()
            ).items()
            if shared > 0
        }
        if state.predicates:
            state.pred_ok = {
                document_id: self._predicate_verdict(state, document_id)
                for document_id in self._docs
            }
        if state.k is not None:
            state.members = self._topk_select(state)
            return
        members: Dict[int, float] = {}
        for document_id in self._docs:
            if state.predicates and not state.pred_ok.get(document_id, False):
                continue
            distance = distance_from_overlap(
                state.overlaps.get(document_id, 0),
                state.qsize + backend.tree_size(document_id),
            )
            if distance < state.tau:  # type: ignore[operator]
                members[document_id] = distance
        state.members = members

    def reconcile(self, seq: int) -> List[Notification]:
        """Recompute every query from the live backend and emit the
        difference to its recorded membership.

        After recovery this turns the durable frontier (the persisted
        membership) plus the replayed WAL into exactly the events a
        subscriber has not seen: states the checkpoint already covered
        produce nothing, everything newer produces one enter/leave/
        update — never a duplicate, never a drop.
        """
        events: List[Notification] = []
        with self._lock:
            for state in self._queries.values():
                recorded = state.members
                self._evaluate_full(state)
                self._diff_members(state, recorded, state.members, seq, events)
        self._buffer.extend(events)
        return events

    # ------------------------------------------------------------------
    # incremental maintenance — the write-path hooks
    # ------------------------------------------------------------------

    def on_add(self, document_id: int, seq: int) -> List[Notification]:
        """A document was added (and indexed) — score it once."""
        events: List[Notification] = []
        with self._lock:
            self._docs.add(document_id)
            if not self._queries:
                return events
            backend = self._forest.backend
            bag = backend.tree_bag(document_id)
            for state in self._queries.values():
                overlap = 0
                for key, count in state.qbag.items():
                    held = bag.get(key, 0)
                    if held:
                        overlap += min(count, held)
                if overlap:
                    state.overlaps[document_id] = overlap
                if state.predicates:
                    state.pred_ok[document_id] = self._predicate_verdict(
                        state, document_id
                    )
                self._m_evaluations.inc()
                if state.k is not None:
                    self._diff_members(
                        state, state.members, self._topk_select(state), seq, events
                    )
                    continue
                self._rescore_doc(state, document_id, seq, events)
        self._buffer.extend(events)
        return events

    def on_remove(self, document_id: int, seq: int) -> List[Notification]:
        """A document was dropped — retract it from every neighborhood."""
        events: List[Notification] = []
        with self._lock:
            self._docs.discard(document_id)
            for state in self._queries.values():
                state.overlaps.pop(document_id, None)
                state.pred_ok.pop(document_id, None)
                if state.k is not None:
                    last = state.members.pop(document_id, None)
                    if last is not None:
                        events.append(
                            Notification(
                                state.query_id, document_id, LEAVE, last, seq
                            )
                        )
                    self._diff_members(
                        state, state.members, self._topk_select(state), seq, events
                    )
                    continue
                last = state.members.pop(document_id, None)
                if last is not None:
                    events.append(
                        Notification(state.query_id, document_id, LEAVE, last, seq)
                    )
        self._buffer.extend(events)
        return events

    def on_delta(
        self,
        document_id: int,
        minus: Bag,
        plus: Bag,
        seq: int,
        operations: Optional[Sequence[EditOperation]] = None,
    ) -> List[Notification]:
        """Route one committed write batch's net delta bags.

        ``minus``/``plus`` are exactly what
        :meth:`ForestIndex.update_tree` handed the backend;
        ``operations`` (the batch's log, any direction) is consulted
        only for the presence of subtree moves.
        """
        if not self._queries:
            return []
        started = time.perf_counter()
        events: List[Notification] = []
        with self._lock:
            backend = self._forest.backend
            delta_keys = set(minus) | set(plus)
            size_delta = sum(plus.values()) - sum(minus.values())
            touched: Set[str] = set()
            for key in delta_keys:
                holders = self._subscriptions.get(key)
                if holders:
                    touched.update(holders)
            moved = bool(operations) and any(
                isinstance(operation, Move) for operation in operations  # type: ignore[union-attr]
            )
            delta_hashes: Optional[Set[int]] = None
            for state in self._queries.values():
                overlap_hit = state.query_id in touched
                predicate_hit = False
                if state.trigger_hashes:
                    if moved:
                        predicate_hit = True
                    else:
                        if delta_hashes is None:
                            delta_hashes = {
                                label_hash
                                for key in delta_keys
                                for label_hash in key
                            }
                        predicate_hit = not state.trigger_hashes.isdisjoint(
                            delta_hashes
                        )
                if not overlap_hit and not predicate_hit:
                    # No shared Δ-key: the overlap is unchanged.  The
                    # distance can still move through the document size
                    # — but only for documents with *some* overlap (the
                    # zero-overlap distance is pinned at 1.0 for a
                    # non-empty query bag).
                    if size_delta == 0 or (
                        state.qsize > 0
                        and document_id not in state.overlaps
                    ):
                        self._m_skipped["delta_keys"].inc()
                        continue
                if overlap_hit:
                    self._update_overlap(state, document_id, minus, plus)
                if predicate_hit:
                    state.pred_ok[document_id] = self._predicate_verdict(
                        state, document_id
                    )
                if state.k is not None:
                    self._m_evaluations.inc()
                    self._diff_members(
                        state, state.members, self._topk_select(state), seq, events
                    )
                    continue
                was_member = document_id in state.members
                if not was_member and not size_bound_admits(
                    state.qsize, backend.tree_size(document_id), state.tau  # type: ignore[arg-type]
                ):
                    # Admission veto before any distance arithmetic: the
                    # sizes alone forbid distance < τ, and a non-member
                    # that stays out produces no event.
                    self._m_skipped["size_bound"].inc()
                    continue
                self._m_evaluations.inc()
                self._rescore_doc(state, document_id, seq, events)
            self.batches_total += 1
            self._m_batches.inc()
        elapsed = time.perf_counter() - started
        self.seconds_total += elapsed
        self._m_notify_seconds.observe(elapsed)
        for event in events:
            self._m_notifications[event.kind].inc()
        self._buffer.extend(events)
        return events

    # ------------------------------------------------------------------
    # event delivery
    # ------------------------------------------------------------------

    def dispatch(self, events: Iterable[Notification]) -> None:
        """Deliver events to their queries' listeners.

        Callers invoke this *outside* their commit critical section —
        listeners run on the committing thread and must not submit
        writes back into the store (they would deadlock the appender).
        A listener that raises never poisons the commit path; its
        exception is swallowed and counted.
        """
        for event in events:
            state = self._queries.get(event.query_id)
            if state is not None and state.listener is not None:
                try:
                    state.listener(event)
                except Exception:
                    self._m_listener_errors.inc()

    def drain(self) -> List[Notification]:
        """All buffered events since the last drain, in commit order."""
        with self._lock:
            events = list(self._buffer)
            self._buffer.clear()
        return events

    # ------------------------------------------------------------------
    # scoring internals
    # ------------------------------------------------------------------

    def _predicate_verdict(self, state: StandingQuery, document_id: int) -> bool:
        assert self._documents is not None
        tree = self._documents(document_id)
        for predicate, negated in state.predicates:
            if tree_matches(tree, predicate) == negated:
                return False
        return True

    def _update_overlap(
        self, state: StandingQuery, document_id: int, minus: Bag, plus: Bag
    ) -> None:
        """Fold the net delta into the cached overlap: for every shared
        key, ``min(query cnt, new cnt) - min(query cnt, old cnt)`` with
        the old count reconstructed from the (post-apply) backend bag
        and the delta itself."""
        bag = self._forest.backend.tree_bag(document_id)
        overlap = state.overlaps.get(document_id, 0)
        for key in (set(minus) | set(plus)) & state.keys:
            query_count = state.qbag[key]
            new_count = bag.get(key, 0)
            old_count = new_count + minus.get(key, 0) - plus.get(key, 0)
            overlap += min(query_count, new_count) - min(query_count, old_count)
        if overlap:
            state.overlaps[document_id] = overlap
        else:
            state.overlaps.pop(document_id, None)

    def _distance(self, state: StandingQuery, document_id: int) -> float:
        return distance_from_overlap(
            state.overlaps.get(document_id, 0),
            state.qsize + self._forest.backend.tree_size(document_id),
        )

    def _rescore_doc(
        self,
        state: StandingQuery,
        document_id: int,
        seq: int,
        events: List[Notification],
    ) -> None:
        """ApproxLookup: recompute one document's membership and emit
        the difference."""
        distance = self._distance(state, document_id)
        admitted = distance < state.tau  # type: ignore[operator]
        if admitted and state.predicates:
            admitted = state.pred_ok.get(document_id, False)
        previous = state.members.get(document_id)
        if admitted:
            state.members[document_id] = distance
            if previous is None:
                events.append(
                    Notification(state.query_id, document_id, ENTER, distance, seq)
                )
            elif previous != distance:
                events.append(
                    Notification(state.query_id, document_id, UPDATE, distance, seq)
                )
        elif previous is not None:
            del state.members[document_id]
            events.append(
                Notification(state.query_id, document_id, LEAVE, distance, seq)
            )

    def _topk_select(self, state: StandingQuery) -> Dict[int, float]:
        """The executor's TopK selection over the cached state: sort by
        ``(distance, id)``, truncate to k — zero-overlap documents sit
        at exactly the no-overlap distance, so they only ever pad the
        tail in id order."""
        backend = self._forest.backend

        def admitted(document_id: int) -> bool:
            return not state.predicates or state.pred_ok.get(document_id, False)

        if state.qsize == 0:
            # Degenerate empty query bag: score everything explicitly.
            scored = sorted(
                (self._distance(state, document_id), document_id)
                for document_id in self._docs
                if admitted(document_id)
            )
            return {
                document_id: distance
                for distance, document_id in scored[: state.k]
            }
        top = sorted(
            (self._distance(state, document_id), document_id)
            for document_id in state.overlaps
            if admitted(document_id)
        )[: state.k]
        missing = state.k - len(top)  # type: ignore[operator]
        if missing > 0:
            for document_id in sorted(self._docs):
                if document_id in state.overlaps or not admitted(document_id):
                    continue
                top.append(
                    (
                        distance_from_overlap(
                            0, state.qsize + backend.tree_size(document_id)
                        ),
                        document_id,
                    )
                )
                missing -= 1
                if missing == 0:
                    break
        return {document_id: distance for distance, document_id in top}

    def _diff_members(
        self,
        state: StandingQuery,
        old: Dict[int, float],
        new: Dict[int, float],
        seq: int,
        events: List[Notification],
    ) -> None:
        """Replace the membership and emit the difference as events."""
        for document_id, distance in new.items():
            previous = old.get(document_id)
            if previous is None:
                events.append(
                    Notification(state.query_id, document_id, ENTER, distance, seq)
                )
            elif previous != distance:
                events.append(
                    Notification(state.query_id, document_id, UPDATE, distance, seq)
                )
        for document_id, distance in old.items():
            if document_id not in new:
                events.append(
                    Notification(state.query_id, document_id, LEAVE, distance, seq)
                )
        state.members = new
