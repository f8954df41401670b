"""Standing queries: a plan's membership kept current as writes commit.

The paper's incremental maintenance computes, for every edit batch, the
net delta bags ``(minus, plus)`` of the touched document.  This module
closes the loop for *live* workloads: a :class:`StandingQuery`
registers a normalized :mod:`repro.query` plan (``ApproxLookup`` or
``TopK`` plus structural predicates) and is notified with
``enter``/``leave``/``update`` events whenever a write batch moves a
document across (or within) its neighborhood — the continuous variant
of Oflazer's error-tolerant retrieval setting.

The executor evaluates plans; this engine only keeps membership
current.  A query holds its plan, its query bag and key set, and its
members — no state for any other document:

- ``subscribe`` and ``reconcile`` set the membership from
  :func:`repro.query.executor.execute_plan`, so predicates are walked
  only for matches and the membership equals the executor's by
  construction.
- A subscription index maps every pq-gram key of every query to the
  queries holding it.  A query without structural predicates skips a
  batch on document d when it shares no Δ-key with the batch and d's
  size is unchanged: neither the overlap nor the sizes moved, so the
  distance did not (``standing_eval_skipped_total{reason="delta_keys"}``).
- Otherwise an ``ApproxLookup`` query looks at d alone.  A non-member
  whose sizes already forbid ``distance < τ``
  (:func:`repro.core.distance.size_bound_admits`) stays out untouched
  (``reason="size_bound"``).  Any other has its overlap recomputed from
  d's current bag in O(|I_Q|) lookups and turned into a distance by
  :func:`distance_from_overlap`, the scan's own expression; the
  executor's predicate filter walks d only when the distance admits it.
- A ``TopK`` query re-runs the executor on a batch it does not skip and
  on every added document; a removal re-runs it only when the removed
  document was a member.

A plan with predicates never skips a batch, so a subtree ``Move`` —
whose ancestry rewiring need not show in the Δ-keys — re-checks them
like any other edit.  Memory is O(members) per query; a batch costs
O(|I_Q|) lookups per query it reaches, one predicate walk per admitted
document and one executor run per ``TopK`` query it reaches.
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
from repro.edits.ops import EditOperation
from repro.errors import QueryError
from repro.lookup.forest import ForestIndex
from repro.obsv.metrics import MetricsRegistry, resolve_registry
from repro.query.executor import TreeFilter, _document_filter, execute_plan
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
    """One registered plan and its current membership."""

    __slots__ = ("query_id", "plan", "index", "keys", "accept", "members", "listener")

    def __init__(
        self,
        query_id: str,
        plan: NormalizedPlan,
        index: PQGramIndex,
        accept: Optional[TreeFilter],
        listener: Optional[Listener],
    ) -> None:
        self.query_id = query_id
        self.plan = plan
        #: the query's pq-gram bag
        self.index = index
        self.keys = frozenset(key for key, _ in index.items())
        #: the executor's predicate filter (None: no predicates)
        self.accept = accept
        #: current neighborhood: document → distance
        self.members: Dict[int, float] = {}
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


class StandingQueryEngine:
    """Keeps the membership of registered standing queries current.

    Works against a bare :class:`ForestIndex` (benchmarks, embedders)
    or as the :class:`~repro.service.store.DocumentStore`'s engine —
    the store feeds ``on_add``/``on_remove``/``on_delta`` from its
    commit path once the forest holds the change, persists
    subscriptions + membership in its checkpoint, and calls
    :meth:`reconcile` after recovery so the event stream is
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
                "per-(query, batch) evaluations skipped by the Δ-key "
                "prune ledger",
                reason=reason,
            )
            for reason in ("delta_keys", "size_bound")
        }
        self._m_evaluations = registry.counter(
            "standing_evaluations_total",
            "per-(query, batch) re-scores performed",
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

        The initial membership is the executor's matches; subsequent
        batches maintain it incrementally.  Events are emitted only for
        *changes* after this call.
        """
        with self._lock:
            if query_id in self._queries:
                raise QueryError(f"standing query {query_id!r} already exists")
            state = self._make_state(query_id, plan, listener)
            state.members = self._evaluate(state)
            self._register(state)
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
        to emit exactly the catch-up events the crash swallowed.
        """
        with self._lock:
            if query_id in self._queries:
                raise QueryError(f"standing query {query_id!r} already exists")
            state = self._make_state(query_id, plan_from_spec(spec), listener)
            state.members = dict(members)
            self._register(state)

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
        accept = (
            _document_filter(normalized.predicates, self._documents)
            if normalized.predicates
            else None
        )
        index = PQGramIndex.from_tree(
            normalized.retrieval.query,  # type: ignore[attr-defined]
            self._forest.config,
            self._forest.hasher,
        )
        return StandingQuery(query_id, normalized, index, accept, listener)

    def _register(self, state: StandingQuery) -> None:
        self._queries[state.query_id] = state
        for key in state.keys:
            self._subscriptions.setdefault(key, set()).add(state.query_id)
        self._m_active.set(len(self._queries))

    def _evaluate(self, state: StandingQuery) -> Dict[int, float]:
        """The plan's matches from the executor, as a membership."""
        return dict(
            execute_plan(
                self._forest,
                state.plan,
                query_index=state.index,
                documents=self._documents,
            ).matches
        )

    def reconcile(self, seq: int) -> List[Notification]:
        """Re-run every query through the executor and emit the
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
                self._diff_members(state, self._evaluate(state), seq, events)
        self._buffer.extend(events)
        return events

    # ------------------------------------------------------------------
    # incremental maintenance — the write-path hooks
    # ------------------------------------------------------------------

    def on_add(self, document_id: int, seq: int) -> List[Notification]:
        """A document was added (and indexed) — score it once."""
        events: List[Notification] = []
        with self._lock:
            for state in self._queries.values():
                self._m_evaluations.inc()
                self._rescore(state, document_id, seq, events)
        self._buffer.extend(events)
        return events

    def on_remove(self, document_id: int, seq: int) -> List[Notification]:
        """A document was dropped (and unindexed) — retract it from
        every neighborhood; a top-k set refills from the executor."""
        events: List[Notification] = []
        with self._lock:
            for state in self._queries.values():
                last = state.members.pop(document_id, None)
                if last is None:
                    continue
                events.append(
                    Notification(state.query_id, document_id, LEAVE, last, seq)
                )
                if isinstance(state.plan.retrieval, TopK):
                    self._diff_members(state, self._evaluate(state), seq, events)
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
        :meth:`ForestIndex.update_tree` handed the backend.
        ``operations`` (the batch's log) is accepted and not read: the
        document's current bag and tree say all a query needs.
        """
        if not self._queries:
            return []
        started = time.perf_counter()
        events: List[Notification] = []
        with self._lock:
            backend = self._forest.backend
            touched: Set[str] = set()
            for delta in (minus, plus):
                for key in delta:
                    holders = self._subscriptions.get(key)
                    if holders:
                        touched.update(holders)
            resized = sum(plus.values()) != sum(minus.values())
            for state in self._queries.values():
                if (
                    not resized
                    and state.accept is None
                    and state.query_id not in touched
                ):
                    self._m_skipped["delta_keys"].inc()
                    continue
                retrieval = state.plan.retrieval
                if isinstance(retrieval, ApproxLookup) and not (
                    document_id in state.members
                    or size_bound_admits(
                        state.index.size(),
                        backend.tree_size(document_id),
                        retrieval.tau,
                    )
                ):
                    # The sizes alone forbid distance < τ, and a
                    # non-member that stays out produces no event.
                    self._m_skipped["size_bound"].inc()
                    continue
                self._m_evaluations.inc()
                self._rescore(state, document_id, seq, events)
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
    # scoring
    # ------------------------------------------------------------------

    def _rescore(
        self,
        state: StandingQuery,
        document_id: int,
        seq: int,
        events: List[Notification],
    ) -> None:
        """Bring one document's membership up to date and emit the
        difference: a top-k set is re-run through the executor, a
        τ-neighborhood re-scores the document alone."""
        retrieval = state.plan.retrieval
        if isinstance(retrieval, TopK):
            self._diff_members(state, self._evaluate(state), seq, events)
            return
        backend = self._forest.backend
        bag = backend.tree_bag(document_id)
        overlap = 0
        for key, count in state.index.items():
            held = bag.get(key)
            if held:
                overlap += min(count, held)
        distance = distance_from_overlap(
            overlap, state.index.size() + backend.tree_size(document_id)
        )
        admitted = distance < retrieval.tau and (  # type: ignore[attr-defined]
            state.accept is None or state.accept(document_id)
        )
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

    def _diff_members(
        self,
        state: StandingQuery,
        new: Dict[int, float],
        seq: int,
        events: List[Notification],
    ) -> None:
        """Replace the membership and emit the difference as events."""
        old = state.members
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
