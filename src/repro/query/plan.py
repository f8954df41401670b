"""Logical query plans: approximate retrieval + structural predicates.

The paper casts the pq-gram index as a relation and lookups as
relational operations; this module gives the read path the matching
*logical* surface.  A plan combines exactly one retrieval root —

- :class:`ApproxLookup` — all trees within pq-gram distance τ of a
  query tree (the classic lookup),
- :class:`TopK` — the k nearest trees, no threshold needed,

with any number of *structural* predicates over the stored documents —

- :class:`HasLabel` — the document contains a node with this label,
- :class:`HasPath` — the document contains nodes ``label₁, …, labelₙ``
  forming a descendant chain (each a strict descendant of the
  previous; the descendant axis, not the child axis),

composed with :class:`And` and :class:`Not`.  Plans say *what* to
retrieve; :mod:`repro.query.executor` runs them — the retrieval root
as a τ-scan of the index, the predicates as a post-filter over the
documents it matched.

Plans are values: :func:`normalize_plan` validates and canonicalizes
them, and :func:`plan_fingerprint` derives the stable key the serving
layer's per-generation result cache is keyed by.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.errors import QueryError
from repro.tree.tree import Tree


class Plan:
    """Marker base class of all logical plan nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class ApproxLookup(Plan):
    """All trees with ``pq-gram distance(query, tree) < tau``.

    ``query`` may be bracket text only inside
    :meth:`LookupService.lookup <repro.lookup.service.LookupService.lookup>`,
    which hands the executor the query's bag and never reads the plan's
    query back; every other consumer of a plan expects the tree.
    """

    query: Union[Tree, str]
    tau: float


@dataclass(frozen=True)
class TopK(Plan):
    """The ``k`` trees nearest to ``query`` (no threshold)."""

    query: Tree
    k: int


@dataclass(frozen=True)
class HasLabel(Plan):
    """The document contains at least one node labelled ``label``."""

    label: str


@dataclass(frozen=True)
class HasPath(Plan):
    """The document contains a descendant chain matching ``labels``.

    ``labels`` may be given as a tuple/list or as one ``"a/b/c"``
    string.  Semantics are the descendant axis throughout: a node
    labelled ``b`` *somewhere below* a node labelled ``a``, and so on
    (``//a//b//c`` in XPath terms) — the root-to-node subsequence
    matching of Bille & Gørtz.
    """

    labels: Tuple[str, ...]

    def __init__(self, labels: "Union[str, Tuple[str, ...], list]") -> None:
        if isinstance(labels, str):
            parts: Tuple[str, ...] = tuple(
                part for part in labels.split("/") if part
            )
        else:
            parts = tuple(labels)
        object.__setattr__(self, "labels", parts)


@dataclass(frozen=True)
class Not(Plan):
    """Negation of one structural predicate."""

    part: Plan


@dataclass(frozen=True)
class And(Plan):
    """Conjunction of plan nodes (nested ``And``\\ s are flattened)."""

    parts: Tuple[Plan, ...]

    def __init__(self, *parts: Plan) -> None:
        flattened = []
        for part in parts:
            if isinstance(part, And):
                flattened.extend(part.parts)
            else:
                flattened.append(part)
        object.__setattr__(self, "parts", tuple(flattened))


#: (predicate, negated) pairs — the executor's working form.
PredicateEntry = Tuple[Plan, bool]


@dataclass(frozen=True)
class NormalizedPlan:
    """A validated plan: one retrieval root + flat predicate list."""

    retrieval: Plan                        # ApproxLookup | TopK
    predicates: Tuple[PredicateEntry, ...]


def _normalize_predicate(node: Plan, negated: bool) -> PredicateEntry:
    while isinstance(node, Not):
        node = node.part
        negated = not negated
    if isinstance(node, HasLabel):
        if not node.label:
            raise QueryError("HasLabel needs a non-empty label")
        return node, negated
    if isinstance(node, HasPath):
        if not node.labels or any(not label for label in node.labels):
            raise QueryError("HasPath needs at least one non-empty label")
        return node, negated
    if isinstance(node, (ApproxLookup, TopK)):
        raise QueryError(
            "a retrieval node cannot be negated or appear more than once"
        )
    raise QueryError(f"unknown plan node {node!r}")


def normalize_plan(plan: Plan) -> NormalizedPlan:
    """Validate ``plan`` and split it into retrieval + predicates.

    Exactly one :class:`ApproxLookup`/:class:`TopK` must appear, at
    the top level or inside a top-level :class:`And`; everything else
    must be a structural predicate (optionally ``Not``-wrapped).
    Raises :class:`~repro.errors.QueryError` otherwise.
    """
    if isinstance(plan, NormalizedPlan):
        return plan
    parts = plan.parts if isinstance(plan, And) else (plan,)
    retrieval = None
    predicates = []
    for part in parts:
        if isinstance(part, (ApproxLookup, TopK)):
            if retrieval is not None:
                raise QueryError("a plan needs exactly one retrieval root")
            retrieval = part
        else:
            predicates.append(_normalize_predicate(part, False))
    if retrieval is None:
        raise QueryError(
            "a plan needs exactly one ApproxLookup or TopK retrieval root"
        )
    if isinstance(retrieval, TopK) and retrieval.k < 1:
        raise QueryError("TopK needs k >= 1")
    if isinstance(retrieval, ApproxLookup) and not isinstance(
        retrieval.tau, (int, float)
    ):
        raise QueryError("ApproxLookup needs a numeric tau")
    return NormalizedPlan(retrieval, tuple(predicates))


def _predicate_fingerprint(entry: PredicateEntry) -> Tuple:
    predicate, negated = entry
    if isinstance(predicate, HasLabel):
        fingerprint: Tuple = ("has_label", predicate.label)
    else:
        fingerprint = ("has_path",) + predicate.labels  # type: ignore[attr-defined]
    return ("not", fingerprint) if negated else fingerprint


def normalize_tau(tau: "Union[int, float]") -> str:
    """The canonical identity of one τ threshold: the exact hex text
    of its IEEE-754 double.

    ``plan_fingerprint`` must distinguish τ values that differ *only*
    in their float representation — ``0.5`` vs ``0.50000000000001``
    select different neighborhoods whenever a document's distance lies
    between them, so their cached results must never be shared — while
    numerically equal spellings (``1`` vs ``1.0`` vs ``Fraction(1, 2)``
    for ``0.5``) must keep colliding.  ``float.hex()`` is exactly that
    map: injective over distinct doubles (where repr-rounding or a
    raw float in the key tuple can betray either property — NaN, for
    one, is unequal to itself and poisons tuple equality), constant
    over equal numerics.
    """
    return float(tau).hex()


def plan_fingerprint(
    plan: Plan, query_fingerprint: Optional[int] = None
) -> Tuple:
    """A stable, hashable identity of the plan's *logical* content.

    Structurally equal plans (same query tree shape, same τ/k, same
    predicate set in any order) fingerprint identically — this keys
    the serving layer's per-generation result cache, replacing the
    bare ``(query fingerprint, tau)`` key of the pre-plan read path.
    τ is normalized through :func:`normalize_tau`, so thresholds that
    differ only past the usual print precision still key distinct
    cache entries.  ``query_fingerprint`` is the retrieval query's
    ``tree_fingerprint`` when the caller already holds it (the lookup
    service keys its query-index LRU on the same value).
    """
    from repro.tree.fingerprint import tree_fingerprint

    normalized = normalize_plan(plan)
    retrieval = normalized.retrieval
    if query_fingerprint is None:
        query_fingerprint = tree_fingerprint(retrieval.query)
    if isinstance(retrieval, ApproxLookup):
        head: Tuple = (
            "approx",
            query_fingerprint,
            normalize_tau(retrieval.tau),
        )
    else:
        head = ("topk", query_fingerprint, retrieval.k)  # type: ignore[attr-defined]
    predicates = tuple(
        sorted(
            (_predicate_fingerprint(entry) for entry in normalized.predicates),
            key=repr,
        )
    )
    return head + (predicates,)


def describe(plan: Plan) -> str:
    """A one-line human-readable rendering (CLI ``--explain``)."""
    normalized = normalize_plan(plan)
    retrieval = normalized.retrieval
    if isinstance(retrieval, ApproxLookup):
        pieces = [f"approx_lookup(tau={retrieval.tau:g})"]
    else:
        pieces = [f"top_k(k={retrieval.k})"]  # type: ignore[attr-defined]
    for predicate, negated in normalized.predicates:
        if isinstance(predicate, HasLabel):
            text = f"has_label({predicate.label})"
        else:
            text = "has_path({})".format("/".join(predicate.labels))  # type: ignore[attr-defined]
        pieces.append(f"not {text}" if negated else text)
    return " and ".join(pieces)
