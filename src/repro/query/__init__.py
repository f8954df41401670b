"""The logical query layer: plans, structural predicates, executor.

Build a plan, hand it to :meth:`LookupService.query` (or
:meth:`DocumentStore.query`), get ranked matches back::

    from repro.query import And, ApproxLookup, HasPath

    plan = And(ApproxLookup(query_tree, 0.5),
               HasPath("inproceedings/author"))
    result = service.query(plan)

See :mod:`repro.query.plan` for the node types,
:mod:`repro.query.structural` for the predicate tests, and
:mod:`repro.query.executor` for the τ-scan and the post-filter.
"""

from repro.query.executor import Execution, execute_plan, scan_distances
from repro.query.plan import (
    And,
    ApproxLookup,
    HasLabel,
    HasPath,
    NormalizedPlan,
    Not,
    Plan,
    TopK,
    describe,
    normalize_plan,
    normalize_tau,
    plan_fingerprint,
)

__all__ = [
    "And",
    "ApproxLookup",
    "Execution",
    "HasLabel",
    "HasPath",
    "NormalizedPlan",
    "Not",
    "Plan",
    "TopK",
    "describe",
    "execute_plan",
    "normalize_plan",
    "normalize_tau",
    "plan_fingerprint",
    "scan_distances",
]
