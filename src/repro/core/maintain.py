"""Incremental index maintenance: the paper's Algorithm 1.

:func:`~repro.core.update_index`, the production engine, lives in
:mod:`repro.core.batch`.  This module keeps the paper's own algorithm
beside it as the reference.  Both take the same inputs — the old index
I_0, the resulting tree T_n and the log of inverse edit operations
(ē_1, .., ē_n) — and never reconstruct a full intermediate document
version.

**Tablewise** (``update_index_tablewise``) is the paper's Algorithm 1:

1. accumulate Δ⁺ = ⋃ δ(T_n, ē_i) in the (P, Q) pair (Theorem 1),
2. I⁺ = λ(P, Q),
3. apply U for ē_n down to ē_1, turning the pair into Δ⁻ (Theorem 2),
4. I⁻ = λ(P, Q),
5. I_n = I_0 \\ I⁻ ⊎ I⁺ (Lemma 2).

Why is it not the production engine?  During this reproduction we found
that Theorem 1 (and Lemma 3 it rests on) does not hold for logs whose
inverse-INS operations address a child position that later operations
shifted: the positional (v, k, m) addressing of INS is not stable
across versions, so δ(T_n, ē_i) can target the wrong window region (see
``tests/test_paper_gap.py`` for a four-node counterexample).  The
tablewise engine is therefore exact on *address-stable* logs — the
setting of all the paper's experiments — and detects the unstable case
(raising :class:`~repro.errors.InvalidLogError`) rather than silently
corrupting the index; the production engine walks the log backwards
step by step and is exact for every valid log at the same asymptotic
cost O(|L| · (log|T| + local fanout)).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.core.delta import delta_into_tables
from repro.core.index import PQGramIndex
from repro.core.tables import DeltaTables
from repro.core.update import apply_update
from repro.edits.ops import EditOperation
from repro.hashing.labelhash import LabelHasher
from repro.tree.tree import Tree

Bag = Dict[Tuple[int, ...], int]


@dataclass
class MaintenanceTimings:
    """Wall-clock breakdown of one index update (paper Table 2)."""

    delta_plus: float = 0.0          # building Δ⁺ on T_n
    lambda_plus: float = 0.0         # I⁺ = λ(Δ⁺)
    delta_minus: float = 0.0         # U passes turning Δ⁺ into Δ⁻
    lambda_minus: float = 0.0        # I⁻ = λ(Δ⁻)
    index_update: float = 0.0        # I_0 \ I⁻ ⊎ I⁺
    applicable_ops: int = 0          # log entries applicable on T_n
    log_size: int = 0
    gram_count_plus: int = 0         # pq-grams in Δ⁺
    gram_count_minus: int = 0        # pq-grams in Δ⁻
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        """Total update time."""
        return (
            self.delta_plus
            + self.lambda_plus
            + self.delta_minus
            + self.lambda_minus
            + self.index_update
        )

    def rows(self) -> Sequence[Tuple[str, float]]:
        """(phase, seconds) rows in the order of the paper's Table 2."""
        return (
            ("delta_plus", self.delta_plus),
            ("lambda_plus", self.lambda_plus),
            ("delta_minus", self.delta_minus),
            ("lambda_minus", self.lambda_minus),
            ("index_update", self.index_update),
            ("total", self.total),
        )


def update_index_timed(
    old_index: PQGramIndex,
    tree: Tree,
    log: Sequence[EditOperation],
    hasher: LabelHasher,
    use_anchor_index: bool = True,
) -> Tuple[PQGramIndex, MaintenanceTimings]:
    """The paper's Algorithm 1 with instrumentation (tablewise engine).

    ``tree`` is T_n, the *resulting* document; ``log`` is (ē_1, .., ē_n)
    in script order.  The old document is never needed and no
    intermediate version is reconstructed.  Returns the new index and
    the phase timings.  Exact on address-stable logs (see the module
    docstring); raises :class:`~repro.errors.InvalidLogError` when the
    stored deltas are insufficient.
    """
    timings = MaintenanceTimings(log_size=len(log))
    tables = DeltaTables(old_index.config, use_anchor_index=use_anchor_index)

    started = time.perf_counter()
    for inverse_op in log:
        if delta_into_tables(tree, inverse_op, tables, hasher):
            timings.applicable_ops += 1
    timings.delta_plus = time.perf_counter() - started
    timings.gram_count_plus = tables.gram_count()

    started = time.perf_counter()
    plus_bag = tables.label_bag()
    timings.lambda_plus = time.perf_counter() - started

    started = time.perf_counter()
    for inverse_op in reversed(list(log)):
        apply_update(tables, inverse_op, hasher)
    timings.delta_minus = time.perf_counter() - started
    timings.gram_count_minus = tables.gram_count()

    started = time.perf_counter()
    minus_bag = tables.label_bag()
    timings.lambda_minus = time.perf_counter() - started

    started = time.perf_counter()
    new_index = old_index.copy()
    new_index.apply_delta(minus_bag, plus_bag)
    timings.index_update = time.perf_counter() - started
    return new_index, timings


def update_index_tablewise(
    old_index: PQGramIndex,
    tree: Tree,
    log: Sequence[EditOperation],
    hasher: Optional[LabelHasher] = None,
) -> PQGramIndex:
    """The paper's Algorithm 1 (see :func:`update_index_timed`)."""
    new_index, _ = update_index_timed(
        old_index, tree, log, hasher or LabelHasher()
    )
    return new_index



def compute_deltas(
    config_index: PQGramIndex,
    tree: Tree,
    log: Sequence[EditOperation],
    hasher: LabelHasher,
) -> Tuple[Bag, Bag]:
    """(λ(Δ⁻), λ(Δ⁺)) without touching the index — exposed for tests
    and for callers that maintain several replicas of one index."""
    tables = DeltaTables(config_index.config)
    for inverse_op in log:
        delta_into_tables(tree, inverse_op, tables, hasher)
    plus_bag = tables.label_bag()
    for inverse_op in reversed(list(log)):
        apply_update(tables, inverse_op, hasher)
    return tables.label_bag(), plus_bag
