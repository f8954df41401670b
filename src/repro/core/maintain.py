"""Incremental index maintenance: Algorithm 1 and the replay engine.

The engines share the same inputs — the old index I_0, the resulting
tree T_n and the log of inverse edit operations (ē_1, .., ē_n) — and
never reconstruct a full intermediate document version (a third,
batched engine lives in :mod:`repro.core.batch`):

**Tablewise** (``update_index_tablewise``) is the paper's Algorithm 1:

1. accumulate Δ⁺ = ⋃ δ(T_n, ē_i) in the (P, Q) pair (Theorem 1),
2. I⁺ = λ(P, Q),
3. apply U for ē_n down to ē_1, turning the pair into Δ⁻ (Theorem 2),
4. I⁻ = λ(P, Q),
5. I_n = I_0 \\ I⁻ ⊎ I⁺ (Lemma 2).

**Replay** (``update_index_replay``, the default) exploits the exact
per-step telescoping identity that follows from Eq. 10 and the
disjointness of a step's old and new pq-grams::

    I_n  =  I_0  ⊎  Σ_i λ(δ(T_i, ē_i))  ∖  Σ_i λ(δ(T_{i-1}, e_i))

evaluated by applying the log backwards *in place* on T_n (recording
forward operations and restoring the tree afterwards), so each step's
deltas are computed at exactly the version they are defined on.

Why two engines?  During this reproduction we found that Theorem 1 (and
Lemma 3 it rests on) does not hold for logs whose inverse-INS
operations address a child position that later operations shifted: the
positional (v, k, m) addressing of INS is not stable across versions,
so δ(T_n, ē_i) can target the wrong window region (see
``tests/test_paper_gap.py`` for a four-node counterexample).  The
tablewise engine is therefore exact on *address-stable* logs — the
setting of all the paper's experiments — and detects the unstable case
(raising :class:`~repro.errors.InvalidLogError`) rather than silently
corrupting the index; the replay engine is exact for every valid log at
the same asymptotic cost O(|L| · (log|T| + local fanout)).
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


@dataclass
class ReplayTimings:
    """Wall-clock breakdown of one replay-engine update."""

    backward_sweep: float = 0.0      # per-step δ bags while undoing the log
    restore: float = 0.0             # re-applying the forward operations
    index_update: float = 0.0        # folding the signed bag into I_0
    log_size: int = 0
    gram_count_plus: int = 0         # Σ |δ(T_i, ē_i)|
    gram_count_minus: int = 0        # Σ |δ(T_{i-1}, e_i)|

    @property
    def total(self) -> float:
        """Total update time."""
        return self.backward_sweep + self.restore + self.index_update


def update_index_replay_timed(
    old_index: PQGramIndex,
    tree: Tree,
    log: Sequence[EditOperation],
    hasher: LabelHasher,
) -> Tuple[PQGramIndex, ReplayTimings]:
    """The replay engine with instrumentation.

    Walks the log backwards on ``tree`` *in place* (every edit
    operation has an exact inverse, so the tree is restored before
    returning — also on error), accumulating the signed label-tuple bag
    Σ λ(δ(T_i, ē_i)) − Σ λ(δ(T_{i-1}, e_i)) and folding it into the old
    index.  Exact for every valid log.
    """
    from repro.core.localdelta import delta_label_bag

    timings = ReplayTimings(log_size=len(log))
    signed: Dict[Tuple[int, ...], int] = {}
    forward_ops: list[EditOperation] = []
    started = time.perf_counter()
    try:
        for inverse_op in reversed(list(log)):
            plus_bag = delta_label_bag(tree, inverse_op, old_index.config, hasher)
            timings.gram_count_plus += sum(plus_bag.values())
            forward_op = inverse_op.inverse(tree)
            inverse_op.apply(tree)
            forward_ops.append(forward_op)
            minus_bag = delta_label_bag(tree, forward_op, old_index.config, hasher)
            timings.gram_count_minus += sum(minus_bag.values())
            for key, count in plus_bag.items():
                signed[key] = signed.get(key, 0) + count
            for key, count in minus_bag.items():
                signed[key] = signed.get(key, 0) - count
    finally:
        timings.backward_sweep = time.perf_counter() - started
        started = time.perf_counter()
        for forward_op in reversed(forward_ops):
            forward_op.apply(tree)
        timings.restore = time.perf_counter() - started

    started = time.perf_counter()
    plus: Bag = {}
    minus: Bag = {}
    for key, count in signed.items():
        if count > 0:
            plus[key] = count
        elif count < 0:
            minus[key] = -count
    new_index = old_index.copy()
    new_index.apply_delta(minus, plus)
    timings.index_update = time.perf_counter() - started
    return new_index, timings


def update_index_replay_delta(
    old_index: PQGramIndex,
    tree: Tree,
    log: Sequence[EditOperation],
    hasher: LabelHasher,
    compact: bool = False,
) -> Tuple[PQGramIndex, Bag, Bag]:
    """The replay engine, also returning the folded-in delta bags.

    Returns ``(new_index, minus, plus)`` where ``minus`` / ``plus`` are
    the net label-tuple bags actually applied (``I_n = I_0 ∖ minus ⊎
    plus``; the two have disjoint keys).  Their key set is exactly the
    set of tuples whose multiplicity changed, which lets callers that
    mirror the index — e.g. the forest's inverted lists — re-invert
    only O(|Δ|) keys instead of the whole bag.

    ``compact=True`` first cancels redundant log operations
    (:func:`repro.edits.reduce.compact_inverse_log`); the result is
    bit-identical either way because the net signed bag depends only on
    the endpoint versions T_0 and T_n.
    """
    from repro.core.localdelta import delta_label_bag

    if compact:
        from repro.edits.reduce import compact_inverse_log

        log = compact_inverse_log(tree, log)
    config = old_index.config
    signed: Dict[Tuple[int, ...], int] = {}
    forward_ops: list[EditOperation] = []
    try:
        for inverse_op in reversed(list(log)):
            plus_bag = delta_label_bag(tree, inverse_op, config, hasher)
            forward_op = inverse_op.inverse(tree)
            inverse_op.apply(tree)
            forward_ops.append(forward_op)
            minus_bag = delta_label_bag(tree, forward_op, config, hasher)
            for key, count in plus_bag.items():
                signed[key] = signed.get(key, 0) + count
            for key, count in minus_bag.items():
                signed[key] = signed.get(key, 0) - count
    finally:
        for forward_op in reversed(forward_ops):
            forward_op.apply(tree)

    plus: Bag = {}
    minus: Bag = {}
    for key, count in signed.items():
        if count > 0:
            plus[key] = count
        elif count < 0:
            minus[key] = -count
    new_index = old_index.copy()
    new_index.apply_delta(minus, plus)
    return new_index, minus, plus


def update_index_replay(
    old_index: PQGramIndex,
    tree: Tree,
    log: Sequence[EditOperation],
    hasher: Optional[LabelHasher] = None,
    compact: bool = False,
) -> PQGramIndex:
    """The replay engine (see :func:`update_index_replay_timed`)."""
    new_index, _, _ = update_index_replay_delta(
        old_index, tree, log, hasher or LabelHasher(), compact=compact
    )
    return new_index


def update_index(
    old_index: PQGramIndex,
    tree: Tree,
    log: Sequence[EditOperation],
    hasher: Optional[LabelHasher] = None,
    engine: str = "replay",
    compact: Optional[bool] = None,
) -> PQGramIndex:
    """Incrementally maintain the pq-gram index.

    ``engine`` selects ``"replay"`` (default, exact on every valid
    log), ``"batch"`` (the batched engine of :mod:`repro.core.batch` —
    log compaction and commuting-op groups; bit-identical to replay on
    every valid log) or ``"tablewise"`` (the paper's Algorithm 1,
    exact on address-stable logs).  All take
    the same inputs: old index, resulting tree, inverse-operation log.

    ``compact`` preprocesses the log with
    :func:`repro.edits.reduce.compact_inverse_log`; it defaults to the
    engine's native choice (on for ``"batch"``, off otherwise) and is
    rejected for ``"tablewise"``, whose U-chain must see the log
    verbatim.
    """
    hasher = hasher or LabelHasher()
    if engine == "replay":
        return update_index_replay(
            old_index, tree, log, hasher, compact=bool(compact)
        )
    if engine == "batch":
        from repro.core.batch import update_index_batch

        return update_index_batch(
            old_index,
            tree,
            log,
            hasher,
            compact=True if compact is None else compact,
        )
    if engine == "tablewise":
        if compact:
            raise ValueError("engine='tablewise' does not support compact=True")
        return update_index_tablewise(old_index, tree, log, hasher)
    raise ValueError(f"unknown engine {engine!r}")


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
