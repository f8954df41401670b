"""The maintenance engine.

Inputs are the old index I_0, the resulting tree T_n and the log of
inverse edit operations (ē_1, .., ē_n).  The engine never reconstructs
a full intermediate document version; it evaluates the exact per-step
telescoping identity that follows from Eq. 10 and the disjointness of a
step's old and new pq-grams::

    I_n  =  I_0  ⊎  Σ_i λ(δ(T_i, ē_i))  ∖  Σ_i λ(δ(T_{i-1}, e_i))

in three phases:

1. **Compaction** — the inverse log, read backwards, is a script on
   T_n; :func:`repro.edits.reduce.compact_inverse_log` cancels rename
   chains and leaf insert/delete pairs before any δ work.
2. **Backward walk** — the compacted log is applied backwards *in
   place* on T_n, one operation at a time: one δ bag before the
   inverse, one after, so each step's deltas are computed at exactly
   the version they are defined on.  The forward operations are
   re-applied afterwards (also on error), restoring T_n.
3. **Single fold** — the net (λ(Δ⁻), λ(Δ⁺)) pair is folded into one
   copy of the index, and its key set is exactly the set of changed
   tuples, so index mirrors (the forest's inverted lists) re-invert
   only O(|Δ|) keys.

Exact for every valid log: the net signed bag telescopes to
λ(P(T_n)) − λ(P(T_0)), which depends only on the endpoint versions, and
compaction preserves T_0 exactly (property-tested against per-operation
calls and full rebuild in ``tests/test_batch_engine.py``).  One call per
log, not per operation, is what makes it cheap: each call copies the
index once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.index import PQGramIndex
from repro.core.localdelta import delta_label_bag
from repro.edits.ops import EditOperation
from repro.edits.reduce import compact_inverse_log
from repro.hashing.labelhash import LabelHasher
from repro.tree.tree import Tree

Bag = Dict[Tuple[int, ...], int]

@dataclass
class BatchTimings:
    """Wall-clock breakdown of one maintenance call."""

    compact: float = 0.0             # log compaction
    delta_sweep: float = 0.0         # per-operation δ bags while undoing the log
    restore: float = 0.0             # re-applying the forward operations
    index_update: float = 0.0        # folding (Δ⁻, Δ⁺) into I_0
    log_size: int = 0
    compacted_size: int = 0          # operations left after compaction
    gram_count_plus: int = 0         # Σ |δ(T_i, ē_i)|
    gram_count_minus: int = 0        # Σ |δ(T_{i-1}, e_i)|
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        """Total update time."""
        return self.compact + self.delta_sweep + self.restore + self.index_update

    #: phase attribute names, in pipeline order (the observability
    #: layer materializes one histogram series per phase)
    PHASES = ("compact", "delta_sweep", "restore", "index_update")

    def record_into(self, phase_histograms: Dict[str, object]) -> None:
        """Fold this breakdown into per-phase histogram instruments.

        ``phase_histograms`` maps each :data:`PHASES` name to an object
        with ``observe(seconds)`` (a metrics histogram); every phase is
        observed once per batch so the series counts stay aligned with
        ``maintain_batches_total``.
        """
        for phase in self.PHASES:
            phase_histograms[phase].observe(getattr(self, phase))


def update_index_batch_timed(
    old_index: PQGramIndex,
    tree: Tree,
    log: Sequence[EditOperation],
    hasher: LabelHasher,
    compact: bool = True,
) -> Tuple[PQGramIndex, Bag, Bag, BatchTimings]:
    """The engine with instrumentation.

    Returns ``(new_index, minus, plus, timings)`` where ``minus`` /
    ``plus`` are the net label-tuple bags actually applied (``I_n = I_0
    ∖ minus ⊎ plus``; the two have disjoint keys).  ``tree`` is walked
    backwards in place and restored before returning, also on error.
    ``compact=False`` skips phase 1; the result is bit-identical.
    """
    config = old_index.config
    timings = BatchTimings(log_size=len(log))
    if compact and len(log) > 1:
        started = time.perf_counter()
        backward = list(reversed(compact_inverse_log(tree, log)))
        timings.compact = time.perf_counter() - started
    else:
        # Both reductions cancel pairs: a shorter log has nothing to compact.
        backward = list(reversed(list(log)))
    timings.compacted_size = len(backward)

    signed: Dict[Tuple[int, ...], int] = {}
    forward_ops: List[EditOperation] = []
    started = time.perf_counter()
    try:
        for inverse_op in backward:
            for key, count in delta_label_bag(
                tree, inverse_op, config, hasher
            ).items():
                signed[key] = signed.get(key, 0) + count
                timings.gram_count_plus += count
            forward_op = inverse_op.inverse(tree)
            inverse_op.apply(tree)
            forward_ops.append(forward_op)
            for key, count in delta_label_bag(
                tree, forward_op, config, hasher
            ).items():
                signed[key] = signed.get(key, 0) - count
                timings.gram_count_minus += count
    finally:
        timings.delta_sweep = time.perf_counter() - started
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
    return new_index, minus, plus, timings


def update_index_batch_delta(
    old_index: PQGramIndex,
    tree: Tree,
    log: Sequence[EditOperation],
    hasher: LabelHasher,
    compact: bool = True,
) -> Tuple[PQGramIndex, Bag, Bag]:
    """The engine, returning the folded-in delta bags (see
    :func:`update_index_batch_timed`)."""
    new_index, minus, plus, _ = update_index_batch_timed(
        old_index, tree, log, hasher, compact=compact
    )
    return new_index, minus, plus


def update_index_batch(
    old_index: PQGramIndex,
    tree: Tree,
    log: Sequence[EditOperation],
    hasher: Optional[LabelHasher] = None,
) -> PQGramIndex:
    """Incrementally maintain the pq-gram index (see the module
    docstring); also exported as :func:`repro.core.update_index`.
    Takes no options: the compaction-off arm is ``compact=False`` on
    :func:`update_index_batch_delta` / :func:`update_index_batch_timed`."""
    new_index, _, _, _ = update_index_batch_timed(
        old_index, tree, log, hasher or LabelHasher()
    )
    return new_index


#: The engine's public name: one body, no dispatch.
update_index = update_index_batch
