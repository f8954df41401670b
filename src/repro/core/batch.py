"""The maintenance engine.

Inputs are the resulting tree T_n and the log of inverse edit
operations (ē_1, .., ē_n); the output is the net delta that turns the
old index I_0 into I_n.  The engine never reconstructs a full
intermediate document version; it evaluates the exact per-step
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
3. **Net delta** — the signed sum splits into the net (λ(Δ⁻), λ(Δ⁺))
   pair, whose key set is exactly the set of changed tuples.  The
   caller folds it: the forest into its relation in place, re-inverting
   only O(|Δ|) keys; the library functions into one copy of ``I_0``.

Exact for every valid log: the net signed bag telescopes to
λ(P(T_n)) − λ(P(T_0)), which depends only on the endpoint versions, and
compaction preserves T_0 exactly (property-tested against per-operation
calls and full rebuild in ``tests/test_batch_engine.py``).  One call per
log, not per operation, is what makes it cheap; the caller folds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import GramConfig
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
    index_update: float = 0.0        # the caller's fold of (Δ⁻, Δ⁺) into I_0
    log_size: int = 0
    compacted_size: int = 0          # operations left after compaction
    gram_count_plus: int = 0         # Σ |δ(T_i, ē_i)|
    gram_count_minus: int = 0        # Σ |δ(T_{i-1}, e_i)|

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


def net_delta(
    tree: Tree,
    log: Sequence[EditOperation],
    config: GramConfig,
    hasher: LabelHasher,
    compact: bool = True,
) -> Tuple[Bag, Bag, BatchTimings]:
    """The engine: the net delta of one log, with instrumentation.

    Returns ``(minus, plus, timings)``, the net label-tuple bags with
    ``I_n = I_0 ∖ minus ⊎ plus`` (the two have disjoint keys); the
    caller folds them into whatever holds ``I_0``.  ``tree`` is walked
    backwards in place and restored before returning, also on error.
    ``compact=False`` skips phase 1; the result is bit-identical.
    """
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

    plus: Bag = {}
    minus: Bag = {}
    for key, count in signed.items():
        if count > 0:
            plus[key] = count
        elif count < 0:
            minus[key] = -count
    return minus, plus, timings


def update_index_batch_delta(
    old_index: PQGramIndex,
    tree: Tree,
    log: Sequence[EditOperation],
    hasher: LabelHasher,
    compact: bool = True,
) -> Tuple[PQGramIndex, Bag, Bag]:
    """The engine folded into one copy of ``old_index``, which is left
    unchanged: ``(new_index, minus, plus)`` (see :func:`net_delta`)."""
    minus, plus, _ = net_delta(tree, log, old_index.config, hasher, compact=compact)
    new_index = old_index.copy()
    new_index.apply_delta(minus, plus)
    return new_index, minus, plus


def update_index_batch(
    old_index: PQGramIndex,
    tree: Tree,
    log: Sequence[EditOperation],
    hasher: Optional[LabelHasher] = None,
) -> PQGramIndex:
    """Incrementally maintain the pq-gram index (see the module
    docstring); also exported as :func:`repro.core.update_index`.
    Returns a new index and leaves ``old_index`` unchanged.  Takes no
    options: the compaction-off arm is ``compact=False`` on
    :func:`update_index_batch_delta` / :func:`net_delta`."""
    return update_index_batch_delta(old_index, tree, log, hasher or LabelHasher())[0]


#: The engine's public name: one body, no dispatch.
update_index = update_index_batch
