"""The batched maintenance engine.

The replay engine (:mod:`repro.core.maintain`) is exact for every valid
log but treats the log as an opaque sequence: one δ pair per operation,
one index fold per *call*.  Callers that feed edits one batch at a time
therefore pay one O(|I|) index copy per batch, and a redundant log
(rename chains, insert/delete pairs) pays δ work for operations whose
contributions cancel.  This module processes a whole log in one pass:

1. **Compaction** — the inverse log, read backwards, is a script on
   T_n; :func:`repro.edits.reduce.compact_inverse_log` cancels rename
   chains and leaf insert/delete pairs before any δ work.
2. **Commuting-op partitioning** — consecutive log operations whose
   delta regions are disjoint commute: each one's δ reads only a
   bounded neighbourhood (the anchor, its ancestors within p, its
   descendants within p, and the parent whose q-windows shift), so a
   group of region-disjoint operations can be evaluated against a
   *single* tree version instead of one version per operation.
3. **Single-pass application** — the net (λ(Δ⁻), λ(Δ⁺)) pair is folded
   into the index once, and its key set is exactly the set of changed
   tuples, so index mirrors (the forest's inverted lists) re-invert
   only O(|Δ|) keys.

Bit-identical to the replay engine on every valid log: the net signed
bag telescopes to λ(P(T_n)) − λ(P(T_0)) regardless of how the path
between the versions is cut into groups, and region disjointness
guarantees each operation's own δ is evaluated on a neighbourhood
identical to the one at its defining version (property-tested against
both replay and full rebuild in ``tests/test_batch_engine.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.index import PQGramIndex
from repro.core.localdelta import delta_label_bag
from repro.edits.move import Move
from repro.edits.ops import Delete, EditOperation, Insert, Rename
from repro.edits.reduce import compact_inverse_log
from repro.hashing.labelhash import LabelHasher
from repro.tree.traversal import descendants_within
from repro.tree.tree import Tree

Bag = Dict[Tuple[int, ...], int]

@dataclass
class BatchTimings:
    """Wall-clock breakdown of one batched update."""

    compact: float = 0.0             # log compaction
    partition: float = 0.0           # region computation + grouping
    delta_sweep: float = 0.0         # per-group δ bags + group application
    restore: float = 0.0             # re-applying the forward operations
    index_update: float = 0.0        # folding (Δ⁻, Δ⁺) into I_0
    log_size: int = 0
    compacted_size: int = 0          # operations left after compaction
    group_count: int = 0             # commuting groups evaluated
    gram_count_plus: int = 0
    gram_count_minus: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        """Total update time."""
        return (
            self.compact
            + self.partition
            + self.delta_sweep
            + self.restore
            + self.index_update
        )

    #: phase attribute names, in pipeline order (the observability
    #: layer materializes one histogram series per phase)
    PHASES = ("compact", "partition", "delta_sweep", "restore", "index_update")

    def record_into(self, phase_histograms: Dict[str, object]) -> None:
        """Fold this breakdown into per-phase histogram instruments.

        ``phase_histograms`` maps each :data:`PHASES` name to an object
        with ``observe(seconds)`` (a metrics histogram); every phase is
        observed once per batch so the series counts stay aligned with
        ``maintain_batches_total``.
        """
        for phase in self.PHASES:
            phase_histograms[phase].observe(getattr(self, phase))


def operation_region(
    tree: Tree, operation: EditOperation, p: int
) -> Optional[Set[int]]:
    """The node ids an operation's δ may read or its application may
    write, evaluated against the current tree version.

    Conservative by construction: δ reads labels of ancestors within p
    above the anchor, the anchor's descendants within p (anchored
    pq-grams plus their child windows), and sibling windows *through
    the parent* — a writer to any child list or child label always has
    that parent in its own region, so two operations interacting via
    siblings always collide on the shared parent id.

    Returns ``None`` when the region cannot be computed on this
    version (the operation references an id that a not-yet-applied
    neighbour must first create or remove) — the caller must close the
    current group and retry on the advanced version.
    """
    if isinstance(operation, (Rename, Delete)):
        node_id = operation.node_id
        if node_id not in tree:
            return None
        region = set(descendants_within(tree, node_id, p))
        region.update(
            ancestor
            for ancestor in tree.ancestors(node_id, p)
            if ancestor is not None
        )
        return region
    if isinstance(operation, Insert):
        parent = operation.parent_id
        if operation.node_id in tree or parent not in tree:
            return None
        if not (
            1 <= operation.k
            and operation.k - 1 <= operation.m <= tree.fanout(parent)
        ):
            return None
        region = {operation.node_id, parent}
        region.update(
            ancestor
            for ancestor in tree.ancestors(parent, p)
            if ancestor is not None
        )
        for position in range(operation.k, operation.m + 1):
            region.update(
                descendants_within(tree, tree.child(parent, position), p)
            )
        return region
    if isinstance(operation, Move):
        node_id, destination = operation.node_id, operation.parent_id
        if node_id not in tree or destination not in tree:
            return None
        region = set(descendants_within(tree, node_id, p))
        region.add(destination)
        region.update(
            ancestor
            for ancestor in tree.ancestors(node_id, p + 1)
            if ancestor is not None
        )
        region.update(
            ancestor
            for ancestor in tree.ancestors(destination, p)
            if ancestor is not None
        )
        return region
    return None  # unknown extension: never grouped with anything


def partition_commuting(
    tree: Tree, backward: Sequence[EditOperation], p: int
) -> List[List[EditOperation]]:
    """Cut a backward script into runs of region-disjoint operations.

    Greedy and order-preserving: a group grows while the next
    operation's region exists on the group's base version and is
    disjoint from every region already in the group.  Within a group
    every operation's neighbourhood is untouched by the others, so the
    group members commute — their δ bags may all be evaluated on the
    group's base version.

    Exposed for tests and instrumentation; the engine interleaves
    grouping with application (the region of a later group can only be
    computed once the earlier groups have run).
    """
    groups: List[List[EditOperation]] = []
    working = tree.copy()
    position = 0
    while position < len(backward):
        group = _next_group(working, backward, position, p)
        for operation in group:
            operation.apply(working)
        groups.append(group)
        position += len(group)
    return groups


def _next_group(
    tree: Tree, backward: Sequence[EditOperation], start: int, p: int
) -> List[EditOperation]:
    """The longest region-disjoint prefix of ``backward[start:]`` on the
    current version; always at least one operation."""
    group = [backward[start]]
    if start + 1 == len(backward):
        return group  # no successor to group with: skip the region walk
    claimed = operation_region(tree, backward[start], p)
    if claimed is None:
        # Region not computable: evaluate the operation alone — a truly
        # invalid operation then raises InvalidLogError exactly where
        # the replay engine would.
        return group
    for operation in backward[start + 1 :]:
        region = operation_region(tree, operation, p)
        if region is None or not claimed.isdisjoint(region):
            break
        group.append(operation)
        claimed |= region
    return group


def _group_bags(
    tree: Tree,
    operations: Sequence[EditOperation],
    config,
    hasher: LabelHasher,
) -> List[Bag]:
    """λ(δ(tree, op)) for every operation, all on the same version."""
    return [
        delta_label_bag(tree, operation, config, hasher)
        for operation in operations
    ]


def update_index_batch_timed(
    old_index: PQGramIndex,
    tree: Tree,
    log: Sequence[EditOperation],
    hasher: LabelHasher,
    compact: bool = True,
) -> Tuple[PQGramIndex, Bag, Bag, BatchTimings]:
    """The batched engine with instrumentation.

    Returns ``(new_index, minus, plus, timings)`` where ``minus`` /
    ``plus`` are the net label-tuple bags actually applied (disjoint
    keys — the Δ-key-only contract of
    :func:`~repro.core.maintain.update_index_replay_delta`).  ``tree``
    is walked backwards in place and restored before returning, also
    on error.
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
        position = 0
        while position < len(backward):
            group_started = time.perf_counter()
            group = _next_group(tree, backward, position, config.p)
            timings.partition += time.perf_counter() - group_started
            timings.group_count += 1
            for bag in _group_bags(tree, group, config, hasher):
                for key, count in bag.items():
                    signed[key] = signed.get(key, 0) + count
                    timings.gram_count_plus += count
            group_forwards: List[EditOperation] = []
            for inverse_op in group:
                forward_op = inverse_op.inverse(tree)
                inverse_op.apply(tree)
                forward_ops.append(forward_op)
                group_forwards.append(forward_op)
            for bag in _group_bags(tree, group_forwards, config, hasher):
                for key, count in bag.items():
                    signed[key] = signed.get(key, 0) - count
                    timings.gram_count_minus += count
            position += len(group)
    finally:
        timings.delta_sweep = (
            time.perf_counter() - started - timings.partition
        )
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
    """The batched engine, returning the folded-in delta bags (see
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
    compact: bool = True,
) -> PQGramIndex:
    """The batched engine (see the module docstring)."""
    new_index, _, _ = update_index_batch_delta(
        old_index, tree, log, hasher or LabelHasher(), compact=compact
    )
    return new_index
