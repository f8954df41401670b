"""The relational backend: relstore tables + the XPath-accelerator encoding.

``RelBackend`` stores the forest's index relation the way the paper
presents it — as relations in the embedded relational store:

- ``postings(treeId, pqg, cnt)`` — the Fig. 4b index relation, primary
  key ``(treeId, pqg)``, hash-indexed by ``pqg`` (the candidate sweep)
  and by ``treeId`` (per-tree bag reads),
- ``sizes(treeId, size)`` — |I| per tree,
- ``nodes(treeId, pre, post, size, label)`` — one pre/post-order row
  per document node: the *XPath-accelerator* encoding, where
  ``descendant(a, d) ⟺ pre(a) < pre(d) ∧ post(d) < post(a)`` and the
  descendants of ``a`` are the contiguous preorder interval
  ``[pre(a)+1, pre(a)+size(a)-1]``.  A sorted index on
  ``(treeId, pre)`` (created first, so the planner prefers it for
  range selections) plus hash indexes on ``(treeId, label)`` and
  ``(label,)`` make ``HasPath``/``HasLabel`` predicates range and
  bucket selections instead of tree walks — the backend advertises
  ``supports_structural_predicates`` and the executor pushes
  predicates into the candidate sweep.

The tables live in memory only.  Like every index, they are derived:
the document store builds them from its documents when it opens, and
:meth:`ForestIndex.add_trees` records each tree's node rows as it
indexes it.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.backend.base import Admit, Bag, ForestBackend, Key
from repro.errors import IndexConsistencyError, StorageError
from repro.obsv.metrics import NULL_REGISTRY, MetricsRegistry
from repro.query.structural import prepost_rows
from repro.relstore.database import Database
from repro.relstore.schema import Column, Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.query.plan import Plan
    from repro.tree.tree import Tree

_POSTINGS_SCHEMA = Schema(
    [Column("treeId", int), Column("pqg", tuple), Column("cnt", int)]
)
_SIZES_SCHEMA = Schema([Column("treeId", int), Column("size", int)])
_NODES_SCHEMA = Schema(
    [
        Column("treeId", int),
        Column("pre", int),
        Column("post", int),
        Column("size", int),
        Column("label", str),
    ]
)


class RelBackend(ForestBackend):
    """Forest storage as relstore tables, with structural pushdown."""

    name = "rel"

    def __init__(self) -> None:
        self._missing_structure: Set[int] = set()
        database = Database()
        self._postings = database.create_table(
            "postings", _POSTINGS_SCHEMA, primary_key=("treeId", "pqg")
        )
        self._postings.create_index("by_pqg", ("pqg",), kind="hash")
        self._postings.create_index("by_tree", ("treeId",), kind="hash")
        self._sizes = database.create_table(
            "sizes", _SIZES_SCHEMA, primary_key=("treeId",)
        )
        self._nodes = database.create_table(
            "nodes", _NODES_SCHEMA, primary_key=("treeId", "pre")
        )
        # The sorted index comes first: the planner breaks covered-count
        # ties in creation order, so descendant-interval selections
        # And(treeId=t, pre∈[lo,hi], label=x) run through the range path
        # while pure equality selections still pick the hash indexes.
        self._nodes.create_index("by_pre", ("treeId", "pre"), kind="sorted")
        self._nodes.create_index(
            "by_tree_label", ("treeId", "label"), kind="hash"
        )
        self._nodes.create_index("by_label", ("label",), kind="hash")
        self._nodes.create_index("by_tree", ("treeId",), kind="hash")
        self.bind_metrics(NULL_REGISTRY)

    def _bind_instruments(self, registry: MetricsRegistry) -> None:
        self._m_keys_swept = registry.counter(
            "index_keys_swept_total",
            "query pq-gram keys processed by the candidate sweep",
        )
        self._m_postings_touched = registry.counter(
            "index_postings_touched_total",
            "inverted-list (tree, cnt) entries consulted by sweeps",
        )
        self._m_candidates_emitted = registry.counter(
            "index_candidates_emitted_total",
            "candidate trees emitted by sweeps (after any admit filter)",
        )
        self._m_deltas = registry.counter(
            "index_deltas_applied_total",
            "apply_tree_delta calls folded into the relation",
        )
        self._m_delta_keys = registry.counter(
            "index_delta_keys_total",
            "distinct keys re-inverted by apply_tree_delta calls",
        )

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def add_tree_bag(self, tree_id: int, bag: Mapping[Key, int]) -> None:
        if self._sizes.get_row((tree_id,)) is not None:
            raise StorageError(f"tree id {tree_id} is already indexed")
        insert = self._postings.insert_row
        size = 0
        for key, count in bag.items():
            insert((tree_id, key, count))
            size += count
        self._sizes.insert_row((tree_id, size))
        self._missing_structure.add(tree_id)

    def apply_tree_delta(
        self, tree_id: int, minus: Mapping[Key, int], plus: Mapping[Key, int]
    ) -> None:
        size_row = self._sizes.get_row((tree_id,))
        if size_row is None:
            raise StorageError(f"tree id {tree_id} is not indexed")
        size = size_row[1]
        for key, count in minus.items():
            row = self._postings.get_row((tree_id, key))
            current = 0 if row is None else row[2]
            if count > current:
                raise IndexConsistencyError(
                    f"removing {count} occurrences of {key} from tree "
                    f"{tree_id} but index holds only {current}"
                )
            if count == current:
                self._postings.delete((tree_id, key))
            else:
                self._postings.update((tree_id, key), {"cnt": current - count})
            size -= count
        for key, count in plus.items():
            if not count:
                continue
            row = self._postings.get_row((tree_id, key))
            if row is None:
                self._postings.insert_row((tree_id, key, count))
            else:
                self._postings.update((tree_id, key), {"cnt": row[2] + count})
            size += count
        self._sizes.update((tree_id,), {"size": size})
        touched = minus.keys() | plus.keys()
        self._m_deltas.inc()
        self._m_delta_keys.inc(len(touched))

    def remove_tree(self, tree_id: int) -> None:
        if not self._sizes.delete((tree_id,)):
            return
        self._postings.delete_where("by_tree", (tree_id,))
        self._nodes.delete_where("by_tree", (tree_id,))
        self._missing_structure.discard(tree_id)

    def restore(self, bags: Mapping[int, Mapping[Key, int]]) -> None:
        self._postings.clear()
        self._sizes.clear()
        self._nodes.clear()
        for tree_id, bag in bags.items():
            insert = self._postings.insert_row
            size = 0
            for key, count in bag.items():
                insert((tree_id, key, count))
                size += count
            self._sizes.insert_row((tree_id, size))
        # A restored relation carries bags only — the pre/post encoding
        # must be re-recorded before pushdown is sound again.
        self._missing_structure = {row[0] for row in self._sizes.scan()}

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def candidates(
        self,
        query_items: Iterable[Tuple[Key, int]],
        admit: Optional[Admit] = None,
    ) -> Dict[int, int]:
        intersections: Dict[int, int] = {}
        keys_swept = 0
        postings_touched = 0
        find = self._postings.find
        if admit is None:
            for key, query_count in query_items:
                keys_swept += 1
                rows = find("by_pqg", (key,))
                if not rows:
                    continue
                postings_touched += len(rows)
                for row in rows:
                    tree_id = row[0]
                    intersections[tree_id] = intersections.get(
                        tree_id, 0
                    ) + min(query_count, row[2])
        else:
            for key, query_count in query_items:
                keys_swept += 1
                rows = find("by_pqg", (key,))
                if not rows:
                    continue
                postings_touched += len(rows)
                for row in rows:
                    tree_id = row[0]
                    if admit(tree_id):
                        intersections[tree_id] = intersections.get(
                            tree_id, 0
                        ) + min(query_count, row[2])
        self._m_keys_swept.inc(keys_swept)
        self._m_postings_touched.inc(postings_touched)
        self._m_candidates_emitted.inc(len(intersections))
        return intersections

    def tree_bag(self, tree_id: int) -> Mapping[Key, int]:
        if self._sizes.get_row((tree_id,)) is None:
            raise StorageError(f"tree id {tree_id} is not indexed")
        return {
            row[1]: row[2]
            for row in self._postings.find("by_tree", (tree_id,))
        }

    def tree_size(self, tree_id: int) -> int:
        row = self._sizes.get_row((tree_id,))
        if row is None:
            raise StorageError(f"tree id {tree_id} is not indexed")
        return row[1]

    def iter_sizes(self) -> Iterable[Tuple[int, int]]:
        return [(row[0], row[1]) for row in self._sizes.scan()]

    def postings(self, key: Key) -> Optional[Mapping[int, int]]:
        rows = self._postings.find("by_pqg", (key,))
        if not rows:
            return None
        return {row[0]: row[2] for row in rows}

    def iter_postings(self) -> Iterator[Tuple[Key, Mapping[int, int]]]:
        inverted: Dict[Key, Dict[int, int]] = {}
        for tree_id, key, count in self._postings.scan():
            inverted.setdefault(key, {})[tree_id] = count
        return iter(inverted.items())

    def snapshot(self) -> Dict[int, Bag]:
        bags: Dict[int, Bag] = {row[0]: {} for row in self._sizes.scan()}
        for tree_id, key, count in self._postings.scan():
            bags[tree_id][key] = count
        return bags

    def __len__(self) -> int:
        return len(self._sizes)

    def __contains__(self, tree_id: int) -> bool:
        return self._sizes.get_row((tree_id,)) is not None

    def tree_ids(self) -> Iterator[int]:
        return iter([row[0] for row in self._sizes.scan()])

    # ------------------------------------------------------------------
    # structural predicates (the pre/post node table)
    # ------------------------------------------------------------------

    supports_structural_predicates = True

    def record_structure(self, tree_id: int, tree: "Tree") -> None:
        self._nodes.delete_where("by_tree", (tree_id,))
        insert = self._nodes.insert_row
        for pre, post, size, label in prepost_rows(tree):
            insert((tree_id, pre, post, size, label))
        self._missing_structure.discard(tree_id)

    def structures_complete(self) -> bool:
        return not self._missing_structure

    def structures_missing(self) -> Set[int]:
        """Tree ids indexed without node rows (pushdown waits until
        their structure is recorded)."""
        return set(self._missing_structure)

    def structural_matcher(
        self, predicate: "Plan"
    ) -> Optional[Callable[[int], bool]]:
        from repro.query.plan import HasLabel, HasPath

        if isinstance(predicate, HasLabel):
            labels: Tuple[str, ...] = (predicate.label,)
        elif isinstance(predicate, HasPath):
            labels = predicate.labels
        else:
            return None
        if len(labels) == 1:
            # One global bucket scan resolves the whole predicate: the
            # tree ids holding the label, straight off the label index.
            matching = {
                row[0] for row in self._nodes.find("by_label", (labels[0],))
            }
            return matching.__contains__
        memo: Dict[int, bool] = {}

        def matcher(tree_id: int) -> bool:
            verdict = memo.get(tree_id)
            if verdict is None:
                verdict = self._tree_matches_path(tree_id, labels)
                memo[tree_id] = verdict
            return verdict

        return matcher

    def _tree_matches_path(
        self, tree_id: int, labels: Tuple[str, ...]
    ) -> bool:
        """Evaluate one descendant chain as relational selections.

        Level 1 anchors come from the ``(treeId, label)`` hash index;
        every later level is a range selection over the sorted
        ``(treeId, pre)`` index — each anchor's descendants are the
        preorder interval ``[pre+1, pre+size-1]``, and overlapping or
        adjacent anchor intervals are merged first so nested subtrees
        are scanned once, not once per anchor.
        """
        from repro.relstore.query import And, Eq, Range, select

        anchors = self._nodes.find("by_tree_label", (tree_id, labels[0]))
        for label in labels[1:]:
            if not anchors:
                return False
            intervals: List[List[int]] = []
            for row in sorted(anchors, key=lambda entry: entry[1]):
                low, high = row[1] + 1, row[1] + row[3] - 1
                if low > high:
                    continue
                if intervals and low <= intervals[-1][1] + 1:
                    intervals[-1][1] = max(intervals[-1][1], high)
                else:
                    intervals.append([low, high])
            anchors = []
            for low, high in intervals:
                anchors.extend(
                    select(
                        self._nodes,
                        And(
                            Eq("treeId", tree_id),
                            Range("pre", low, high),
                            Eq("label", label),
                        ),
                    )
                )
        return bool(anchors)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "backend": self.name,
            "trees": len(self._sizes),
            "postings": len(self._postings),
            "distinct_keys": len(
                {row[1] for row in self._postings.scan()}
            ),
            "node_rows": len(self._nodes),
            "structured_trees": len(self._sizes) - len(self._missing_structure),
        }

    def check_consistency(self) -> None:
        sizes = {row[0]: row[1] for row in self._sizes.scan()}
        sums: Dict[int, int] = {}
        for tree_id, key, count in self._postings.scan():
            if count <= 0:
                raise IndexConsistencyError(
                    f"non-positive posting cnt for tree {tree_id}, key {key}"
                )
            if tree_id not in sizes:
                raise IndexConsistencyError(
                    f"posting row for unregistered tree {tree_id}"
                )
            sums[tree_id] = sums.get(tree_id, 0) + count
        for tree_id, size in sizes.items():
            if sums.get(tree_id, 0) != size:
                raise IndexConsistencyError(
                    f"size metadata drifted for tree {tree_id}: "
                    f"stored {size}, postings sum {sums.get(tree_id, 0)}"
                )
        self._check_structures(sizes)

    def _check_structures(self, sizes: Dict[int, int]) -> None:
        by_tree: Dict[int, List[Tuple[int, int, int]]] = {}
        for tree_id, pre, post, size, _ in self._nodes.scan():
            if tree_id not in sizes:
                raise IndexConsistencyError(
                    f"node rows for unregistered tree {tree_id}"
                )
            by_tree.setdefault(tree_id, []).append((pre, post, size))
        for tree_id in sizes:
            if tree_id not in by_tree and tree_id not in self._missing_structure:
                raise IndexConsistencyError(
                    f"tree {tree_id} marked structured but has no node rows"
                )
        for tree_id, rows in by_tree.items():
            rows.sort()
            count = len(rows)
            if [pre for pre, _, _ in rows] != list(range(count)) or sorted(
                post for _, post, _ in rows
            ) != list(range(count)):
                raise IndexConsistencyError(
                    f"tree {tree_id}: pre/post ranks are not permutations"
                )
            # Every subtree must be a contiguous preorder interval whose
            # last postorder rank belongs to its root's window.
            for pre, post, size in rows:
                if size < 1 or pre + size > count:
                    raise IndexConsistencyError(
                        f"tree {tree_id}: node pre={pre} claims subtree "
                        f"size {size} beyond the document"
                    )
                for inner_pre, inner_post, _ in rows[pre + 1 : pre + size]:
                    if not (pre < inner_pre and inner_post < post):
                        raise IndexConsistencyError(
                            f"tree {tree_id}: pre/post window violated at "
                            f"pre={inner_pre}"
                        )
