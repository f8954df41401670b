"""The (P, Q) temporary table pair storing delta pq-grams (Section 8.1).

The paper stores the pq-grams of the deltas in two relations:

- ``P(anchId, sibPos, parId, fanout, ppart)`` — one row per anchor
  node, carrying the hashed p-part plus the structural bookkeeping
  (sibling position, parent id, fanout) the update function needs.
  The ``fanout`` column is our addition to the paper's layout: the
  special case ``A // (•..•)`` of Section 7.2 decides whether an anchor
  became a leaf from the nulls in the window context, which is exact
  for q >= 2 but ambiguous for q = 1 (the window has no context);
  carrying the fanout makes the decision exact for every q,
- ``Q(anchId, row, qpart)`` — one row per q-matrix row of an anchor,
  carrying the hashed window.

A pq-gram is the join of a P row with one of its Q rows; a P row with
no Q rows is legal bookkeeping (Algorithm 2 always stores the parent's
p-part, even when an operation contributes no windows — e.g. a leaf
insertion with q = 1).

This module also implements the q-matrix operators of Fig. 10 on the
stored representation:

- the *diagonal replacement* ``A // B`` appears as
  :meth:`DeltaTables.replace_children` (splice a child range, renumber
  rows) and :meth:`DeltaTables.update_q_diagonal` (relabel one child in
  place),
- ``D(n)`` appears as :meth:`DeltaTables.write_anchor_rows`,
- the special cases for leaves (Section 7.2) are the ``LEAF`` window
  handling below,
- the p-matrix operators of Fig. 9 appear in
  :meth:`DeltaTables.change_p_parts` (Algorithm 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import GramConfig
from repro.errors import InvalidLogError
from repro.hashing.labelhash import NULL_HASH, LabelHasher
from repro.tree.tree import Tree

#: Parent id of the root anchor (real ids are >= 0).
NO_PARENT = -1

#: Open bounds for a sibling-position range.
_LOWEST, _HIGHEST = -(1 << 62), 1 << 62

Bag = Dict[Tuple[int, ...], int]
PRow = Dict[str, Any]


@dataclass
class ChildWindow:
    """The stored window around children k..m of an anchor.

    ``left_context``/``right_context`` are the q-1 hashes on either
    side (null-padded at tree borders); ``kids`` the hashes of children
    k..m.  ``was_leaf`` marks that the anchor was stored as a leaf
    (single all-null row)."""

    anchor: int
    k: int
    m: int
    left_context: Tuple[int, ...]
    kids: Tuple[int, ...]
    right_context: Tuple[int, ...]
    was_leaf: bool


class DeltaTables:
    """The (P, Q) pair with the paper's maintenance operations.

    ``P`` maps an anchor id to its row (a dict over the columns
    ``anchId, sibPos, parId, fanout, ppart``), ``Q`` an anchor id to its
    stored q-matrix rows ``{row: qpart}``.  Section 8.1's "index on the
    anchor IDs" is ``_children`` (``parId → {anchId}``), which answers
    the update function's selections of an anchor's stored children;
    ``use_anchor_index=False`` (ablation A2) answers them by scanning
    every P row instead.
    """

    def __init__(self, config: GramConfig, use_anchor_index: bool = True) -> None:
        self.config = config
        self.P: Dict[int, PRow] = {}
        self.Q: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        self._children: Optional[Dict[int, Set[int]]] = {} if use_anchor_index else None
        # Anchors whose *complete* q-matrix is stored — lets overlapping
        # deltas skip re-reading the same subtree regions (the paper's
        # Section 10 "merge overlapping regions" idea; ablation A8).
        self.full_anchors: set[int] = set()

    # ------------------------------------------------------------------
    # leaf window helpers
    # ------------------------------------------------------------------

    @property
    def leaf_qpart(self) -> Tuple[int, ...]:
        """The all-null window of a leaf anchor."""
        return (NULL_HASH,) * self.config.q

    def _is_leaf(self, anch_id: int) -> bool:
        rows = self.Q.get(anch_id, {})
        return len(rows) == 1 and rows.get(1) == self.leaf_qpart

    # ------------------------------------------------------------------
    # insertion of delta pq-grams (used by Algorithm 2)
    # ------------------------------------------------------------------

    def add_p_row(
        self,
        anch_id: int,
        sib_pos: int,
        par_id: int,
        fanout: int,
        ppart: Tuple[int, ...],
    ) -> None:
        """Add a P row; a duplicate with identical content is a no-op,
        a conflicting duplicate is an error (deltas of one tree state
        must agree)."""
        existing = self.P.get(anch_id)
        new_row: PRow = {
            "anchId": anch_id,
            "sibPos": sib_pos,
            "parId": par_id,
            "fanout": fanout,
            "ppart": ppart,
        }
        if existing is None:
            self.P[anch_id] = new_row
            if self._children is not None:
                self._children.setdefault(par_id, set()).add(anch_id)
        elif existing != new_row:
            raise InvalidLogError(
                f"conflicting p-parts for anchor {anch_id}: "
                f"{existing} vs {new_row}"
            )

    def add_q_row(self, anch_id: int, row: int, qpart: Tuple[int, ...]) -> None:
        """Add a Q row; duplicate handling as :meth:`add_p_row`."""
        rows = self.Q.setdefault(anch_id, {})
        existing = rows.setdefault(row, qpart)
        if existing != qpart:
            raise InvalidLogError(
                f"conflicting q-rows ({anch_id}, {row}): {existing} vs {qpart}"
            )

    def add_p_row_from_tree(self, tree: Tree, node_id: int, hasher: LabelHasher) -> None:
        """Store P_T(x) of Algorithm 2: the hashed p-part plus position
        bookkeeping read from the tree."""
        if node_id in self.P:
            return  # identical by construction: all deltas read one tree
        p = self.config.p
        chain: List[int] = []
        for ancestor in reversed(tree.ancestors(node_id, p - 1)):
            chain.append(NULL_HASH if ancestor is None else hasher.hash_label(tree.label(ancestor)))
        chain.append(hasher.hash_label(tree.label(node_id)))
        parent = tree.parent(node_id)
        self.add_p_row(
            node_id,
            tree.sibling_position(node_id),
            NO_PARENT if parent is None else parent,
            tree.fanout(node_id),
            tuple(chain),
        )

    def add_q_rows_from_tree(
        self, tree: Tree, node_id: int, k: int, m: int, hasher: LabelHasher
    ) -> None:
        """Store Q_T^{k..m}(x): rows k..m+q-1 of the anchor's q-matrix,
        or the single leaf row when the anchor is a leaf (Section 7.2)."""
        if node_id in self.full_anchors:
            return  # every row is already stored
        q = self.config.q
        if tree.is_leaf(node_id):
            self.add_q_row(node_id, 1, self.leaf_qpart)
            return
        window = tree.child_slice(node_id, k - q + 1, m + q - 1)
        hashes = [
            NULL_HASH if child is None else hasher.hash_label(tree.label(child))
            for child in window
        ]
        for offset, row in enumerate(range(k, m + q)):
            self.add_q_row(node_id, row, tuple(hashes[offset : offset + q]))

    def add_all_q_rows_from_tree(
        self, tree: Tree, node_id: int, hasher: LabelHasher
    ) -> None:
        """Store Q_T(x): the whole q-matrix of the anchor.

        Skipped (O(1)) when an earlier delta already stored the full
        matrix — overlapping deltas of one update all read the same
        tree version, so the rows are guaranteed identical.
        """
        if node_id in self.full_anchors:
            return
        fanout = tree.fanout(node_id)
        self.add_q_rows_from_tree(tree, node_id, 1, max(fanout, 0), hasher)
        self.full_anchors.add(node_id)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def get_p(self, anch_id: int) -> Optional[PRow]:
        """The P row of an anchor (or ``None``)."""
        return self.P.get(anch_id)

    def require_p(self, anch_id: int) -> PRow:
        """The P row of an anchor; missing data means the log is
        inconsistent with the stored deltas."""
        row = self.P.get(anch_id)
        if row is None:
            raise InvalidLogError(f"no stored p-part for anchor {anch_id}")
        return row

    def q_rows(self, anch_id: int) -> List[Tuple[int, Tuple[int, ...]]]:
        """All stored (row, qpart) pairs of an anchor, sorted by row."""
        return sorted(self.Q.get(anch_id, {}).items())

    def q_rows_range(
        self, anch_id: int, low: int, high: int
    ) -> List[Tuple[int, Tuple[int, ...]]]:
        """Stored (row, qpart) pairs with ``low <= row <= high``."""
        rows = self.Q.get(anch_id, {})
        return [(row, rows[row]) for row in range(low, high + 1) if row in rows]

    def children_p_rows(
        self, par_id: int, low: int = _LOWEST, high: int = _HIGHEST
    ) -> List[PRow]:
        """P rows with this parent and ``low <= sibPos <= high``,
        ordered by sibling position."""
        if self._children is not None:
            found = [self.P[anchor] for anchor in self._children.get(par_id, ())]
        else:
            found = [row for row in self.P.values() if row["parId"] == par_id]
        return sorted(
            (row for row in found if low <= row["sibPos"] <= high),
            key=lambda row: row["sibPos"],
        )

    # ------------------------------------------------------------------
    # changing P rows
    # ------------------------------------------------------------------

    def update_p(self, anch_id: int, **columns: Any) -> None:
        """Set columns of an anchor's P row; no row, no change."""
        row = self.P.get(anch_id)
        if row is None:
            return
        if self._children is not None and "parId" in columns:
            self._unlink(row)
            self._children.setdefault(columns["parId"], set()).add(anch_id)
        self.P[anch_id] = {**row, **columns}

    def delete_p(self, anch_id: int) -> None:
        """Drop an anchor's P row; no row, no change."""
        row = self.P.pop(anch_id, None)
        if row is not None and self._children is not None:
            self._unlink(row)

    def _unlink(self, row: PRow) -> None:
        assert self._children is not None
        siblings = self._children[row["parId"]]
        siblings.discard(row["anchId"])
        if not siblings:
            del self._children[row["parId"]]

    # ------------------------------------------------------------------
    # q-matrix operators (Fig. 10 on the stored representation)
    # ------------------------------------------------------------------

    def read_child_window(self, anch_id: int, k: int, m: int) -> ChildWindow:
        """Reconstruct the extended child segment around children k..m
        from the stored rows k..m+q-1 (which the delta guarantees are
        all present).  ``m == k - 1`` reads a pure gap window."""
        q = self.config.q
        stored = self.q_rows_range(anch_id, k, m + q - 1)
        if self._is_leaf(anch_id):
            if k != 1 or m != 0:
                raise InvalidLogError(
                    f"anchor {anch_id} is a leaf but window k={k}, m={m} "
                    "was requested"
                )
            nulls = (NULL_HASH,) * (q - 1)
            return ChildWindow(anch_id, k, m, nulls, (), nulls, was_leaf=True)
        expected_rows = list(range(k, m + q))
        if [row for row, _ in stored] != expected_rows:
            raise InvalidLogError(
                f"anchor {anch_id}: rows {expected_rows} required but "
                f"only {[row for row, _ in stored]} are stored"
            )
        # Extended positions k .. m+2(q-1); segment[i] = ext position k+i.
        segment: List[Optional[int]] = [None] * ((m - k + 1) + 2 * (q - 1))
        for row, qpart in stored:
            for offset, value in enumerate(qpart):
                segment[row - k + offset] = value
        values = [NULL_HASH if value is None else value for value in segment]
        return ChildWindow(
            anch_id,
            k,
            m,
            tuple(values[: q - 1]),
            tuple(values[q - 1 : q - 1 + (m - k + 1)]),
            tuple(values[q - 1 + (m - k + 1) :]),
            was_leaf=False,
        )

    def replace_children(
        self, window: ChildWindow, new_kids: Sequence[int], new_fanout: int
    ) -> None:
        """The A // B operator: replace the diagonal children of the
        window with ``new_kids``, regenerating rows and renumbering the
        stored tail rows of the anchor.

        ``new_fanout`` is the anchor's total child count after the
        replacement; it decides the ``A // (•..•)`` leaf special case
        of Section 7.2 exactly (see the module docstring).
        """
        q = self.config.q
        anch_id, k, m = window.anchor, window.k, window.m
        self.full_anchors.discard(anch_id)  # the matrix is being edited
        rows = self.Q.setdefault(anch_id, {})
        # Remove the old window rows (all stored rows in k..m+q-1, or
        # the single leaf row).
        if window.was_leaf:
            rows.pop(1, None)
        else:
            for row in range(k, m + q):
                rows.pop(row, None)
        # Renumber the tail before inserting, to keep keys unique.
        shift = len(new_kids) - len(window.kids)
        if shift and not window.was_leaf:
            tail = {row + shift: rows.pop(row) for row in list(rows) if row > m + q - 1}
            rows.update(tail)
        # Build the new segment and its windows.
        segment = list(window.left_context) + list(new_kids) + list(window.right_context)
        if new_fanout == 0:
            # A // (•..•) and the anchor has no children left: it
            # becomes a leaf (Section 7.2 special case).
            if any(value != NULL_HASH for value in segment):
                raise InvalidLogError(
                    f"anchor {anch_id}: fanout 0 but window context "
                    f"{segment} holds real children"
                )
            self.add_q_row(anch_id, 1, self.leaf_qpart)
            return
        for offset in range(len(segment) - q + 1):
            rows[k + offset] = tuple(segment[offset : offset + q])

    def update_q_diagonal(self, anch_id: int, k: int, new_hash: int) -> None:
        """Relabel child k of the anchor inside every stored window —
        the rename case of Table 1, where ``Q^{k..k} // D(m)`` keeps the
        window shape and only changes the diagonal."""
        q = self.config.q
        rows = self.Q.get(anch_id, {})
        for row, qpart in self.q_rows_range(anch_id, k, k + q - 1):
            offset = (k + q - 1) - row
            rows[row] = qpart[:offset] + (new_hash,) + qpart[offset + 1 :]

    def write_anchor_rows(self, anch_id: int, kids: Sequence[int]) -> None:
        """Fresh q-matrix rows for a new anchor: windows over ``kids``
        (``D(•) // Q^{k..m}`` of the insert case), or the leaf row."""
        q = self.config.q
        if not kids:
            self.add_q_row(anch_id, 1, self.leaf_qpart)
            return
        extended = [NULL_HASH] * (q - 1) + list(kids) + [NULL_HASH] * (q - 1)
        for offset in range(len(kids) + q - 1):
            self.add_q_row(anch_id, offset + 1, tuple(extended[offset : offset + q]))

    def delete_anchor_rows(self, anch_id: int) -> None:
        """Drop every stored q-row of an anchor."""
        self.full_anchors.discard(anch_id)
        self.Q.pop(anch_id, None)

    def decode_anchor_children(self, anch_id: int) -> Tuple[int, ...]:
        """The child label hashes of an anchor, reconstructed from its
        stored q-matrix (all rows present by the delta guarantees)."""
        rows = self.q_rows(anch_id)
        if not rows:
            raise InvalidLogError(f"no stored q-rows for anchor {anch_id}")
        if self._is_leaf(anch_id):
            return ()
        q = self.config.q
        fanout = len(rows) - q + 1
        expected = list(range(1, fanout + q))
        if [row for row, _ in rows] != expected or fanout < 1:
            raise InvalidLogError(
                f"anchor {anch_id}: incomplete q-matrix rows "
                f"{[row for row, _ in rows]}"
            )
        extended: List[int] = [NULL_HASH] * (fanout + 2 * (q - 1))
        for row, qpart in rows:
            for offset, value in enumerate(qpart):
                extended[row - 1 + offset] = value
        return tuple(extended[q - 1 : q - 1 + fanout])

    # ------------------------------------------------------------------
    # p-part operators (Fig. 9 / Algorithm 4)
    # ------------------------------------------------------------------

    def change_p_parts(self, node_id: int, s: Tuple[int, ...], d: int) -> int:
        """``changePParts(P, n, s, d)`` of Algorithm 4.

        For every stored anchor a at distance i <= d below ``node_id``
        (found level by level through the parId links), the leading
        p - i entries of its p-part are replaced with the trailing
        p - i entries of ``s``.  Returns the number of rows updated.
        """
        p = self.config.p
        if d < 0:
            return 0
        updated = 0
        level = [node_id]
        for distance in range(d + 1):
            next_level: List[int] = []
            for anchor in level:
                row = self.P.get(anchor)
                if row is None:
                    continue
                ppart = row["ppart"]
                new_ppart = s[distance:] + ppart[p - distance :]
                if new_ppart != ppart:
                    self.update_p(anchor, ppart=new_ppart)
                updated += 1
                if distance < d:
                    next_level.extend(
                        child["anchId"] for child in self.children_p_rows(anchor)
                    )
            level = next_level
        return updated

    def shift_sib_positions(self, par_id: int, above: int, delta: int) -> None:
        """Add ``delta`` to the sibling position of every stored child
        of ``par_id`` with sibPos > above (Section 8.4 renumbering)."""
        if delta == 0:
            return
        for row in self.children_p_rows(par_id, above + 1):
            self.update_p(row["anchId"], sibPos=row["sibPos"] + delta)

    # ------------------------------------------------------------------
    # λ(P, Q): the join producing the label-tuple bag (Eq. 31)
    # ------------------------------------------------------------------

    def label_bag(self) -> Bag:
        """The bag of ppart ∘ qpart label tuples of all stored pq-grams.

        Evaluates Eq. 31 — ``λ(P, Q) = π_{ppart ∘ qpart}(P ⋈ Q)`` — as a
        loop over Q probing P; every Q row must join a P row (a dangling
        q-row means the delta bookkeeping broke).
        """
        bag: Bag = {}
        orphans: List[int] = []
        for anchor, rows in self.Q.items():
            p_row = self.P.get(anchor)
            if p_row is None:
                orphans.append(anchor)
                continue
            ppart = p_row["ppart"]
            for qpart in rows.values():
                key = ppart + qpart
                bag[key] = bag.get(key, 0) + 1
        if orphans:
            raise InvalidLogError(
                f"q-rows without p-parts for anchors {sorted(orphans)[:5]}"
            )
        return bag

    def gram_count(self) -> int:
        """Number of stored pq-grams (= Q rows)."""
        return sum(map(len, self.Q.values()))

    def anchor_count(self) -> int:
        """Number of stored anchors (= P rows)."""
        return len(self.P)
