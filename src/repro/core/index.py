"""The pq-gram index: a bag of hashed label tuples (Definition 3).

The index of a tree never stores labels or node ids — only fixed-width
label-hash tuples with multiplicities, which is what makes it compact
(paper Section 9.3) and updatable without the original document.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.core.config import GramConfig
from repro.core.profile import GramEmitter, iter_label_hash_tuples
from repro.errors import IndexConsistencyError
from repro.hashing.fingerprint import combine_fingerprints
from repro.hashing.labelhash import LabelHasher
from repro.tree.builder import scan_brackets
from repro.tree.tree import Tree

Key = Tuple[int, ...]
Bag = Dict[Key, int]


class PQGramIndex:
    """Bag of hashed pq-gram label tuples of one tree."""

    def __init__(self, config: GramConfig, counts: Optional[Mapping[Key, int]] = None) -> None:
        self.config = config
        self._counts: Bag = dict(counts or {})
        self._total = sum(self._counts.values())

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_tree(
        cls, tree: Tree, config: GramConfig, hasher: LabelHasher
    ) -> "PQGramIndex":
        """Build the index from scratch (the Augsten 2005 approach that
        the paper's incremental update is compared against)."""
        return cls.from_bag_view(config, tree_bag(tree, config, hasher))

    @classmethod
    def from_brackets(
        cls, text: str, config: GramConfig, hasher: LabelHasher
    ) -> "PQGramIndex":
        """The index of the tree that bracket notation denotes, from
        one scan of the text — equal to ``from_tree(tree_from_brackets(
        text), ...)`` without the tree (a query is only ever a bag)."""
        emitter = GramEmitter(config, hasher)
        scan_brackets(text, emitter.open, emitter.close)
        return cls.from_bag_view(config, emitter.counts)

    @classmethod
    def from_bag_view(
        cls,
        config: GramConfig,
        counts: Mapping[Key, int],
        total: Optional[int] = None,
    ) -> "PQGramIndex":
        """Wrap an existing bag mapping *without copying it*.

        The storage-backend fast path: the returned index shares the
        caller's mapping, so it must be treated as read-only (use
        :meth:`copy` before :meth:`apply_delta` — the library maintenance
        functions already do).  ``total`` skips the O(distinct) cardinality
        sum when the caller tracks it.
        """
        index = cls.__new__(cls)
        index.config = config
        index._counts = counts  # type: ignore[assignment]
        index._total = sum(counts.values()) if total is None else total
        return index

    def copy(self) -> "PQGramIndex":
        """Independent copy."""
        return PQGramIndex.from_bag_view(self.config, dict(self._counts), total=self._total)

    # ------------------------------------------------------------------
    # bag views
    # ------------------------------------------------------------------

    def count(self, key: Key) -> int:
        """Multiplicity of one label tuple."""
        return self._counts.get(key, 0)

    def items(self) -> Iterator[Tuple[Key, int]]:
        """(label tuple, multiplicity) pairs."""
        return iter(self._counts.items())

    def size(self) -> int:
        """|I|: total number of pq-grams (bag cardinality); O(1), the
        total is maintained across :meth:`apply_delta`."""
        return self._total

    def distinct_size(self) -> int:
        """Number of distinct label tuples (rows of the stored relation)."""
        return len(self._counts)

    def __len__(self) -> int:
        return self.size()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PQGramIndex):
            return NotImplemented
        return self.config == other.config and self._counts == other._counts

    # ------------------------------------------------------------------
    # bag algebra (Section 3.1: ∩, \, ⊎ on bags)
    # ------------------------------------------------------------------

    def bag_intersection_size(self, other: "PQGramIndex") -> int:
        """|I ∩ I'| with bag semantics (Σ of per-key minima)."""
        small, large = (
            (self._counts, other._counts)
            if len(self._counts) <= len(other._counts)
            else (other._counts, self._counts)
        )
        total = 0
        for key, count in small.items():
            other_count = large.get(key)
            if other_count:
                total += min(count, other_count)
        return total

    def bag_union_size(self, other: "PQGramIndex") -> int:
        """|I ⊎ I'| with bag semantics (sum of cardinalities)."""
        return self.size() + other.size()

    def apply_delta(self, minus: Mapping[Key, int], plus: Mapping[Key, int]) -> None:
        """``I ← I \\ I⁻ ⊎ I⁺`` (Lemma 2, Eq. 13), in place.

        Raises :class:`IndexConsistencyError` if a subtraction would
        drive a count below zero — which for a correct log can never
        happen and therefore doubles as an integrity check.
        """
        for key, count in minus.items():
            current = self._counts.get(key, 0)
            if count > current:
                raise IndexConsistencyError(
                    f"removing {count} occurrences of {key} but index "
                    f"holds only {current}"
                )
            if count == current:
                del self._counts[key]
            else:
                self._counts[key] = current - count
            self._total -= count
        for key, count in plus.items():
            if count:
                self._counts[key] = self._counts.get(key, 0) + count
                self._total += count

    # ------------------------------------------------------------------
    # compressed form
    # ------------------------------------------------------------------

    def fingerprints(self) -> Iterator[Tuple[int, int]]:
        """(combined fingerprint, count) pairs — the compressed form
        used when a single fixed-width key per pq-gram is wanted."""
        for key, count in self._counts.items():
            yield combine_fingerprints(key), count

    def serialized_size_bytes(self) -> int:
        """Approximate on-disk size: one fixed-width fingerprint (8
        bytes) plus a 4-byte count per distinct tuple — the quantity
        plotted in the paper's Fig. 14 (left)."""
        return self.distinct_size() * 12


def index_of_tree(
    tree: Tree,
    config: Optional[GramConfig] = None,
    hasher: Optional[LabelHasher] = None,
) -> PQGramIndex:
    """Convenience wrapper: the 3,3-gram index of a tree."""
    return PQGramIndex.from_tree(
        tree, config or GramConfig(), hasher or LabelHasher()
    )


def tree_bag(tree: Tree, config: GramConfig, hasher: LabelHasher) -> Bag:
    """The pq-gram bag of a tree, as a fresh dict its receiver owns."""
    return bag_from_pairs(iter_label_hash_tuples(tree, config, hasher))


def bag_from_pairs(pairs: Iterable[Key]) -> Bag:
    """Fold an iterable of keys into a bag."""
    bag: Bag = {}
    for key in pairs:
        bag[key] = bag.get(key, 0) + 1
    return bag
