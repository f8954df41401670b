"""Fixed-width label hashing for the pq-gram index.

Maps every label to a non-zero fingerprint; the value ``0`` is reserved
for the null node ``*`` so that padded positions are recognizable in any
stored p-part or q-part (the paper's Fig. 4 likewise pins ``h(*) = 0``).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.hashing.fingerprint import KarpRabinFingerprint
from repro.tree.node import NULL_LABEL

#: Hash value reserved for the null node.
NULL_HASH = 0


class LabelHasher:
    """Memoizing label → fingerprint mapper.

    The memo makes repeated hashing of the (few, highly repetitive) XML
    element names O(1); an optional reverse map supports debugging and
    human-readable index dumps.  Long-lived owners (the document store,
    the lookup service) share one hasher across every build and
    maintenance call, so the hit/miss counters double as a health
    signal for that sharing (surfaced by ``store stats``).
    """

    def __init__(
        self,
        fingerprint: Optional[KarpRabinFingerprint] = None,
        keep_reverse_map: bool = False,
    ) -> None:
        self._fingerprint = fingerprint or KarpRabinFingerprint()
        self._memo: Dict[str, int] = {}
        self._reverse: Optional[Dict[int, str]] = {} if keep_reverse_map else None
        self.memo_hits = 0
        self.memo_misses = 0

    @property
    def fingerprint(self) -> KarpRabinFingerprint:
        """The underlying fingerprint function."""
        return self._fingerprint

    def hash_label(self, label: str) -> int:
        """Fingerprint of a real label; never returns :data:`NULL_HASH`."""
        cached = self._memo.get(label)
        if cached is not None:
            self.memo_hits += 1
            return cached
        self.memo_misses += 1
        value = self._fingerprint.of_text(label)
        if value == NULL_HASH:
            # Remap the (astronomically unlikely) zero fingerprint so the
            # null sentinel stays unambiguous.
            value = 1
        self._memo[label] = value
        if self._reverse is not None:
            self._reverse[value] = label
        return value

    def stats(self) -> Dict[str, int]:
        """Memo statistics: distinct labels, hits, misses."""
        return {
            "labels": len(self._memo),
            "hits": self.memo_hits,
            "misses": self.memo_misses,
        }

    def publish_metrics(self, registry) -> None:
        """Push the memo statistics into a metrics registry as gauges.

        Pulled at export time (not on the hot hashing path): the memo
        counters are plain ints here, and owners snapshot them into the
        shared :class:`~repro.obsv.metrics.MetricsRegistry` right
        before rendering a snapshot or Prometheus page.
        """
        registry.gauge(
            "hasher_labels", "distinct labels in the shared hasher memo"
        ).set(len(self._memo))
        registry.gauge(
            "hasher_memo_hits", "label-hash memo hits since startup"
        ).set(self.memo_hits)
        registry.gauge(
            "hasher_memo_misses", "label-hash memo misses since startup"
        ).set(self.memo_misses)

    def hash_optional(self, label: Optional[str]) -> int:
        """Hash a label, treating ``None`` and ``*``-as-null as the null
        node (used when padding p-parts and q-parts)."""
        if label is None:
            return NULL_HASH
        return self.hash_label(label)

    def lookup(self, value: int) -> Optional[str]:
        """Reverse lookup (only if ``keep_reverse_map`` was requested)."""
        if value == NULL_HASH:
            return NULL_LABEL
        if self._reverse is None:
            return None
        return self._reverse.get(value)

    def __len__(self) -> int:
        return len(self._memo)
