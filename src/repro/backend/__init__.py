"""Storage of the forest index relation.

The paper's ``(treeId, pqg, cnt)`` relation (Fig. 4b) is held by one
class, :class:`~repro.backend.compact.CompactBackend`: dict bags and
inverted lists as the write path, plus a frozen CSR array snapshot
with a dirty-tree overlay, so compaction survives maintenance instead
of being invalidated by every write.  Until its first freeze — and
without numpy — reads sweep the dicts, bit-identically
(``tests/test_backend_conformance.py``).
"""

from repro.backend.compact import Bag, CompactBackend, Key

__all__ = [
    "CompactBackend",
    "Bag",
    "Key",
]
