"""Pluggable storage backends for the forest index relation.

One write path — :class:`~repro.backend.base.ForestBackend` — behind
which the paper's ``(treeId, pqg, cnt)`` relation (Fig. 4b) is stored,
with two interchangeable engines:

- :class:`~repro.backend.memory.MemoryBackend` — plain dict bags and
  inverted lists; the bit-exact reference.
- :class:`~repro.backend.compact.CompactBackend` — the dicts plus a
  frozen CSR array snapshot with a dirty-key overlay, so compaction
  survives maintenance instead of being invalidated by every write;
  the shipped default.

All backends return bit-identical results on every read; the
conformance suite (``tests/test_backend_conformance.py``) enforces it.
Adding a remote backend is one new module implementing the ABC —
nothing above the facade changes.
"""

from repro.backend.base import Admit, Bag, ForestBackend, Key, make_backend
from repro.backend.compact import CompactBackend
from repro.backend.memory import MemoryBackend

__all__ = [
    "ForestBackend",
    "MemoryBackend",
    "CompactBackend",
    "make_backend",
    "Admit",
    "Bag",
    "Key",
]
