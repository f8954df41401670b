"""Structural subtree fingerprints (Merkle-style).

``subtree_fingerprints`` assigns every node a hash that depends on its
label and the ordered fingerprints of its children, so two subtrees
get equal fingerprints iff their label structures are identical (up to
hash collisions).  The tree diff uses these to match unchanged
subtrees in O(1), and the lookup service keys its query cache on them.

The mixer is BLAKE2b rather than Karp–Rabin: the Karp–Rabin fold is
*linear*, so any scheme that folds child fingerprints as single digits
of a polynomial inherits algebraic collisions — swapping two children
(``a(b, c)`` vs ``a(c, b)``) only permutes the digits of a linear
combination, and an additive fold collides outright.  A cryptographic
mix has no such structure; the regression tests in
``tests/test_tree_fingerprint.py`` pin the exact families a linear
fold would conflate.  The label fingerprints of the pq-gram index
itself are unaffected — they hash flat strings, where Karp–Rabin's
guarantee applies.

Digests are 128-bit: the query cache serves one query's matches to
any equal-fingerprint query, and the diff treats equal-fingerprint
subtrees as unchanged, so a collision silently returns wrong answers
or drops an edit rather than merely costing time.  At 64 bits a
billion-subtree corpus has birthday collision odds near 3%; at 128
bits the odds are negligible for any feasible corpus.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict

from repro.tree.traversal import postorder
from repro.tree.tree import Tree

#: fingerprint width in bytes (128-bit digests)
DIGEST_SIZE = 16


def _mix(label: str, child_digests: list[int]) -> int:
    state = hashlib.blake2b(digest_size=DIGEST_SIZE)
    raw = label.encode("utf-8")
    state.update(struct.pack("<I", len(raw)))
    state.update(raw)
    for digest in child_digests:
        state.update(digest.to_bytes(DIGEST_SIZE, "little"))
    return int.from_bytes(state.digest(), "little")


def subtree_fingerprints(tree: Tree, _unused=None) -> Dict[int, int]:
    """Fingerprint of every subtree, keyed by its root node id.

    Deterministic across processes; equal label structures (labels,
    order, shape) yield equal fingerprints.
    """
    result: Dict[int, int] = {}
    for node_id in postorder(tree):
        result[node_id] = _mix(
            tree.label(node_id),
            [result[child] for child in tree.children(node_id)],
        )
    return result


def tree_fingerprint(tree: Tree) -> int:
    """One fingerprint for the whole tree's label structure."""
    return subtree_fingerprints(tree)[tree.root_id]
