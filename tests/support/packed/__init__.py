"""Test-only copy of the packed heap layer that left ``repro``.

The forest once had an optional second storage form: a structural
subtree-dedup table, an intern pool for key tuples, a block-varint
codec and the delta-packed CSR postings it produced.  Every backend now
stores plain dict bags and freezes into
:class:`~repro.perf.sweep.CompactPostings`; nothing in ``repro``
imports this package.  It lives here only so the unit tests that pin
it keep running until they retire.
"""

from tests.support.packed.dedup import DedupTable, SharedBag, release_if_shared
from tests.support.packed.frozen import CompressedPostings
from tests.support.packed.intern import InternPool, default_pool
from tests.support.packed.varint import (
    BLOCK,
    PackedIntArray,
    delta_decode_span,
    delta_encode_span,
)

__all__ = [
    "BLOCK",
    "CompressedPostings",
    "DedupTable",
    "InternPool",
    "PackedIntArray",
    "SharedBag",
    "default_pool",
    "delta_decode_span",
    "delta_encode_span",
    "release_if_shared",
]
