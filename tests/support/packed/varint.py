"""Block-packed integer arrays (the stream-vbyte idea, word-aligned).

Classic stream-vbyte splits control bytes from data bytes so four
values decode per branchless step.  Python cannot win at per-value
byte twiddling, so this codec keeps the *shape* of the idea and drops
the per-value control stream: values are grouped into fixed blocks of
:data:`BLOCK` integers, every block is stored at the smallest uniform
byte width (1/2/4/8) that holds its largest value, and a block decodes
with one ``frombuffer`` + ``astype`` — a memcpy-speed vector op, not a
per-value loop.  One width byte per block replaces per-value control
bytes, which is the right trade at block granularity.

Values are zigzag-mapped (``(v << 1) ^ (v >> 63)``) before width
selection so callers can store signed deltas without a special case;
delta transforms themselves (sorted posting slots, CSR offsets) are
applied by the caller, because only the caller knows where each run
resets.

The packed form serializes to ``header | widths | payload`` and reads
straight back from any buffer — including a memory-mapped segment
file, where the payload stays on disk until a block is touched.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import List, Sequence, Tuple

from repro.perf import HAVE_NUMPY

if HAVE_NUMPY:
    import numpy as _np

#: values per block — one width byte and one ``frombuffer`` per block
BLOCK = 128

#: serialized header: value count, payload byte length
_HEADER = struct.Struct("<QQ")

_WIDTH_DTYPES = {1: "<u1", 2: "<u2", 4: "<u4", 8: "<u8"}
_WIDTH_TYPECODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value >= 0 else (
        ((-value - 1) << 1) | 1
    )


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _width_for(peak: int) -> int:
    if peak < 1 << 8:
        return 1
    if peak < 1 << 16:
        return 2
    if peak < 1 << 32:
        return 4
    return 8


#: decoded blocks kept hot per array (≈1 KiB each) — tiny spans from
#: one working set overwhelmingly share blocks, so random span decodes
#: amortize to one ``frombuffer`` per touched block, not per span
_BLOCK_CACHE_LIMIT = 1 << 13


class PackedIntArray:
    """An immutable int64 sequence, block-packed to 1/2/4/8-byte words."""

    __slots__ = ("n", "widths", "payload", "_offsets", "_cache")

    def __init__(self, n: int, widths: bytes, payload) -> None:
        self.n = n
        self.widths = widths
        self.payload = payload  # bytes | memoryview | np.ndarray[u1]
        self._cache: dict = {}
        # Byte offset of every block inside the payload (cumulative
        # width * BLOCK), precomputed once — random slicing is then
        # pure arithmetic.
        offsets: List[int] = [0]
        position = 0
        for index, width in enumerate(widths):
            values = min(BLOCK, n - index * BLOCK)
            position += width * values
            offsets.append(position)
        self._offsets = offsets

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def pack(cls, values: Sequence[int]) -> "PackedIntArray":
        """Pack a sequence of (possibly signed) integers."""
        if HAVE_NUMPY:
            data = _np.asarray(values, dtype=_np.int64)
            zig = (
                (data.astype(_np.uint64) << _np.uint64(1))
                ^ (data >> _np.int64(63)).astype(_np.uint64)
            )
            widths = bytearray()
            chunks: List[bytes] = []
            for start in range(0, len(zig), BLOCK):
                block = zig[start:start + BLOCK]
                width = _width_for(int(block.max()) if len(block) else 0)
                widths.append(width)
                chunks.append(
                    block.astype(_WIDTH_DTYPES[width]).tobytes()
                )
            return cls(len(zig), bytes(widths), b"".join(chunks))
        zigzagged = [_zigzag(int(value)) for value in values]
        widths = bytearray()
        chunks = []
        for start in range(0, len(zigzagged), BLOCK):
            block = zigzagged[start:start + BLOCK]
            width = _width_for(max(block) if block else 0)
            widths.append(width)
            packed = array(_WIDTH_TYPECODES[width], block)
            if sys.byteorder == "big":  # pragma: no cover - LE containers
                packed.byteswap()
            chunks.append(packed.tobytes())
        return cls(len(zigzagged), bytes(widths), b"".join(chunks))

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    @property
    def nbytes(self) -> int:
        """Packed payload size (excluding the widths/offset metadata)."""
        return self._offsets[-1]

    def _decode_block(self, index: int):
        cache = self._cache
        block = cache.get(index)
        if block is not None:
            return block
        width = self.widths[index]
        start = self._offsets[index]
        values = min(BLOCK, self.n - index * BLOCK)
        if HAVE_NUMPY:
            zig = _np.frombuffer(
                self.payload, dtype=_WIDTH_DTYPES[width],
                count=values, offset=start,
            ).astype(_np.uint64)
            block = (
                (zig >> _np.uint64(1)).astype(_np.int64)
                ^ -(zig & _np.uint64(1)).astype(_np.int64)
            )
        else:  # pragma: no cover - exercised only without numpy
            packed = array(_WIDTH_TYPECODES[width])
            packed.frombytes(
                bytes(self.payload[start:start + width * values])
            )
            if sys.byteorder == "big":
                packed.byteswap()
            block = [_unzigzag(value) for value in packed]
        if len(cache) >= _BLOCK_CACHE_LIMIT:
            del cache[next(iter(cache))]
        cache[index] = block
        return block

    def slice(self, start: int, end: int):
        """Decode ``[start, end)`` as int64 (numpy array or list).

        Touches only the blocks the slice overlaps — the unit of work
        the sweep pays per posting span.
        """
        if start >= end:
            return _np.empty(0, dtype=_np.int64) if HAVE_NUMPY else []
        first, last = start // BLOCK, (end - 1) // BLOCK
        if first == last:
            block = self._decode_block(first)
            return block[start - first * BLOCK:end - first * BLOCK]
        parts = [
            self._decode_block(index) for index in range(first, last + 1)
        ]
        if HAVE_NUMPY:
            joined = _np.concatenate(parts)
        else:  # pragma: no cover - exercised only without numpy
            joined = [value for part in parts for value in part]
        offset = first * BLOCK
        return joined[start - offset:end - offset]

    def decode_all(self):
        """The whole sequence as int64 (numpy array or list).

        Consecutive equal-width blocks decode with one ``frombuffer``
        each run, so a homogeneous stream is a handful of vector ops.
        """
        if not self.n:
            return _np.empty(0, dtype=_np.int64) if HAVE_NUMPY else []
        if not HAVE_NUMPY:  # pragma: no cover - exercised without numpy
            return [
                value
                for index in range(len(self.widths))
                for value in self._decode_block(index)
            ]
        parts = []
        index = 0
        while index < len(self.widths):
            width = self.widths[index]
            run = index
            while run < len(self.widths) and self.widths[run] == width:
                run += 1
            start = self._offsets[index]
            values = min(run * BLOCK, self.n) - index * BLOCK
            zig = _np.frombuffer(
                self.payload, dtype=_WIDTH_DTYPES[width],
                count=values, offset=start,
            ).astype(_np.uint64)
            parts.append(
                (zig >> _np.uint64(1)).astype(_np.int64)
                ^ -(zig & _np.uint64(1)).astype(_np.int64)
            )
            index = run
        return parts[0] if len(parts) == 1 else _np.concatenate(parts)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def serialized_size(self) -> int:
        """Bytes :meth:`write_into` will produce (8-aligned)."""
        return _pad8(_HEADER.size + len(self.widths)) + _pad8(self.nbytes)

    def write_into(self, out: List[bytes]) -> None:
        """Append the serialized form — ``header | widths | payload``,
        each 8-aligned — to a chunk list."""
        head = _HEADER.pack(self.n, self.nbytes) + self.widths
        out.append(head)
        out.append(b"\0" * (_pad8(len(head)) - len(head)))
        payload = (
            self.payload.tobytes()
            if HAVE_NUMPY and isinstance(self.payload, _np.ndarray)
            else bytes(self.payload)
        )
        out.append(payload)
        out.append(b"\0" * (_pad8(len(payload)) - len(payload)))

    @classmethod
    def read_from(cls, buffer, offset: int) -> Tuple["PackedIntArray", int]:
        """Deserialize from ``buffer`` at ``offset``; returns the array
        and the offset just past it.  The payload stays a *view* into
        the buffer (zero-copy on a memory map); raises ``ValueError``
        on any structural inconsistency so segment loaders can map it
        to their corruption error.
        """
        if offset + _HEADER.size > len(buffer):
            raise ValueError("packed array header out of bounds")
        n, payload_length = _HEADER.unpack_from(buffer, offset)
        blocks = (n + BLOCK - 1) // BLOCK
        widths_at = offset + _HEADER.size
        payload_at = offset + _pad8(_HEADER.size + blocks)
        end = payload_at + _pad8(payload_length)
        if end > len(buffer):
            raise ValueError("packed array payload out of bounds")
        widths = bytes(buffer[widths_at:widths_at + blocks])
        if any(width not in _WIDTH_DTYPES for width in widths):
            raise ValueError("packed array holds an invalid block width")
        expected = 0
        for index, width in enumerate(widths):
            expected += width * min(BLOCK, n - index * BLOCK)
        if expected != payload_length:
            raise ValueError("packed array widths disagree with its length")
        if HAVE_NUMPY:
            payload = _np.frombuffer(
                buffer, dtype=_np.uint8,
                count=payload_length, offset=payload_at,
            )
        else:  # pragma: no cover - exercised only without numpy
            payload = bytes(buffer[payload_at:payload_at + payload_length])
        return cls(n, widths, payload), end


def _pad8(length: int) -> int:
    return (length + 7) & ~7


def delta_encode_span(slots) -> List[int]:
    """``[s0, s1, s2, ...]`` (sorted) → ``[s0, s1-s0, s2-s1, ...]``.

    The per-span transform for posting slot lists: the first value is
    absolute, the rest are the (small, positive) sorted gaps.
    """
    out: List[int] = []
    previous = 0
    for index, slot in enumerate(slots):
        out.append(slot if index == 0 else slot - previous)
        previous = slot
    return out


def delta_decode_span(deltas):
    """Inverse of :func:`delta_encode_span` — a plain cumulative sum."""
    if HAVE_NUMPY and not isinstance(deltas, list):
        return _np.cumsum(deltas)
    out = []  # pragma: no cover - exercised only without numpy
    running = 0
    for delta in deltas:
        running += delta
        out.append(running)
    return out
