"""Compact binary codec for table snapshots.

A tiny tagged type–length–value format; no pickle, no eval, safe to load
from untrusted files.  Supported values mirror the schema type system:
``int`` (zig-zag varint), ``str`` (UTF-8), ``float`` (IEEE 754 double),
``bytes``, ``None`` and flat tuples of the above.
"""

from __future__ import annotations

import struct
from typing import Any, List, Tuple

from repro.errors import CodecError

_TAG_NONE = 0
_TAG_INT = 1
_TAG_STR = 2
_TAG_FLOAT = 3
_TAG_BYTES = 4
_TAG_TUPLE = 5


def write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint to ``out``."""
    if value < 0:
        raise CodecError("varints are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    """Decode one varint at ``pos``; return ``(value, next_pos)``."""
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 126:
            raise CodecError("varint too long")


def zigzag(value: int) -> int:
    """Map a signed integer of any width onto the unsigned varint domain."""
    return value * 2 if value >= 0 else -value * 2 - 1


def unzigzag(value: int) -> int:
    """Inverse of :func:`zigzag`."""
    return (value >> 1) ^ -(value & 1)


def encode_value(value: Any, out: bytearray) -> None:
    """Append the encoding of one value to ``out``."""
    if value is None:
        out.append(_TAG_NONE)
    elif isinstance(value, bool):
        raise CodecError("bool is not a supported storage type")
    elif isinstance(value, int):
        out.append(_TAG_INT)
        write_varint(out, zigzag(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_TAG_STR)
        write_varint(out, len(raw))
        out.extend(raw)
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out.extend(struct.pack("<d", value))
    elif isinstance(value, bytes):
        out.append(_TAG_BYTES)
        write_varint(out, len(value))
        out.extend(value)
    elif isinstance(value, tuple):
        out.append(_TAG_TUPLE)
        write_varint(out, len(value))
        for item in value:
            if isinstance(item, tuple):
                raise CodecError("nested tuples are not supported")
            encode_value(item, out)
    else:
        raise CodecError(f"cannot encode {type(value).__name__}")


def decode_value(data: bytes, pos: int) -> Tuple[Any, int]:
    """Decode one value at ``pos``; return ``(value, next_pos)``."""
    if pos >= len(data):
        raise CodecError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_INT:
        raw, pos = read_varint(data, pos)
        return unzigzag(raw), pos
    if tag == _TAG_STR:
        length, pos = read_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise CodecError("truncated string")
        return data[pos:end].decode("utf-8"), end
    if tag == _TAG_FLOAT:
        end = pos + 8
        if end > len(data):
            raise CodecError("truncated float")
        return struct.unpack("<d", data[pos:end])[0], end
    if tag == _TAG_BYTES:
        length, pos = read_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise CodecError("truncated bytes")
        return data[pos:end], end
    if tag == _TAG_TUPLE:
        length, pos = read_varint(data, pos)
        items: List[Any] = []
        for _ in range(length):
            item, pos = decode_value(data, pos)
            items.append(item)
        return tuple(items), pos
    raise CodecError(f"unknown tag {tag}")


def encode_row(row: Tuple[Any, ...]) -> bytes:
    """Encode a row tuple: a field count followed by the fields."""
    out = bytearray()
    write_varint(out, len(row))
    for value in row:
        encode_value(value, out)
    return bytes(out)


def decode_row(data: bytes, pos: int) -> Tuple[Tuple[Any, ...], int]:
    """Decode a row tuple at ``pos``; return ``(row, next_pos)``."""
    width, pos = read_varint(data, pos)
    values: List[Any] = []
    for _ in range(width):
        value, pos = decode_value(data, pos)
        values.append(value)
    return tuple(values), pos
