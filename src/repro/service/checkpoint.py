"""The checkpoint file ``store.db``: every document's record, compressed.

A checkpoint is the store's documents and standing queries at one
commit sequence, written whole and atomically.  The file is
:data:`MAGIC`, then a sequence of sealed blocks, each one byte of kind,
the payload's length (four bytes, little-endian), the payload and a
CRC32 of those three::

    M  META  p, q and the commit sequence folded in (varints)
    D  DOCS  zlib-compressed frames (zigzag document id, record length,
             the :func:`~repro.service.record.encode_document` record),
             at most :data:`BLOCK_BYTES` of frames per block unless one
             record alone is larger
    S  SUB   one standing query: its id, its plan spec as JSON and its
             membership (zigzag document id, float64 distance each)
    E  END   the counts of documents and standing queries

in that order, META first and END last.  Anything else — a bad
checksum, a block cut short, a missing END, a count that does not
match, bytes after END, a frame that does not parse — raises
:class:`~repro.errors.CodecError`: a damaged file never opens as a
different, or partial, store.  No index is stored: the store builds it
from the records on open.

The *payload bytes* of a checkpoint are its blocks' payloads before
compression.  They are what the store's checkpoint trigger compares the
WAL against (the file on disk is several times smaller), so the
checkpoint cadence does not depend on how well the documents compress.

Files that older versions wrote (a relstore snapshot, magic ``RPDB``)
are read by :mod:`repro.service.rpdb`, imported only when such a file
is opened.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from repro.core.config import GramConfig
from repro.errors import CodecError, GramConfigError
from repro.service import failpoints
from repro.service.record import read_varint, unzigzag, write_varint, zigzag

MAGIC = b"RPCK\x01"
#: frames gathered into one compressed block before it is sealed
BLOCK_BYTES = 64 * 1024
#: zlib's own default: about 2.3 B per node for small documents
ZLIB_LEVEL = 6

_META, _DOCS, _SUB, _END = b"M", b"D", b"S", b"E"
_HEAD = struct.Struct("<cI")
_CRC = struct.Struct("<I")
_DISTANCE = struct.Struct("<d")

Subscription = Tuple[str, Dict[str, object], Dict[int, float]]


class Checkpoint(NamedTuple):
    """What a checkpoint file holds.  ``documents`` are ``(id,
    record)`` pairs, ``subscriptions`` ``(query id, plan spec,
    membership)``; ``payload_bytes`` is the uncompressed size the
    checkpoint trigger uses, and ``legacy`` is true for a file of an
    older format, which the store rewrites."""

    config: GramConfig
    commit_seq: int
    documents: List[Tuple[int, bytes]]
    subscriptions: List[Subscription]
    payload_bytes: int
    legacy: bool = False


def _seal(out: bytearray, kind: bytes, payload: bytes) -> None:
    start = len(out)
    out += _HEAD.pack(kind, len(payload))
    out += payload
    out += _CRC.pack(zlib.crc32(memoryview(out)[start:]))


def encode_checkpoint(
    config: GramConfig,
    commit_seq: int,
    documents: Iterable[Tuple[int, bytes]],
    subscriptions: Sequence[Subscription] = (),
) -> Tuple[bytes, int]:
    """The file's bytes and its payload bytes."""
    out = bytearray(MAGIC)
    meta = bytearray()
    for value in (config.p, config.q, commit_seq):
        write_varint(meta, value)
    _seal(out, _META, bytes(meta))
    payload_bytes = len(meta)
    frames = bytearray()
    count = 0
    for document_id, record in documents:
        write_varint(frames, zigzag(document_id))
        write_varint(frames, len(record))
        frames += record
        count += 1
        if len(frames) >= BLOCK_BYTES:
            payload_bytes += len(frames)
            _seal(out, _DOCS, zlib.compress(frames, ZLIB_LEVEL))
            frames = bytearray()
    if frames:
        payload_bytes += len(frames)
        _seal(out, _DOCS, zlib.compress(frames, ZLIB_LEVEL))
    for query_id, spec, members in subscriptions:
        sub = bytearray()
        for text in (query_id, json.dumps(spec, sort_keys=True)):
            raw = text.encode("utf-8")
            write_varint(sub, len(raw))
            sub += raw
        write_varint(sub, len(members))
        for document_id, distance in sorted(members.items()):
            write_varint(sub, zigzag(document_id))
            sub += _DISTANCE.pack(distance)
        payload_bytes += len(sub)
        _seal(out, _SUB, bytes(sub))
    end = bytearray()
    write_varint(end, count)
    write_varint(end, len(subscriptions))
    payload_bytes += len(end)
    _seal(out, _END, bytes(end))
    return bytes(out), payload_bytes


def _blocks(data: bytes) -> Iterable[Tuple[bytes, bytes]]:
    """``(kind, payload)`` of every sealed block after the magic."""
    pos = len(MAGIC)
    while pos < len(data):
        if pos + _HEAD.size > len(data):
            raise CodecError("checkpoint block header cut short")
        kind, length = _HEAD.unpack_from(data, pos)
        end = pos + _HEAD.size + length
        if end + _CRC.size > len(data):
            raise CodecError("checkpoint block cut short")
        if zlib.crc32(memoryview(data)[pos:end]) != _CRC.unpack_from(data, end)[0]:
            raise CodecError(f"checkpoint block at byte {pos}: checksum mismatch")
        yield kind, data[pos + _HEAD.size : end]
        pos = end + _CRC.size


def _text(payload: bytes, pos: int) -> Tuple[str, int]:
    length, pos = read_varint(payload, pos)
    end = pos + length
    if end > len(payload):
        raise CodecError("checkpoint string cut short")
    return payload[pos:end].decode("utf-8"), end


def _read_sub(payload: bytes) -> Subscription:
    query_id, pos = _text(payload, 0)
    spec_text, pos = _text(payload, pos)
    count, pos = read_varint(payload, pos)
    members: Dict[int, float] = {}
    for _ in range(count):
        raw, pos = read_varint(payload, pos)
        if pos + _DISTANCE.size > len(payload):
            raise CodecError("checkpoint membership cut short")
        members[unzigzag(raw)] = _DISTANCE.unpack_from(payload, pos)[0]
        pos += _DISTANCE.size
    if pos != len(payload) or len(members) != count:
        raise CodecError("malformed standing-query block")
    spec = json.loads(spec_text)
    if not isinstance(spec, dict):
        raise CodecError("standing-query spec is not an object")
    return query_id, spec, members


def decode_checkpoint(data: bytes) -> Checkpoint:
    """Inverse of :func:`encode_checkpoint`, and the reader of every
    older format; anything else raises
    :class:`~repro.errors.CodecError`."""
    if data.startswith(b"RPDB"):
        from repro.service.rpdb import decode_snapshot

        return decode_snapshot(data)
    if not data.startswith(MAGIC):
        raise CodecError("not a store checkpoint")
    blocks = _blocks(data)
    documents: List[Tuple[int, bytes]] = []
    subscriptions: List[Subscription] = []
    try:
        kind, meta = next(blocks, (None, b""))
        if kind != _META:
            raise CodecError("checkpoint does not start with its META block")
        p, pos = read_varint(meta, 0)
        q, pos = read_varint(meta, pos)
        commit_seq, pos = read_varint(meta, pos)
        if pos != len(meta):
            raise CodecError("malformed checkpoint META block")
        config = GramConfig(p, q)
        payload_bytes = len(meta)
        for kind, payload in blocks:
            if kind == _DOCS and not subscriptions:
                frames = zlib.decompress(payload)
                payload_bytes += len(frames)
                pos = 0
                while pos < len(frames):
                    raw, pos = read_varint(frames, pos)
                    length, pos = read_varint(frames, pos)
                    end = pos + length
                    if end > len(frames):
                        raise CodecError("checkpoint record cut short")
                    documents.append((unzigzag(raw), frames[pos:end]))
                    pos = end
            elif kind == _SUB:
                payload_bytes += len(payload)
                subscriptions.append(_read_sub(payload))
            elif kind == _END:
                payload_bytes += len(payload)
                document_count, pos = read_varint(payload, 0)
                subs, pos = read_varint(payload, pos)
                if (document_count, subs, pos) != (
                    len(documents),
                    len(subscriptions),
                    len(payload),
                ):
                    raise CodecError("checkpoint counts do not match its blocks")
                break
            else:
                raise CodecError(f"unexpected checkpoint block {kind!r}")
        else:
            raise CodecError("checkpoint has no END block: the file is cut short")
        if next(blocks, None) is not None:
            raise CodecError("blocks after the checkpoint's END block")
    except (zlib.error, UnicodeDecodeError, ValueError, GramConfigError) as exc:
        raise CodecError(f"undecodable checkpoint ({exc})") from exc
    if len({document_id for document_id, _ in documents}) != len(documents):
        raise CodecError("a document id repeats in the checkpoint")
    return Checkpoint(config, commit_seq, documents, subscriptions, payload_bytes)


def read_checkpoint(path: str) -> Checkpoint:
    """The checkpoint in the file at ``path``."""
    with open(path, "rb") as handle:
        return decode_checkpoint(handle.read())


def write_checkpoint(path: str, data: bytes) -> None:
    """Replace the file at ``path`` by ``data``, atomically and durably:
    a temp file, its fsync, the rename and the directory fsync, at the
    ``database.*`` failpoints.  Once this returns, what the checkpoint
    supersedes may be discarded."""
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as handle:
        failpoints.write("database.write", handle, data)
        handle.flush()
        failpoints.run("database.fsync", os.fsync, handle.fileno())
    failpoints.run("database.replace", os.replace, tmp_path, path)
    failpoints.run(
        "database.fsync_directory",
        fsync_directory,
        os.path.dirname(path) or ".",
    )


def fsync_directory(directory: str) -> None:
    """Make a rename or creation inside ``directory`` durable; a no-op
    where the platform or file system cannot fsync a directory."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(fd)
