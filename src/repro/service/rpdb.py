"""Read-only decoder of the relstore snapshots older stores wrote.

Before :mod:`repro.service.checkpoint`, ``store.db`` was a relstore
``Database`` file: magic ``RPDB\\x02`` (a CRC32 of the body at the end)
or ``RPDB\\x01`` (none), then a table count and per table its name,
columns, key and index definitions and rows, every field a tagged
value.  The tables that matter are ``meta`` (p, q, ``commit_seq``),
``documents`` (one record per document) or, in the oldest stores,
``nodes`` (one row per node), and ``subs`` / ``standing`` (standing
queries and their membership); any other table or ``meta`` row is
skipped.  The store imports this module only to open such a file and
rewrites it in the current format at once.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Dict, List, Tuple

from repro.core.config import GramConfig
from repro.errors import CodecError, ReproError
from repro.service.checkpoint import Checkpoint
from repro.service.record import encode_document, read_varint, unzigzag
from repro.tree.tree import Tree

Rows = List[Dict[str, Any]]

# What a damaged file without a checksum can decode into and trip over.
_NONSENSE = (
    ReproError,
    LookupError,
    ValueError,
    TypeError,
    AttributeError,
    struct.error,
    RecursionError,
)


def _values(data: bytes, pos: int, count: int) -> Tuple[List[Any], int]:
    """``count`` tagged values from ``pos``: none, int, str, float,
    bytes or a flat tuple of them."""
    values: List[Any] = []
    for _ in range(count):
        tag = data[pos]
        if tag == 3:
            values.append(struct.unpack_from("<d", data, pos + 1)[0])
            pos += 9
            continue
        size, pos = read_varint(data, pos + 1) if tag else (0, pos + 1)
        value: Any = None if tag == 0 else unzigzag(size)
        if tag == 5:
            items, pos = _values(data, pos, size)
            value = tuple(items)
        elif tag in (2, 4) and pos + size <= len(data):
            value, pos = data[pos : pos + size], pos + size
            value = value.decode("utf-8") if tag == 2 else value
        elif tag > 1:
            raise CodecError(f"bad or truncated value (tag {tag})")
        values.append(value)
    return values, pos


def _tables(body: bytes) -> Dict[str, Rows]:
    """Every table's rows as dicts; keys and indexes are not checked."""
    tables: Dict[str, Rows] = {}
    (count,), pos = _values(body, 0, 1)
    for _ in range(count):
        (name, width), pos = _values(body, pos, 2)
        # (name, type, nullable) per column, the key, the index count
        header, pos = _values(body, pos, 3 * width + 2)
        # (name, kind, columns) per index, the row count
        indexes, pos = _values(body, pos, 3 * header[-1] + 1)
        table = tables.setdefault(name, [])
        for _ in range(indexes[-1]):
            fields, pos = read_varint(body, pos)
            row, pos = _values(body, pos, fields)
            table.append(dict(zip(header[: 3 * width : 3], row)))
    if pos != len(body):
        raise CodecError(f"{len(body) - pos} trailing bytes")
    return tables


def _documents(tables: Dict[str, Rows]) -> List[Tuple[int, bytes]]:
    """``(id, record)`` per document, from ``documents`` or ``nodes``."""
    if "documents" in tables:
        return [(row["docId"], row["tree"]) for row in tables["documents"]]
    trees: Dict[int, Tree] = {}
    nodes = sorted(tables["nodes"], key=lambda row: (row["docId"], row["seq"]))
    for row in nodes:  # each document's root first
        tree = trees.get(row["docId"])
        if tree is None:
            trees[row["docId"]] = Tree(row["label"], row["nodeId"])
        else:
            tree.add_child(row["parId"], row["label"], node_id=row["nodeId"])
    return [(key, encode_document(tree)) for key, tree in trees.items()]


def decode_snapshot(data: bytes) -> Checkpoint:
    """The checkpoint a relstore snapshot holds; anything that does not
    decode to one raises :class:`~repro.errors.CodecError`."""
    checked = data.startswith(b"RPDB\x02")
    if not checked and not data.startswith(b"RPDB\x01"):
        raise CodecError("not a store checkpoint")
    body = data[5:-4] if checked else data[5:]
    if checked and zlib.crc32(body).to_bytes(4, "little") != data[-4:]:
        raise CodecError("relstore snapshot: checksum mismatch")
    try:
        tables = _tables(body)
        meta = {row["key"]: row["value"] for row in tables["meta"]}
        documents = _documents(tables)
        members: Dict[Any, Dict[int, float]] = {}
        for row in tables.get("standing", ()):
            members.setdefault(row["queryId"], {})[row["docId"]] = row["dist"]
        subscriptions = [
            (row["queryId"], json.loads(row["spec"]), members.get(row["queryId"], {}))
            for row in tables.get("subs", ())
        ]
        config = GramConfig(int(meta["p"]), int(meta["q"]))
        commit_seq = int(meta.get("commit_seq", "0"))
    except _NONSENSE as exc:
        raise CodecError(f"undecodable relstore snapshot ({exc!r})") from exc
    if len(dict(documents)) != len(documents) or not all(
        type(key) is int and type(record) is bytes for key, record in documents
    ):
        raise CodecError("relstore snapshot holds malformed documents")
    return Checkpoint(config, commit_seq, documents, subscriptions, len(data), True)
