"""The checkpoint record of one document, and what is read from it.

A record is what ``store.db`` and a WAL ``ADD`` block hold for a
document (:func:`encode_document`).  It is a preorder stream, so the
document's pq-gram bag can be built from it directly
(:func:`record_bag`), without the :class:`~repro.tree.tree.Tree` that
:func:`decode_document` makes.  Both read the record through one
validating parser, :func:`parse_record`: a record one of them refuses,
the other refuses too.  The varint and zigzag helpers here are the
ones every binary frame of the store is written with.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.config import GramConfig
from repro.core.index import Bag
from repro.core.profile import preorder_bag
from repro.errors import CodecError
from repro.hashing.labelhash import LabelHasher
from repro.tree.tree import Tree


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


def encode_document(tree: Tree) -> bytes:
    """The checkpoint record of one document.

    Self-contained: a label dictionary (count, then each distinct label
    as length + UTF-8, in order of first use) followed by the node
    count and, per node in preorder, three varints — the node id as a
    zigzag delta to the previous node's, the distance back to the
    parent's preorder position (0 for the root) and the label's
    dictionary index.  Node ids — which WAL operations and client edits
    reference — and sibling order survive the round trip exactly.
    """
    labels: Dict[str, int] = {}
    body = bytearray()
    position = 0
    previous_id = 0
    stack = [(tree.root_id, 0)]
    while stack:
        node_id, parent_position = stack.pop()
        write_varint(body, zigzag(node_id - previous_id))
        write_varint(body, position - parent_position)
        write_varint(body, labels.setdefault(tree.label(node_id), len(labels)))
        previous_id = node_id
        for child_id in reversed(tree.children(node_id)):
            stack.append((child_id, position))
        position += 1
    out = bytearray()
    write_varint(out, len(labels))
    for label in labels:
        raw = label.encode("utf-8")
        write_varint(out, len(raw))
        out += raw
    write_varint(out, position)
    out += body
    return bytes(out)


def _read_labels(record: bytes) -> Tuple[List[str], int]:
    """The record's label dictionary and the offset of its node count."""
    label_count, pos = read_varint(record, 0)
    labels: List[str] = []
    try:
        for _ in range(label_count):
            length = record[pos]
            if length < 0x80:
                pos += 1
            else:
                length, pos = read_varint(record, pos)
            end = pos + length
            if end > len(record):
                raise CodecError("truncated label in document record")
            labels.append(record[pos:end].decode("utf-8"))
            pos = end
    except IndexError:
        raise CodecError("truncated varint") from None
    except UnicodeDecodeError as exc:
        raise CodecError(f"corrupt document record: {exc}") from None
    return labels, pos


def record_node_count(record: bytes) -> int:
    """The node count a record's header states, read without the nodes."""
    _, pos = _read_labels(record)
    return read_varint(record, pos)[0]


def parse_record(
    record: bytes,
) -> Tuple[List[str], List[int], List[int], List[int]]:
    """``(labels, node_ids, parents, label_indexes)`` of a record, the
    last three per node in preorder; ``parents[i]`` is the preorder
    position of node ``i``'s parent (0 for the root, which has none).

    Anything that is not a complete, consistent record — a truncated
    or overlong varint, a label index outside the dictionary, a parent
    distance that does not point back into the preorder, a repeated
    node id, trailing bytes — raises :class:`~repro.errors.CodecError`
    (every loop consumes input, so garbage cannot make it spin).
    """
    labels, pos = _read_labels(record)
    node_count, pos = read_varint(record, pos)
    if node_count < 1:
        raise CodecError("document record holds no root node")
    label_count = len(labels)
    node_ids: List[int] = []
    parents: List[int] = []
    label_indexes: List[int] = []
    node_id = 0
    try:
        for position in range(node_count):
            # Three varints per node, nearly always one byte each.
            byte = record[pos]
            if byte < 0x80:
                delta, pos = byte, pos + 1
            else:
                delta, pos = read_varint(record, pos)
            byte = record[pos]
            if byte < 0x80:
                distance, pos = byte, pos + 1
            else:
                distance, pos = read_varint(record, pos)
            byte = record[pos]
            if byte < 0x80:
                label_index, pos = byte, pos + 1
            else:
                label_index, pos = read_varint(record, pos)
            if label_index >= label_count:
                raise CodecError(
                    f"label index {label_index} outside the record's "
                    f"{label_count}-label dictionary"
                )
            if position == 0:
                if distance:
                    raise CodecError("document record's root has a parent")
            elif not 1 <= distance <= position:
                raise CodecError(
                    f"parent distance {distance} invalid at preorder "
                    f"position {position}"
                )
            node_id += unzigzag(delta)
            node_ids.append(node_id)
            parents.append(position - distance)
            label_indexes.append(label_index)
    except IndexError:
        raise CodecError("truncated varint") from None
    if pos != len(record):
        raise CodecError(f"{len(record) - pos} trailing bytes in document record")
    if len(set(node_ids)) != node_count:
        raise CodecError("corrupt document record: a node id repeats")
    return labels, node_ids, parents, label_indexes


def decode_document(record: bytes) -> Tree:
    """Inverse of :func:`encode_document`; anything that is not a
    complete, consistent record raises :class:`~repro.errors.CodecError`
    (see :func:`parse_record`)."""
    labels, node_ids, parents, label_indexes = parse_record(record)
    return Tree.from_preorder(
        node_ids, [labels[index] for index in label_indexes], parents
    )


def record_bag(record: bytes, config: GramConfig, hasher: LabelHasher) -> Bag:
    """The pq-gram bag of the document a record holds — equal to
    ``tree_bag(decode_document(record), ...)``, built without the tree
    and with one label hash per distinct label of the record.  Refuses
    exactly the records :func:`decode_document` refuses."""
    labels, _, parents, label_indexes = parse_record(record)
    label_hashes = [hasher.hash_label(label) for label in labels]
    return preorder_bag(
        parents, [label_hashes[index] for index in label_indexes], config
    )
