"""Exception hierarchy shared by every repro subpackage.

Keeping all exception types in one module lets callers catch the broad
:class:`ReproError` while the individual subsystems raise precise
subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class TreeError(ReproError):
    """Structural problem with a tree (unknown node, bad position, ...)."""


class UnknownNodeError(TreeError):
    """A node id was referenced that does not exist in the tree."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"node id {node_id!r} does not exist in this tree")
        self.node_id = node_id


class DuplicateNodeError(TreeError):
    """A node id was inserted that already exists in the tree."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"node id {node_id!r} already exists in this tree")
        self.node_id = node_id


class InvalidPositionError(TreeError):
    """A child position or child range is out of bounds."""


class EditError(ReproError):
    """An edit operation cannot be applied to the given tree."""


class RootEditError(EditError):
    """The paper assumes the root node is never edited (Section 3.1)."""


class InvalidLogError(ReproError):
    """An edit log is inconsistent with the tree or the stored deltas."""


class StorageError(ReproError):
    """Base class for errors raised by the embedded relational store."""


class StoreFailedError(ReproError):
    """A durable write of the document store failed (WAL write, flush
    or fsync, snapshot save or WAL truncation), so the store stopped.

    The outcome of the write that hit the error is unknown: its batch
    may or may not be in the WAL, and reopening decides.  Every later
    mutation raises this without touching the disk; reads keep serving
    the last published state, and reopening the store is the only way
    out.  Deliberately not a :class:`StorageError` — it is no statement
    about the request's data."""


class SchemaError(StorageError):
    """A row or query does not match the table schema."""


class DuplicateKeyError(StorageError):
    """A primary-key value was inserted twice."""


class CodecError(StorageError):
    """The binary codec met malformed input."""


class QueryError(ReproError):
    """A logical query plan is malformed or cannot be executed
    (unknown node type, a wire plan spec with a wrongly typed field, a
    structural predicate with no document provider to post-filter
    with, ...)."""


class ServeError(ReproError):
    """Base class for errors raised by the network serving layer."""


class ProtocolError(ServeError):
    """A wire frame is malformed (not JSON, not an object, missing a
    required field, oversized)."""


class OverloadedError(ServeError):
    """The server shed this request instead of executing it (token
    bucket empty, admission queue full, queue wait past the bound, or
    the server is draining).  The request was **not** executed — a
    shed ``apply_edits`` has not touched the store."""

    def __init__(self, reason: str, message: str = "") -> None:
        super().__init__(message or f"request shed ({reason})")
        self.reason = reason


class XmlError(ReproError):
    """The XML tokenizer or parser met malformed input."""


class GramConfigError(ReproError):
    """Invalid pq-gram parameters (p and q must both be positive)."""


class IndexConsistencyError(ReproError):
    """An index update would drive a pq-gram count below zero."""
