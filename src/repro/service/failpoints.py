"""Named hooks at the store's durable writes, armed only by tests.

Every step that moves the store's bytes toward the disk runs through
:func:`write` (a step that writes data) or :func:`run` (any other
step) under one of the names in :data:`POINTS`:

- ``wal.write`` / ``wal.flush`` / ``wal.fsync`` — a group commit's
  append to ``wal.log``,
- ``database.write`` / ``database.fsync`` / ``database.replace`` /
  ``database.fsync_directory`` —
  :func:`repro.service.checkpoint.write_checkpoint`, which writes the
  checkpoint ``store.db``: the temp file, its fsync, the rename and
  the directory fsync that makes the rename durable (the names date
  from the relstore ``Database`` that once wrote it),
- ``checkpoint.truncate`` / ``checkpoint.fsync`` — the WAL truncation
  that follows a snapshot,
- ``recover.cut`` / ``recover.fsync`` — the open-time cut of a torn
  WAL tail.

Unarmed, a hook performs its step and nothing else (one dict lookup).
A test arms one name with :func:`armed` and a mode: ``crash-before``
(the step never happens), ``crash-after`` (the step happens) or, at a
write, ``short-write`` (the first half of the data is written and
flushed to the file).  Either way the hook then calls the test's
``on_crash`` — which records the directory as the process left it —
and raises :class:`Crash`.  The fourth mode, ``eio``, is a disk error
the process survives: the step never happens and the hook raises
``OSError(EIO)``.  Arming is process-wide and lasts for the ``with``
block.
"""

from __future__ import annotations

import errno
from contextlib import contextmanager
from typing import (
    BinaryIO,
    Callable,
    Dict,
    Iterator,
    NoReturn,
    Optional,
    Tuple,
    TypeVar,
)

CRASH_BEFORE = "crash-before"
CRASH_AFTER = "crash-after"
SHORT_WRITE = "short-write"
EIO = "eio"

WRITE_POINTS = ("wal.write", "database.write")
POINTS = WRITE_POINTS + (
    "wal.flush",
    "wal.fsync",
    "database.fsync",
    "database.replace",
    "database.fsync_directory",
    "checkpoint.truncate",
    "checkpoint.fsync",
    "recover.cut",
    "recover.fsync",
)

T = TypeVar("T")

_ARMED: Dict[str, Tuple[str, Callable[[], None]]] = {}


class Crash(BaseException):
    """The simulated death of the process at an armed failpoint.

    A ``BaseException``, so no ``except Exception`` between the hook and
    the test can mistake it for an ordinary error and carry on."""


def run(name: str, step: Callable[..., T], *args: object) -> T:
    """``step(*args)``, the durable step called ``name``."""
    armed = _ARMED.get(name)
    if armed is None:
        return step(*args)
    mode, on_crash = armed
    if mode == CRASH_AFTER:
        step(*args)
    _fail(name, mode, on_crash)


def write(name: str, handle: BinaryIO, data: bytes) -> None:
    """``handle.write(data)``, the durable write called ``name``."""
    armed = _ARMED.get(name)
    if armed is None:
        handle.write(data)
        return
    mode, on_crash = armed
    if mode == CRASH_AFTER:
        handle.write(data)
    elif mode == SHORT_WRITE:
        handle.write(data[: len(data) // 2])
        handle.flush()
    _fail(name, mode, on_crash)


def _fail(name: str, mode: str, on_crash: Callable[[], None]) -> NoReturn:
    if mode == EIO:
        raise OSError(errno.EIO, f"injected I/O error at {name}")
    on_crash()
    raise Crash(name)


@contextmanager
def armed(
    name: str, mode: str, on_crash: Optional[Callable[[], None]] = None
) -> Iterator[None]:
    """Arm the failpoint ``name`` in ``mode`` for the ``with`` block
    (``on_crash`` is required by every mode but ``eio``)."""
    if name not in POINTS:
        raise ValueError(f"unknown failpoint {name!r}")
    if mode not in (CRASH_BEFORE, CRASH_AFTER, SHORT_WRITE, EIO):
        raise ValueError(f"unknown failpoint mode {mode!r}")
    if mode == SHORT_WRITE and name not in WRITE_POINTS:
        raise ValueError(f"{name} writes no data: no short write")
    if on_crash is None and mode != EIO:
        raise ValueError(f"mode {mode} needs an on_crash callback")
    _ARMED[name] = (mode, on_crash or (lambda: None))
    try:
        yield
    finally:
        del _ARMED[name]
