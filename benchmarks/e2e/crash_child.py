"""The process the ``lifecycle`` workload kills.

Reads ``{"doc": id, "ops": WAL text}`` frames from stdin, applies each
durably through ``DocumentStore.apply_edits`` (shipped defaults) and
acknowledges it with one line on stdout — then blocks on stdin until
the parent SIGKILLs it, so nothing is flushed or checkpointed on the
way out.
"""

from __future__ import annotations

import sys

import harness  # noqa: F401  (puts the package source on sys.path)

from repro.edits.serialize import parse_operations
from repro.serve.protocol import decode_frame
from repro.service.store import DocumentStore


def main() -> None:
    store = DocumentStore(sys.argv[1])
    for line in sys.stdin.buffer:
        frame = decode_frame(line)
        store.apply_edits(int(frame["doc"]), parse_operations(str(frame["ops"])))
        sys.stdout.write("ack\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
