"""The document store: durable documents + their pq-gram indexes.

This is the production face of the library — the "persistent and
incrementally maintainable index" of the paper's title as a running
service:

- documents live on disk in a checkpoint file of compressed records
  (:mod:`repro.service.checkpoint`); their indexes are built from
  them on open and never persisted,
- every edit batch is appended to a write-ahead log *before* being
  applied, so a crash between append and checkpoint loses nothing:
  recovery applies the tail of the WAL to the last checkpoint's
  documents,
- lookups run against the in-memory forest index, which is built
  from the checkpoint + WAL on open and maintained incrementally
  from then on.
"""

from repro.service.soak import SoakReport, run_soak
from repro.service.store import DocumentStore

__all__ = ["DocumentStore", "SoakReport", "run_soak"]
