"""The pq-gram index and its incremental maintenance.

This package implements the paper's primary contribution:

- :mod:`repro.core.config` — pq-gram parameters,
- :mod:`repro.core.profile` — the hashed pq-gram bag of a tree
  (Definitions 2 and 3), streamed without node-level pq-grams,
- :mod:`repro.core.index` — the index, a bag of hashed label tuples
  (Definition 3),
- :mod:`repro.core.distance` — the pq-gram distance (Section 3.2),
- :mod:`repro.core.localdelta` — the hashed δ bag of one edit
  operation, read off the tree,
- :mod:`repro.core.batch` — the maintenance engine ``net_delta`` (log
  compaction, a backward walk with one δ pair per operation, one net Δ
  per call) and ``update_index``, which folds that Δ into a copy.

The paper's Algorithm 1 as written — the (P, Q) tables of Section 8.1,
δ, U and the tablewise engine — and the node-level profile its proofs
use are test-only reference code in ``tests/support/reference/``.
"""

from repro.core.config import GramConfig
from repro.core.profile import iter_label_hash_tuples
from repro.core.index import PQGramIndex, index_of_tree
from repro.core.distance import pq_gram_distance, index_distance
from repro.core.localdelta import delta_label_bag
from repro.core.distance import distance_from_overlap, size_bound_admits
from repro.core.batch import (
    BatchTimings,
    net_delta,
    update_index,
    update_index_batch,
    update_index_batch_delta,
)

__all__ = [
    "GramConfig",
    "iter_label_hash_tuples",
    "PQGramIndex",
    "index_of_tree",
    "pq_gram_distance",
    "index_distance",
    "distance_from_overlap",
    "size_bound_admits",
    "delta_label_bag",
    "update_index",
    "update_index_batch",
    "update_index_batch_delta",
    "net_delta",
    "BatchTimings",
]
