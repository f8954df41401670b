"""The pq-gram index and its incremental maintenance.

This package implements the paper's primary contribution:

- :mod:`repro.core.config` — pq-gram parameters,
- :mod:`repro.core.gram` / :mod:`repro.core.profile` — pq-grams and
  profiles at node level (Definitions 1 and 2),
- :mod:`repro.core.index` — the index, a bag of hashed label tuples
  (Definition 3),
- :mod:`repro.core.distance` — the pq-gram distance (Section 3.2),
- :mod:`repro.core.tables` — the (P, Q) temporary table pair storing
  delta pq-grams (Section 8.1),
- :mod:`repro.core.delta` — the delta function δ (Algorithm 2, Table 1),
- :mod:`repro.core.update` — the profile update function U
  (Algorithms 3 and 4, Table 1),
- :mod:`repro.core.batch` — the maintenance engine ``net_delta`` (log
  compaction, a backward walk with one δ pair per operation, one net Δ
  per call) and ``update_index``, which folds that Δ into a copy,
- :mod:`repro.core.maintain` — the paper's Algorithm 1
  (``update_index_tablewise``), kept as the reference, and its
  instrumented variant.
"""

from repro.core.config import GramConfig
from repro.core.gram import PQGram
from repro.core.profile import Profile, compute_profile, iter_label_hash_tuples
from repro.core.index import PQGramIndex, index_of_tree
from repro.core.distance import pq_gram_distance, index_distance
from repro.core.tables import DeltaTables
from repro.core.delta import delta_into_tables
from repro.core.update import apply_update
from repro.core.localdelta import delta_label_bag
from repro.core.stability import is_address_stable
from repro.core.distance import distance_from_overlap, size_bound_admits
from repro.core.batch import (
    BatchTimings,
    net_delta,
    update_index,
    update_index_batch,
    update_index_batch_delta,
)
from repro.core.maintain import (
    MaintenanceTimings,
    update_index_tablewise,
    update_index_timed,
)

__all__ = [
    "GramConfig",
    "PQGram",
    "Profile",
    "compute_profile",
    "iter_label_hash_tuples",
    "PQGramIndex",
    "index_of_tree",
    "pq_gram_distance",
    "index_distance",
    "distance_from_overlap",
    "size_bound_admits",
    "DeltaTables",
    "delta_into_tables",
    "apply_update",
    "delta_label_bag",
    "is_address_stable",
    "update_index",
    "update_index_tablewise",
    "update_index_timed",
    "update_index_batch",
    "update_index_batch_delta",
    "net_delta",
    "MaintenanceTimings",
    "BatchTimings",
]
