"""The paper's algorithms as written, kept as the reference the tests
and the paper benchmarks check the production engine against.

- :mod:`~tests.support.reference.gram` / :mod:`~tests.support.reference.profile`
  — node-level pq-grams and profiles (Definitions 1 and 2),
- :mod:`~tests.support.reference.setops` — the δ and U set definitions
  (Definitions 4 and 5) over node-level profiles,
- :mod:`~tests.support.reference.tables` — the (P, Q) pair of Section
  8.1 that stores delta pq-grams, two dicts and the anchor-id index,
- :mod:`~tests.support.reference.delta` — the delta function δ
  (Algorithm 2, Table 1),
- :mod:`~tests.support.reference.update` — the profile update function
  U (Algorithms 3 and 4, Table 1),
- :mod:`~tests.support.reference.maintain` — Algorithm 1
  (``update_index_tablewise``) and its per-phase timings (Table 2),
- :mod:`~tests.support.reference.stability` — the address-stable logs
  Algorithm 1 is exact on,
- :mod:`~tests.support.reference.baselines` — from-scratch rebuilds, a
  naive profile and Zhang–Shasha tree edit distance.

Nothing under ``src/repro`` imports this package
(``tests/test_package_boundary.py``); the production engine is
:mod:`repro.core.batch`.
"""

from tests.support.reference.gram import PQGram
from tests.support.reference.maintain import (
    MaintenanceTimings,
    compute_deltas,
    update_index_tablewise,
    update_index_timed,
)
from tests.support.reference.profile import Profile, compute_profile, profile_size
from tests.support.reference.stability import is_address_stable

__all__ = [
    "PQGram",
    "Profile",
    "compute_profile",
    "profile_size",
    "MaintenanceTimings",
    "compute_deltas",
    "update_index_tablewise",
    "update_index_timed",
    "is_address_stable",
]
