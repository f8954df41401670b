"""Baselines and reference implementations.

- :mod:`tests.support.reference.baselines.rebuild` — from-scratch index construction
  (the Augsten et al. 2005 approach the paper's experiments compare
  incremental maintenance against),
- :mod:`tests.support.reference.baselines.profile_naive` — a deliberately simple,
  definition-following profile computation used as a cross-check for
  the optimized one,
- :mod:`tests.support.reference.baselines.tree_edit_distance` — exact Zhang–Shasha tree
  edit distance, the reference measure the pq-gram distance
  approximates (ablation A1).
"""

from tests.support.reference.baselines.profile_naive import naive_profile
from tests.support.reference.baselines.rebuild import rebuild_forest_index, rebuild_index
from tests.support.reference.baselines.tree_edit_distance import tree_edit_distance

__all__ = [
    "rebuild_index",
    "rebuild_forest_index",
    "naive_profile",
    "tree_edit_distance",
]
