"""Synthetic datasets standing in for the paper's workloads.

The paper evaluates on XMark-generated XML (up to 27M nodes) and the
real DBLP file (211 MB, 11M nodes).  Neither is available offline, so
deterministic generators reproduce their *shapes* — the structural
properties that drive index size, build time and update locality:

- :mod:`repro.datasets.xmark` — deep, recursive auction-site documents
  with skewed fanouts (XMark's element hierarchy),
- :mod:`repro.datasets.dblp` — a shallow bibliography: one root with a
  huge fanout of small publication records,
- :mod:`repro.datasets.random_trees` — unconstrained random trees for
  property-based testing.

The DBLP edit-script workloads of the update experiments and the
treebank-like parse trees of the quality ablations live beside the
benchmarks that use them (``benchmarks/dblp_workloads.py``,
``benchmarks/treebank.py``).
"""

from repro.datasets.xmark import xmark_tree
from repro.datasets.dblp import dblp_tree
from repro.datasets.random_trees import random_labelled_tree

__all__ = [
    "xmark_tree",
    "dblp_tree",
    "random_labelled_tree",
]
