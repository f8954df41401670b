"""repro — an incrementally maintainable pq-gram index.

Reproduction of Augsten, Böhlen & Gamper, "An Incrementally
Maintainable Index for Approximate Lookups in Hierarchical Data"
(VLDB 2006).  See DESIGN.md for the system inventory and README.md for
a quickstart; the public API re-exported here covers the common paths:

>>> from repro import Tree, GramConfig, index_of_tree, update_index
>>> t = Tree("article")
>>> _ = t.add_child(t.root_id, "title")
>>> index = index_of_tree(t, GramConfig(2, 2))
>>> index.size()
3
"""

from repro.core import (
    GramConfig,
    PQGramIndex,
    index_of_tree,
    index_distance,
    is_address_stable,
    pq_gram_distance,
    update_index,
    update_index_tablewise,
)
from repro.edits import (
    Delete,
    EditScript,
    EditScriptGenerator,
    Insert,
    Rename,
    apply_script,
    diff_trees,
)
from repro.hashing import LabelHasher
from repro.lookup import ForestIndex, LookupService, similarity_join
from repro.obsv import MetricsRegistry
from repro.service import DocumentStore
from repro.tree import Tree, tree_from_brackets, tree_to_brackets

__version__ = "1.0.0"

__all__ = [
    "GramConfig",
    "PQGramIndex",
    "index_of_tree",
    "index_distance",
    "pq_gram_distance",
    "is_address_stable",
    "update_index",
    "update_index_tablewise",
    "Insert",
    "Delete",
    "Rename",
    "EditScript",
    "EditScriptGenerator",
    "apply_script",
    "diff_trees",
    "LabelHasher",
    "ForestIndex",
    "LookupService",
    "MetricsRegistry",
    "similarity_join",
    "DocumentStore",
    "Tree",
    "tree_from_brackets",
    "tree_to_brackets",
    "__version__",
]
