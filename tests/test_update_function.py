"""Profile update function tests (Definition 5, Eq. 10, Algorithm 3).

For a single edit step, feeding the *entire* profile of T_j through the
update function must reproduce the entire profile of T_i (Eq. 10).  We
load the full profile into the (P, Q) pair, apply U once, and compare
label bags against the profile of the previous tree.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GramConfig
from repro.edits.generator import EditScriptGenerator
from repro.edits.ops import Delete, Insert, Rename
from repro.hashing import LabelHasher
from repro.tree import tree_from_brackets

from tests.conftest import gram_configs, trees
from tests.support.reference import compute_profile
from tests.support.reference.tables import DeltaTables
from tests.support.reference.update import apply_update


def load_full_profile(tree, config, hasher):
    """Fill a (P, Q) pair with every pq-gram of the tree."""
    tables = DeltaTables(config)
    for node_id in tree.node_ids():
        tables.add_p_row_from_tree(tree, node_id, hasher)
        tables.add_all_q_rows_from_tree(tree, node_id, hasher)
    return tables


def profile_bag(tree, config, hasher):
    return compute_profile(tree, config).label_bag(hasher)


class TestFullProfileInversion:
    @settings(max_examples=80, deadline=None)
    @given(trees(max_size=14), gram_configs(), st.integers(0, 2**31))
    def test_update_recovers_previous_profile(self, tree, config, seed):
        """Eq. 10: P_i = U(P_j, ē_j) for T_i = ē_j(T_j)."""
        generator = EditScriptGenerator(rng=random.Random(seed))
        inverse_op = generator.generate(tree, 1)[0]
        hasher = LabelHasher()
        tables = load_full_profile(tree, config, hasher)
        assert tables.label_bag() == profile_bag(tree, config, hasher)
        previous = tree.copy()
        inverse_op.apply(previous)
        apply_update(tables, inverse_op, hasher)
        assert tables.label_bag() == profile_bag(previous, config, hasher)


class TestSingleOps:
    def _roundtrip(self, brackets, inverse_op, config=GramConfig(3, 3)):
        tree = tree_from_brackets(brackets)
        hasher = LabelHasher()
        tables = load_full_profile(tree, config, hasher)
        previous = tree.copy()
        inverse_op.apply(previous)
        apply_update(tables, inverse_op, hasher)
        assert tables.label_bag() == profile_bag(previous, config, hasher)

    def test_rename_leaf(self):
        self._roundtrip("r(a,b)", Rename(1, "z"))

    def test_rename_inner(self):
        self._roundtrip("r(a(b,c),d)", Rename(1, "z"))

    def test_delete_leaf(self):
        self._roundtrip("r(a,b)", Delete(1))

    def test_delete_inner_with_children(self):
        self._roundtrip("r(a(b,c(d)),e)", Delete(1))

    def test_delete_only_child(self):
        self._roundtrip("r(a)", Delete(1))

    def test_insert_leaf_front(self):
        self._roundtrip("r(a,b)", Insert(9, "x", 0, 1, 0))

    def test_insert_leaf_back(self):
        self._roundtrip("r(a,b)", Insert(9, "x", 0, 3, 2))

    def test_insert_leaf_under_leaf(self):
        self._roundtrip("r(a)", Insert(9, "x", 1, 1, 0))

    def test_insert_adopting_all(self):
        self._roundtrip("r(a,b,c)", Insert(9, "x", 0, 1, 3))

    def test_insert_adopting_middle(self):
        self._roundtrip("r(a,b,c,d)", Insert(9, "x", 0, 2, 3))

    def test_q1_delete_middle_child(self):
        self._roundtrip("r(a,b,c)", Delete(2), GramConfig(2, 1))

    def test_q1_insert_leaf(self):
        self._roundtrip("r(a,b)", Insert(9, "x", 0, 2, 1), GramConfig(2, 1))

    def test_p1_ops(self):
        self._roundtrip("r(a(b),c)", Delete(1), GramConfig(1, 2))
        self._roundtrip("r(a(b),c)", Insert(9, "x", 0, 1, 2), GramConfig(1, 2))

    def test_deep_chain_delete(self):
        self._roundtrip("a(b(c(d(e(f)))))", Delete(2), GramConfig(4, 2))
