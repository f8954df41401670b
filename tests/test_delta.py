"""Delta function tests (Definition 4, Lemma 1, Algorithm 2).

The oracle is definitional: δ(T_j, ē) = P_j \\ P_i with T_i = ē(T_j),
computed from full profiles on tree copies.  The table-backed delta of
Algorithm 2 must produce exactly the same pq-grams.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GramConfig
from repro.core.localdelta import delta_label_bag
from repro.edits.generator import EditScriptGenerator
from repro.edits.ops import Delete, Insert, Rename, is_applicable
from repro.hashing import LabelHasher
from repro.tree import tree_from_brackets

from tests.conftest import gram_configs, trees
from tests.support.reference import compute_profile
from tests.support.reference.delta import delta_into_tables
from tests.support.reference.tables import DeltaTables


def oracle_delta_bag(tree, operation, config, hasher):
    """λ(P_j \\ P_i) computed from full profiles."""
    profile_after = compute_profile(tree, config)
    previous = tree.copy()
    operation.apply(previous)
    profile_before = compute_profile(previous, config)
    bag = {}
    for gram in profile_after.grams - profile_before.grams:
        key = gram.hash_tuple(hasher)
        bag[key] = bag.get(key, 0) + 1
    return bag


def table_delta_bag(tree, operation, config, hasher):
    tables = DeltaTables(config)
    delta_into_tables(tree, operation, tables, hasher)
    return tables.label_bag()


class TestAgainstOracle:
    @settings(max_examples=80)
    @given(trees(max_size=14), gram_configs(), st.integers(0, 2**31))
    def test_random_applicable_op(self, tree, config, seed):
        generator = EditScriptGenerator(rng=random.Random(seed))
        operation = generator.generate(tree, 1)[0]
        hasher = LabelHasher()
        assert table_delta_bag(tree, operation, config, hasher) == oracle_delta_bag(
            tree, operation, config, hasher
        )

    @settings(max_examples=80)
    @given(trees(max_size=14), gram_configs(), st.integers(0, 2**31))
    def test_streaming_delta_matches_tables(self, tree, config, seed):
        generator = EditScriptGenerator(rng=random.Random(seed))
        operation = generator.generate(tree, 1)[0]
        hasher = LabelHasher()
        assert delta_label_bag(tree, operation, config, hasher) == table_delta_bag(
            tree, operation, config, hasher
        )


class TestSpecificShapes:
    def test_rename_delta_is_grams_containing_node(self, paper_tree_t0, hasher):
        """Lemma 1 Eq. 8: the rename delta is every pq-gram with n."""
        config = GramConfig(3, 3)
        operation = Rename(3, "z")  # node b
        bag = table_delta_bag(paper_tree_t0, operation, config, hasher)
        profile = compute_profile(paper_tree_t0, config)
        expected = {}
        for gram in profile.grams_with_node(3):
            key = gram.hash_tuple(hasher)
            expected[key] = expected.get(key, 0) + 1
        assert bag == expected

    def test_delete_delta_equals_rename_delta_grams(self, paper_tree_t0, hasher):
        """Rename and delete of the same node affect the same pq-grams."""
        config = GramConfig(3, 3)
        rename_bag = table_delta_bag(paper_tree_t0, Rename(3, "z"), config, hasher)
        delete_bag = table_delta_bag(paper_tree_t0, Delete(3), config, hasher)
        assert rename_bag == delete_bag

    def test_inapplicable_op_contributes_nothing(self, paper_tree_t0, hasher):
        tables = DeltaTables(GramConfig(3, 3))
        applicable = delta_into_tables(
            paper_tree_t0, Delete(99), tables, hasher
        )
        assert not applicable
        assert tables.gram_count() == 0

    def test_leaf_insert_with_q1_stores_parent_ppart_only(self, hasher):
        """With q = 1 a leaf insertion has no affected windows, but
        Algorithm 2 still records the parent's p-part (needed later by
        the update function)."""
        tree = tree_from_brackets("r(a)")
        tables = DeltaTables(GramConfig(2, 1))
        delta_into_tables(tree, Insert(9, "x", tree.root_id, 2, 1), tables, hasher)
        assert tables.gram_count() == 0
        assert tables.anchor_count() == 1
        assert tables.get_p(tree.root_id) is not None

    def test_insert_delta_includes_descendant_p_parts(self, hasher):
        tree = tree_from_brackets("r(a(b(c)))")
        config = GramConfig(3, 2)
        operation = Insert(9, "x", tree.root_id, 1, 1)  # adopt a
        bag = table_delta_bag(tree, operation, config, hasher)
        assert bag == oracle_delta_bag(tree, operation, config, hasher)
        # desc_{p-2}(a) = {a, b}: both anchors' grams are affected.
        tables = DeltaTables(config)
        delta_into_tables(tree, operation, tables, hasher)
        assert tables.get_p(1) is not None  # a
        assert tables.get_p(2) is not None  # b
