"""Executable validation of the paper's formal results.

Every lemma and theorem of Sections 3–6 is checked on random inputs
through the node-level profile operations of
:mod:`tests.support.reference.setops`; where a result has a gap (Lemma 1's insert
case, Lemma 3, Theorem 1 — see EXPERIMENTS.md), the tests state the
*exact* boundary: the result holds for node-addressed operations and
adopting insertions, and a fixed counterexample witnesses the failure
for position-addressed leaf insertions.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GramConfig
from repro.edits import Delete, Insert, Rename, apply_script
from repro.edits.generator import EditScriptGenerator
from repro.hashing import LabelHasher
from repro.tree import Tree

from tests.conftest import gram_configs, trees, trees_with_scripts
from tests.support.reference import compute_profile
from tests.support.reference.setops import (
    delta_profile,
    intermediate_trees,
    invariant_grams,
    lemma1_membership,
    true_deltas,
    update_profile,
)

SETTINGS = settings(max_examples=60, deadline=None)


def random_op(tree, seed, kinds=(1.0, 1.0, 1.0)):
    generator = EditScriptGenerator(rng=random.Random(seed), weights=kinds)
    return generator.generate(tree, 1)[0]


# ----------------------------------------------------------------------
# Section 3: set-algebra rules (Eq. 1–4) used throughout the proofs
# ----------------------------------------------------------------------

small_sets = st.sets(st.integers(0, 12), max_size=8)


@given(small_sets, small_sets, small_sets)
def test_set_algebra_rules(a, b, c):
    assert (a & b) | (a - b) == a                    # Eq. 1
    assert a - (a - b) == a & b                      # Eq. 2
    assert (a | b) - c == (a - c) | (b - c)          # Eq. 3
    assert (a - b) | b == a | b                      # Eq. 4


# ----------------------------------------------------------------------
# Lemma 1: which pq-grams an operation affects
# ----------------------------------------------------------------------

class TestLemma1:
    @SETTINGS
    @given(trees(max_size=14), gram_configs(), st.integers(0, 2**31))
    def test_rename_and_delete_cases(self, tree, config, seed):
        operation = random_op(tree, seed, kinds=(0.0, 1.0, 1.0))
        if isinstance(operation, Insert):
            return  # singleton tree: the generator can only insert
        assert delta_profile(tree, operation, config) == lemma1_membership(
            tree, operation, config
        )

    @SETTINGS
    @given(trees(max_size=14), gram_configs(), st.integers(0, 2**31))
    def test_adopting_insert_case(self, tree, config, seed):
        rng = random.Random(seed)
        candidates = [
            node for node in tree.node_ids() if tree.fanout(node) >= 1
        ]
        if not candidates:
            return
        parent = rng.choice(candidates)
        k = rng.randint(1, tree.fanout(parent))
        m = rng.randint(k, tree.fanout(parent))
        operation = Insert(tree.fresh_id(), "z", parent, k, m)
        assert delta_profile(tree, operation, config) == lemma1_membership(
            tree, operation, config
        )

    def test_leaf_insert_case_fails(self):
        """Eq. 7 is vacuous for C = ∅, but the true delta holds the
        windows spanning the insertion gap — the characterization gap
        behind the Theorem 1 issue."""
        tree = Tree("v", 0)
        tree.add_child(0, "x", 1)
        config = GramConfig(1, 2)
        operation = Insert(9, "n", 0, 1, 0)
        true_delta = delta_profile(tree, operation, config)
        characterized = lemma1_membership(tree, operation, config)
        assert characterized == set()
        assert true_delta != set()


# ----------------------------------------------------------------------
# Definition 5 / Eq. 10: the profile update function inverts one step
# ----------------------------------------------------------------------

class TestProfileUpdateFunction:
    @SETTINGS
    @given(trees(max_size=14), gram_configs(), st.integers(0, 2**31))
    def test_full_profile_inversion(self, tree, config, seed):
        operation = random_op(tree, seed)
        profile = compute_profile(tree, config).grams
        previous = tree.copy()
        operation.apply(previous)
        assert update_profile(profile, tree, operation, config) == compute_profile(
            previous, config
        ).grams

    @SETTINGS
    @given(trees(max_size=12), gram_configs(max_p=3), st.integers(0, 2**31))
    def test_update_of_exact_delta_gives_old_grams(self, tree, config, seed):
        """U(δ(T_j, ē_j), ē_j) = δ(T_i, e_j) — the new grams map to the
        old grams exactly."""
        operation = random_op(tree, seed)
        new_grams = delta_profile(tree, operation, config)
        previous = tree.copy()
        forward = operation.inverse(previous)
        operation.apply(previous)
        old_grams = delta_profile(previous, forward, config)
        assert update_profile(new_grams, tree, operation, config) == old_grams


# ----------------------------------------------------------------------
# Lemma 3: deltas of earlier operations across one edit step
# ----------------------------------------------------------------------

class TestLemma3:
    @SETTINGS
    @given(trees(max_size=12), gram_configs(max_p=3), st.integers(0, 2**31))
    def test_holds_for_node_addressed_ops(self, tree, config, seed):
        """δ(T_i, ē_x) ∖ δ(T_i, e_j) = δ(T_j, ē_x) ∖ δ(T_j, ē_j) when
        ē_x renames or deletes (node-addressed)."""
        rng = random.Random(seed)
        e_j = random_op(tree, rng.randint(0, 2**31))     # T_i --e_j--> T_j
        t_i = tree
        t_j = tree.copy()
        e_j_inverse = e_j.inverse(t_j)
        e_j.apply(t_j)
        e_x = random_op(t_i, rng.randint(0, 2**31), kinds=(0.0, 1.0, 1.0))
        left = delta_profile(t_i, e_x, config) - delta_profile(t_i, e_j, config)
        right = delta_profile(t_j, e_x, config) - delta_profile(
            t_j, e_j_inverse, config
        )
        assert left == right

    def test_fails_for_leaf_insert_ops(self):
        """The published proof's insert case breaks for C = ∅: the same
        positional address lands in different neighbourhoods."""
        config = GramConfig(1, 3)
        t_i = Tree("v", 0)       # v(b, x)
        t_i.add_child(0, "b", 1)
        t_i.add_child(0, "x", 3)
        e_j = Delete(1)          # T_j = v(x)
        t_j = t_i.copy()
        e_j_inverse = e_j.inverse(t_j)
        e_j.apply(t_j)
        e_x = Insert(2, "a", 0, 2, 1)   # leaf insert at position 2
        left = delta_profile(t_i, e_x, config) - delta_profile(t_i, e_j, config)
        right = delta_profile(t_j, e_x, config) - delta_profile(
            t_j, e_j_inverse, config
        )
        assert left != right


# ----------------------------------------------------------------------
# Theorem 1: Δ⁺ as a union of deltas on T_n
# ----------------------------------------------------------------------

def union_of_deltas_on_final(versions, log, config):
    final = versions[-1]
    union = set()
    for inverse_op in log:
        union |= delta_profile(final, inverse_op, config)
    return union


class TestTheorem1:
    @SETTINGS
    @given(trees_with_scripts(max_size=12, max_ops=6), gram_configs(max_p=3))
    def test_holds_for_node_addressed_logs(self, tree_and_script, config):
        """Logs of renames and inverse-DELs only (documents that only
        grew): Theorem 1 holds exactly."""
        tree, script = tree_and_script
        versions = intermediate_trees(tree, script)
        edited, log = apply_script(tree, script)
        if any(isinstance(inverse_op, Insert) for inverse_op in log):
            return
        _, delta_plus = true_deltas(versions, config)
        assert union_of_deltas_on_final(versions, log, config) == delta_plus

    def test_counterexample_with_positional_inserts(self):
        """The four-node counterexample: the union over-approximates."""
        tree = Tree("v", 0)
        tree.add_child(0, "b", 1)
        tree.add_child(0, "a", 2)
        tree.add_child(0, "x", 3)
        script = [Delete(2), Delete(1)]
        config = GramConfig(1, 3)
        versions = intermediate_trees(tree, script)
        edited, log = apply_script(tree, script)
        _, delta_plus = true_deltas(versions, config)
        union = union_of_deltas_on_final(versions, log, config)
        assert delta_plus < union
        # All extras are invariant grams — which is why the engines'
        # bag arithmetic can still cancel them out.
        extras = union - delta_plus
        assert extras <= invariant_grams(versions, config)


# ----------------------------------------------------------------------
# Theorem 2 (via Eq. 30): Δ⁻ as a union of forward deltas on T_0
# ----------------------------------------------------------------------

class TestTheorem2:
    @SETTINGS
    @given(trees_with_scripts(max_size=12, max_ops=6), gram_configs(max_p=3))
    def test_unnested_form_on_node_addressed_scripts(self, tree_and_script, config):
        """Δ⁻ = ⋃ δ(T_0, e_k) when the forward script is delete/rename
        only (by symmetry with Theorem 1)."""
        tree, script = tree_and_script
        if any(isinstance(operation, Insert) for operation in script):
            return
        versions = intermediate_trees(tree, script)
        delta_minus, _ = true_deltas(versions, config)
        union = set()
        for operation in script:
            union |= delta_profile(versions[0], operation, config)
        assert union == delta_minus


# ----------------------------------------------------------------------
# Lemma 2: the final bag update formula
# ----------------------------------------------------------------------

class TestLemma2:
    @SETTINGS
    @given(trees_with_scripts(max_size=12, max_ops=6), gram_configs(max_p=3))
    def test_index_update_formula(self, tree_and_script, config):
        """I_n = I_0 ∖ λ(Δ⁻) ⊎ λ(Δ⁺), with the true node-level deltas."""
        tree, script = tree_and_script
        hasher = LabelHasher()
        versions = intermediate_trees(tree, script)
        delta_minus, delta_plus = true_deltas(versions, config)

        def bag(grams):
            result = {}
            for gram in grams:
                key = gram.hash_tuple(hasher)
                result[key] = result.get(key, 0) + 1
            return result

        from repro.core import PQGramIndex

        index = PQGramIndex.from_tree(versions[0], config, hasher)
        index.apply_delta(bag(delta_minus), bag(delta_plus))
        assert index == PQGramIndex.from_tree(versions[-1], config, hasher)
