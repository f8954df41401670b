"""Unit tests for the streaming per-operation delta bags."""

import pytest

from repro.core import GramConfig
from repro.core.localdelta import delta_label_bag
from repro.edits import Delete, Insert, Move, Rename
from repro.errors import InvalidLogError
from repro.hashing import LabelHasher
from repro.tree import tree_from_brackets

from tests.support.reference import compute_profile


def oracle(tree, operation, config, hasher):
    """λ(P_j ∖ P_i) from full profiles."""
    after = compute_profile(tree, config)
    previous = tree.copy()
    operation.apply(previous)
    before = compute_profile(previous, config)
    bag = {}
    for gram in after.grams - before.grams:
        key = gram.hash_tuple(hasher)
        bag[key] = bag.get(key, 0) + 1
    return bag


class TestNodeOps:
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (3, 3), (4, 2)])
    def test_rename_matches_oracle(self, p, q):
        tree = tree_from_brackets("r(a(b,c),d)")
        config = GramConfig(p, q)
        hasher = LabelHasher()
        operation = Rename(1, "z")
        assert delta_label_bag(tree, operation, config, hasher) == oracle(
            tree, operation, config, hasher
        )

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (3, 3)])
    def test_delete_matches_oracle(self, p, q):
        tree = tree_from_brackets("r(a(b,c(e)),d)")
        config = GramConfig(p, q)
        hasher = LabelHasher()
        operation = Delete(1)
        assert delta_label_bag(tree, operation, config, hasher) == oracle(
            tree, operation, config, hasher
        )

    def test_gram_multiplicities_counted(self):
        """Two structurally identical affected grams must count twice."""
        tree = tree_from_brackets("r(a,a,b)")
        config = GramConfig(1, 1)
        hasher = LabelHasher()
        bag = delta_label_bag(tree, Delete(3), config, hasher)
        assert bag == oracle(tree, Delete(3), config, hasher)

    def test_inapplicable_op_rejected(self):
        tree = tree_from_brackets("r(a)")
        hasher = LabelHasher()
        for operation in (Delete(99), Rename(1, "a"), Insert(1, "x", 0, 1, 0)):
            with pytest.raises(InvalidLogError):
                delta_label_bag(tree, operation, GramConfig(2, 2), hasher)


class TestMoveRule:
    def test_move_bag_superset_cancellation(self):
        """The move rule enumerates both parents wholesale; the signed
        difference across the step must equal the true profile change."""
        tree = tree_from_brackets("r(a(b,c),d(e))")
        config = GramConfig(2, 2)
        hasher = LabelHasher()
        operation = Move(1, 4, 1)

        plus = delta_label_bag(tree, operation, config, hasher)
        previous = tree.copy()
        forward = operation.inverse(previous)
        operation.apply(previous)
        minus = delta_label_bag(previous, forward, config, hasher)

        signed = dict(plus)
        for key, count in minus.items():
            signed[key] = signed.get(key, 0) - count
        signed = {key: count for key, count in signed.items() if count}

        before_bag = compute_profile(tree, config).label_bag(hasher)
        after_bag = compute_profile(previous, config).label_bag(hasher)
        true_signed = {}
        for key in set(before_bag) | set(after_bag):
            delta = before_bag.get(key, 0) - after_bag.get(key, 0)
            if delta:
                true_signed[key] = delta
        assert signed == true_signed

    def test_same_parent_move(self):
        tree = tree_from_brackets("r(a,b,c)")
        config = GramConfig(2, 3)
        hasher = LabelHasher()
        operation = Move(1, 0, 3)
        # The symmetric rule applies cleanly even when source and
        # destination parents coincide.
        bag = delta_label_bag(tree, operation, config, hasher)
        assert sum(bag.values()) > 0
