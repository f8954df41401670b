"""Subtree fingerprint tests."""

from hypothesis import given, settings

from repro.tree import (
    subtree_fingerprints,
    tree_fingerprint,
    tree_from_brackets,
    tree_to_brackets,
)

from tests.conftest import trees


class TestBasics:
    def test_equal_structures_equal_fingerprints(self):
        left = tree_from_brackets("a(b(c),d)")
        right = tree_from_brackets("a(b(c),d)")
        assert tree_fingerprint(left) == tree_fingerprint(right)

    def test_label_change_changes_fingerprint(self):
        left = tree_from_brackets("a(b)")
        right = tree_from_brackets("a(c)")
        assert tree_fingerprint(left) != tree_fingerprint(right)

    def test_parent_child_swap_distinct(self):
        """The Karp–Rabin linear fold collided on exactly this pair;
        the BLAKE2 mixer must not."""
        assert tree_fingerprint(tree_from_brackets("a(b)")) != tree_fingerprint(
            tree_from_brackets("b(a)")
        )

    def test_sibling_order_matters(self):
        assert tree_fingerprint(tree_from_brackets("a(b,c)")) != tree_fingerprint(
            tree_from_brackets("a(c,b)")
        )

    def test_shape_matters(self):
        assert tree_fingerprint(tree_from_brackets("a(b,c)")) != tree_fingerprint(
            tree_from_brackets("a(b(c))")
        )

    def test_every_node_fingerprinted(self):
        tree = tree_from_brackets("a(b(c),d)")
        fingerprints = subtree_fingerprints(tree)
        assert set(fingerprints) == set(tree.node_ids())

    def test_equal_subtrees_share_fingerprints(self):
        tree = tree_from_brackets("a(x(y),x(y))")
        fingerprints = subtree_fingerprints(tree)
        children = tree.children(tree.root_id)
        assert fingerprints[children[0]] == fingerprints[children[1]]


class TestLinearFoldCollisions:
    """Families a linear (Karp–Rabin-style) child fold conflates.

    The query cache answers equal-fingerprint queries alike and the
    diff treats equal-fingerprint subtrees as unchanged, so these are
    correctness regressions, not hygiene: an
    additive fold maps ``a(b, c)`` and ``a(c, b)`` to the same value,
    and a polynomial fold collides whole redistribution families.
    """

    def test_child_redistribution_distinct(self):
        # Under an additive fold f(a(X)) = h(a) + sum f(X), moving a
        # grandchild up collides: a(b(c), d) vs a(b, c(d)) vs a(b(d), c)
        shapes = ["a(b(c),d)", "a(b,c(d))", "a(b(d),c)", "a(b(c,d))"]
        prints = [tree_fingerprint(tree_from_brackets(s)) for s in shapes]
        assert len(set(prints)) == len(shapes)

    def test_sibling_permutations_all_distinct(self):
        import itertools

        prints = set()
        for order in itertools.permutations("bcd"):
            prints.add(
                tree_fingerprint(
                    tree_from_brackets(f"a({','.join(order)})")
                )
            )
        assert len(prints) == 6

    def test_label_swap_across_levels_distinct(self):
        # Linear folds treat the multiset of (label, depth) pairs as
        # the identity; swapping labels between levels must still
        # change the fingerprint.
        assert tree_fingerprint(
            tree_from_brackets("a(b(c),c)")
        ) != tree_fingerprint(tree_from_brackets("a(c(b),b)"))

    def test_digest_width_is_128_bits(self):
        from repro.tree.fingerprint import DIGEST_SIZE

        assert DIGEST_SIZE == 16
        # fingerprints actually use the full width: over a few trees
        # at least one must exceed 64 bits
        prints = [
            tree_fingerprint(tree_from_brackets(f"a(b{i})"))
            for i in range(8)
        ]
        assert any(value >= 1 << 64 for value in prints)


@settings(max_examples=80)
@given(trees(max_size=20), trees(max_size=20))
def test_fingerprint_equality_iff_structure_equality(left, right):
    same_structure = tree_to_brackets(left) == tree_to_brackets(right)
    same_fingerprint = tree_fingerprint(left) == tree_fingerprint(right)
    assert same_structure == same_fingerprint
