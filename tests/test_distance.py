"""pq-gram distance tests (Section 3.2)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GramConfig, index_distance, index_of_tree, pq_gram_distance
from repro.core.distance import (
    distance_from_overlap,
    distances_from_overlaps,
    size_bound_admits,
    size_bounds_admit,
)
from repro.edits.script import apply_script
from repro.errors import GramConfigError
from repro.perf import HAVE_NUMPY
from repro.tree import tree_from_brackets

from tests.conftest import gram_configs, trees, trees_with_scripts


class TestBasicProperties:
    def test_identical_trees_distance_zero(self):
        tree = tree_from_brackets("a(b,c(d))")
        assert pq_gram_distance(tree, tree.copy()) == 0.0

    def test_same_labels_different_ids_distance_zero(self):
        left = tree_from_brackets("a(b,c)")
        right = tree_from_brackets("a(b,c)")
        assert pq_gram_distance(left, right) == 0.0

    def test_disjoint_labels_distance_near_one(self):
        left = tree_from_brackets("a(b,b)")
        right = tree_from_brackets("x(y,y)")
        assert pq_gram_distance(left, right) == 1.0

    def test_symmetry(self):
        left = tree_from_brackets("a(b,c(d))")
        right = tree_from_brackets("a(b,c)")
        assert pq_gram_distance(left, right) == pq_gram_distance(right, left)

    def test_small_edit_small_distance(self):
        left = tree_from_brackets("a(b,c,d,e,f,g,h)")
        right = tree_from_brackets("a(b,c,d,e,f,g,x)")
        far = tree_from_brackets("a(x,y,z,w,v,u,t)")
        near_distance = pq_gram_distance(left, right)
        far_distance = pq_gram_distance(left, far)
        assert 0 < near_distance < far_distance

    def test_config_mismatch_rejected(self):
        left = index_of_tree(tree_from_brackets("a"), GramConfig(2, 2))
        right = index_of_tree(tree_from_brackets("a"), GramConfig(3, 3))
        with pytest.raises(GramConfigError):
            index_distance(left, right)


class TestRangeAndMonotonicity:
    @settings(max_examples=40)
    @given(trees(max_size=15), trees(max_size=15), gram_configs())
    def test_distance_in_unit_range(self, left, right, config):
        distance = pq_gram_distance(left, right, config)
        assert 0.0 <= distance <= 1.0

    @settings(max_examples=40)
    @given(trees(max_size=15), gram_configs())
    def test_self_distance_zero(self, tree, config):
        assert pq_gram_distance(tree, tree.copy(), config) == 0.0

    @settings(max_examples=30)
    @given(trees_with_scripts(max_size=15, max_ops=4))
    def test_editing_moves_distance_from_zero(self, tree_and_script):
        tree, script = tree_and_script
        edited, _ = apply_script(tree, script)
        # Distance between distinct label structures is positive; equal
        # structures (e.g. a rename chain that cancels) give zero.
        distance = pq_gram_distance(tree, edited)
        if index_of_tree(tree) == index_of_tree(edited):
            assert distance == 0.0
        else:
            assert distance > 0.0


def _taus():
    """Thresholds incl. 0, 1 and the doubles adjacent to a distance
    some drawn pair can actually take."""
    exact = st.builds(
        distance_from_overlap,
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=1, max_value=800),
    )
    return st.one_of(
        st.sampled_from([0.0, 1.0, 0.5, -0.25, 1.5]),
        st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
        exact,
        exact.map(lambda tau: math.nextafter(tau, math.inf)),
        exact.map(lambda tau: math.nextafter(tau, -math.inf)),
    )


@pytest.mark.skipif(not HAVE_NUMPY, reason="the vector twins need numpy")
class TestVectorTwins:
    """The array-space kernel scores through the twins only, so they
    must equal the scalar expressions bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**40),
                st.integers(min_value=0, max_value=2**41),
            ),
            max_size=30,
        )
    )
    def test_distances_equal_scalar_bit_for_bit(self, pairs):
        import numpy as np

        shared = np.array([pair[0] for pair in pairs], dtype=np.int64)
        union = np.array([pair[1] for pair in pairs], dtype=np.int64)
        vector = distances_from_overlaps(shared, union).tolist()
        scalar = [distance_from_overlap(*pair) for pair in pairs]
        assert [value.hex() for value in vector] == [
            value.hex() for value in scalar
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=800),
        st.lists(st.integers(min_value=0, max_value=800), max_size=30),
        _taus(),
    )
    def test_size_bound_equals_scalar(self, query_size, sizes, tau):
        import numpy as np

        vector = size_bounds_admit(
            query_size, np.array(sizes, dtype=np.int64), tau
        ).tolist()
        assert vector == [
            size_bound_admits(query_size, size, tau) for size in sizes
        ]
