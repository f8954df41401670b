"""GramConfig and PQGram value-type tests."""

import pytest

from repro.core import GramConfig
from repro.errors import GramConfigError
from repro.hashing import LabelHasher, NULL_HASH
from repro.tree.node import NULL_NODE, Node

from tests.support.reference import PQGram


class TestGramConfig:
    def test_defaults_are_33(self):
        config = GramConfig()
        assert (config.p, config.q) == (3, 3)
        assert config.gram_width == 6
        assert str(config) == "3,3-grams"

    @pytest.mark.parametrize("p,q", [(0, 1), (1, 0), (-1, 2)])
    def test_invalid_rejected(self, p, q):
        with pytest.raises(GramConfigError):
            GramConfig(p, q)

    def test_grams_per_node(self):
        config = GramConfig(3, 3)
        assert config.grams_per_node(0) == 1
        assert config.grams_per_node(1) == 3
        assert config.grams_per_node(5) == 7


class TestPQGram:
    def _gram(self):
        nodes = (
            NULL_NODE,
            Node(1, "a"),
            Node(3, "b"),
            Node(5, "e"),
            Node(6, "f"),
            NULL_NODE,
        )
        return PQGram(nodes, 3, 3)

    def test_parts(self):
        gram = self._gram()
        assert gram.anchor == Node(3, "b")
        assert gram.p_part == (NULL_NODE, Node(1, "a"), Node(3, "b"))
        assert gram.q_part == (Node(5, "e"), Node(6, "f"), NULL_NODE)

    def test_label_tuple(self):
        assert self._gram().label_tuple() == ("*", "a", "b", "e", "f", "*")

    def test_hash_tuple_nulls_are_zero(self):
        gram = self._gram()
        hashes = gram.hash_tuple(LabelHasher())
        assert hashes[0] == NULL_HASH
        assert hashes[-1] == NULL_HASH
        assert all(value != NULL_HASH for value in hashes[1:5])

    def test_contains_node(self):
        gram = self._gram()
        assert gram.contains_node(5)
        assert not gram.contains_node(99)
        assert not gram.contains_node(None)  # nulls never match

    def test_width_enforced(self):
        with pytest.raises(GramConfigError):
            PQGram((NULL_NODE,), 2, 2)

    def test_node_renamed(self):
        node = Node(4, "x")
        assert node.renamed("y") == Node(4, "y")
        assert not node.is_null
        assert NULL_NODE.is_null
