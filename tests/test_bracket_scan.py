"""The one reader of bracket notation, and the bag it feeds.

``scan_brackets`` is the only code that reads the notation:
``tree_from_brackets`` builds a tree from its events,
``PQGramIndex.from_brackets`` a pq-gram bag — the served ``lookup``
never builds the tree.  Both must agree with each other and with the
tree walk on every text the writer can produce, reject the same
malformed texts with ``TreeError`` (``BAD_REQUEST`` on the wire), and
terminate with nothing but ``TreeError`` on arbitrary input.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GramConfig, PQGramIndex
from repro.errors import TreeError
from repro.hashing import LabelHasher
from repro.serve import ServeClient
from repro.serve.protocol import BAD_REQUEST
from repro.tree.builder import (
    tree_from_brackets,
    tree_from_nested,
    tree_to_brackets,
)
from repro.tree.traversal import preorder

from tests.test_serve_inline import send, serving

CONFIGS = [GramConfig(p, q) for p, q in itertools.product((1, 2, 3, 4), repeat=2)]

MALFORMED = [
    "",
    "   ",
    "(",
    ")",
    ",",
    "a(",
    "a(b",
    "a()",
    "a( )",
    "a(b,)",
    "a(,b)",
    "a(b,,c)",
    "a(b))",
    "a(b) )",
    "a(b)c",
    "a(b)(c)",
    "a,b",
    "a(b),c",
    '"abc',
    '"abc\\',
    '"abc\\"',
    'a"b"',
    '"a""b"',
    'a("x"y)',
    'a(x"y")',
    "a(" * 1500,
    "a(" * 1500 + "a" + ")" * 1499,
    "a(" * 1500 + "a" + ")" * 1501,
]

# labels that need quoting, escapes, inner and outer whitespace, non-ASCII
labels = st.one_of(
    st.sampled_from(
        ["a", "", " ", " a", "a ", "a b", "(", ")", ",", '"', "\\", '\\"',
         "a(b)", "x,y", "\n", "\ta ", "é", "木", "\U0001f333", "a\\", '""']
    ),
    st.text(alphabet='ab (),"\\\n é木', max_size=6),
)
nested = st.recursive(
    st.tuples(labels, st.just([])),
    lambda children: st.tuples(labels, st.lists(children, max_size=4)),
    max_leaves=25,
)


@given(spec=nested)
@settings(max_examples=150, deadline=None)
def test_the_scan_is_the_tree_walk(spec):
    tree = tree_from_nested(spec)
    text = tree_to_brackets(tree)
    parsed = tree_from_brackets(text)
    assert parsed == tree  # ids (preorder), labels and child order
    assert list(preorder(parsed)) == list(range(len(tree)))
    hasher = LabelHasher()
    for config in CONFIGS:
        assert PQGramIndex.from_brackets(
            text, config, hasher
        ) == PQGramIndex.from_tree(tree, config, hasher)


def test_whitespace_and_quotes_do_not_change_the_tree():
    plain = "a(b c,d(e),f)"
    spelled = ' "a" (\n\tb c , "d"( e ) ,f ) \n'
    assert tree_from_brackets(spelled) == tree_from_brackets(plain)
    config, hasher = GramConfig(2, 3), LabelHasher()
    assert PQGramIndex.from_brackets(
        spelled, config, hasher
    ) == PQGramIndex.from_brackets(plain, config, hasher)
    # a backslash is an escape only inside quotes
    assert tree_from_brackets("a\\b").label(0) == "a\\b"
    assert tree_from_brackets('"a\\\\b\\"\\c"').label(0) == 'a\\b"c'


@pytest.mark.parametrize("text", MALFORMED, ids=range(len(MALFORMED)))
def test_malformed_text_is_a_tree_error_for_the_tree_and_for_the_bag(text):
    with pytest.raises(TreeError):
        tree_from_brackets(text)
    with pytest.raises(TreeError):
        PQGramIndex.from_brackets(text, GramConfig(2, 3), LabelHasher())


def test_malformed_text_is_a_bad_request_on_the_wire(tmp_path):
    with serving(tmp_path) as (_, port), ServeClient(port=port) as client:
        client.add_document(1, "a(b,c)")
        # the first lookup hops to the pool, the rest run inline
        for text in ["a(b"] + MALFORMED:
            send(client, "lookup", query=text, tau=0.5)
            frame = client._read_frame()
            assert frame["ok"] is False, text
            assert frame["error"]["code"] == BAD_REQUEST, text
            assert client.lookup("a(b,c)", 0.5) == [(1, 0.0)]


def test_arbitrary_text_only_ever_raises_tree_error():
    rng = random.Random(26)
    alphabet = 'ab (),"\\\n é'
    config, hasher = GramConfig(2, 2), LabelHasher()
    accepted = 0
    for _ in range(4000):
        text = "".join(
            rng.choice(alphabet) for _ in range(rng.randrange(0, 24))
        )
        try:
            tree = tree_from_brackets(text)
        except TreeError:
            with pytest.raises(TreeError):
                PQGramIndex.from_brackets(text, config, hasher)
        else:
            accepted += 1
            assert PQGramIndex.from_brackets(
                text, config, hasher
            ) == PQGramIndex.from_tree(tree, config, hasher)
    assert 0 < accepted < 4000
    # a long label, quoted or bare, with its terminator missing: one
    # linear scan, not a backtracking blow-up
    for text in ('"' + "a\\" * 50_000, "a(" + " " * 100_000, "a" + " " * 100_000 + '"'):
        with pytest.raises(TreeError):
            tree_from_brackets(text)
