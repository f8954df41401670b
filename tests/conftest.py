"""Shared fixtures and hypothesis strategies.

The tree and edit-script strategies are the backbone of the
property-based suite: arbitrary ordered labelled trees, and edit
scripts that are applicable by construction.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import strategies as st

from repro.core.config import GramConfig
from repro.core.index import PQGramIndex
from repro.core.batch import update_index, update_index_batch_delta
from repro.edits.generator import EditScriptGenerator
from repro.edits.ops import EditOperation
from repro.edits.script import apply_script
from repro.hashing.labelhash import LabelHasher
from repro.tree.tree import Tree

from tests.support.reference.baselines import rebuild_index

LABELS = ("a", "b", "c", "d", "e")


def build_random_tree(size: int, seed: int) -> Tree:
    """Uniform-attachment random tree (deterministic in the inputs)."""
    rng = random.Random(seed)
    tree = Tree(rng.choice(LABELS))
    ids = [tree.root_id]
    for _ in range(size - 1):
        parent = rng.choice(ids)
        position = rng.randint(1, tree.fanout(parent) + 1)
        ids.append(tree.add_child(parent, rng.choice(LABELS), position=position))
    return tree


@st.composite
def trees(draw, max_size: int = 24) -> Tree:
    """An arbitrary ordered labelled tree."""
    size = draw(st.integers(min_value=1, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return build_random_tree(size, seed)


@st.composite
def gram_configs(draw, max_p: int = 4, max_q: int = 3) -> GramConfig:
    """An arbitrary (p, q) configuration."""
    return GramConfig(
        draw(st.integers(min_value=1, max_value=max_p)),
        draw(st.integers(min_value=1, max_value=max_q)),
    )


@st.composite
def trees_with_scripts(
    draw, max_size: int = 20, max_ops: int = 12
) -> Tuple[Tree, List[EditOperation]]:
    """A tree plus an applicable edit script for it."""
    tree = draw(trees(max_size=max_size))
    length = draw(st.integers(min_value=1, max_value=max_ops))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    generator = EditScriptGenerator(
        rng=random.Random(seed), labels=list(LABELS) + ["x", "y"]
    )
    script = generator.generate(tree, length)
    return tree, list(script)


@st.composite
def edited_trees(draw, max_size: int = 20, max_ops: int = 12):
    """(T_0, T_n, log) triples — the maintenance scenario inputs."""
    tree, script = draw(trees_with_scripts(max_size=max_size, max_ops=max_ops))
    edited, log = apply_script(tree, script)
    return tree, edited, log


# ----------------------------------------------------------------------
# store-level oracles
#
# The store has one write path and one maintenance engine, so "a second
# store configured differently" is no oracle.  The expected state is the
# paper's invariant — the maintained index equals the index built from
# scratch on the current document — and the ``engine`` rows of the
# backend/crash/standing matrices name the ``repro.core`` reference
# path the store's result is additionally checked against: ``"replay"``
# makes one engine call per single-operation log (no compaction, one
# index copy per step), ``"batch"`` one call over the whole log.
# ----------------------------------------------------------------------

REFERENCE_ENGINES = ("replay", "batch")

Bag = Dict[Tuple[int, ...], int]


def per_operation_update(
    old_index: PQGramIndex,
    tree: Tree,
    log: Sequence[EditOperation],
    hasher: Optional[LabelHasher] = None,
) -> Tuple[PQGramIndex, Bag, Bag]:
    """``old_index`` (of T_0) maintained to T_n = ``tree`` one step at
    a time: one engine call per single-operation log ``[ē_i]`` on T_i.

    Returns the final index and the net ``(minus, plus)`` of the steps'
    delta bags.  The intermediate versions are reconstructed by undoing
    the log on copies — what the engine itself never does.
    """
    hasher = hasher or LabelHasher()
    versions = [tree]
    for inverse_op in reversed(list(log)):
        earlier = versions[-1].copy()
        inverse_op.apply(earlier)
        versions.append(earlier)
    versions.reverse()
    index, signed = old_index, Counter()
    for version, inverse_op in zip(versions[1:], log):
        index, minus, plus = update_index_batch_delta(
            index, version, [inverse_op], hasher
        )
        signed.update(plus)
        signed.subtract(minus)
    minus = {key: -count for key, count in signed.items() if count < 0}
    plus = {key: count for key, count in signed.items() if count > 0}
    return index, minus, plus


def relation(backend) -> Dict[int, Bag]:
    """The whole stored relation of a forest's backend as ``tree →
    bag`` copies — the bit-identical comparison key of the suites."""
    return {
        tree_id: dict(backend.tree_bag(tree_id)) for tree_id in backend.tree_ids()
    }


def assert_store_is_rebuild(store) -> None:
    """Every index a ``DocumentStore`` maintains equals a from-scratch
    rebuild of its current document."""
    for document_id in store.document_ids():
        assert store.get_index(document_id) == rebuild_index(
            store.get_document(document_id), store.config
        ), f"index of document {document_id} is not a rebuild"
    store._forest.backend.check_consistency()


def reference_update(
    engine: str,
    old_index: PQGramIndex,
    tree: Tree,
    script: List[EditOperation],
) -> Tuple[Tree, PQGramIndex]:
    """``script`` applied to a copy of ``tree``, and ``old_index``
    maintained over the inverse log along the named ``repro.core``
    reference path — checked against the rebuild before use."""
    edited, log = apply_script(tree, script)
    if engine == "replay":
        index, _, _ = per_operation_update(old_index, edited, log)
    else:
        assert engine == "batch", engine
        index = update_index(old_index, edited, log, LabelHasher())
    assert index == rebuild_index(edited, old_index.config)
    return edited, index


@pytest.fixture
def hasher() -> LabelHasher:
    """A fresh label hasher."""
    return LabelHasher()


@pytest.fixture
def paper_tree_t0() -> Tree:
    """T_0 of the paper's Fig. 2: a(c, b(e, f), c)."""
    tree = Tree("a", 1)
    tree.add_child(1, "c", 2)
    tree.add_child(1, "b", 3)
    tree.add_child(1, "c", 4)
    tree.add_child(3, "e", 5)
    tree.add_child(3, "f", 6)
    return tree


#: Fields a ``query`` / ``subscribe`` frame may carry that decode to no
#: plan: each has the wrong type, or tau is NaN (``json.loads`` accepts
#: it).  ``plan_from_spec`` must refuse every one with ``QueryError``,
#: since a wrongly typed field can otherwise read as a different plan
#: (a truthy ``"false"``, a string iterated into labels).
BAD_PLAN_SPECS = {
    "negated-string": {"predicates": [{"kind": "has_label", "label": "b", "negated": "false"}]},
    "labels-string": {"predicates": [{"kind": "has_path", "labels": "ab"}]},
    "labels-not-str": {"predicates": [{"kind": "has_path", "labels": ["a", 1]}]},
    "label-int": {"predicates": [{"kind": "has_label", "label": 3}]},
    "kind-unknown": {"predicates": [{"kind": "has_child", "label": "b"}]},
    "predicates-string": {"predicates": "x"},
    "predicates-int": {"predicates": [1]},
    "predicates-empty-object": {"predicates": [{}]},
    "predicates-null": {"predicates": None},
    "tau-nan": {"tau": float("nan")},
}
