"""The batched maintenance engine: bit-identical to replay, faster in shape.

The engine's contract (``src/repro/core/batch.py``): for every valid
log, ``engine="batch"`` produces exactly the index of the replay engine
— which itself equals the from-scratch rebuild — regardless of log
compaction, commuting-group boundaries, or the parallel δ fan-out.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import (
    GramConfig,
    PQGramIndex,
    update_index,
    update_index_batch,
    update_index_batch_delta,
    update_index_batch_timed,
    update_index_replay,
    update_index_replay_delta,
)
from repro.core.batch import operation_region, partition_commuting
from repro.edits import Delete, Insert, Move, Rename, apply_script
from repro.edits.generator import EditScriptGenerator
from repro.errors import InvalidLogError
from repro.hashing import LabelHasher
from repro.lookup import ForestIndex
from repro.tree.tree import Tree

from tests.conftest import build_random_tree, edited_trees, gram_configs

COMMON_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# the equivalence properties (acceptance criterion)
# ----------------------------------------------------------------------


@COMMON_SETTINGS
@given(edited_trees(), gram_configs())
def test_batch_equals_replay_and_rebuild(scenario, config):
    tree, edited, log = scenario
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    replay = update_index_replay(old_index, edited, log, hasher)
    batch = update_index_batch(old_index, edited, log, hasher)
    assert batch == replay
    assert batch == PQGramIndex.from_tree(edited, config, hasher)


@COMMON_SETTINGS
@given(edited_trees(), gram_configs())
def test_batch_without_compaction_still_exact(scenario, config):
    tree, edited, log = scenario
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    batch = update_index_batch(old_index, edited, log, hasher, compact=False)
    assert batch == PQGramIndex.from_tree(edited, config, hasher)


@COMMON_SETTINGS
@given(edited_trees(), gram_configs())
def test_replay_with_compaction_is_bit_identical(scenario, config):
    """Satellite: ``update_index(..., compact=True)`` on the replay
    engine yields the same index as the uncompacted log."""
    tree, edited, log = scenario
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    plain = update_index(old_index, edited, log, hasher, engine="replay")
    compacted = update_index(
        old_index, edited, log, hasher, engine="replay", compact=True
    )
    assert plain == compacted


@COMMON_SETTINGS
@given(edited_trees(), gram_configs())
def test_batch_delta_bags_match_replay_delta_bags(scenario, config):
    """The Δ-key-only contract: both engines report the same net
    (minus, plus) pair, so inverted-list mirrors stay in sync."""
    tree, edited, log = scenario
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    _, replay_minus, replay_plus = update_index_replay_delta(
        old_index, edited, log, hasher
    )
    _, batch_minus, batch_plus = update_index_batch_delta(
        old_index, edited, log, hasher
    )
    assert batch_minus == replay_minus
    assert batch_plus == replay_plus
    assert not set(batch_minus) & set(batch_plus)


@COMMON_SETTINGS
@given(edited_trees())
def test_batch_restores_the_tree(scenario):
    tree, edited, log = scenario
    hasher = LabelHasher()
    config = GramConfig(2, 3)
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    before = edited.copy()
    update_index_batch(old_index, edited, log, hasher)
    assert edited == before


# ----------------------------------------------------------------------
# random forests + random scripts (acceptance criterion wording)
# ----------------------------------------------------------------------


def test_forest_update_tree_batch_on_random_forests():
    """Random forests, random scripts: the batch-maintained forest is
    indistinguishable — per-tree indexes, sizes, and inverted lists —
    from a forest built from scratch over the edited trees."""
    for trial in range(25):
        rng = random.Random(trial)
        config = GramConfig(rng.choice((2, 3)), rng.choice((2, 3)))
        forest = ForestIndex(config)
        collection = {}
        for tree_id in range(rng.randint(2, 6)):
            tree = build_random_tree(rng.randint(1, 30), 100 * trial + tree_id)
            collection[tree_id] = tree
            forest.add_tree(tree_id, tree)
        for tree_id in sorted(collection):
            if rng.random() < 0.7:
                generator = EditScriptGenerator(rng=random.Random(trial + tree_id))
                script = generator.generate(collection[tree_id], rng.randint(1, 10))
                edited, log = apply_script(collection[tree_id], script)
                collection[tree_id] = edited
                # The forest's result must equal the core engine's,
                # also when the engine runs on a cold hasher.
                standalone = update_index_batch(
                    forest.index_of(tree_id), edited, log, LabelHasher()
                )
                forest.update_tree(tree_id, edited, log)
                assert forest.index_of(tree_id) == standalone
        reference = ForestIndex(config)
        for tree_id, tree in collection.items():
            reference.add_tree(tree_id, tree)
        for tree_id in collection:
            assert forest.index_of(tree_id) == reference.index_of(tree_id)
            assert forest.size_of(tree_id) == reference.size_of(tree_id)
        assert forest.inverted_lists() == reference.inverted_lists()


# ----------------------------------------------------------------------
# commuting-op partitioning
# ----------------------------------------------------------------------


def _wide_tree() -> Tree:
    # root with several independent record subtrees
    tree = Tree("root", 0)
    for record in range(4):
        top = tree.add_child(0, f"r{record}")
        child = tree.add_child(top, "field")
        tree.add_child(child, "text")
    return tree


def test_disjoint_renames_form_one_group():
    tree = _wide_tree()
    leaves = [n for n in tree.node_ids() if tree.is_leaf(n)]
    backward = [Rename(n, "renamed") for n in leaves]
    groups = partition_commuting(tree, backward, p=2)
    assert len(groups) == 1
    assert groups[0] == backward


def test_overlapping_regions_split_groups():
    tree = _wide_tree()
    record = tree.children(0)[0]
    field = tree.children(record)[0]
    backward = [Rename(record, "a"), Rename(field, "b")]  # ancestor/descendant
    groups = partition_commuting(tree, backward, p=3)
    assert len(groups) == 2


def test_same_parent_operations_conflict():
    tree = _wide_tree()
    first, second = tree.children(0)[0], tree.children(0)[1]
    backward = [Delete(first), Rename(second, "x")]
    # Both regions contain the shared parent (the root), so the delete
    # and the sibling rename may never be evaluated on one version.
    groups = partition_commuting(tree, backward, p=2)
    assert len(groups) == 2


def test_reused_node_id_forces_a_group_boundary():
    tree = _wide_tree()
    record = tree.children(0)[0]
    backward = [Delete(record), Insert(record, "back", 0, 1, 0)]
    groups = partition_commuting(tree, backward, p=2)
    assert len(groups) == 2
    # The engine evaluates the same schedule correctly end to end:
    # walking `backward` on T_n = `tree` recovers T_0 = `old_tree`.
    hasher = LabelHasher()
    config = GramConfig(2, 2)
    old_tree = tree.copy()
    for operation in backward:
        operation.apply(old_tree)
    old_index = PQGramIndex.from_tree(old_tree, config, hasher)
    log = list(reversed(backward))
    new_index = update_index_batch(old_index, tree, log, hasher, compact=False)
    assert new_index == PQGramIndex.from_tree(tree, config, hasher)


def test_unknown_node_region_is_none():
    tree = _wide_tree()
    assert operation_region(tree, Rename(999, "x"), p=2) is None
    assert operation_region(tree, Insert(0, "dup", 1, 1, 0), p=2) is None
    assert operation_region(tree, Insert(999, "x", 1, 9, 12), p=2) is None


def test_moves_are_supported_and_exact():
    tree = _wide_tree()
    first, last = tree.children(0)[0], tree.children(0)[-1]
    moved = tree.children(first)[0]
    script = [Move(moved, last, 1), Rename(moved, "relocated")]
    edited, log = apply_script(tree, script)
    config = GramConfig(3, 3)
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    batch = update_index_batch(old_index, edited, log, hasher)
    assert batch == PQGramIndex.from_tree(edited, config, hasher)


# ----------------------------------------------------------------------
# engine dispatch, timings, failure behaviour
# ----------------------------------------------------------------------


def test_update_index_dispatches_batch_engine():
    tree = _wide_tree()
    script = [Rename(tree.children(0)[0], "renamed")]
    edited, log = apply_script(tree, script)
    config = GramConfig(2, 3)
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    via_dispatch = update_index(old_index, edited, log, hasher, engine="batch")
    assert via_dispatch == PQGramIndex.from_tree(edited, config, hasher)
    with pytest.raises(ValueError):
        update_index(old_index, edited, log, hasher, engine="nope")
    with pytest.raises(ValueError):
        update_index(
            old_index, edited, log, hasher, engine="tablewise", compact=True
        )


def test_forest_rejects_unknown_engine():
    forest = ForestIndex(GramConfig(2, 2))
    tree = _wide_tree()
    forest.add_tree(1, tree)
    # The forest runs the batch engine only; the keyword survives as a
    # literal, so the reference algorithms are refused by name.
    forest.update_tree(1, tree, [], engine="batch")
    for engine in ("tablewise", "replay"):
        with pytest.raises(ValueError):
            forest.update_tree(1, tree, [], engine=engine)


def test_timings_reflect_compaction_and_grouping():
    tree = _wide_tree()
    target = tree.children(tree.children(0)[0])[0]
    # A rename chain that a compacted log collapses to one operation.
    script = [Rename(target, "a"), Rename(target, "b"), Rename(target, "c")]
    edited, log = apply_script(tree, script)
    config = GramConfig(2, 2)
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    _, _, _, timings = update_index_batch_timed(old_index, edited, log, hasher)
    assert timings.log_size == 3
    assert timings.compacted_size == 1
    assert timings.group_count == 1
    assert timings.total >= 0.0


def test_invalid_log_raises_and_restores():
    tree = _wide_tree()
    config = GramConfig(2, 2)
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    before = tree.copy()
    bogus = [Rename(12345, "ghost")]
    with pytest.raises(InvalidLogError):
        update_index_batch(old_index, tree, bogus, hasher, compact=False)
    assert tree == before
