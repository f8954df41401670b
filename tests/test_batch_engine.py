"""The maintenance engine: one call per log, exact on every valid log.

The engine's contract (``src/repro/core/batch.py``): for every valid
log, one call produces exactly the index that one call per
single-operation log produces — which itself equals the from-scratch
rebuild — with or without log compaction.
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
)
from repro.core import batch
from repro.edits import Delete, Insert, Move, Rename, apply_script
from repro.edits.generator import EditScriptGenerator
from repro.errors import InvalidLogError
from repro.hashing import LabelHasher
from repro.lookup import ForestIndex
from repro.tree.tree import Tree

from tests.conftest import (
    build_random_tree,
    edited_trees,
    gram_configs,
    per_operation_update,
)

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
    per_operation, _, _ = per_operation_update(old_index, edited, log, hasher)
    one_call = update_index_batch(old_index, edited, log, hasher)
    assert one_call == per_operation
    assert one_call == PQGramIndex.from_tree(edited, config, hasher)


@COMMON_SETTINGS
@given(edited_trees(), gram_configs())
def test_batch_without_compaction_still_exact(scenario, config):
    tree, edited, log = scenario
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    batch, _, _ = update_index_batch_delta(
        old_index, edited, log, hasher, compact=False
    )
    assert batch == PQGramIndex.from_tree(edited, config, hasher)


@COMMON_SETTINGS
@given(edited_trees(), gram_configs())
def test_replay_with_compaction_is_bit_identical(scenario, config):
    """The compacted log yields the same index and the same net Δ bags
    as the log verbatim."""
    tree, edited, log = scenario
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    plain = update_index_batch_delta(old_index, edited, log, hasher, compact=False)
    compacted = update_index_batch_delta(
        old_index, edited, log, hasher, compact=True
    )
    assert plain == compacted


@COMMON_SETTINGS
@given(edited_trees(), gram_configs())
def test_batch_delta_bags_match_replay_delta_bags(scenario, config):
    """The Δ-key-only contract: one call's net (minus, plus) pair is
    the net of the per-operation calls' pairs, so inverted-list mirrors
    stay in sync however the edits were batched."""
    tree, edited, log = scenario
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    _, step_minus, step_plus = per_operation_update(
        old_index, edited, log, hasher
    )
    _, batch_minus, batch_plus = update_index_batch_delta(
        old_index, edited, log, hasher
    )
    assert batch_minus == step_minus
    assert batch_plus == step_plus
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
# schedules the engine must walk exactly
# ----------------------------------------------------------------------


def _wide_tree() -> Tree:
    # root with several independent record subtrees
    tree = Tree("root", 0)
    for record in range(4):
        top = tree.add_child(0, f"r{record}")
        child = tree.add_child(top, "field")
        tree.add_child(child, "text")
    return tree


def test_reused_node_id_forces_a_group_boundary():
    """A backward walk that deletes a node and re-inserts its id: each
    step must see the version the previous one produced."""
    tree = _wide_tree()
    record = tree.children(0)[0]
    backward = [Delete(record), Insert(record, "back", 0, 1, 0)]
    # Walking `backward` on T_n = `tree` recovers T_0 = `old_tree`.
    hasher = LabelHasher()
    config = GramConfig(2, 2)
    old_tree = tree.copy()
    for operation in backward:
        operation.apply(old_tree)
    old_index = PQGramIndex.from_tree(old_tree, config, hasher)
    log = list(reversed(backward))
    new_index, _, _ = update_index_batch_delta(
        old_index, tree, log, hasher, compact=False
    )
    assert new_index == PQGramIndex.from_tree(tree, config, hasher)


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
    # No dispatch left: the public name is the engine itself.
    assert update_index is update_index_batch
    tree = _wide_tree()
    script = [Rename(tree.children(0)[0], "renamed")]
    edited, log = apply_script(tree, script)
    config = GramConfig(2, 3)
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    assert update_index(old_index, edited, log, hasher) == PQGramIndex.from_tree(
        edited, config, hasher
    )


@pytest.mark.parametrize(
    "keyword",
    [{"engine": "replay"}, {"engine": "batch"}, {"compact": True}],
    ids=["engine-replay", "engine-batch", "compact"],
)
def test_update_index_takes_no_engine_options(keyword):
    tree = _wide_tree()
    old_index = PQGramIndex.from_tree(tree, GramConfig(2, 2), LabelHasher())
    with pytest.raises(TypeError):
        update_index(old_index, tree, [], LabelHasher(), **keyword)


def test_replay_engine_is_not_exported():
    import repro
    import repro.core
    import repro.core.maintain

    for module in (repro, repro.core, repro.core.maintain):
        for name in (
            "update_index_replay",
            "update_index_replay_delta",
            "update_index_replay_timed",
            "ReplayTimings",
        ):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert "update_index_replay" not in repro.__all__


def test_forest_rejects_unknown_engine():
    forest = ForestIndex(GramConfig(2, 2))
    tree = _wide_tree()
    forest.add_tree(1, tree)
    # The forest runs the one engine; the keyword survives as a
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
    assert timings.total >= 0.0
    assert set(batch.BatchTimings.PHASES) == {
        "compact", "delta_sweep", "restore", "index_update"
    }


@pytest.mark.parametrize("compact", [True, False])
def test_two_delta_bags_per_compacted_operation(monkeypatch, compact):
    """Clock-free cost: the engine evaluates exactly one δ bag before
    and one after each operation it walks, and restores the tree."""
    tree = _wide_tree()
    record, other = tree.children(0)[0], tree.children(0)[1]
    leaf = tree.children(tree.children(record)[0])[0]
    script = [
        Rename(leaf, "a"),
        Rename(leaf, "b"),            # collapses with the first rename
        Insert(100, "tmp", other, 1, 0),
        Delete(100),                  # annihilates with the insert
        Move(record, other, 1),
        Rename(other, "moved-into"),
    ]
    edited, log = apply_script(tree, script)
    config = GramConfig(2, 3)
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    calls = []
    original = batch.delta_label_bag

    def counting(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(batch, "delta_label_bag", counting)
    before = edited.copy()
    new_index, _, _, timings = update_index_batch_timed(
        old_index, edited, log, hasher, compact=compact
    )
    assert edited == before
    assert new_index == PQGramIndex.from_tree(edited, config, hasher)
    assert timings.log_size == 6
    assert timings.compacted_size == (3 if compact else 6)
    assert len(calls) == 2 * timings.compacted_size


def test_invalid_log_raises_and_restores():
    tree = _wide_tree()
    config = GramConfig(2, 2)
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    before = tree.copy()
    bogus = [Rename(12345, "ghost")]
    with pytest.raises(InvalidLogError):
        update_index_batch_delta(old_index, tree, bogus, hasher, compact=False)
    assert tree == before
