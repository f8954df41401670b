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
)
from repro.core import batch
from repro.edits import Delete, Insert, Move, Rename, apply_script
from repro.edits.generator import EditScriptGenerator
from repro.errors import InvalidLogError, StorageError
from repro.hashing import LabelHasher
from repro.lookup import ForestIndex
from repro.service import DocumentStore
from repro.tree.tree import Tree

from tests.conftest import (
    assert_store_is_rebuild,
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
    _, _, timings = batch.net_delta(edited, log, GramConfig(2, 2), LabelHasher())
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
    index = PQGramIndex.from_tree(tree, config, hasher)
    calls = []
    original = batch.delta_label_bag

    def counting(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(batch, "delta_label_bag", counting)
    before = edited.copy()
    minus, plus, timings = batch.net_delta(
        edited, log, config, hasher, compact=compact
    )
    assert edited == before
    index.apply_delta(minus, plus)
    assert index == PQGramIndex.from_tree(edited, config, hasher)
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


# ----------------------------------------------------------------------
# who copies: only the library functions that return a new index
# ----------------------------------------------------------------------


def _refuse_copies(monkeypatch):
    def refuse(self):
        raise AssertionError("the edit path copied an index")

    monkeypatch.setattr(PQGramIndex, "copy", refuse)


def _record_script(tree):
    """Edits in two records of ``_wide_tree``: a rename, an insert and
    a delete."""
    first, second = tree.children(0)[:2]
    field = tree.children(first)[0]
    return [
        Rename(field, "renamed"),
        Insert(100, "new", second, 1, 0),
        Delete(tree.children(tree.children(second)[0])[0]),
    ]


def test_forest_update_tree_copies_no_index(monkeypatch):
    config = GramConfig(2, 3)
    forest = ForestIndex(config)
    forest.add_trees([(1, _wide_tree()), (2, _wide_tree())])
    edited, log = apply_script(_wide_tree(), _record_script(_wide_tree()))
    _refuse_copies(monkeypatch)
    forest.update_tree(1, edited, log)
    monkeypatch.undo()
    assert forest.index_of(1) == PQGramIndex.from_tree(edited, config, LabelHasher())
    assert forest.index_of(2) == PQGramIndex.from_tree(
        _wide_tree(), config, LabelHasher()
    )


@pytest.mark.parametrize("serve_threads", [0, 2])
def test_store_apply_edits_copies_no_index(monkeypatch, tmp_path, serve_threads):
    store = DocumentStore(
        str(tmp_path / "store"), GramConfig(2, 3), serve_threads=serve_threads
    )
    try:
        store.add_documents([(0, _wide_tree()), (1, _wide_tree())])
        _refuse_copies(monkeypatch)
        store.apply_edits(0, _record_script(_wide_tree()))
        store.apply_edits(1, [Rename(_wide_tree().children(0)[3], "r3-renamed")])
        monkeypatch.undo()
        assert_store_is_rebuild(store)
    finally:
        store.close()


@pytest.mark.parametrize("fold", ["update_index", "update_index_batch_delta"])
def test_library_folds_leave_a_forest_view_unchanged(fold):
    """``forest.index_of`` is a view of the relation's own bag: a
    library fold over it returns the new index in a copy."""
    config = GramConfig(2, 3)
    hasher = LabelHasher()
    forest = ForestIndex(config)
    forest.add_tree(1, _wide_tree())
    view = forest.index_of(1)
    before = dict(view.items())
    edited, log = apply_script(_wide_tree(), _record_script(_wide_tree()))
    if fold == "update_index":
        new_index = update_index(view, edited, log, hasher)
    else:
        new_index, _, _ = update_index_batch_delta(view, edited, log, hasher)
    assert new_index == PQGramIndex.from_tree(edited, config, hasher)
    assert dict(forest.index_of(1).items()) == before
    assert forest.size_of(1) == sum(before.values())


def test_update_tree_of_an_unknown_id_walks_nothing():
    forest = ForestIndex(GramConfig(2, 3))
    forest.add_tree(1, _wide_tree())
    edited, log = apply_script(_wide_tree(), _record_script(_wide_tree()))
    before = edited.copy()
    generation = forest.generation
    with pytest.raises(StorageError):
        forest.update_tree(7, edited, log)
    assert edited == before
    assert forest.generation == generation
