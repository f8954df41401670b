"""Property-based maintenance correctness — the strongest oracle.

Invariant 1 of DESIGN.md: for any tree and any applicable edit script,
the incrementally updated index equals the index rebuilt from scratch
on the edited tree.  The maintenance engine must satisfy this for
*every* log; the tablewise algorithm for every *address-stable* log.
"""

from hypothesis import HealthCheck, given, settings

from repro.core import (
    GramConfig,
    PQGramIndex,
    update_index,
)
from repro.errors import IndexConsistencyError, InvalidLogError
from repro.hashing import LabelHasher

from tests.conftest import edited_trees, gram_configs
from tests.support.reference import is_address_stable, update_index_tablewise

COMMON_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@COMMON_SETTINGS
@given(edited_trees(), gram_configs())
def test_replay_engine_exact_on_every_log(scenario, config):
    tree, edited, log = scenario
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    new_index = update_index(old_index, edited, log, hasher)
    assert new_index == PQGramIndex.from_tree(edited, config, hasher)


@COMMON_SETTINGS
@given(edited_trees(), gram_configs())
def test_tablewise_engine_exact_on_stable_logs(scenario, config):
    tree, edited, log = scenario
    if not is_address_stable(edited, log):
        return  # covered by the next property
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    new_index = update_index_tablewise(old_index, edited, log, hasher)
    assert new_index == PQGramIndex.from_tree(edited, config, hasher)


@COMMON_SETTINGS
@given(edited_trees(), gram_configs())
def test_tablewise_engine_never_corrupts_silently_or_raises_cleanly(scenario, config):
    """On unstable logs the tablewise engine may raise (fail-safe);
    when it completes it almost always agrees with the rebuild.  This
    property documents the contract: completion-with-mismatch is the
    known Theorem 1 gap and must coincide with an unstable log."""
    tree, edited, log = scenario
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    try:
        new_index = update_index_tablewise(old_index, edited, log, hasher)
    except (InvalidLogError, IndexConsistencyError):
        assert not is_address_stable(edited, log)
        return
    if new_index != PQGramIndex.from_tree(edited, config, hasher):
        assert not is_address_stable(edited, log)


@COMMON_SETTINGS
@given(edited_trees(max_size=15, max_ops=8), gram_configs(max_p=3, max_q=3))
def test_engines_agree_on_stable_logs(scenario, config):
    tree, edited, log = scenario
    if not is_address_stable(edited, log):
        return
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    replay = update_index(old_index, edited, log, hasher)
    tablewise = update_index_tablewise(old_index, edited, log, hasher)
    assert replay == tablewise


@COMMON_SETTINGS
@given(edited_trees(max_size=15, max_ops=6), gram_configs(max_p=3, max_q=3))
def test_update_is_incremental_not_rebuild(scenario, config):
    """The update must not depend on the whole tree: the old index
    object is not mutated, and a second application of the same delta
    to a fresh copy gives the same result (referential transparency)."""
    tree, edited, log = scenario
    hasher = LabelHasher()
    old_index = PQGramIndex.from_tree(tree, config, hasher)
    snapshot = old_index.copy()
    first = update_index(old_index, edited, log, hasher)
    assert old_index == snapshot  # input untouched
    second = update_index(old_index, edited, log, hasher)
    assert first == second
