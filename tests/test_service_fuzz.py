"""Failure injection: the store must survive a crash at any WAL byte.

The property: write several committed batches; truncate the WAL at an
arbitrary byte position (simulating a crash mid-write); recovery must
yield the state after some *prefix* of the batches — never a torn or
mixed state — with the index still equal to a from-scratch rebuild.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GramConfig, PQGramIndex
from repro.datasets import dblp_tree
from repro.errors import CodecError
from repro.service import DocumentStore
from repro.tree import tree_to_brackets

from benchmarks.dblp_workloads import dblp_update_script


def _prepare(store_dir: str, batches: int):
    """A store with `batches` committed WAL batches and the expected
    document state after each prefix."""
    store = DocumentStore(store_dir, GramConfig(2, 2))
    store.add_document(1, dblp_tree(12, seed=7))
    store.checkpoint()  # the WAL holds the batches alone
    document = store.get_document(1)
    prefix_states = [tree_to_brackets(document)]
    for batch_seed in range(batches):
        script = dblp_update_script(document, 5, seed=200 + batch_seed)
        store.apply_edits(1, list(script))
        for operation in script:
            operation.apply(document)
        prefix_states.append(tree_to_brackets(document))
    return store, prefix_states


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4))
def test_truncated_wal_recovers_to_a_prefix(tmp_path_factory, cut, batches):
    store_dir = str(tmp_path_factory.mktemp("store"))
    _, prefix_states = _prepare(store_dir, batches)
    wal_path = os.path.join(store_dir, "wal.log")
    size = os.path.getsize(wal_path)
    cut = min(cut, size)
    with open(wal_path, "rb+") as handle:
        handle.truncate(cut)

    recovered = DocumentStore(store_dir)
    state = tree_to_brackets(recovered.get_document(1))
    assert state in prefix_states, "recovered state is not a batch prefix"
    rebuilt = PQGramIndex.from_tree(
        recovered.get_document(1), recovered.config, recovered._forest.hasher
    )
    assert recovered.get_index(1) == rebuilt


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=500), st.randoms())
def test_garbage_in_wal_tail_is_ignored(tmp_path_factory, junk_length, rng):
    store_dir = str(tmp_path_factory.mktemp("store"))
    _, prefix_states = _prepare(store_dir, 2)
    wal_path = os.path.join(store_dir, "wal.log")
    junk = bytes(rng.randrange(32, 127) for _ in range(junk_length))
    with open(wal_path, "ab") as handle:
        handle.write(junk)
    recovered = DocumentStore(store_dir)
    assert tree_to_brackets(recovered.get_document(1)) in prefix_states


def test_corrupt_snapshot_raises_cleanly(tmp_path):
    store_dir = str(tmp_path / "store")
    DocumentStore(store_dir).add_document(1, dblp_tree(5, seed=1))
    snapshot = os.path.join(store_dir, "store.db")
    with open(snapshot, "rb+") as handle:
        handle.seek(0)
        handle.write(b"JUNKJUNK")
    try:
        DocumentStore(store_dir)
    except CodecError:
        pass  # a clean, typed failure — never silent corruption
    else:  # pragma: no cover
        raise AssertionError("corrupt snapshot must not load silently")
