"""Concurrent stress: N writers + M readers, then bit-identical rebuild.

The serving layer's core promise is that concurrency changes *when*
work happens, never *what* the index ends up being: after any number of
concurrent ``apply_edits`` batches (coalesced, group-committed) the
maintained relation must equal the indexes built from scratch over the
documents a single-threaded application of the same per-document batch
sequences produces — in every state the relation can be in.  The stress
below precomputes a deterministic workload (each writer owns a disjoint document slice, so
every batch is valid by construction), unleashes the threads, and then
compares the surviving relation bag-for-bag against that rebuild.
"""

from __future__ import annotations

import random
import threading
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import compact as compact_module
from repro.core.config import GramConfig
from repro.edits.generator import EditScriptGenerator
from repro.edits.script import apply_script
from repro.service.soak import random_tree
from repro.service.store import DocumentStore

from tests.conftest import build_random_tree, relation
from tests.support.reference.baselines import rebuild_index

# The row ids name the storage backends stores once had; each row runs
# the one that is left in another state.  ``sharded`` is frozen before
# the collection is added (``FROZEN_ROWS``), so the readers sweep a
# frozen base with every document in its overlay until the refreeze
# worker folds them in.  ``memory`` hides numpy from the backend
# (``DICT_ROWS``): nothing freezes, and every reader sweeps a copy of
# the dicts.
ROWS = ("memory", "compact", "sharded")
FROZEN_ROWS = {"sharded"}
DICT_ROWS = {"memory"}


def _build_workload(writers, batches_per_writer, docs_per_writer, seed):
    """Deterministic workload: initial documents plus, per writer, an
    ordered list of (document_id, operations) batches — valid by
    construction because each script is generated against the state its
    document reached after the batches before it."""
    documents = {}
    for writer in range(writers):
        for slot in range(docs_per_writer):
            document_id = writer * docs_per_writer + slot
            documents[document_id] = build_random_tree(
                20, seed * 97 + document_id
            )
    evolving = {
        document_id: tree.copy() for document_id, tree in documents.items()
    }
    per_writer = {}
    for writer in range(writers):
        rng = random.Random(seed * 31 + writer)
        generator = EditScriptGenerator(rng=rng)
        batches = []
        for batch in range(batches_per_writer):
            document_id = writer * docs_per_writer + (batch % docs_per_writer)
            tree = evolving[document_id]
            script = generator.generate(tree, rng.randint(1, 5))
            edited, _ = apply_script(tree, script)
            evolving[document_id] = edited
            batches.append((document_id, list(script)))
        per_writer[writer] = batches
    return documents, per_writer


def _run_concurrent(tmp_path, row, *args, **kwargs):
    """:func:`_run_store`, with numpy hidden from the backend in a
    ``DICT_ROWS`` row."""
    have_numpy = compact_module.HAVE_NUMPY and row not in DICT_ROWS
    with mock.patch.object(compact_module, "HAVE_NUMPY", have_numpy):
        return _run_store(tmp_path, row, *args, **kwargs)


def _run_store(tmp_path, row, documents, per_writer, readers, **kwargs):
    """Apply the workload with one thread per writer (plus reader
    threads doing lookups throughout) to the store of ``row``; returns
    the store's final relation snapshot and the store itself (closed)."""
    store = DocumentStore(
        str(tmp_path / f"concurrent-{row}"),
        GramConfig(2, 3),
        serve_threads=len(per_writer),
        **kwargs,
    )
    if row in FROZEN_ROWS:
        store._forest.compact()
    store.add_documents(sorted(documents.items()))
    errors = []
    done = threading.Event()

    def write_loop(writer):
        try:
            for document_id, operations in per_writer[writer]:
                store.apply_edits(document_id, operations)
        except Exception as exc:  # noqa: BLE001 - the assertion below reports it
            errors.append(f"writer {writer}: {exc!r}")

    def read_loop(reader):
        rng = random.Random(9000 + reader)
        try:
            while not done.is_set():
                result = store.lookup(random_tree(rng, 12), 0.8)
                for _, distance in result.matches:
                    assert 0.0 <= distance <= 1.0
                # Pace the readers: a free-running CPU-bound spin loop per
                # reader thread convoys the GIL and starves the writers
                # (real readers wait on I/O between requests anyway).
                time.sleep(0.002)
        except Exception as exc:  # noqa: BLE001 - the assertion below reports it
            errors.append(f"reader {reader}: {exc!r}")

    threads = [
        threading.Thread(target=write_loop, args=(writer,))
        for writer in per_writer
    ]
    reader_threads = [
        threading.Thread(target=read_loop, args=(reader,))
        for reader in range(readers)
    ]
    for thread in reader_threads:
        thread.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    done.set()
    for thread in reader_threads:
        thread.join(timeout=120)
    assert errors == []
    store.flush()
    final = relation(store._forest.backend)
    trees = {
        document_id: store.get_document(document_id)
        for document_id in store.document_ids()
    }
    store._forest.backend.check_consistency()
    store.close()
    return final, trees, store


def _serial_rebuild(documents, per_writer):
    """The oracle, with no store in it: the same batches applied to
    plain trees on one thread, and every final document indexed from
    scratch."""
    trees = {document_id: tree.copy() for document_id, tree in documents.items()}
    for writer in sorted(per_writer):
        for document_id, operations in per_writer[writer]:
            trees[document_id], _ = apply_script(trees[document_id], operations)
    rebuilt = {
        document_id: dict(rebuild_index(tree, GramConfig(2, 3)).items())
        for document_id, tree in trees.items()
    }
    return rebuilt, trees


@pytest.mark.parametrize("backend", ROWS)
def test_stress_bit_identical_to_serial_replay(backend, tmp_path):
    """8 writers x 8 readers, >= 200 batches, every row."""
    writers, batches_per_writer = 8, 26  # 208 batches total
    documents, per_writer = _build_workload(
        writers, batches_per_writer, docs_per_writer=3, seed=42
    )
    concurrent, concurrent_trees, _ = _run_concurrent(
        tmp_path, backend, documents, per_writer, readers=8
    )
    serial, serial_trees = _serial_rebuild(documents, per_writer)
    assert concurrent == serial
    assert concurrent_trees == serial_trees


def test_stress_metric_invariants(tmp_path):
    """The observability ledgers stay exact under concurrency: every
    batch reaches the WAL exactly once (group commit changes fsyncs,
    not appends), and the pruning ledger still balances."""
    writers, batches_per_writer = 4, 10
    documents, per_writer = _build_workload(
        writers, batches_per_writer, docs_per_writer=2, seed=7
    )
    _, _, store = _run_concurrent(
        tmp_path, "compact", documents, per_writer, readers=4, metrics=True
    )
    counters = store.metrics()["counters"]
    batches = writers * batches_per_writer
    assert counters["wal_appends_total"] == batches
    assert counters["store_edit_batches_total"] == batches
    groups = counters["write_groups_total"]
    assert 0 < groups <= batches
    assert counters["coalesced_writes_total"] == batches - groups
    assert (
        counters["lookup_candidates_total"]
        == counters["lookup_candidates_pruned_total"]
        + counters["lookup_candidates_scored_total"]
    )


def test_stress_reopen_after_concurrent_run(tmp_path):
    """A store closed after concurrent traffic reopens bit-identical."""
    documents, per_writer = _build_workload(3, 8, docs_per_writer=2, seed=3)
    directory = tmp_path / "reopen"
    store = DocumentStore(str(directory), GramConfig(2, 3), serve_threads=3)
    store.add_documents(sorted(documents.items()))
    threads = [
        threading.Thread(
            target=lambda w=writer: [
                store.apply_edits(document_id, operations)
                for document_id, operations in per_writer[w]
            ]
        )
        for writer in per_writer
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    store.flush()
    final = relation(store._forest.backend)
    store.close()
    reopened = DocumentStore(str(directory), GramConfig(2, 3))
    assert relation(reopened._forest.backend) == final
    reopened._forest.backend.check_consistency()


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    writers=st.integers(min_value=2, max_value=3),
    batches_per_writer=st.integers(min_value=2, max_value=6),
    backend=st.sampled_from(ROWS),
)
def test_stress_property_bit_identical(
    seed, writers, batches_per_writer, backend, tmp_path_factory
):
    tmp_path = tmp_path_factory.mktemp("stress-prop")
    documents, per_writer = _build_workload(
        writers, batches_per_writer, docs_per_writer=2, seed=seed
    )
    concurrent, _, _ = _run_concurrent(
        tmp_path, backend, documents, per_writer, readers=2
    )
    serial, _ = _serial_rebuild(documents, per_writer)
    assert concurrent == serial
