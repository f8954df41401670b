"""Unit tests for the concurrency package: lock, snapshots, coalescer,
refreeze worker, and the forest's generation/view plumbing."""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.backend import compact as compact_module
from repro.backend.compact import CompactBackend
from repro.concurrency.coalesce import WriteCoalescer
from repro.concurrency.lock import ForestLock
from repro.concurrency.refreeze import RefreezeWorker
from repro.core.config import GramConfig
from repro.core.index import PQGramIndex
from repro.edits.generator import EditScriptGenerator
from repro.edits.script import apply_script
from repro.lookup.forest import ForestIndex
from repro.perf import HAVE_NUMPY
from repro.service.store import DocumentStore

from tests.conftest import build_random_tree


def dict_only(forest, monkeypatch):
    """Numpy hidden from the backend: nothing ever freezes, reads sweep
    the dicts, and every view is a copy of them."""
    monkeypatch.setattr(compact_module, "HAVE_NUMPY", False)


def as_shipped(forest, monkeypatch):
    """The forest as constructed."""


def overlay_only(forest, monkeypatch):
    """Frozen while empty, with a refreeze threshold no write reaches:
    every tree lives in the overlay, and views share an empty base."""
    forest.backend.REFREEZE_MIN_DIRTY = sys.maxsize
    forest.backend.compact()


# Row id → how the row prepares its empty forest.  The ids name the
# storage backends the forest once had; each row now runs the one class
# in another state.
BACKENDS = [
    ("memory", dict_only),
    ("compact", as_shipped),
    ("sharded", overlay_only),
]


# ----------------------------------------------------------------------
# ForestLock
# ----------------------------------------------------------------------


def test_rwlock_write_reentrant():
    lock = ForestLock()
    with lock.write():
        with lock.write():
            assert lock.held_exclusive()
        assert lock.held_exclusive()
    assert not lock.held_exclusive()


def test_rwlock_release_without_acquire_raises():
    lock = ForestLock()
    with pytest.raises(RuntimeError):
        lock.release_write()
    # Nor may a thread release a hold another thread owns.
    with lock.write():
        failures = []

        def release():
            try:
                lock.release_write()
            except RuntimeError:
                failures.append(True)

        thread = threading.Thread(target=release)
        thread.start()
        thread.join(timeout=5)
        assert failures == [True]
        assert lock.held_exclusive()


def test_rwlock_concurrent_readers_overlap():
    """Readers never take the forest lock: ``read_view()`` lookups
    proceed, and agree with each other, while another thread holds it
    (a writer mid-batch, a refreeze)."""
    forest, _ = _populated_forest()
    view = forest.read_view()  # published before the lock is taken
    query = PQGramIndex.from_tree(
        build_random_tree(15, 99), forest.config, forest.hasher
    )
    expected = forest.distances(query, 0.8, reader=view)
    holding = threading.Event()
    release = threading.Event()

    def hold():
        with forest.lock.write():
            holding.set()
            release.wait(timeout=5)

    holder = threading.Thread(target=hold)
    holder.start()
    assert holding.wait(timeout=5)
    results = []

    def reader():
        for _ in range(5):
            reader_view = forest.read_view()
            results.append(forest.distances(query, 0.8, reader=reader_view))

    readers = [threading.Thread(target=reader) for _ in range(3)]
    for thread in readers:
        thread.start()
    for thread in readers:
        thread.join(timeout=5)
    try:
        assert not any(thread.is_alive() for thread in readers)
        assert results == [expected] * 15
    finally:
        release.set()
        holder.join(timeout=5)


def test_rwlock_writer_excludes_readers():
    """The lock is exclusive: a second thread waits until the holder
    is done, and then gets it."""
    lock = ForestLock()
    order = []
    holder_in = threading.Event()
    release_holder = threading.Event()

    def holder():
        with lock.write():
            holder_in.set()
            release_holder.wait(timeout=5)
            order.append("holder-done")

    def second():
        holder_in.wait(timeout=5)
        with lock.write():
            order.append("second")
            assert lock.held_exclusive()

    holder_thread = threading.Thread(target=holder)
    second_thread = threading.Thread(target=second)
    holder_thread.start()
    holder_in.wait(timeout=5)
    second_thread.start()
    time.sleep(0.05)  # give the second thread a chance to (wrongly) slip in
    assert order == []
    assert not lock.held_exclusive()  # held, but not by this thread
    release_holder.set()
    holder_thread.join(timeout=5)
    second_thread.join(timeout=5)
    assert order == ["holder-done", "second"]


def test_rwlock_metrics_histograms():
    from repro.obsv.metrics import MetricsRegistry

    registry = MetricsRegistry()
    lock = ForestLock()
    lock.bind_metrics(registry)
    with lock.write():
        with lock.write():  # a nested hold is not a second acquire
            pass
    snapshot = registry.snapshot()
    assert snapshot["histograms"]['lock_hold_seconds{mode="write"}']["count"] == 1
    assert snapshot["histograms"]['lock_wait_seconds{mode="write"}']["count"] == 1
    # One lock, one mode: no shared-mode series exists.
    assert not any('mode="read"' in name for name in snapshot["histograms"])


# ----------------------------------------------------------------------
# Snapshot handles
# ----------------------------------------------------------------------


def _populated_forest(prepare=None, trees=8, seed=13):
    forest = ForestIndex(GramConfig(2, 2))
    if prepare is not None:
        prepare(forest)
    built = {}
    for tree_id in range(trees):
        tree = build_random_tree(12 + tree_id, seed + tree_id)
        forest.add_tree(tree_id, tree)
        built[tree_id] = tree
    return forest, built


@pytest.mark.parametrize("name,factory", BACKENDS, ids=[n for n, _ in BACKENDS])
def test_freeze_view_matches_backend(name, factory, monkeypatch):
    forest, built = _populated_forest(lambda forest: factory(forest, monkeypatch))
    forest.compact()
    view = forest.read_view()
    query = PQGramIndex.from_tree(
        build_random_tree(15, 99), forest.config, forest.hasher
    )
    assert view.candidates(query.items()) == forest.backend.candidates(
        query.items()
    )
    assert dict(view.iter_sizes()) == dict(forest.backend.iter_sizes())
    assert len(view) == len(forest.backend)
    for tree_id in built:
        assert tree_id in view
        assert view.tree_size(tree_id) == forest.backend.tree_size(tree_id)


@pytest.mark.parametrize("name,factory", BACKENDS, ids=[n for n, _ in BACKENDS])
def test_freeze_view_pins_generation(name, factory, monkeypatch):
    """A handle keeps answering from its generation after mutations."""
    forest, built = _populated_forest(lambda forest: factory(forest, monkeypatch))
    forest.compact()
    view = forest.read_view()
    query = PQGramIndex.from_tree(
        build_random_tree(15, 99), forest.config, forest.hasher
    )
    before = view.candidates(query.items())
    sizes_before = dict(view.iter_sizes())
    # Mutate heavily: edit every tree, remove one, add one.
    rng = random.Random(7)
    generator = EditScriptGenerator(rng=rng)
    for tree_id, tree in list(built.items()):
        edited, log = apply_script(tree, generator.generate(tree, 6))
        forest.update_tree(tree_id, edited, log)
    forest.remove_tree(0)
    forest.add_tree(100, build_random_tree(20, 123))
    forest.compact()
    assert view.candidates(query.items()) == before
    assert dict(view.iter_sizes()) == sizes_before


@pytest.mark.parametrize("name,factory", BACKENDS, ids=[n for n, _ in BACKENDS])
def test_freeze_view_admit_filter(name, factory, monkeypatch):
    """A view sweeps what the live backend sweeps at freeze time: the
    overlap of every tree sharing a pq-gram with the query, none
    filtered out (the id names the ``admit`` callback ``candidates``
    once took)."""
    forest, built = _populated_forest(lambda forest: factory(forest, monkeypatch))
    forest.compact()
    edited, log = apply_script(
        built[2], EditScriptGenerator(rng=random.Random(5)).generate(built[2], 4)
    )
    forest.update_tree(2, edited, log)  # an overlay over a frozen base
    view = forest.read_view()
    query = PQGramIndex.from_tree(
        build_random_tree(15, 99), forest.config, forest.hasher
    )
    live = forest.backend.candidates(query.items())
    assert view.candidates(query.items()) == live
    keys = {key for key, _ in query.items()}
    assert set(live) == {
        tree_id
        for tree_id in forest.tree_ids()
        if keys & {key for key, _ in forest.index_of(tree_id).items()}
    }


@pytest.mark.skipif(not HAVE_NUMPY, reason="frozen CSR needs numpy")
def test_overlay_snapshot_masks_emptied_dirty_keys():
    """A key whose postings emptied must not fall back to the stale
    frozen entry: the removed tree stays masked in the view, and a
    view taken before the removal keeps answering from its own mask."""
    backend = CompactBackend()
    backend.add_tree_bag(1, {(1, 2): 3})
    backend.add_tree_bag(2, {(9, 9): 1, (1, 2): 1})
    backend.compact()
    before = backend.freeze_view()
    # Remove tree 1: its (1,2) posting stays in the frozen CSR.
    backend.remove_tree(1)
    view = backend.freeze_view()
    query = [((1, 2), 3)]
    assert view.candidates(query) == backend.candidates(query) == {2: 1}
    assert list(view.tau_scan(query, 3, 1.0).matches) == [2]
    assert 1 not in view and view._masked.trees == {1}
    assert before.candidates(query) == {1: 3, 2: 1}


def test_distances_via_read_view_match_live():
    forest, _ = _populated_forest()
    forest.compact()
    query = PQGramIndex.from_tree(
        build_random_tree(14, 55), forest.config, forest.hasher
    )
    view = forest.read_view()
    for tau in (None, 0.4, 0.8, 1.5):
        assert forest.distances(query, tau=tau, reader=view) == forest.distances(
            query, tau=tau
        )


def test_read_view_cached_per_generation():
    forest, built = _populated_forest()
    first = forest.read_view()
    assert forest.read_view() is first  # no writes: same handle
    generation = forest.generation
    tree = build_random_tree(10, 5)
    forest.add_tree(500, tree)
    assert forest.generation == generation + 1
    second = forest.read_view()
    assert second is not first
    assert second.generation > first.generation
    assert 500 in second and 500 not in first


# ----------------------------------------------------------------------
# WriteCoalescer
# ----------------------------------------------------------------------


def test_coalescer_groups_concurrent_submissions():
    groups = []
    release = threading.Event()

    def apply_group(group):
        if not groups:
            release.wait(timeout=5)  # hold the first group open
        groups.append([pending.document_id for pending in group])

    coalescer = WriteCoalescer(apply_group)
    threads = [
        threading.Thread(target=lambda i=i: coalescer.submit(i, []))
        for i in range(6)
    ]
    threads[0].start()
    time.sleep(0.05)  # let the appender pick up the first batch
    for thread in threads[1:]:
        thread.start()
    time.sleep(0.05)  # the rest accumulate behind the held group
    release.set()
    for thread in threads:
        thread.join(timeout=5)
    coalescer.close()
    submitted = sorted(sum(groups, []))
    assert submitted == list(range(6))
    assert len(groups) < 6  # at least some batches shared a group


def test_coalescer_failure_isolation():
    def apply_group(group):
        for pending in group:
            if pending.document_id == 13:
                pending.error = ValueError("bad batch")

    coalescer = WriteCoalescer(apply_group)
    coalescer.submit(1, [])
    with pytest.raises(ValueError):
        coalescer.submit(13, [])
    coalescer.submit(2, [])  # later batches unaffected
    coalescer.close()


def test_coalescer_group_exception_fans_to_all():
    def apply_group(group):
        raise RuntimeError("appender exploded")

    coalescer = WriteCoalescer(apply_group)
    results = []

    def submit(i):
        try:
            coalescer.submit(i, [])
        except RuntimeError as exc:
            results.append(str(exc))

    threads = [threading.Thread(target=submit, args=(i,)) for i in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
    coalescer.close()
    assert results == ["appender exploded"] * 3


def test_coalescer_submit_after_close_raises():
    coalescer = WriteCoalescer(lambda group: None)
    coalescer.close()
    with pytest.raises(RuntimeError):
        coalescer.submit(1, [])


# ----------------------------------------------------------------------
# RefreezeWorker
# ----------------------------------------------------------------------


@pytest.mark.skipif(not HAVE_NUMPY, reason="refreeze needs the CSR path")
def test_refreeze_worker_compacts_stale_backend():
    forest, built = _populated_forest(trees=4)
    forest.compact()
    backend = forest.backend
    # Dirty enough keys to cross the refreeze threshold.
    rng = random.Random(3)
    generator = EditScriptGenerator(rng=rng)
    trees = dict(built)
    while not backend.needs_compaction():
        for tree_id in list(trees):
            tree = trees[tree_id]
            edited, log = apply_script(tree, generator.generate(tree, 8))
            forest.update_tree(tree_id, edited, log)
            trees[tree_id] = edited
    worker = RefreezeWorker(forest)
    worker.notify()
    deadline = time.monotonic() + 5
    while backend.needs_compaction() and time.monotonic() < deadline:
        time.sleep(0.01)
    worker.close()
    assert not backend.needs_compaction()
    backend.check_consistency()


def _edit_past_refreeze_threshold(forest, trees):
    generator = EditScriptGenerator(rng=random.Random(3))
    while not forest.backend.needs_compaction():
        for tree_id in list(trees):
            tree = trees[tree_id]
            edited, log = apply_script(tree, generator.generate(tree, 8))
            forest.update_tree(tree_id, edited, log)
            trees[tree_id] = edited


@pytest.mark.skipif(not HAVE_NUMPY, reason="refreeze needs the CSR path")
def test_refreeze_republishes_the_read_view():
    """The published view must not outlive a refreeze: with no write
    in between, the next read shares the new CSR and carries an empty
    overlay — under the same generation stamp."""
    forest, built = _populated_forest(trees=4)
    forest.read_view()  # the first read freezes the CSR
    stale_csr = forest.backend._frozen
    assert stale_csr is not None
    _edit_past_refreeze_threshold(forest, dict(built))
    before = forest.read_view()
    assert before._frozen is stale_csr and before._overlay and before._masked.trees
    generation = forest.generation
    worker = RefreezeWorker(forest)
    worker.notify()
    deadline = time.monotonic() + 5
    while forest._published is before and time.monotonic() < deadline:
        time.sleep(0.01)
    worker.close()
    after = forest.read_view()
    assert forest.generation == generation  # no intervening write
    assert after is not before
    assert after.generation == before.generation == generation
    assert after._frozen is forest.backend._frozen is not stale_csr
    assert not after._overlay and not after._masked.trees and not after._masked.counts
    query = PQGramIndex.from_tree(
        build_random_tree(15, 99), forest.config, forest.hasher
    )
    assert after.candidates(query.items()) == before.candidates(query.items())


def test_stale_reader_is_not_queued_behind_a_refreeze():
    """A reader whose view went stale while a background refreeze is
    building is served the published view at once — it must not wait
    for the CSR build on the exclusive lock."""
    forest, _ = _populated_forest(trees=4)
    published = forest.read_view()
    forest.add_tree(500, build_random_tree(10, 5))  # the view is now stale
    building = threading.Event()

    def slow_compact():
        building.set()
        time.sleep(0.3)

    forest.backend.compact = slow_compact
    worker = threading.Thread(target=forest.refreeze)
    worker.start()
    try:
        assert building.wait(timeout=5.0)
        started = time.perf_counter()
        view = forest.read_view()
        waited = time.perf_counter() - started
        assert view is published and view.generation < forest.generation
        assert waited < 0.005
    finally:
        worker.join(timeout=10.0)
    assert not worker.is_alive()
    # The refreeze republished at its end: the next read is current.
    fresh = forest.read_view()
    assert fresh.generation == forest.generation and 500 in fresh


def test_every_mutation_path_wakes_the_generation_listeners():
    forest, built = _populated_forest(trees=2)
    wakeups = []
    listener = lambda: wakeups.append(forest.generation)  # noqa: E731
    forest.add_generation_listener(listener)
    tree = built[0]
    edited, log = apply_script(
        tree, EditScriptGenerator(rng=random.Random(1)).generate(tree, 3)
    )
    for mutate in (
        lambda: forest.add_tree(10, build_random_tree(6, 1)),
        lambda: forest.add_trees(
            [(11, build_random_tree(6, 2)), (12, build_random_tree(6, 3))]
        ),
        lambda: forest.update_tree(0, edited, log),
        lambda: forest.remove_tree(1),
    ):
        seen = len(wakeups)
        mutate()
        assert len(wakeups) > seen and wakeups[-1] == forest.generation
    forest.remove_generation_listener(listener)
    seen = len(wakeups)
    forest.remove_tree(10)
    assert len(wakeups) == seen


# ----------------------------------------------------------------------
# Serving store: who freezes when
# ----------------------------------------------------------------------


def _documents(count, first_id=0):
    return [
        (first_id + offset, build_random_tree(10 + offset % 7, 200 + first_id + offset))
        for offset in range(count)
    ]


@pytest.mark.skipif(not HAVE_NUMPY, reason="frozen CSR needs numpy")
def test_reopened_serving_store_freezes_on_its_first_lookup(tmp_path):
    """A served store that only ever receives lookups must not stay on
    the dict sweep: the first read freezes the CSR, and ``stats()``
    shows it."""
    directory = str(tmp_path / "store")
    documents = _documents(12)
    with DocumentStore(directory, GramConfig(2, 3)) as store:
        store.add_documents(documents)
    with DocumentStore(directory, serve_threads=2) as store:
        assert store.stats()["frozen"] is False  # open builds no CSR
        expected = store.lookup(documents[3][1], 0.6).matches
        stats = store.stats()
        assert stats["frozen"] is True and stats["dirty_keys"] == 0
        assert store.lookup(documents[3][1], 0.6).matches == expected
        assert (documents[3][0], 0.0) in expected


@pytest.mark.skipif(not HAVE_NUMPY, reason="refreeze needs the CSR path")
def test_ingest_into_a_serving_store_wakes_the_refreeze_worker(tmp_path):
    """add_documents / add_document / remove_document bump the
    generation like edits do, so the overlay of a store that is
    ingested into and read, but never edited, is re-frozen too."""
    store = DocumentStore(
        str(tmp_path / "store"), GramConfig(2, 3), serve_threads=2,
    )
    try:
        store.add_documents(_documents(8))
        store.lookup(build_random_tree(9, 1), 0.5)  # the first read freezes
        assert store.stats()["frozen"] is True
        # Exactly the debounce gap: the worker cannot re-freeze before
        # the last document is in, so the overlay must end empty.
        gap = CompactBackend.REFREEZE_MIN_MUTATION_GAP
        store.add_documents(_documents(gap - 2, first_id=100))
        store.add_document(999, build_random_tree(9, 2))
        store.remove_document(0)
        deadline = time.monotonic() + 5
        while store.stats()["dirty_keys"] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert store.stats()["dirty_keys"] == 0
        store._forest.backend.check_consistency()
    finally:
        store.close()


def test_stats_beside_membership_changes(tmp_path):
    """``stats()`` runs without the store mutex (the wire serves it
    while writers add documents): it must count over a snapshot, not
    trip over the dict changing size under its loops."""
    store = DocumentStore(str(tmp_path / "store"), GramConfig(2, 3), serve_threads=2)
    store.add_documents(_documents(300))
    errors = []
    done = threading.Event()

    def poll():
        try:
            while not done.is_set():
                stats = store.stats()
                assert 300 <= stats["documents"] <= 340
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    reader = threading.Thread(target=poll)
    reader.start()
    try:
        for document_id, tree in _documents(40, first_id=1000):
            store.add_document(document_id, tree)
        store.remove_document(1000)
    finally:
        done.set()
        reader.join(timeout=30.0)
        sys.setswitchinterval(interval)
        store.close()
    assert not reader.is_alive()
    assert errors == []
