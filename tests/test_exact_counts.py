"""Exact counts, worked out by hand on trees small enough to list.

The scale ladder and the metrics read these counts as "how much work
did this batch do"; a test that only asks ``> 0`` lets an off-by-one
through.  Every expected number below is derived in the comment above
it, not read back from the code.

1,1-grams keep the arithmetic short: a pq-gram is an anchor and one
child window of width 1 (a leaf anchors one gram, ``(leaf, *)``).  The
tree ``a(b, c)`` therefore has four: ``(a,b) (a,c) (b,*) (c,*)``.

- Renaming a node changes the grams that hold its label: its window
  under the parent and its own leaf gram — 2 before the rename (δ on
  the old version) and 2 after (δ on the new).
- Inserting a leaf ``d`` under ``a`` changes no gram of the version
  without it (no width-1 window spans two siblings, and ``a`` already
  has children), while deleting it removes ``(a,d)`` and ``(d,*)``:
  the engine, walking back, sees 2 grams before the inverse and 0
  after.
"""

import pytest

from repro.core import GramConfig, net_delta
from repro.edits import Insert, Rename, apply_script
from repro.hashing import LabelHasher
from repro.lookup import ForestIndex
from repro.perf import HAVE_NUMPY
from repro.tree import Tree

CONFIG = GramConfig(1, 1)


def _a_b_c():
    tree = Tree("a", 0)
    b = tree.add_child(0, "b")
    c = tree.add_child(0, "c")
    return tree, b, c


# ----------------------------------------------------------------------
# the engine's BatchTimings counts
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "compact, compacted, plus, minus",
    [
        # The rename chain b→x→y collapses to one rename; the insert
        # stays.  Walked: one rename (2 before, 2 after) and the
        # insert's inverse (2 before, 0 after).
        (True, 2, 2 + 2, 2 + 0),
        # Uncompacted: both renames (2 / 2 each) and the insert.
        (False, 3, 2 + 2 + 2, 2 + 2 + 0),
    ],
    ids=["compacted", "verbatim"],
)
def test_counts_of_a_log_that_compaction_shortens(compact, compacted, plus, minus):
    tree, b, _ = _a_b_c()
    script = [Rename(b, "x"), Rename(b, "y"), Insert(9, "d", 0, 3, 2)]
    edited, log = apply_script(tree, script)
    net_minus, net_plus, timings = net_delta(
        edited, log, CONFIG, LabelHasher(), compact=compact
    )
    assert timings.log_size == 3
    assert timings.compacted_size == compacted
    assert timings.gram_count_plus == plus
    assert timings.gram_count_minus == minus
    # Net: (a,b) (b,*) leave; (a,y) (y,*) (a,d) (d,*) arrive.
    assert sum(net_minus.values()) == 2
    assert sum(net_plus.values()) == 4


@pytest.mark.parametrize("compact", [True, False])
def test_counts_of_a_log_that_compaction_leaves_alone(compact):
    tree, b, c = _a_b_c()
    # Two renames of different nodes: nothing cancels, 2 / 2 each.
    edited, log = apply_script(tree, [Rename(b, "x"), Rename(c, "y")])
    net_minus, net_plus, timings = net_delta(
        edited, log, CONFIG, LabelHasher(), compact=compact
    )
    assert timings.log_size == 2
    assert timings.compacted_size == 2
    assert timings.gram_count_plus == 4
    assert timings.gram_count_minus == 4
    # a(x, y) shares no gram with a(b, c): all four leave, four arrive.
    assert sum(net_minus.values()) == 4
    assert sum(net_plus.values()) == 4


# ----------------------------------------------------------------------
# the overlay's keys-met tally (perf.sweep.sweep_dict)
# ----------------------------------------------------------------------


@pytest.mark.skipif(not HAVE_NUMPY, reason="the overlay needs the frozen CSR")
def test_overlay_tallies_count_the_query_keys_that_met_it():
    """A frozen forest of ``a(b, c)`` (tree 1) and ``p(q, r)`` (tree 2);
    tree 1 is then renamed to ``a(x, c)``, so the overlay holds tree
    1's current grams ``(a,x) (x,*) (a,c) (c,*)`` and, emptied, the
    keys the rename removed."""
    forest = ForestIndex(CONFIG, metrics=True)
    tree, b, _ = _a_b_c()
    other = Tree("p", 0)
    other.add_child(0, "q")
    other.add_child(0, "r")
    forest.add_trees([(1, tree), (2, other)])
    forest.compact()
    old_keys = {key for key, _ in forest.index_of(1).items()}
    edited, log = apply_script(tree, [Rename(b, "x")])
    forest.update_tree(1, edited, log)
    new_keys = {key for key, _ in forest.index_of(1).items()}
    added = min(new_keys - old_keys)
    kept = min(old_keys & new_keys)
    removed = min(old_keys - new_keys)
    elsewhere = min(key for key, _ in forest.index_of(2).items())
    nowhere = (0, 0)
    # k = 2 keys meet the overlay: one the edit added and one it kept.
    # The removed key's overlay postings are empty, and the other two
    # keys are not in tree 1 at all.
    items = [(key, 1) for key in (added, kept, removed, elsewhere, nowhere)]
    registry = forest.metrics

    def tallies():
        return (
            registry.counter_value("compact_overlay_keys_swept_total"),
            registry.counter_value("compact_overlay_merges_total"),
            registry.counter_value("index_postings_touched_total"),
        )

    assert tallies() == (0, 0, 0)
    # Tree 1 shares `added` and `kept`; tree 2 shares `elsewhere`.
    assert forest.backend.candidates(items) == {1: 2, 2: 1}
    # Postings read: tree 1 under `added` and `kept`, tree 2 under
    # `elsewhere` — what a sweep of the live dicts reads.
    assert tallies() == (2, 1, 3)
    scan = forest.backend.tau_scan(items, len(items), 1.0)
    assert scan.overlay_keys == 2
    assert tallies()[:2] == (4, 2)


# ----------------------------------------------------------------------
# the candidate sweep's tallies, before and after the first freeze
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "freeze, numpy, frozen_keys, overlay_keys, merges, dirty",
    [
        # Nothing frozen: the overlay holds every posting and is the
        # whole sweep, so no key is swept through a base and none
        # "meets the overlay"; the rename's dead keys are dropped.
        (False, True, 0, 0, 0, 0),
        # Frozen, then tree 2 written: the base answers for tree 1 and
        # tree 3, the overlay for tree 2.  All 4 query keys meet tree 2
        # there; the overlay holds tree 2's 4 current keys plus, empty,
        # the 2 the rename removed (6 dirty keys).
        (True, True, 4, 4, 1, 6),
        # Without numpy compact() freezes nothing: as the first row.
        (True, False, 0, 0, 0, 0),
    ],
    ids=["before-freeze", "frozen-overlay", "no-numpy"],
)
def test_sweep_tallies_of_a_three_tree_forest(
    freeze, numpy, frozen_keys, overlay_keys, merges, dirty, monkeypatch
):
    """Tree 1 ``a(b, c)``, tree 2 ``a(b, d)`` renamed to ``a(b, c)``,
    tree 3 ``p(q, r)``; the query is tree 1's bag
    ``(a,b) (a,c) (b,*) (c,*)``.

    After the rename trees 1 and 2 both hold all 4 query keys and tree
    3 none: every sweep reads 2 postings per key, 8 in all, and emits
    trees 1 and 2, each sharing 4 grams.  The frozen row reads 6 in the
    base (tree 2's stale ``(a,b) (b,*)`` among them), subtracts those 2
    masked ones and adds tree 2's 4 in the overlay: 8 again.
    """
    import repro.backend.compact as compact_module

    if numpy and not HAVE_NUMPY:
        pytest.skip("the frozen base needs numpy")
    monkeypatch.setattr(compact_module, "HAVE_NUMPY", numpy and HAVE_NUMPY)
    forest = ForestIndex(CONFIG, metrics=True)
    tree, _, _ = _a_b_c()
    twin = Tree("a", 0)
    twin.add_child(0, "b")
    d = twin.add_child(0, "d")
    other = Tree("p", 0)
    other.add_child(0, "q")
    other.add_child(0, "r")
    forest.add_trees([(1, tree), (2, twin), (3, other)])
    if freeze:
        forest.compact()
    edited, log = apply_script(twin, [Rename(d, "c")])
    forest.update_tree(2, edited, log)
    registry = forest.metrics
    names = (
        "index_keys_swept_total",
        "index_postings_touched_total",
        "index_candidates_emitted_total",
        "compact_frozen_keys_swept_total",
        "compact_overlay_keys_swept_total",
        "compact_overlay_merges_total",
    )
    assert [registry.counter_value(name) for name in names] == [0] * 6

    assert forest.backend.candidates(list(forest.index_of(1).items())) == {1: 4, 2: 4}
    assert [registry.counter_value(name) for name in names] == [
        4,
        8,
        2,
        frozen_keys,
        overlay_keys,
        merges,
    ]
    forest.sync_metric_gauges()
    assert registry.snapshot()["gauges"]["compact_dirty_keys"] == dirty
    # 12 postings over 8 distinct keys: trees 1 and 2 share all 4 of
    # theirs, tree 3 has 4 of its own.
    stats = forest.backend_stats()
    assert (stats["postings"], stats["distinct_keys"]) == (12, 8)
    if forest.backend._frozen is None:
        assert len(forest.backend._overlay) == 8
