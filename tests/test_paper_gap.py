"""The Theorem 1 gap found during this reproduction.

Theorem 1 states Δ⁺ = ⋃ δ(T_n, ē_k).  Its proof rests on Lemma 3,
whose insert case uses the node-membership characterization of
Lemma 1 Eq. 7 — which does not cover *leaf* insertions (adopted child
set C = ∅), where the affected window pq-grams are determined by a
child *position*, not by node membership.  When a later operation
shifts that position, δ(T_n, ē_k) targets a different window region
than δ(T_k, ē_k) did, and the union over-approximates Δ⁺.

Minimal counterexample (four nodes, two forward deletes):

    T_0 = v(b, a, x)  --DEL(a)-->  T_1 = v(b, x)  --DEL(b)-->  T_2 = v(x)

    log: ē_1 = INS(a, v, 2, 1),  ē_2 = INS(b, v, 1, 0)

With 1,3-grams the window pq-gram (v; x,•,•) of T_2 is *invariant*
(present in all three profiles, so not in Δ⁺) yet lies in
δ(T_2, ē_1): re-inserting a at position 2 of T_2 lands *after* x,
whereas in T_1 position 2 was *before* x.

These tests pin the counterexample down definitionally and document
the behaviour of both engines on it.
"""

from repro.core import (
    GramConfig,
    PQGramIndex,
    compute_profile,
    is_address_stable,
    update_index,
)
from repro.edits import Delete, Insert, apply_script
from repro.hashing import LabelHasher
from repro.tree import Tree


def scenario():
    t0 = Tree("v", 0)
    t0.add_child(0, "b", 1)
    t0.add_child(0, "a", 2)
    t0.add_child(0, "x", 3)
    script = [Delete(2), Delete(1)]
    t2, log = apply_script(t0, script)
    return t0, t2, log


def definitional_delta(tree, operation, config):
    """δ(T, ē) = P_T \\ P_{ē(T)} per Definition 4."""
    after = compute_profile(tree, config).grams
    previous = tree.copy()
    operation.apply(previous)
    before = compute_profile(previous, config).grams
    return after - before


class TestTheorem1Counterexample:
    def test_log_shape(self):
        _, _, log = scenario()
        assert log == [Insert(2, "a", 0, 2, 1), Insert(1, "b", 0, 1, 0)]

    def test_union_of_deltas_overapproximates(self):
        """⋃ δ(T_2, ē_k) ⊋ Δ⁺ = P_2 \\ C."""
        t0, t2, log = scenario()
        config = GramConfig(1, 3)
        profiles = [compute_profile(t0, config).grams]
        working = t0.copy()
        Delete(2).apply(working)
        profiles.append(compute_profile(working, config).grams)
        profiles.append(compute_profile(t2, config).grams)
        invariant = profiles[0] & profiles[1] & profiles[2]
        true_delta_plus = profiles[2] - invariant

        union = set()
        for inverse_op in log:
            union |= definitional_delta(t2, inverse_op, config)

        assert true_delta_plus < union  # strict: the union has extras
        extras = union - true_delta_plus
        assert all(gram in invariant for gram in extras)

    def test_log_is_flagged_unstable(self):
        _, t2, log = scenario()
        assert not is_address_stable(t2, log)

    def test_replay_engine_still_exact(self):
        t0, t2, log = scenario()
        config = GramConfig(1, 3)
        hasher = LabelHasher()
        old_index = PQGramIndex.from_tree(t0, config, hasher)
        new_index = update_index(old_index, t2, log, hasher)
        assert new_index == PQGramIndex.from_tree(t2, config, hasher)

    def test_drifted_position_changes_relative_neighbourhood(self):
        """The core of the gap: ē_1 = INS(a, v, 2, 1) lands after x on
        T_2 but before x on T_1 — same positional address, different
        relative location."""
        _, t2, log = scenario()
        reinsert_a = log[0]
        on_t2 = t2.copy()
        reinsert_a.apply(on_t2)
        labels_t2 = [on_t2.label(c) for c in on_t2.children(0)]
        assert labels_t2 == ["x", "a"]  # after x

        t1 = Tree("v", 0)
        t1.add_child(0, "b", 1)
        t1.add_child(0, "x", 3)
        on_t1 = t1.copy()
        reinsert_a.apply(on_t1)
        labels_t1 = [on_t1.label(c) for c in on_t1.children(0)]
        assert labels_t1 == ["b", "a", "x"]  # before x
