"""Incremental maintenance tests — the paper's headline claim.

The oracle is a from-scratch rebuild of the index on T_n: for any tree
and any applicable edit script, ``update_index(I_0, T_n, log)`` must
equal ``PQGramIndex.from_tree(T_n)``.
"""

import pytest

from repro.core import (
    GramConfig,
    PQGramIndex,
    net_delta,
    update_index,
)
from repro.edits import Delete, Insert, Rename, apply_script
from repro.errors import InvalidLogError
from repro.tree import Tree, tree_from_brackets

from tests.support.reference import (
    is_address_stable,
    update_index_tablewise,
    update_index_timed,
)


#: the production engine and the paper's Algorithm 1, by test-id name
ENGINES = {"replay": update_index, "tablewise": update_index_tablewise}


def rebuild(tree, config, hasher):
    return PQGramIndex.from_tree(tree, config, hasher)


class TestPaperRunningExample:
    """The Fig. 2 scenario: T_0 --INS(g)--> T_1 --DEL(b)--> T_2."""

    def _scenario(self, paper_tree_t0):
        script = [Insert(7, "g", 6, 1, 0), Delete(3)]
        edited, log = apply_script(paper_tree_t0, script)
        return edited, log

    @pytest.mark.parametrize("engine", ["replay", "tablewise"])
    def test_incremental_equals_rebuild(self, paper_tree_t0, engine, hasher):
        config = GramConfig(3, 3)
        edited, log = self._scenario(paper_tree_t0)
        old_index = rebuild(paper_tree_t0, config, hasher)
        new_index = ENGINES[engine](old_index, edited, log, hasher)
        assert new_index == rebuild(edited, config, hasher)

    def test_example5_delta_sizes(self, paper_tree_t0, hasher):
        """Example 5: |Δ₂⁺| = 9 and |Δ₂⁻| = 9 pq-grams."""
        config = GramConfig(3, 3)
        edited, log = self._scenario(paper_tree_t0)
        old_index = rebuild(paper_tree_t0, config, hasher)
        _, timings = update_index_timed(old_index, edited, log, hasher)
        assert timings.gram_count_plus == 9
        assert timings.gram_count_minus == 9

    def test_full_three_step_scenario(self, paper_tree_t0, hasher):
        config = GramConfig(3, 3)
        script = [Insert(7, "g", 6, 1, 0), Delete(3), Rename(5, "x")]
        edited, log = apply_script(paper_tree_t0, script)
        old_index = rebuild(paper_tree_t0, config, hasher)
        for engine in ("replay", "tablewise"):
            assert ENGINES[engine](old_index, edited, log, hasher) == rebuild(
                edited, config, hasher
            )


class TestEdgeCases:
    @pytest.mark.parametrize("engine", ["replay", "tablewise"])
    def test_empty_log_is_identity(self, paper_tree_t0, hasher, engine):
        config = GramConfig(3, 3)
        old_index = rebuild(paper_tree_t0, config, hasher)
        assert ENGINES[engine](old_index, paper_tree_t0, [], hasher) == old_index

    @pytest.mark.parametrize("engine", ["replay", "tablewise"])
    def test_single_rename(self, hasher, engine):
        tree = tree_from_brackets("r(a,b(c))")
        config = GramConfig(2, 2)
        old_index = rebuild(tree, config, hasher)
        edited, log = apply_script(tree, [Rename(2, "z")])
        assert ENGINES[engine](old_index, edited, log, hasher) == rebuild(
            edited, config, hasher
        )

    @pytest.mark.parametrize("engine", ["replay", "tablewise"])
    def test_grow_from_singleton(self, hasher, engine):
        tree = Tree("r")
        config = GramConfig(3, 3)
        old_index = rebuild(tree, config, hasher)
        script = [Insert(1, "a", 0, 1, 0), Insert(2, "b", 1, 1, 0),
                  Insert(3, "c", 0, 2, 1)]
        edited, log = apply_script(tree, script)
        assert ENGINES[engine](old_index, edited, log, hasher) == rebuild(
            edited, config, hasher
        )

    @pytest.mark.parametrize("engine", ["replay", "tablewise"])
    def test_shrink_to_singleton(self, hasher, engine):
        tree = tree_from_brackets("r(a(b),c)")
        config = GramConfig(3, 3)
        old_index = rebuild(tree, config, hasher)
        script = [Delete(2), Delete(1), Delete(3)]
        edited, log = apply_script(tree, script)
        assert ENGINES[engine](old_index, edited, log, hasher) == rebuild(
            edited, config, hasher
        )

    def test_rename_same_node_twice(self, hasher):
        tree = tree_from_brackets("r(a)")
        config = GramConfig(2, 2)
        old_index = rebuild(tree, config, hasher)
        edited, log = apply_script(tree, [Rename(1, "x"), Rename(1, "y")])
        for engine in ("replay", "tablewise"):
            assert ENGINES[engine](old_index, edited, log, hasher) == rebuild(
                edited, config, hasher
            )

    def test_rename_then_delete_same_node(self, hasher):
        tree = tree_from_brackets("r(a(b),c)")
        config = GramConfig(3, 2)
        old_index = rebuild(tree, config, hasher)
        edited, log = apply_script(tree, [Rename(1, "x"), Delete(1)])
        for engine in ("replay", "tablewise"):
            assert ENGINES[engine](old_index, edited, log, hasher) == rebuild(
                edited, config, hasher
            )

    def test_insert_then_delete_inserted_node(self, hasher):
        """The inverse DEL in the log refers to a node absent from T_n —
        the Definition 4 'otherwise ∅' case."""
        tree = tree_from_brackets("r(a)")
        config = GramConfig(2, 2)
        old_index = rebuild(tree, config, hasher)
        script = [Insert(9, "x", 0, 1, 1), Delete(9)]
        edited, log = apply_script(tree, script)
        for engine in ("replay", "tablewise"):
            assert ENGINES[engine](old_index, edited, log, hasher) == rebuild(
                edited, config, hasher
            )

    def test_unknown_engine_rejected(self, paper_tree_t0, hasher):
        # One engine: there is no keyword to choose one with.
        old_index = rebuild(paper_tree_t0, GramConfig(), hasher)
        with pytest.raises(TypeError):
            update_index(old_index, paper_tree_t0, [], hasher, engine="wat")


class TestReplayEngineDetails:
    def test_tree_restored_after_update(self, paper_tree_t0, hasher):
        config = GramConfig(3, 3)
        script = [Insert(7, "g", 6, 1, 0), Delete(3)]
        edited, log = apply_script(paper_tree_t0, script)
        before = edited.structural_key()
        update_index(rebuild(paper_tree_t0, config, hasher), edited, log, hasher)
        assert edited.structural_key() == before

    def test_tree_restored_even_on_bad_log(self, paper_tree_t0, hasher):
        config = GramConfig(3, 3)
        bad_log = [Delete(12345)]  # refers to a missing node
        before = paper_tree_t0.structural_key()
        with pytest.raises(InvalidLogError):
            net_delta(paper_tree_t0, bad_log, config, hasher)
        assert paper_tree_t0.structural_key() == before

    def test_timings_accumulate(self, paper_tree_t0, hasher):
        config = GramConfig(3, 3)
        script = [Insert(7, "g", 6, 1, 0), Delete(3)]
        edited, log = apply_script(paper_tree_t0, script)
        _, _, timings = net_delta(edited, log, config, hasher)
        assert timings.log_size == 2
        assert timings.gram_count_plus > 0
        assert timings.gram_count_minus > 0
        assert timings.total >= 0.0


class TestComputeDeltas:
    def test_delta_bags_apply_to_any_replica(self, paper_tree_t0, hasher):
        """compute_deltas returns (I⁻, I⁺) bags that maintain any copy
        of the index — the multi-replica use case."""
        from tests.support.reference.maintain import compute_deltas

        config = GramConfig(3, 3)
        old_index = rebuild(paper_tree_t0, config, hasher)
        edited, log = apply_script(
            paper_tree_t0, [Insert(7, "g", 6, 1, 0), Delete(3)]
        )
        minus, plus = compute_deltas(old_index, edited, log, hasher)
        replica = old_index.copy()
        replica.apply_delta(minus, plus)
        assert replica == rebuild(edited, config, hasher)

    def test_timings_rows_order(self, paper_tree_t0, hasher):
        config = GramConfig(3, 3)
        edited, log = apply_script(paper_tree_t0, [Rename(5, "x")])
        _, timings = update_index_timed(
            rebuild(paper_tree_t0, config, hasher), edited, log, hasher
        )
        labels = [label for label, _ in timings.rows()]
        assert labels == [
            "delta_plus", "lambda_plus", "delta_minus",
            "lambda_minus", "index_update", "total",
        ]
        assert timings.applicable_ops == 1


class TestForestScaleSanity:
    def test_dblp_workload_both_engines(self, hasher):
        from repro.datasets import dblp_tree
        from benchmarks.dblp_workloads import dblp_update_script

        tree = dblp_tree(60, seed=5)
        config = GramConfig(3, 3)
        old_index = rebuild(tree, config, hasher)
        script = dblp_update_script(tree, 40, seed=6, stable=True)
        edited, log = apply_script(tree, script)
        assert is_address_stable(edited, log)
        truth = rebuild(edited, config, hasher)
        assert update_index(old_index, edited, log, hasher) == truth
        assert update_index_tablewise(old_index, edited, log, hasher) == truth
