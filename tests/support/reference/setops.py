"""Node-level profile operations — the paper's formal layer, executable.

Sections 5 and 6 of the paper state the maintenance theory on
*profiles* (sets of node-level pq-grams).  This module implements those
definitions literally, with tree copies where the definition speaks of
other tree versions.  It is **not** the efficient implementation — that
is the table machinery of :mod:`tests.support.reference.delta` /
:mod:`tests.support.reference.update` — but the executable form of the definitions
that ``tests/test_theorems.py`` uses to validate every lemma and
theorem of the paper (and to pin down exactly where Lemma 1, Lemma 3
and Theorem 1 stop holding).
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.core.config import GramConfig
from repro.edits.ops import Delete, EditOperation, Insert, Rename, is_applicable
from repro.tree.tree import Tree

from tests.support.reference.gram import PQGram
from tests.support.reference.profile import compute_profile


def delta_profile(
    tree: Tree, operation: EditOperation, config: GramConfig
) -> Set[PQGram]:
    """Definition 4: ``δ(T_j, ē) = P_j ∖ P_i`` with ``T_i = ē(T_j)``,
    and ∅ when the operation is not applicable."""
    if not is_applicable(tree, operation):
        return set()
    profile_after = compute_profile(tree, config).grams
    previous = tree.copy()
    operation.apply(previous)
    profile_before = compute_profile(previous, config).grams
    return profile_after - profile_before


def update_profile(
    subset: Set[PQGram],
    tree: Tree,
    operation: EditOperation,
    config: GramConfig,
) -> Set[PQGram]:
    """Definition 5: ``U(p_j, ē_j) = p_j ∖ δ(T_j, ē_j) ∪ δ(T_i, e_j)``
    for ``T_i = ē_j(T_j)`` — the declarative profile update function."""
    removed = delta_profile(tree, operation, config)
    previous = tree.copy()
    forward = operation.inverse(previous)
    operation.apply(previous)
    added = delta_profile(previous, forward, config)
    return (subset - removed) | added


def lemma1_membership(
    tree: Tree, operation: EditOperation, config: GramConfig
) -> Set[PQGram]:
    """The node-membership characterization of Lemma 1:

    - REN(n, ·) / DEL(n): the pq-grams containing n (Eq. 8),
    - INS(n, v, k, m): the pq-grams containing v and at least one of
      the adopted children c_k .. c_m (Eq. 7).

    For leaf insertions (m = k - 1) Eq. 7 is vacuously empty — which is
    exactly the gap the theorem tests document.
    """
    profile = compute_profile(tree, config)
    if isinstance(operation, (Rename, Delete)):
        return profile.grams_with_node(operation.node_id)
    if isinstance(operation, Insert):
        adopted = [
            tree.child(operation.parent_id, position)
            for position in range(operation.k, operation.m + 1)
        ]
        return {
            gram
            for gram in profile
            if gram.contains_node(operation.parent_id)
            and any(gram.contains_node(child) for child in adopted)
        }
    raise TypeError(f"unknown operation {operation!r}")


def intermediate_trees(
    tree: Tree, script: Sequence[EditOperation]
) -> List[Tree]:
    """``T_0, T_1, .., T_n`` for a script applied to ``tree``."""
    versions = [tree.copy()]
    current = tree.copy()
    for operation in script:
        operation.apply(current)
        versions.append(current.copy())
    return versions


def invariant_grams(
    versions: Sequence[Tree], config: GramConfig
) -> Set[PQGram]:
    """``C_n = P_0 ∩ … ∩ P_n`` (Definition 6, Eq. 11)."""
    profiles = [compute_profile(version, config).grams for version in versions]
    invariant = profiles[0]
    for profile in profiles[1:]:
        invariant = invariant & profile
    return invariant


def true_deltas(
    versions: Sequence[Tree], config: GramConfig
) -> Tuple[Set[PQGram], Set[PQGram]]:
    """``(Δ_n^-, Δ_n^+)`` per Definition 6 / Eq. 12."""
    invariant = invariant_grams(versions, config)
    first = compute_profile(versions[0], config).grams
    last = compute_profile(versions[-1], config).grams
    return first - invariant, last - invariant
