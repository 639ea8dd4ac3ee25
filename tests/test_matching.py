import sys

import numpy as np

from netobserve.fixtures import fan_contraction, six_state_demo
from netobserve.graph_core import Digraph
from netobserve.matching import _alternating_family, contractions, hopcroft_karp

from .oracles import (
    all_digraphs,
    brute_max_matching_size,
    brute_structural_rank,
    minimal_deficient_sets,
    random_digraph,
)


def max_matching(g: Digraph) -> dict[int, int]:
    return hopcroft_karp(g.node_count, g.successors())


def brute_size(g: Digraph) -> int:
    return brute_max_matching_size(g.node_count, {
        p: frozenset(succ) for p, succ in enumerate(g.successors())})


def assert_matching_in(g: Digraph, m: dict[int, int]):
    """``m`` pairs plus nodes with distinct minus nodes along edges of ``g``."""
    assert set(m.items()) <= g.edges and len(set(m.values())) == len(m)


class TestMaxMatching:
    def test_fan_pattern_deficiency_one(self):
        m = max_matching(fan_contraction())
        assert len(m) == 4
        # exactly one of the three fan sources stays unmatched
        assert sum(1 for u in (0, 2, 4) if u not in m) == 1

    def test_self_loops_perfect(self):
        n = 6
        g = Digraph(n, frozenset((i, i) for i in range(n)))
        assert max_matching(g) == {i: i for i in range(n)}

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = random_digraph(rng, 9, 0.2)
            assert max_matching(g) == max_matching(g)

    def test_exhaustive_small_against_brute_force(self):
        for n in (1, 2, 3):
            for g in all_digraphs(n):
                m = max_matching(g)
                assert_matching_in(g, m)
                assert len(m) == brute_size(g)

    def test_random_against_brute_force(self):
        rng = np.random.default_rng(3)
        for n, p in [(5, 0.2), (6, 0.3), (8, 0.15)]:
            for _ in range(40):
                g = random_digraph(rng, n, p)
                assert len(max_matching(g)) == brute_structural_rank(g)

    def test_long_augmenting_path_needs_no_recursion(self, monkeypatch):
        # Plus node i reaches minus nodes L-i-1 and L-i.  The first phase
        # greedily matches i -> L-i-1, leaving one augmenting path through
        # all n plus nodes, far deeper than the default recursion limit.
        n = 3000
        last = n - 1
        g = Digraph(n, frozenset({(i, last - i) for i in range(n)}
                                 | {(i, last - i - 1) for i in range(last)}))

        def refuse(limit):
            raise AssertionError("matching changed the interpreter recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        m = max_matching(g)
        assert len(m) == n
        assert_matching_in(g, m)


class TestStructuralRank:
    def test_identity(self):
        assert len(max_matching(Digraph(4, frozenset((i, i) for i in range(4))))) == 4

    def test_fan_pattern_deficiency_one(self):
        assert len(max_matching(fan_contraction())) == 4

    def test_six_state_fixture(self):
        assert len(max_matching(six_state_demo())) == 4

    def test_rectangular(self):
        # a 2 x 4 structure with entries (0, 0), (1, 0), (1, 3): four columns
        # (plus nodes) listing their rows (minus nodes)
        adjacency = [[0, 1], [], [], [1]]
        assert len(hopcroft_karp(4, adjacency)) == 2
        assert brute_max_matching_size(4, {0: frozenset({0, 1}), 3: frozenset({1})}) == 2


class TestContractions:
    def test_fan_pattern_single_family_member(self):
        fam = contractions(fan_contraction())
        assert [c.members for c in fam.sets] == [frozenset({0, 2, 4})]

    def test_perfect_matching_empty_family(self):
        g = Digraph(3, frozenset((i, i) for i in range(3)))
        assert contractions(g).sets == ()

    def test_members_are_minimal_deficient_sets(self):
        # Every contraction set is a Hall violator; the family witnesses the
        # whole deficiency; and its union covers every minimal violator.
        rng = np.random.default_rng(4)
        graphs = [g for g in all_digraphs(3)]
        graphs += [random_digraph(rng, n, 0.25) for n in (4, 5, 6) for _ in range(40)]
        for g in graphs:
            fam = contractions(g)
            assert len(fam.sets) == g.node_count - brute_size(g)
            violators = minimal_deficient_sets(g)
            neighbors = {j: {i for jj, i in g.edges if jj == j}
                         for j in range(g.node_count)}
            for c in fam.sets:
                hood = set().union(*(neighbors[j] for j in c.members))
                assert len(hood) < len(c.members)  # deficient
            union_minimal = set().union(*violators) if violators else set()
            assert union_minimal <= set(fam.union_members)

    def test_family_depends_on_matching_but_union_does_not(self):
        """The per-matching family is genuinely matching-dependent.

        The six-state fixture admits two maximum matchings whose alternating
        searches give different families; only the union of members (and the
        family size) is invariant.  This is exactly why ``contractions``
        canonicalizes on the matching from ``hopcroft_karp``.
        """
        g = six_state_demo()
        canonical = max_matching(g)
        # alternative maximum matching: x2 is matched via x2->x1 instead of x1
        alternative = {1: 0, 2: 1, 3: 4, 5: 5}
        assert_matching_in(g, alternative)
        assert len(alternative) == len(canonical) == brute_size(g)
        fam_a = _alternating_family(g, canonical)
        fam_b = _alternating_family(g, alternative)
        members_a = {c.members for c in fam_a.sets}
        assert members_a != {c.members for c in fam_b.sets}
        assert fam_a.union_members == fam_b.union_members
        assert len(fam_a.sets) == len(fam_b.sets)
        # the canonical API hides the dependence
        assert contractions(g) == fam_a


class TestMatchingReport:
    def test_six_state_report(self, six_state_analysis):
        rep = six_state_analysis["matching"]
        assert rep["s_rank"] == 4
        assert len(rep["unmatched"]) == 2
        members = {frozenset(c["members"]) for c in rep["contractions"]}
        assert members == {frozenset({0, 2}), frozenset({0, 3, 4, 5})}
