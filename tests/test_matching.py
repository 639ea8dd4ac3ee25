import sys

import numpy as np
import pytest

from netobserve.fixtures import fan_contraction, six_state_demo, six_state_structure
from netobserve.graph_core import Digraph, StructuredMatrix, structure_from_digraph
from netobserve.matching import (
    Matching,
    MatchingError,
    contractions,
    family_for_matching,
    is_maximum,
    max_matching,
    s_rank,
    structural_rank,
)

from .oracles import (
    all_digraphs,
    brute_max_matching_size,
    brute_structural_rank,
    minimal_deficient_sets,
    random_digraph,
)


class TestMaxMatching:
    def test_fan_pattern_deficiency_one(self):
        m = max_matching(fan_contraction())
        assert m.size == 4
        # exactly one of the three fan sources stays unmatched
        unmatched = set(m.unmatched_plus(5))
        assert sum(1 for u in unmatched if u in {0, 2, 4}) == 1

    def test_self_loops_perfect(self):
        n = 6
        g = Digraph(n, frozenset((i, i) for i in range(n)))
        m = max_matching(g)
        assert m.size == n
        assert m.unmatched_plus(n) == ()

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = random_digraph(rng, 9, 0.2)
            assert max_matching(g) == max_matching(g)

    def test_exhaustive_small_against_brute_force(self):
        for n in (1, 2, 3):
            for g in all_digraphs(n):
                m = max_matching(g)
                adj = {}
                for p, mi in g.edges:
                    adj.setdefault(p, set()).add(mi)
                oracle = brute_max_matching_size(
                    n, {p: frozenset(v) for p, v in adj.items()})
                assert m.size == oracle
                assert is_maximum(g, m)

    def test_random_against_brute_force(self):
        rng = np.random.default_rng(3)
        for n, p in [(5, 0.2), (6, 0.3), (8, 0.15)]:
            for _ in range(40):
                g = random_digraph(rng, n, p)
                s = structure_from_digraph(g)
                assert s_rank(s) == brute_structural_rank(s)

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
        assert m.size == n
        assert is_maximum(g, m)


class TestIsMaximum:
    def test_empty_matching_on_nonempty_graph(self):
        g = Digraph(2, frozenset({(0, 1)}))
        assert not is_maximum(g, Matching(frozenset()))

    def test_rejects_foreign_edges(self):
        g = Digraph(2, frozenset({(0, 1)}))
        with pytest.raises(MatchingError):
            is_maximum(g, Matching(frozenset({(1, 0)})))

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(MatchingError):
            Matching(frozenset({(0, 1), (0, 2)}))


class TestStructuralRank:
    def test_identity(self):
        s = StructuredMatrix(4, 4, frozenset((i, i) for i in range(4)))
        assert s_rank(s) == 4

    def test_fan_pattern_deficiency_one(self):
        assert s_rank(structure_from_digraph(fan_contraction())) == 4

    def test_six_state_fixture(self):
        assert s_rank(six_state_structure()) == 4

    def test_rectangular(self):
        s = StructuredMatrix(2, 4, frozenset({(0, 0), (1, 0), (1, 3)}))
        assert structural_rank(s) == 2
        assert structural_rank(s) == brute_structural_rank(s)

    def test_square_required_for_s_rank(self):
        from netobserve.graph_core import DimensionError
        with pytest.raises(DimensionError):
            s_rank(StructuredMatrix(2, 3, frozenset()))


class TestContractions:
    def test_fan_pattern_single_family_member(self):
        fam = contractions(fan_contraction())
        assert fam.as_sets() == {frozenset({0, 2, 4})}

    def test_perfect_matching_empty_family(self):
        g = Digraph(3, frozenset((i, i) for i in range(3)))
        assert contractions(g).sets == ()

    def test_requires_maximum_matching(self):
        g = Digraph(2, frozenset({(0, 1)}))
        with pytest.raises(MatchingError):
            family_for_matching(g, Matching(frozenset()))

    def test_members_are_minimal_deficient_sets(self):
        # Every contraction set is a Hall violator; the family witnesses the
        # whole deficiency; and its union covers every minimal violator.
        rng = np.random.default_rng(4)
        graphs = [g for g in all_digraphs(3)]
        graphs += [random_digraph(rng, n, 0.25) for n in (4, 5, 6) for _ in range(40)]
        for g in graphs:
            s = structure_from_digraph(g)
            m = max_matching(g)
            fam = contractions(g)
            assert len(fam.sets) == g.node_count - m.size
            violators = minimal_deficient_sets(s)
            neighbors = {j: {i for i, jj in s.support if jj == j}
                         for j in range(s.rows)}
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
        canonicalizes on the matching from ``max_matching``.
        """
        g = six_state_demo()
        canonical = max_matching(g)
        # alternative maximum matching: x2 is matched via x2->x1 instead of x1
        alternative = Matching(frozenset({(1, 0), (2, 1), (3, 4), (5, 5)}))
        assert is_maximum(g, alternative)
        fam_a = family_for_matching(g, canonical)
        fam_b = family_for_matching(g, alternative)
        assert fam_a.as_sets() != fam_b.as_sets()
        assert fam_a.union_members == fam_b.union_members
        assert len(fam_a.sets) == len(fam_b.sets)
        # the canonical API hides the dependence
        assert contractions(g).as_sets() == fam_a.as_sets()



class TestMatchingReport:
    def test_six_state_report(self, six_state_analysis):
        rep = six_state_analysis["matching"]
        assert rep["s_rank"] == 4
        assert len(rep["unmatched"]) == 2
        members = {frozenset(c["members"]) for c in rep["contractions"]}
        assert members == {frozenset({0, 2}), frozenset({0, 3, 4, 5})}
