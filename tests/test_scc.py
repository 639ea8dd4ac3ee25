import numpy as np

from netobserve.graph_core import Digraph, reachable
from netobserve.matching import contractions
from netobserve.scc import classify_sccs, matched_parent_indices, tarjan_scc

from .oracles import all_digraphs, brute_component_matched, brute_sccs, random_digraph


class TestTarjan:
    def test_two_cycle(self):
        d = tarjan_scc(Digraph(2, frozenset({(0, 1), (1, 0)})))
        assert d.components == (frozenset({0, 1}),)
        assert d.condensation.edges == frozenset()

    def test_chain(self):
        d = tarjan_scc(Digraph(3, frozenset({(0, 1), (1, 2)})))
        assert {frozenset({v}) for v in range(3)} == set(d.components)
        cond = {(d.component_of[0], d.component_of[1]),
                (d.component_of[1], d.component_of[2])}
        assert d.condensation.edges == frozenset(cond)

    def test_component_of_consistent(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_digraph(rng, 8, 0.2)
            d = tarjan_scc(g)
            for idx, comp in enumerate(d.components):
                assert all(d.component_of[v] == idx for v in comp)

    def test_matches_mutual_reachability_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            g = random_digraph(rng, 8, 0.25)
            assert set(tarjan_scc(g).components) == set(brute_sccs(g))

    def test_reverse_topological_component_order(self):
        # Tarjan emits components in reverse topological order: an edge in
        # the condensation always points from a later index to an earlier one.
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_digraph(rng, 8, 0.2)
            d = tarjan_scc(g)
            assert all(s > t for s, t in d.condensation.edges)

    def test_deep_chain_no_recursion_blowup(self):
        n = 5000
        g = Digraph(n, frozenset((i, i + 1) for i in range(n - 1)))
        assert len(tarjan_scc(g).components) == n


class TestClassify:
    def test_self_loop_singleton_is_matched_parent(self):
        g = Digraph(1, frozenset({(0, 0)}))
        labels = classify_sccs(g, tarjan_scc(g), contractions(g).matching)
        assert labels[0].is_parent and labels[0].is_matched

    def test_bare_singleton_is_unmatched_parent(self):
        g = Digraph(1, frozenset())
        labels = classify_sccs(g, tarjan_scc(g), contractions(g).matching)
        assert labels[0].is_parent and not labels[0].is_matched

    def test_child_feeding_cyclic_parent(self):
        # 2-cycle {0,1} feeds 2-cycle {2,3}: the feeder is a child, the
        # sink cycle is a matched parent.
        g = Digraph(4, frozenset({(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)}))
        d = tarjan_scc(g)
        labels = classify_sccs(g, d, contractions(g).matching)
        child = d.component_of[0]
        parent = d.component_of[2]
        assert not labels[child].is_parent
        assert labels[parent].is_parent and labels[parent].is_matched
        assert matched_parent_indices(labels) == (parent,)

    def test_matched_needs_internal_cycle_cover(self):
        # triangle with a pendant inside its SCC is impossible; instead use
        # an SCC whose cover needs both cycles: 0->1->0 and 2->3->2 joined
        # into one SCC via 1->2 and 3->0.
        g = Digraph(4, frozenset({(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (3, 0)}))
        d = tarjan_scc(g)
        labels = classify_sccs(g, d, contractions(g).matching)
        assert len(d.components) == 1
        assert labels[0].is_matched

    def test_six_state_fixture_matched_parents(self, six_state, six_state_dec):
        labels = classify_sccs(six_state, six_state_dec.sccs,
                               six_state_dec.family.matching)
        parents = matched_parent_indices(labels)
        observed = {six_state_dec.sccs.components[j] for j in parents}
        assert observed == {frozenset({4}), frozenset({5})}

    def test_labels_match_brute_force(self):
        # matched: brute-force perfect matching of each component's internal
        # edges; parent: no edge leaves the component.
        rng = np.random.default_rng(9)
        graphs = [g for n in (1, 2, 3) for g in all_digraphs(n)]
        graphs += [random_digraph(rng, int(rng.integers(4, 9)), float(rng.uniform(0.1, 0.5)))
                   for _ in range(300)]
        for g in graphs:
            d = tarjan_scc(g)
            for comp, lab in zip(d.components, classify_sccs(g, d, contractions(g).matching)):
                assert lab.is_matched == brute_component_matched(g, comp), sorted(g.edges)
                leaves = any(s in comp and t not in comp for s, t in g.edges)
                assert lab.is_parent == (not leaves), sorted(g.edges)


class TestPartialOrder:
    def test_every_child_reaches_some_parent(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            g = random_digraph(rng, 9, 0.2)
            d = tarjan_scc(g)
            labels = classify_sccs(g, d, contractions(g).matching)
            parents = {i for i, lab in enumerate(labels) if lab.is_parent}
            for i, lab in enumerate(labels):
                if not lab.is_parent:
                    assert reachable(d.condensation.successors(), [i]) & parents



class TestReport:
    def test_report_shape(self, six_state_analysis):
        rep = six_state_analysis["sccs"]
        assert len(rep["components"]) == 5
        assert sum(1 for c in rep["components"] if c["parent"] and c["matched"]) == 2
