import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netobserve.classify import ALPHA, Placement, decompose, place_agents
from netobserve.graph_core import Digraph
from netobserve.netdesign import AgentNetwork, AlphaEdges, design_canonical
from netobserve.structural_check import (
    check_centralized,
    check_distributed,
    observed_fused_states,
)

from .oracles import (
    alpha_edge_set,
    brute_accessible,
    brute_structural_rank,
    kron_structure,
    random_digraph,
    row_list_distributed,
    row_list_verdict,
    with_alpha_edges,
)


def _crippled(rng, net):
    """Copies of ``net`` with 1-3 random edges dropped from one layer."""
    copies = []
    for layer, rebuild in ((alpha_edge_set(net), lambda e: with_alpha_edges(net, e)),
                           (net.beta_edges, lambda e: replace(net, beta_edges=e))):
        edges = sorted(layer)
        k = int(rng.integers(1, 4))
        if len(edges) >= k:
            drop = {edges[x] for x in rng.choice(len(edges), k, replace=False)}
            copies.append(rebuild(layer - drop))
    return copies


def _arbitrary_network(rng, n):
    """1-5 agents observing 0-3 random states each, over random alpha and
    beta edges: W need not be a ring and observation sets may be empty."""
    agents = int(rng.integers(1, 6))
    pairs = [(u, v) for u in range(agents) for v in range(agents) if u != v]
    alpha, beta = (frozenset(p for p in pairs if rng.random() < density)
                   for density in rng.uniform(0, 0.6, size=2))
    observations = tuple(
        tuple(Placement(int(s), i, ALPHA)
              for s in rng.choice(n, int(rng.integers(0, min(n, 3) + 1)), replace=False))
        for i in range(agents))
    return AgentNetwork(agents, AlphaEdges(agents, (), alpha), beta, observations)


def digraphs_and_observed():
    """A digraph on 0-30 nodes and an observed list, possibly empty and
    with repeats."""
    def case(n):
        node = st.integers(0, max(n - 1, 0))  # never drawn when n == 0
        return st.tuples(
            st.lists(st.tuples(node, node), max_size=3 * n).map(lambda e: Digraph(n, e)),
            st.lists(node, max_size=6 if n else 0))
    return st.integers(0, 30).flatmap(case)


class TestCheckCentralized:
    def test_single_self_loop_observed(self):
        assert check_centralized(decompose(Digraph(1, frozenset({(0, 0)}))), [0]).observable

    def test_empty_observation(self):
        verdict = check_centralized(decompose(Digraph(2, frozenset({(0, 0), (1, 1)}))), [])
        assert not verdict.observable
        assert set(verdict.inaccessible_states) == {0, 1}

    def test_six_state_plan_observable(self, six_state_dec, six_state_plan):
        assert check_centralized(six_state_dec, six_state_plan.states).observable

    def test_dropping_beta_breaks_accessibility_only(self, six_state_dec, six_state_plan):
        beta_states = {p.state for p in six_state_plan.placements if p.kind == "beta"}
        kept = tuple(s for s in six_state_plan.states if s not in beta_states)
        verdict = check_centralized(six_state_dec, kept)
        assert not verdict.observable
        assert verdict.s_rank_ok  # alpha placements still recover the S-rank
        # exactly the states of the uncovered matched parent SCC are cut off
        assert set(verdict.inaccessible_states) == beta_states

    def test_accessibility_matches_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(40):
            g = random_digraph(rng, 7, 0.2)
            states = tuple(
                int(s) for s in rng.choice(7, size=2, replace=False))
            verdict = check_centralized(decompose(g), states)
            assert verdict.accessible == brute_accessible(g, frozenset(states))

    def test_empty_and_repeated_rows_match_oracles(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            g = random_digraph(rng, n, 0.25)
            observed = rng.integers(n, size=int(rng.integers(0, 4))).tolist()
            observed += observed[:1]  # a repeated unit row, or none at all
            verdict = check_centralized(decompose(g), observed)
            assert verdict.accessible == brute_accessible(g, frozenset(observed))
            assert verdict.deficiency == n - brute_structural_rank(g, observed)

    def test_out_of_range_observed_state_rejected(self):
        dec = decompose(Digraph(2, frozenset({(0, 1)})))
        for state in (2, -1):
            with pytest.raises(ValueError):
                check_centralized(dec, [0, state])

    def test_verdict_json(self, six_state_dec, six_state_plan):
        data = check_centralized(six_state_dec, six_state_plan.states).to_json()
        assert data["observable"] is True
        assert data["s_rank_deficiency"] == 0

    @given(digraphs_and_observed())
    @settings(max_examples=300, deadline=None)
    def test_matches_row_list_reference(self, case):
        """Field by field equal to the row-list reference, a BFS and one
        matching over all n + |H| rows."""
        g, observed = case
        assert check_centralized(decompose(g), observed) == row_list_verdict(
            g.predecessors(), observed)


class TestKronStructure:
    def test_scalar_w(self):
        a = Digraph(3, frozenset({(1, 0), (2, 2)}))
        w = Digraph(1, frozenset({(0, 0)}))
        assert kron_structure(w, a) == a

    def test_identity_w_block_diag(self):
        a = Digraph(2, frozenset({(1, 0)}))
        w = Digraph(2, frozenset({(0, 0), (1, 1)}))
        assert kron_structure(w, a).edges == frozenset({(1, 0), (3, 2)})

    def test_full_w_self_loop_a(self):
        a = Digraph(1, frozenset({(0, 0)}))
        w = Digraph(2, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
        assert kron_structure(w, a) == w

    def test_support_cardinality_product(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            w = random_digraph(rng, 3, 0.5)
            a = random_digraph(rng, 4, 0.3)
            assert kron_structure(w, a).edge_count == w.edge_count * a.edge_count


class TestBlockDiag:
    def test_two_blocks(self):
        # agent 0 observes state 0 and receives agent 1's state-2 alpha
        # observation; agent 1 observes only state 2
        net = AgentNetwork(
            2, AlphaEdges(2, (), {(1, 0)}), frozenset(),
            ((Placement(0, 0, "alpha"),), (Placement(2, 1, "alpha"),)))
        assert observed_fused_states(net, 3) == [0, 2, 5]


class TestFusedStructures:
    def test_agent_fusion_unions_alpha_neighborhood(self, six_state_net):
        # agent 2 (the beta agent) receives alpha links from agents 0 and 1,
        # so its fused observation covers all three observed states
        observed = {j - 12 for j in observed_fused_states(six_state_net, 6) if j >= 12}
        all_states = {p.state for obs in six_state_net.observations for p in obs}
        assert observed == all_states

    def test_idle_agent_without_links_sees_nothing(self):
        net = AgentNetwork(2, AlphaEdges(2), frozenset({(0, 1), (1, 0)}),
                           ((), ()))
        assert observed_fused_states(net, 4) == []

    def test_one_block_per_agent(self, six_state_net):
        # agent i observes state s at i * 6 + s: the broadcasters' states 2
        # and 4 in every block, and the beta agent's own state 5 in block 2
        assert observed_fused_states(six_state_net, 6) == [2, 4, 8, 10, 14, 16, 17]


class TestCheckDistributed:
    def test_readme_library_snippet_runs(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        snippet = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
        assert "check_distributed(net, dec)" in snippet
        exec(compile(snippet, "README.md", "exec"), {})

    def test_single_agent_reduces_to_centralized(self, six_state, six_state_dec,
                                                 six_state_plan):
        net = design_canonical(six_state_plan, agent_count=None)
        solo = AgentNetwork(1, AlphaEdges(1), frozenset(),
                            (tuple(p for obs in net.observations for p in obs),))
        dist = check_distributed(solo, six_state_dec)
        assert dist == row_list_verdict(six_state.predecessors(), six_state_plan.states)
        assert dist.observable

    def test_canonical_design_observable(self, six_state_dec, six_state_net):
        assert check_distributed(six_state_net, six_state_dec).observable

    def test_alpha_edge_removal_breaks_it(self, six_state_dec, six_state_net):
        # Cutting a broadcast edge of the agent whose contraction nobody
        # else observes deprives the receiver of one S-rank unit.  (Edges
        # into the beta agent from the *other* alpha agent are not load
        # bearing here: the beta agent's own state sits inside that same
        # contraction, so its block stays covered.)
        lone_alpha = 0  # observes the only state-2 contraction representative
        edges = alpha_edge_set(six_state_net)
        for drop in sorted(e for e in edges if e[0] == lone_alpha):
            crippled = with_alpha_edges(six_state_net, edges - {drop})
            verdict = check_distributed(crippled, six_state_dec)
            assert not verdict.observable
            assert verdict.deficiency >= 1

    def test_random_designs_distributed_observable(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            g = random_digraph(rng, 7, 0.25)
            dec = decompose(g)
            net = design_canonical(place_agents(dec))
            assert check_distributed(net, dec).observable

    def test_matches_materialised_kronecker_pair(self):
        """Equal to the row-list reference on the materialised
        (W kron A, D_H) for canonical designs and crippled copies."""
        rng = np.random.default_rng(34)
        seen = set()
        for _ in range(300):
            n = int(rng.integers(1, 9))
            g = random_digraph(rng, n, float(rng.uniform(0.1, 0.5)))
            dec = decompose(g)
            net = design_canonical(place_agents(dec))
            nets = [net]
            for layer, rebuild in ((alpha_edge_set(net), lambda e: with_alpha_edges(net, e)),
                                   (net.beta_edges, lambda e: replace(net, beta_edges=e))):
                edges = sorted(layer)
                if edges:
                    drop = edges[int(rng.integers(len(edges)))]
                    nets.append(rebuild(layer - {drop}))
            for candidate in nets:
                verdict = check_distributed(candidate, dec)
                observed = observed_fused_states(candidate, n)
                fused = kron_structure(candidate.fusion, g)
                reference = row_list_verdict(fused.predecessors(), observed)
                assert verdict == reference
                seen.add(verdict.observable)
        assert seen == {True, False}

    def test_matches_row_list_reference(self):
        """Field by field equal to the row-list reference on canonical
        designs, crippled copies and arbitrary networks."""
        rng = np.random.default_rng(35)
        seen = set()
        for _ in range(500):
            n = int(rng.integers(1, 13))
            g = random_digraph(rng, n, float(rng.uniform(0.05, 0.5)))
            dec = decompose(g)
            net = design_canonical(place_agents(dec))
            for candidate in (net, *_crippled(rng, net), _arbitrary_network(rng, n)):
                verdict = check_distributed(candidate, dec)
                assert verdict == row_list_distributed(candidate, g)
                seen.add((verdict.accessible, verdict.s_rank_ok))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_matches_row_list_reference_mid_size(self):
        """A 200-node design-mixed graph (54-55 agents) and crippled copies."""
        from perfbench.workloads import design_mixed

        rng = np.random.default_rng(36)
        n, arcs = design_mixed(rng)[0]
        g = Digraph(n, frozenset(arcs))
        dec = decompose(g)
        net = design_canonical(place_agents(dec))
        assert n == 200 and 54 <= net.agent_count <= 55
        seen = set()
        for candidate in (net, *_crippled(rng, net), *_crippled(rng, net)):
            verdict = check_distributed(candidate, dec)
            assert verdict == row_list_distributed(candidate, g)
            seen.add(verdict.observable)
        assert seen == {True, False}
