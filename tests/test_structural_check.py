from dataclasses import replace

import numpy as np
import pytest

from netobserve.classify import ALPHA, Placement, decompose, place_agents
from netobserve.graph_core import (
    Digraph,
    DimensionError,
    StructuredMatrix,
    structure_from_digraph,
)
from netobserve.netdesign import AgentNetwork, design_canonical, w_structure
from netobserve.structural_check import (
    check_centralized,
    check_distributed,
    fused_observation_structure,
)

from .oracles import (
    brute_accessible,
    brute_structural_rank,
    kron_structure,
    plan_observation_structure,
    random_digraph,
    row_list_distributed,
)


def _crippled(rng, net):
    """Copies of ``net`` with 1-3 random edges dropped from one layer."""
    copies = []
    for layer in ("alpha_edges", "beta_edges"):
        edges = sorted(getattr(net, layer))
        k = int(rng.integers(1, 4))
        if len(edges) >= k:
            drop = {edges[x] for x in rng.choice(len(edges), k, replace=False)}
            copies.append(replace(net, **{layer: getattr(net, layer) - drop}))
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
    return AgentNetwork(agents, alpha, beta, observations)


class TestCheckCentralized:
    def test_single_self_loop_observed(self):
        a = StructuredMatrix(1, 1, frozenset({(0, 0)}))
        h = StructuredMatrix(1, 1, frozenset({(0, 0)}))
        assert check_centralized(a, h).observable

    def test_empty_observation(self):
        a = StructuredMatrix(2, 2, frozenset({(0, 0), (1, 1)}))
        h = StructuredMatrix(1, 2, frozenset())
        verdict = check_centralized(a, h)
        assert not verdict.observable
        assert set(verdict.inaccessible_states) == {0, 1}

    def test_six_state_plan_observable(self, six_state, six_state_plan):
        a = structure_from_digraph(six_state)
        h = plan_observation_structure(six_state_plan.states, 6)
        assert check_centralized(a, h).observable

    def test_dropping_beta_breaks_accessibility_only(self, six_state, six_state_plan):
        a = structure_from_digraph(six_state)
        beta_states = {p.state for p in six_state_plan.placements if p.kind == "beta"}
        kept = tuple(s for s in six_state_plan.states if s not in beta_states)
        verdict = check_centralized(a, plan_observation_structure(kept, 6))
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
            verdict = check_centralized(
                structure_from_digraph(g),
                plan_observation_structure(states, 7))
            assert verdict.accessible == brute_accessible(g, frozenset(states))

    def test_empty_and_repeated_rows_match_oracles(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            g = random_digraph(rng, n, 0.25)
            a = structure_from_digraph(g)
            rows = int(rng.integers(1, 5))
            entries = [(int(rng.integers(rows)), int(rng.integers(n)))
                       for _ in range(int(rng.integers(0, 4)))]
            entries += [(rows, j) for i, j in entries if i == 0]  # last row repeats row 0
            h = StructuredMatrix(rows + 1, n, frozenset(entries))
            verdict = check_centralized(a, h)
            observed = frozenset(j for _, j in h.support)
            assert verdict.accessible == brute_accessible(g, observed)
            stacked = StructuredMatrix(n + h.rows, n, a.support | frozenset(
                (n + i, j) for i, j in h.support))
            assert verdict.deficiency == n - brute_structural_rank(stacked)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            check_centralized(StructuredMatrix(2, 3, frozenset()),
                              StructuredMatrix(1, 3, frozenset()))
        with pytest.raises(DimensionError):
            check_centralized(StructuredMatrix(2, 2, frozenset()),
                              StructuredMatrix(1, 3, frozenset()))

    def test_verdict_json(self, six_state, six_state_plan):
        a = structure_from_digraph(six_state)
        h = plan_observation_structure(six_state_plan.states, 6)
        data = check_centralized(a, h).to_json()
        assert data["observable"] is True
        assert data["s_rank_deficiency"] == 0


class TestKronStructure:
    def test_scalar_w(self):
        a = StructuredMatrix(3, 3, frozenset({(0, 1), (2, 2)}))
        w = StructuredMatrix(1, 1, frozenset({(0, 0)}))
        assert kron_structure(w, a) == a

    def test_identity_w_block_diag(self):
        a = StructuredMatrix(2, 2, frozenset({(0, 1)}))
        w = StructuredMatrix(2, 2, frozenset({(0, 0), (1, 1)}))
        k = kron_structure(w, a)
        assert k.support == frozenset({(0, 1), (2, 3)})

    def test_full_w_self_loop_a(self):
        a = StructuredMatrix(1, 1, frozenset({(0, 0)}))
        w = StructuredMatrix(2, 2, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
        assert kron_structure(w, a).support == frozenset(
            {(0, 0), (0, 1), (1, 0), (1, 1)})

    def test_support_cardinality_product(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            w = structure_from_digraph(random_digraph(rng, 3, 0.5))
            a = structure_from_digraph(random_digraph(rng, 4, 0.3))
            assert kron_structure(w, a).nnz == w.nnz * a.nnz


class TestBlockDiag:
    def test_two_blocks(self):
        # agent 0 observes state 0 and receives agent 1's state-2 alpha
        # observation; agent 1 observes only state 2
        net = AgentNetwork(
            2, frozenset({(1, 0)}), frozenset(),
            ((Placement(0, 0, "alpha"),), (Placement(2, 1, "alpha"),)))
        d = fused_observation_structure(net, 3)
        assert d.rows == 6 and d.cols == 6
        assert d.support == frozenset({(0, 0), (2, 2), (5, 5)})


class TestFusedStructures:
    def test_agent_fusion_unions_alpha_neighborhood(self, six_state_net):
        # agent 2 (the beta agent) receives alpha links from agents 0 and 1,
        # so its fused observation covers all three observed states
        fused = fused_observation_structure(six_state_net, 6)
        observed = {j - 12 for _, j in fused.support if j >= 12}
        all_states = {p.state for obs in six_state_net.observations for p in obs}
        assert observed == all_states

    def test_idle_agent_without_links_sees_nothing(self):
        net = AgentNetwork(2, frozenset(), frozenset({(0, 1), (1, 0)}),
                           ((), ()))
        assert fused_observation_structure(net, 4).support == frozenset()

    def test_one_block_per_agent(self, six_state_net):
        fused = fused_observation_structure(six_state_net, 6)
        assert fused.rows == fused.cols == six_state_net.agent_count * 6
        assert all(i == j for i, j in fused.support)


class TestCheckDistributed:
    def test_single_agent_reduces_to_centralized(self, six_state, six_state_plan):
        net = design_canonical(six_state_plan, agent_count=None)
        solo = AgentNetwork(1, frozenset(), frozenset(),
                            (tuple(p for obs in net.observations for p in obs),))
        a = structure_from_digraph(six_state)
        dist = check_distributed(solo, a)
        cent = check_centralized(
            a, plan_observation_structure(six_state_plan.states, 6))
        assert dist.observable == cent.observable is True

    def test_canonical_design_observable(self, six_state, six_state_net):
        a = structure_from_digraph(six_state)
        assert check_distributed(six_state_net, a).observable

    def test_alpha_edge_removal_breaks_it(self, six_state, six_state_net):
        # Cutting a broadcast edge of the agent whose contraction nobody
        # else observes deprives the receiver of one S-rank unit.  (Edges
        # into the beta agent from the *other* alpha agent are not load
        # bearing here: the beta agent's own state sits inside that same
        # contraction, so its block stays covered.)
        a = structure_from_digraph(six_state)
        lone_alpha = 0  # observes the only state-2 contraction representative
        for drop in sorted(e for e in six_state_net.alpha_edges
                           if e[0] == lone_alpha):
            crippled = AgentNetwork(
                six_state_net.agent_count,
                six_state_net.alpha_edges - {drop},
                six_state_net.beta_edges,
                six_state_net.observations)
            verdict = check_distributed(crippled, a)
            assert not verdict.observable
            assert verdict.deficiency >= 1

    def test_random_designs_distributed_observable(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            g = random_digraph(rng, 7, 0.25)
            plan = place_agents(decompose(g))
            net = design_canonical(plan)
            assert check_distributed(net, structure_from_digraph(g)).observable

    def test_matches_materialised_kronecker_pair(self):
        """The row-list check equals check_centralized on the materialised
        (W kron A, D_H) for canonical designs and crippled copies."""
        rng = np.random.default_rng(34)
        seen = set()
        for _ in range(300):
            n = int(rng.integers(1, 9))
            g = random_digraph(rng, n, float(rng.uniform(0.1, 0.5)))
            a = structure_from_digraph(g)
            net = design_canonical(place_agents(decompose(g)))
            nets = [net]
            for layer in ("alpha_edges", "beta_edges"):
                edges = sorted(getattr(net, layer))
                if edges:
                    drop = edges[int(rng.integers(len(edges)))]
                    nets.append(replace(net, **{layer: getattr(net, layer) - {drop}}))
            for candidate in nets:
                verdict = check_distributed(candidate, a)
                reference = check_centralized(
                    kron_structure(w_structure(candidate), a),
                    fused_observation_structure(candidate, n))
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
            a = structure_from_digraph(g)
            net = design_canonical(place_agents(decompose(g)))
            for candidate in (net, *_crippled(rng, net), _arbitrary_network(rng, n)):
                verdict = check_distributed(candidate, a)
                assert verdict == row_list_distributed(candidate, a)
                seen.add((verdict.accessible, verdict.s_rank_ok))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_matches_row_list_reference_mid_size(self):
        """A 200-node design-mixed graph (54-55 agents) and crippled copies."""
        from perfbench.workloads import design_mixed

        rng = np.random.default_rng(36)
        n, arcs = design_mixed(rng)[0]
        g = Digraph(n, frozenset(arcs))
        a = structure_from_digraph(g)
        net = design_canonical(place_agents(decompose(g)))
        assert n == 200 and 54 <= net.agent_count <= 55
        seen = set()
        for candidate in (net, *_crippled(rng, net), *_crippled(rng, net)):
            verdict = check_distributed(candidate, a)
            assert verdict == row_list_distributed(candidate, a)
            seen.add(verdict.observable)
        assert seen == {True, False}
