import json
from dataclasses import replace

import numpy as np
import pytest

from netobserve.classify import ALPHA, BETA, Placement, ObservationPlan, decompose, place_agents
from netobserve.graph_core import Digraph
from netobserve.netdesign import (
    AgentNetwork,
    AlphaEdges,
    DesignError,
    agents_from_plan,
    design_canonical,
    network_from_json,
    network_to_dot,
    network_to_json,
    verify_topology,
    w_structure,
)


from .oracles import per_agent_verify_topology, random_digraph, reachability_matrix


def single_state_plan():
    return ObservationPlan((Placement(state=0, agent=0, kind=BETA, covers_scc=0),))


class TestAgentsFromPlan:
    def test_one_agent_per_placement(self, six_state_plan):
        obs = agents_from_plan(six_state_plan)
        assert len(obs) == 3
        assert all(len(o) == 1 for o in obs)

    def test_extra_agents_idle(self, six_state_plan):
        obs = agents_from_plan(six_state_plan, agent_count=5)
        assert len(obs) == 5
        assert obs[3] == () and obs[4] == ()

    def test_too_few_agents(self, six_state_plan):
        with pytest.raises(DesignError):
            agents_from_plan(six_state_plan, agent_count=2)


class TestDesignCanonical:
    def test_six_state_broadcast_and_ring(self, six_state_net):
        net = six_state_net
        assert net.agent_count == 3
        # both alpha agents (0 and 1) broadcast to everyone else
        assert net.alpha_edges == frozenset(
            {(0, 1), (0, 2), (1, 0), (1, 2)})
        assert net.beta_edges == frozenset({(0, 1), (1, 2), (2, 0)})
        # the beta agent receives over the ring from both alpha agents
        w = w_structure(net)
        beta_agent = 2
        assert (beta_agent, 1) in w.support

    def test_single_agent_empty_network(self):
        net = design_canonical(single_state_plan())
        assert net.agent_count == 1
        assert net.alpha_edges == frozenset() and net.beta_edges == frozenset()

    def test_no_alpha_agents_ring_only(self):
        plan = ObservationPlan((
            Placement(state=0, agent=0, kind=BETA, covers_scc=0),
            Placement(state=1, agent=1, kind=BETA, covers_scc=1),
        ))
        net = design_canonical(plan)
        assert net.alpha_edges == frozenset()
        assert net.beta_edges == frozenset({(0, 1), (1, 0)})

    def test_empty_plan_rejected(self):
        with pytest.raises(DesignError):
            design_canonical(ObservationPlan(()))


class TestVerifyTopology:
    def test_canonical_passes(self, six_state_net, six_state_dec):
        assert verify_topology(six_state_net, six_state_dec).ok

    def test_missing_alpha_edge_names_deprived_agent(self, six_state_net, six_state_dec):
        for drop in sorted(six_state_net.alpha_edges):
            crippled = AgentNetwork(
                six_state_net.agent_count,
                six_state_net.alpha_edges - {drop},
                six_state_net.beta_edges,
                six_state_net.observations)
            verdict = verify_topology(crippled, six_state_dec)
            assert not verdict.ok
            deprived = drop[1]
            assert all(agent == deprived for agent, _ in verdict.violations)
            assert all("(i)" in msg for _, msg in verdict.violations)

    def test_missing_beta_path_detected(self, six_state_plan, six_state_dec):
        net = design_canonical(six_state_plan)
        no_ring = AgentNetwork(net.agent_count, net.alpha_edges,
                               frozenset(), net.observations)
        verdict = verify_topology(no_ring, six_state_dec)
        # the beta agent observes x6 directly but nobody else can reach it,
        # and it has no path to the observers of the other matched parent SCC
        assert not verdict.ok
        assert any("(ii)" in msg for _, msg in verdict.violations)

    def test_extra_idle_agents_still_verified(self, six_state_plan, six_state_dec):
        net = design_canonical(six_state_plan, agent_count=5)
        assert net.agent_count == 5
        assert sum(1 for o in net.observations if not o) == 2
        assert verify_topology(net, six_state_dec).ok

    def test_verifies_on_random_graphs(self):
        import numpy as np
        from .oracles import random_digraph
        rng = np.random.default_rng(20)
        for _ in range(40):
            g = random_digraph(rng, 8, 0.2)
            dec = decompose(g)
            plan = place_agents(dec)
            net = design_canonical(plan)
            assert verify_topology(net, dec).ok


    def test_violations_match_naive_conditions(self):
        # conditions re-derived by scanning every placement and every
        # alpha edge, on canonical designs with random edges removed
        rng = np.random.default_rng(35)
        total = 0
        for _ in range(60):
            g = random_digraph(rng, int(rng.integers(2, 9)), 0.3)
            dec = decompose(g)
            net = design_canonical(place_agents(dec))
            alpha = {e for e in net.alpha_edges if rng.random() < 0.7}
            beta = {e for e in net.beta_edges if rng.random() < 0.7}
            net = AgentNetwork(net.agent_count, frozenset(alpha), frozenset(beta),
                               net.observations)
            expected = naive_violations(net, dec)
            assert verify_topology(net, dec).violations == expected
            total += len(expected)
        assert total > 0

    def test_matches_per_agent_search(self):
        """Verdicts, violation order included, equal the per-agent BFS of
        ``tests/oracles.py`` on canonical designs (some with idle agents),
        on copies with random alpha and beta edges dropped, and on random
        beta layers in place of the ring."""
        rng = np.random.default_rng(37)
        kinds = set()
        for _ in range(80):
            g = random_digraph(rng, int(rng.integers(2, 10)), 0.3)
            dec = decompose(g)
            plan = place_agents(dec)
            net = design_canonical(plan, len(plan.placements) + int(rng.integers(0, 3)))
            crippled = replace(
                net,
                alpha_edges=frozenset(e for e in net.alpha_edges if rng.random() < 0.7),
                beta_edges=frozenset(e for e in net.beta_edges if rng.random() < 0.7))
            pairs = [(u, v) for u in range(net.agent_count)
                     for v in range(net.agent_count) if u != v]
            rewired = replace(net, beta_edges=frozenset(
                e for e in pairs if rng.random() < 0.25))
            for candidate in (net, crippled, rewired):
                verdict = verify_topology(candidate, dec)
                assert verdict == per_agent_verify_topology(candidate, dec)
                kinds.update(msg[:4] for _, msg in verdict.violations)
                kinds.add(verdict.ok)
        assert kinds == {True, False, "(i):", "(ii)"}

    def test_matches_per_agent_search_mid_size(self):
        """A 200-node design-mixed graph (54-55 agents) and crippled copies."""
        from perfbench.workloads import design_mixed

        rng = np.random.default_rng(38)
        n, arcs = design_mixed(rng)[0]
        dec = decompose(Digraph(n, frozenset(arcs)))
        net = design_canonical(place_agents(dec))
        assert 54 <= net.agent_count <= 55
        ring = sorted(net.beta_edges)
        for cut in ([], [ring[3]], [ring[3], ring[30]]):
            candidate = replace(net, beta_edges=net.beta_edges - set(cut))
            verdict = verify_topology(candidate, dec)
            assert verdict == per_agent_verify_topology(candidate, dec)
            assert verdict.ok == (not cut)


def naive_violations(net, dec):
    sends = reachability_matrix(Digraph(net.agent_count, net.beta_edges))
    out = []
    for i in range(net.agent_count):
        direct = {i} | {u for u, v in net.alpha_edges if v == i}
        for ci, c in enumerate(dec.family.sets):
            found = {a for a, obs in enumerate(net.observations) for p in obs
                     if p.kind == ALPHA and p.state in c.members}
            if not direct & found:
                out.append((i, f"(i): no direct alpha link covering contraction {ci}"))
        for j in dec.matched_parents:
            found = {a for a, obs in enumerate(net.observations) for p in obs
                     if p.state in dec.sccs.components[j]}
            if not direct & found and not any(sends[i, a] for a in found):
                out.append((i, f"(ii): no direct link or beta path to an observer of SCC {j}"))
    return tuple(out)


class TestAlphaEdges:
    def test_canonical_design_holds_broadcasters(self, six_state_net):
        alpha = six_state_net.alpha_edges
        assert isinstance(alpha, AlphaEdges)
        assert alpha.broadcast == {0, 1} and alpha.explicit == frozenset()
        assert len(alpha) == 4
        assert (0, 2) in alpha and (1, 0) in alpha
        assert (2, 0) not in alpha and (0, 0) not in alpha and (0, 3) not in alpha

    def test_edge_list_converts_to_broadcasters(self):
        edges = {(0, 1), (0, 2), (0, 3), (1, 2), (2, 2)}
        alpha = AlphaEdges(4, explicit=edges)
        assert alpha.broadcast == {0} and alpha.explicit == {(1, 2), (2, 2)}
        assert alpha == edges and set(alpha) == edges and len(alpha) == len(edges)
        assert alpha == AlphaEdges(4, [0], {(1, 2), (2, 2), (0, 3)})

    def test_dropping_a_broadcast_edge_makes_it_explicit(self, six_state_net):
        dropped = AgentNetwork(3, six_state_net.alpha_edges - {(0, 1)},
                               six_state_net.beta_edges, six_state_net.observations)
        assert dropped.alpha_edges.broadcast == {1}
        assert dropped.alpha_edges.explicit == {(0, 2)}
        assert tuple(dropped.alpha_sources) == ((0, 1), (1,), (2, 0, 1))
        assert dropped.alpha_sources.extra == ((), (), (0,))

    def test_broadcaster_self_loop_is_a_member(self):
        alpha = AlphaEdges(3, [0], {(0, 0)})
        assert (0, 0) in alpha and set(alpha) == {(0, 0), (0, 1), (0, 2)}
        assert len(alpha) == 3 and frozenset(alpha) == alpha and frozenset(alpha) <= alpha

    def test_single_agent_has_no_broadcasters(self):
        assert AlphaEdges(1, [0]) == AlphaEdges(1) == frozenset()

    @pytest.mark.parametrize("broadcast, explicit", [([3], []), ([], [(0, 3)]), ([-1], [])])
    def test_out_of_range_rejected(self, broadcast, explicit):
        with pytest.raises(ValueError, match="out of agent range"):
            AlphaEdges(3, broadcast, explicit)


class TestAlphaSources:
    def test_self_then_sorted_in_neighbors(self, six_state_net):
        # alpha edges (0, 1), (0, 2), (1, 0), (1, 2): agent 2 hears 0 and 1
        assert tuple(six_state_net.alpha_sources) == ((0, 1), (1, 0), (2, 0, 1))
        # held as the shared broadcasters, with no explicit in-neighbors
        assert six_state_net.alpha_sources.broadcast == (0, 1)
        assert six_state_net.alpha_sources.extra == ((), (), ())


class TestWStructure:
    def test_empty_beta_identity(self):
        net = AgentNetwork(3, frozenset(), frozenset(), ((), (), ()))
        assert w_structure(net).support == frozenset({(0, 0), (1, 1), (2, 2)})

    def test_three_ring_circulant(self):
        ring = frozenset({(0, 1), (1, 2), (2, 0)})
        net = AgentNetwork(3, frozenset(), ring, ((), (), ()))
        w = w_structure(net)
        assert w.support == frozenset(
            {(0, 0), (1, 1), (2, 2), (1, 0), (2, 1), (0, 2)})


class TestSerialization:
    def test_json_round_trip(self, six_state_net, six_state_plan):
        data = json.loads(json.dumps(network_to_json(six_state_net)))
        rebuilt = network_from_json(data, six_state_plan)
        assert rebuilt.alpha_edges == six_state_net.alpha_edges
        assert rebuilt.beta_edges == six_state_net.beta_edges
        assert rebuilt.observations == six_state_net.observations

    def test_json_round_trip_with_explicit_edges(self, six_state_net, six_state_plan):
        dropped = replace(six_state_net, alpha_edges=six_state_net.alpha_edges - {(1, 0)})
        data = json.loads(json.dumps(network_to_json(dropped)))
        assert (data["alpha_broadcast"], data["alpha_edges"]) == ([0], [[1, 2]])
        assert network_from_json(data, six_state_plan) == dropped
        # the same network written as a full edge list reads the same
        edge_list = {**data, "alpha_edges": sorted(map(list, dropped.alpha_edges))}
        del edge_list["alpha_broadcast"]
        assert network_from_json(edge_list, six_state_plan) == dropped

    def test_dot_output(self, six_state_net):
        dot = network_to_dot(six_state_net)
        assert dot.startswith("digraph agents {")
        assert "style=solid" in dot and "style=dashed" in dot
        # one arc per broadcaster into the broadcast node, one per explicit
        # alpha edge and one per beta edge
        alpha = six_state_net.alpha_edges
        assert "a0 -> broadcast" in dot and "a1 -> broadcast" in dot
        assert dot.count("->") == len(alpha.broadcast) + len(alpha.explicit) + len(
            six_state_net.beta_edges)
