import numpy as np

from netobserve.classify import (
    ALPHA,
    BETA,
    decompose,
    equivalence_report,
    necessary_counts,
    place_agents,
    plan_from_json,
    structural_counts_report,
)
from netobserve.graph_core import Digraph, StructuredMatrix, structure_from_digraph
from netobserve.matching import structural_rank
from netobserve.structural_check import check_centralized

from .oracles import brute_accessible, plan_observation_structure, random_digraph


class TestNecessaryCounts:
    def test_six_state_fixture(self, six_state_dec):
        counts = necessary_counts(six_state_dec)
        assert counts["n_alpha"] == 2
        assert counts["n_beta_raw"] == 2
        assert counts["n_beta_min"] == 1
        assert counts["min_total"] == 3

    def test_isolated_nodes(self):
        g = Digraph(4, frozenset())
        counts = necessary_counts(decompose(g))
        assert counts["n_alpha"] == 4
        assert counts["n_beta_min"] == 0  # no matched parent SCCs at all

    def test_strongly_connected_full_rank(self):
        # directed ring: S-rank n, one matched parent SCC
        g = Digraph(5, frozenset((i, (i + 1) % 5) for i in range(5)))
        counts = necessary_counts(decompose(g))
        assert counts == {"n_alpha": 0, "n_beta_raw": 1, "n_beta_min": 1,
                          "min_total": 1, "overlap_matching_size": 0}

    def test_overlap_never_exceeds_either_side(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            dec = decompose(random_digraph(rng, 9, 0.18))
            c = necessary_counts(dec)
            assert 0 <= c["overlap_matching_size"] <= min(c["n_alpha"], c["n_beta_raw"])
            assert c["n_beta_min"] == c["n_beta_raw"] - c["overlap_matching_size"]


class TestPlaceAgents:
    def test_six_state_plan(self, six_state_plan):
        assert six_state_plan.n_alpha == 2
        assert six_state_plan.n_beta == 1
        assert six_state_plan.repairs == ()
        # one alpha placement sits inside a matched parent SCC (the overlap)
        assert sum(1 for p in six_state_plan.placements
                   if p.kind == ALPHA and p.covers_scc is not None) == 1

    def test_fan_pattern_single_alpha(self):
        from netobserve.fixtures import fan_contraction
        g = fan_contraction()
        plan = place_agents(decompose(g))
        alphas = [p for p in plan.placements if p.kind == ALPHA]
        assert len(alphas) == 1
        assert alphas[0].state in {0, 2, 4}

    def test_strongly_connected_single_beta(self):
        g = Digraph(5, frozenset((i, (i + 1) % 5) for i in range(5)))
        plan = place_agents(decompose(g))
        assert plan.n_alpha == 0
        assert plan.n_beta == 1

    def test_alpha_states_distinct_and_inside_their_contraction(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            dec = decompose(random_digraph(rng, 10, 0.15))
            plan = place_agents(dec)
            alphas = [p for p in plan.placements if p.kind == ALPHA]
            assert len({p.state for p in alphas}) == len(alphas)
            assert len(alphas) == len(dec.family.sets)
            for p in alphas:
                assert p.state in dec.family.sets[p.covers_contraction].members

    def test_plan_achieves_structural_observability(self):
        # The necessity conditions plus accessibility repairs must land on a
        # plan that actually passes the full structural test.
        rng = np.random.default_rng(12)
        for _ in range(80):
            g = random_digraph(rng, 9, 0.2)
            plan = place_agents(decompose(g))
            h = plan_observation_structure(plan.states, g.node_count)
            verdict = check_centralized(structure_from_digraph(g), h)
            assert verdict.observable

    def test_plan_restores_accessibility(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            g = random_digraph(rng, 8, 0.15)
            plan = place_agents(decompose(g))
            assert brute_accessible(g, frozenset(plan.states))


class TestPlanSerialization:
    def test_round_trip(self, six_state_plan):
        data = six_state_plan.to_json()
        rebuilt = plan_from_json(data, 6)
        assert rebuilt.states == six_state_plan.states
        assert rebuilt.n_alpha == six_state_plan.n_alpha
        assert rebuilt.n_beta == six_state_plan.n_beta

    def test_labels_used_when_given(self, six_state_plan):
        labels = tuple(f"x{i + 1}" for i in range(6))
        data = six_state_plan.to_json(labels)
        assert all(item["label"].startswith("x") for item in data["placements"])


class TestEquivalence:
    def test_six_state_classes(self, six_state_dec):
        eq = equivalence_report(six_state_dec)
        assert set(eq.alpha_classes) == {frozenset({0, 2}), frozenset({0, 3, 4, 5})}
        assert set(eq.beta_classes) == {frozenset({4}), frozenset({5})}

    def test_any_alpha_representative_works(self, six_state_dec):
        # swapping the observed state within a class keeps the S-rank bonus:
        # observing any one member of a contraction raises structural rank.
        g = six_state_dec.digraph
        a = structure_from_digraph(g)
        for members in six_state_dec.family.sets:
            for state in members.members:
                n = g.node_count
                stacked = StructuredMatrix(n + 1, n, a.support | {(n, state)})
                assert structural_rank(stacked) == six_state_dec.s_rank + 1


class TestCountsReport:
    def test_six_state_row(self, six_state_dec):
        row = structural_counts_report(six_state_dec, name="fixture")
        assert row["n"] == 6 and row["edges"] == 9
        assert row["s_rank"] == 4
        assert row["n_alpha"] == 2 and row["n_beta_min"] == 1
        assert row["n_matched_parent"] == 2
