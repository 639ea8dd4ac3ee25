import json
from itertools import combinations

import numpy as np

from netobserve.classify import (
    ALPHA,
    BETA,
    RefusedPin,
    _overlap_matching,
    decompose,
    necessary_counts,
    place_agents,
    plan_from_json,
    structural_counts_report,
)
from netobserve.cli import EXIT_OK, main
from netobserve.graph_core import Digraph
from netobserve.ingest import LabeledGraph
from netobserve.matching import hopcroft_karp
from netobserve.structural_check import check_centralized

from .oracles import (
    brute_accessible,
    brute_structural_rank,
    column_deletion_avoidable,
    emit_gml,
    frozen_overlap_matching,
    random_digraph,
)

# The overlap pins states 4 and 5 (two matched parent self-loops), but 1 and
# 2 both reach only 3, so no maximum matching leaves 3, 4 and 5 unmatched.
PINNED_NOT_AVOIDABLE = Digraph(6, frozenset(
    {(0, 3), (1, 3), (2, 3), (0, 4), (0, 5), (4, 4), (5, 5)}))


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

    def test_overlap_matching_equals_frozen_routine(self, six_state_dec):
        rng = np.random.default_rng(15)
        decs = [six_state_dec, decompose(PINNED_NOT_AVOIDABLE)]
        decs += [decompose(random_digraph(rng, int(rng.integers(2, 14)),
                                          float(rng.uniform(0.05, 0.4))))
                 for _ in range(300)]
        sizes = set()
        for dec in decs:
            overlap = _overlap_matching(dec)
            assert overlap == frozen_overlap_matching(dec)
            sizes.add(len(overlap))
        assert {0, 1, 2} <= sizes

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
        # The necessity conditions alone must land on a plan that actually
        # passes the full structural test.
        rng = np.random.default_rng(12)
        for _ in range(80):
            g = random_digraph(rng, 9, 0.2)
            dec = decompose(g)
            assert check_centralized(dec, place_agents(dec).states).observable

    def test_plan_restores_accessibility(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            g = random_digraph(rng, 8, 0.15)
            plan = place_agents(decompose(g))
            assert brute_accessible(g, frozenset(plan.states))

    def test_pinned_state_refused_when_not_simultaneously_avoidable(self):
        g = PINNED_NOT_AVOIDABLE
        dec = decompose(g)
        assert [c.members for c in dec.family.sets] == [{0, 1, 4, 5}, {0, 2, 4, 5}, {3}]
        assert [dec.sccs.components[j] for j in dec.matched_parents] == [{4}, {5}]
        assert _overlap_matching(dec) == {0: 0, 1: 1}
        assert not check_centralized(dec, {3, 4, 5}).s_rank_ok
        assert check_centralized(dec, {2, 3, 4}).s_rank_ok
        plan = place_agents(dec)
        assert [(p.state, p.kind) for p in plan.placements] == [
            (4, ALPHA), (2, ALPHA), (3, ALPHA), (5, BETA)]
        assert plan.refused_pins == (RefusedPin(contraction=1, pinned=(5,), kept=2),)
        assert check_centralized(dec, plan.states).observable
        pinned = check_centralized(dec, (3, 4, 5))
        assert pinned.accessible and pinned.deficiency == 1
        # min_total is a lower bound the plan exceeds, and 4 is optimal here
        assert necessary_counts(dec)["min_total"] == 3
        assert not any(check_centralized(dec, h).observable
                       for h in combinations(range(6), 3))

    def test_pin_trial_rank_test_matches_column_deletion(self):
        """The pin trial's test, the certificate's ``s_rank_ok``, agrees
        with the reference: one distinct state per contraction restores full
        structural rank exactly when deleting those columns keeps the
        maximum matching size.  Each set is a random system of distinct
        representatives, a matching of the contractions into their members
        listed in random order."""
        rng = np.random.default_rng(29)
        refused = 0
        for _ in range(2000):
            n = int(rng.integers(2, 11))
            dec = decompose(random_digraph(rng, n, float(rng.choice((0.1, 0.2, 0.35)))))
            cs = dec.family.sets
            for _ in range(5):
                adj = [[int(s) for s in rng.permutation(sorted(c.members))] for c in cs]
                chosen = hopcroft_karp(len(cs), adj)
                assert len(chosen) == len(cs)
                states = set(chosen.values())
                ok = check_centralized(dec, states).s_rank_ok
                assert ok == column_deletion_avoidable(dec.digraph, states)
                refused += not ok
        assert refused  # both answers occur

    def test_refused_pin_is_written_not_logged(self, tmp_path, capsys):
        """The counterexample's plan exceeds ``analyze``'s ``min_total`` by
        the one refused pin, which ``plan.json`` lists; nothing goes to
        stderr."""
        path = tmp_path / "pinned.gml"
        path.write_text(emit_gml(LabeledGraph(PINNED_NOT_AVOIDABLE, tuple(map(str, range(6))),
                                              True, {})))
        for command in ("analyze", "classify"):
            assert main([command, str(path), "--out", str(tmp_path / command)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        analysis = json.loads((tmp_path / "analyze" / "analysis.json").read_text())
        assert analysis["summary"]["min_total"] == 3
        plan = json.loads((tmp_path / "classify" / "plan.json").read_text())["plan"]
        assert plan["refused_pins"] == [{"contraction": 1, "pinned": [5], "kept": 2}]
        assert len(plan["placements"]) == 4 and "repairs" not in plan


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
    def test_six_state_classes(self, six_state_gml, tmp_path):
        out = tmp_path / "out"
        assert main(["classify", str(six_state_gml), "--out", str(out)]) == EXIT_OK
        data = json.loads((out / "plan.json").read_text())
        assert data["alpha_classes"] == [[0, 2], [0, 3, 4, 5]]
        assert data["beta_classes"] == [[4], [5]]

    def test_any_alpha_representative_works(self, six_state_dec):
        # swapping the observed state within a class keeps the S-rank bonus:
        # observing any one member of a contraction raises structural rank.
        g = six_state_dec.digraph
        for members in six_state_dec.family.sets:
            for state in members.members:
                assert brute_structural_rank(g, [state]) == six_state_dec.s_rank + 1


class TestCountsReport:
    def test_six_state_row(self, six_state_dec):
        row = structural_counts_report(six_state_dec, name="fixture")
        assert row["n"] == 6 and row["edges"] == 9
        assert row["s_rank"] == 4
        assert row["n_alpha"] == 2 and row["n_beta_min"] == 1
        assert row["n_matched_parent"] == 2
