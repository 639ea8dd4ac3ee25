"""End-to-end acceptance suite.

Eight criteria, one test each, each printing a single ``criterion N: PASS``
or ``criterion N: FAIL`` line (run pytest with ``-s`` to see the lines for
passing tests).  Dataset-dependent checks skip loudly when the corpora are
not provisioned.
"""
import time

import numpy as np
import pytest

from netobserve.classify import (
    ALPHA,
    decompose,
    necessary_counts,
    place_agents,
    structural_counts_report,
)
from netobserve.datasets import REGISTRY, data_directory, load_dataset, locate
from netobserve.estimator import GainSchedule, gain_search, simulate
from netobserve.fixtures import six_state_demo
from netobserve.graph_core import structure_from_digraph
from netobserve.matching import (
    Matching,
    contractions,
    family_for_matching,
    hopcroft_karp,
    is_maximum,
    max_matching,
)
from netobserve.netdesign import (
    AgentNetwork,
    design_canonical,
    verify_topology,
    w_structure,
)
from netobserve.numeric import (
    GF,
    kron_numeric,
    observability_rank,
    random_realization,
    stochastic_realization,
    stochastic_realization_gf,
)
from netobserve.scc import tarjan_scc
from netobserve.structural_check import (
    check_centralized,
    check_distributed,
    fused_observation_structure,
)

from .oracles import (
    all_digraphs,
    brute_max_matching_size,
    brute_sccs,
    minimal_deficient_sets,
    plan_observation_structure,
    random_digraph,
)


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _alternative_matching(g):
    """A second maximum matching: augment in reversed adjacency order."""
    adj = [list(reversed(a)) for a in g.successors()]
    return Matching(frozenset(hopcroft_karp(g.node_count, adj).items()))


def test_criterion_1_worked_example():
    """Fixture decomposition: S-rank 4, two contractions, two matched parent
    SCCs, minimal counts 2 alpha + 1 beta, in under a second."""
    start = time.perf_counter()
    dec = decompose(six_state_demo())
    counts = necessary_counts(dec)
    plan = place_agents(dec)
    elapsed = time.perf_counter() - start

    ok = (dec.s_rank == 4
          and len(dec.family.sets) == 2          # |unmatched| = deficiency = 2
          and counts["n_alpha"] == 2
          and len(dec.matched_parents) == 2
          and counts["n_beta_min"] == 1
          and plan.n_alpha == 2 and plan.n_beta == 1
          and elapsed < 1.0)
    _report(1, ok, f"s_rank={dec.s_rank} |deltaM|={len(dec.family.sets)} "
                   f"n_alpha={counts['n_alpha']} matched_parents="
                   f"{len(dec.matched_parents)} n_beta_min={counts['n_beta_min']} "
                   f"({elapsed * 1000:.0f} ms)")


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_criterion_2_dataset_table(name):
    """Published per-dataset rows under the documented preprocessing."""
    if locate(name) is None:
        print(f"criterion 2 [{name}]: SKIP - corpus not present under "
              f"{data_directory()}; run scripts/fetch_datasets.py on a "
              "machine with internet access")
        pytest.skip(f"dataset {name!r} not provisioned")
    spec = REGISTRY[name]
    start = time.perf_counter()
    lg = load_dataset(name)
    row = structural_counts_report(decompose(lg.digraph), name=name)
    elapsed = time.perf_counter() - start
    diffs = {k: (row[k], want) for k, want in spec.expected.items()
             if row[k] != want}
    ok = not diffs and (name != "blogs" or elapsed < 10.0)
    _report(2, ok, f"[{name}] row={ {k: row[k] for k in spec.expected} } "
                   f"diffs={diffs or 'none'} ({elapsed:.1f} s)")


def test_criterion_3_oracle_equivalence():
    """Matching size, contraction family, and SCCs against brute oracles.

    Exhaustive over all digraphs with n <= 4; the n = 5 layer is sampled
    (5000 graphs) because the full 2^25 enumeration cannot fit the stated
    runtime budget, plus 500 samples each for n in {6, 7, 8}.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(0)

    def graphs():
        for n in (1, 2, 3, 4):
            yield from all_digraphs(n)
        for n, count in [(5, 5000), (6, 500), (7, 500), (8, 500)]:
            for _ in range(count):
                yield random_digraph(rng, n, min(0.5, 1.8 / n))

    checked = mismatches = 0
    first_bad = None
    for g in graphs():
        checked += 1
        m = max_matching(g)
        adj: dict[int, set] = {}
        for p, mi in g.edges:
            adj.setdefault(p, set()).add(mi)
        brute = brute_max_matching_size(
            g.node_count, {p: frozenset(v) for p, v in adj.items()})
        fam = contractions(g)
        violators = set(minimal_deficient_sets(structure_from_digraph(g)))
        union_violators = frozenset().union(*violators) if violators else frozenset()
        good = (m.size == brute
                and len(fam.sets) == g.node_count - m.size
                and all(c.members in violators for c in fam.sets)
                and fam.union_members == union_violators
                and set(tarjan_scc(g).components) == set(brute_sccs(g)))
        if not good:
            mismatches += 1
            if first_bad is None:
                first_bad = sorted(g.edges)
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 300
    _report(3, ok, f"{checked} graphs, {mismatches} mismatches "
                   f"(first: {first_bad}), {elapsed:.1f} s")


def test_criterion_4_matching_invariance():
    """Contraction families from two different maximum matchings agree.

    The canonical family is matching-independent by construction; the raw
    per-matching families genuinely differ on some graphs (their union is
    what stays invariant), so the raw disagreement rate is reported
    alongside.
    """
    rng = np.random.default_rng(1)
    graphs_with_two = canonical_mismatch = raw_mismatch = union_mismatch = 0
    for _ in range(200):
        n = int(rng.integers(4, 11))
        g = random_digraph(rng, n, 1.8 / n)
        m1 = max_matching(g)
        m2 = _alternative_matching(g)
        assert is_maximum(g, m2)
        if m1.pairs == m2.pairs:
            continue
        graphs_with_two += 1
        f1, f2 = family_for_matching(g, m1), family_for_matching(g, m2)
        if contractions(g).as_sets() != f1.as_sets():
            canonical_mismatch += 1
        raw_mismatch += int(f1.as_sets() != f2.as_sets())
        union_mismatch += int(f1.union_members != f2.union_members)
    ok = canonical_mismatch == 0 and union_mismatch == 0 and graphs_with_two > 50
    _report(4, ok, f"{graphs_with_two}/200 graphs admit two distinct maximum "
                   f"matchings; canonical-family mismatches={canonical_mismatch}, "
                   f"union mismatches={union_mismatch} (raw per-matching "
                   f"set-of-sets differs on {raw_mismatch}, which is why the "
                   "family is canonicalized)")


def test_criterion_5_necessity_ablations():
    """Removing any single placement flips the structural verdict."""
    rng = np.random.default_rng(2)
    total = non_flipping = beta_access_kept = 0
    for _ in range(100):
        n = int(rng.integers(4, 11))
        g = random_digraph(rng, n, 1.8 / n)
        plan = place_agents(decompose(g))
        a = structure_from_digraph(g)
        assert check_centralized(
            a, plan_observation_structure(plan.states, n)).observable
        for k, p in enumerate(plan.placements):
            kept = tuple(q.state for j, q in enumerate(plan.placements) if j != k)
            verdict = check_centralized(
                a, plan_observation_structure(kept, n))
            total += 1
            if verdict.observable:
                non_flipping += 1
            elif p.kind != ALPHA and verdict.accessible:
                beta_access_kept += 1  # beta removal should cut accessibility
    ok = non_flipping == 0
    _report(5, ok, f"{total} ablations on 100 digraphs, {non_flipping} left "
                   f"the verdict observable ({beta_access_kept} beta removals "
                   "broke S-rank instead of accessibility)")


def test_criterion_6_structural_numeric_agreement():
    """Structural verdicts vs finite-field observability rank, 20 seeds."""
    rng = np.random.default_rng(3)
    pairs = agreeing = 0

    # centralized (A, H) instances, n <= 8
    for _ in range(10):
        n = int(rng.integers(3, 9))
        g = random_digraph(rng, n, 1.8 / n)
        a_s = structure_from_digraph(g)
        k = int(rng.integers(1, min(4, n) + 1))
        states = tuple(int(v) for v in rng.choice(n, size=k, replace=False))
        h_s = plan_observation_structure(states, n)
        verdict = check_centralized(a_s, h_s).observable
        for seed in range(20):
            a = random_realization(a_s, GF, seed=seed)
            h = random_realization(h_s, GF, seed=seed + 1)
            pairs += 1
            agreeing += int((observability_rank(a, h) == n) == verdict)

    # fused (W kron A, D_H) instances from canonical designs, N <= 4
    fused = 0
    while fused < 5:
        n = int(rng.integers(4, 9))
        g = random_digraph(rng, n, 1.8 / n)
        dec = decompose(g)
        plan = place_agents(dec)
        if not 1 <= len(plan.placements) <= 4:
            continue
        fused += 1
        net = design_canonical(plan)
        a_s = structure_from_digraph(g)
        verdict = (check_distributed(net, a_s).observable
                   and verify_topology(net, dec).ok)
        d_s = fused_observation_structure(net, n)
        full = net.agent_count * n
        for seed in range(20):
            w = stochastic_realization_gf(w_structure(net), seed=seed)
            a = random_realization(a_s, GF, seed=seed)
            d = random_realization(d_s, GF, seed=seed + 1)
            rank = observability_rank(kron_numeric(w, a), d)
            pairs += 1
            agreeing += int((rank == full) == verdict)

    rate = agreeing / pairs
    ok = rate >= 0.95
    _report(6, ok, f"{agreeing}/{pairs} (instance, seed) pairs agree "
                   f"({rate:.1%}, threshold 95%)")


def test_criterion_7_distributed_ablation():
    """Canonical fixture design reaches rank N*n; cutting one load-bearing
    alpha broadcast edge drops the rank in all 20 seeds."""
    g = six_state_demo()
    dec = decompose(g)
    plan = place_agents(dec)
    net = design_canonical(plan)
    a_s = structure_from_digraph(g)
    n, full = 6, net.agent_count * 6

    # the load-bearing agent observes the contraction nobody else touches
    observed = {p.state for p in plan.placements}
    lone = next(p.agent for p in plan.placements if p.kind == ALPHA
                and not (dec.family.sets[p.covers_contraction].members
                         & (observed - {p.state})))
    drop = min(e for e in net.alpha_edges if e[0] == lone)
    crippled = AgentNetwork(net.agent_count, net.alpha_edges - {drop},
                            net.beta_edges, net.observations)

    d_full = fused_observation_structure(net, n)
    d_crip = fused_observation_structure(crippled, n)
    full_ok = drop_ok = 0
    for seed in range(20):
        a = random_realization(a_s, GF, seed=seed)
        w1 = stochastic_realization_gf(w_structure(net), seed=seed)
        w2 = stochastic_realization_gf(w_structure(crippled), seed=seed)
        d1 = random_realization(d_full, GF, seed=seed + 1)
        d2 = random_realization(d_crip, GF, seed=seed + 1)
        full_ok += int(observability_rank(kron_numeric(w1, a), d1) == full)
        drop_ok += int(observability_rank(kron_numeric(w2, a), d2) < full)
    ok = full_ok == 20 and drop_ok == 20
    _report(7, ok, f"canonical rank == {full} in {full_ok}/20 seeds; "
                   f"removing alpha edge {drop} degrades rank in {drop_ok}/20")


def test_criterion_8_estimator_properties():
    """Gain search succeeds (rho < 1), noiseless decay tracks rho^2 within
    5%, and an unobservable unstable configuration diverges past 1e6 in 200
    steps.  These are property-based substitutes: the source material gives
    no quantitative estimation results to reproduce."""
    g = six_state_demo()
    plan = place_agents(decompose(g))
    net = design_canonical(plan)
    rng = np.random.default_rng(4)
    s = structure_from_digraph(g)
    base = np.zeros((6, 6))
    for i, j in s.support:
        base[i, j] = rng.uniform(0.4, 1.0)

    from netobserve.numeric import REAL, Realization
    a = Realization(base * (0.95 / max(abs(np.linalg.eigvals(base)))), REAL, 0)
    w = stochastic_realization(w_structure(net), seed=0)
    sched = gain_search(w, a, net, budget=10_000, seed=1)
    decay_ok = False
    observed_rate = float("nan")
    if sched.found:
        trace = simulate(w, a, net, sched, horizon=80,
                         process_noise=0.0, observation_noise=0.0, seed=2)
        m = trace.mse.mean(axis=1)
        window = 10
        observed_rate = (m[60] / m[60 - window]) ** (1 / window)
        decay_ok = abs(observed_rate - sched.spectral_radius ** 2) \
            <= 0.05 * sched.spectral_radius ** 2

    a_unstable = Realization(
        base * (1.1 / max(abs(np.linalg.eigvals(base)))), REAL, 0)
    crippled = AgentNetwork(
        net.agent_count,
        frozenset(e for e in net.alpha_edges if e[0] != 0),
        net.beta_edges, net.observations)
    w_crippled = stochastic_realization(w_structure(crippled), seed=0)
    zero = GainSchedule(tuple(np.zeros((6, 6)) for _ in range(3)), 1.1, False, 0)
    trace = simulate(w_crippled, a_unstable, crippled, zero, horizon=200,
                     process_noise=0.05, observation_noise=0.05, seed=3)
    diverged = bool(trace.mse.max() > 1e6)

    ok = sched.found and sched.spectral_radius < 1.0 and decay_ok and diverged
    _report(8, ok, f"gain search rho={sched.spectral_radius:.3f} "
                   f"({sched.evaluations} evaluations); noiseless decay rate "
                   f"{observed_rate:.4f} vs rho^2="
                   f"{sched.spectral_radius ** 2:.4f}; unstable unobservable "
                   f"max MSE {trace.mse.max():.2e} (> 1e6: {diverged})")
