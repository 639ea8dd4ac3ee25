"""The graph kernels return exactly what the frozen references in
``tests.oracles`` return: the adjacency, the matching, the components in
their numbering, the condensation and the taxonomy labels.  Contraction
families depend on which maximum matching is found, and the distributed
check relies on Tarjan's numbering, so equal-up-to-isomorphism is not
enough."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netobserve.graph_core import Digraph
from netobserve.matching import contractions, hopcroft_karp
from netobserve.scc import classify_sccs, tarjan_scc

from .oracles import (
    blogs_shaped,
    corpus_graphs,
    frozen_classify_sccs,
    frozen_hopcroft_karp,
    frozen_successors,
    frozen_tarjan_scc,
)
from .test_graph_core import small_digraphs


def random_digraphs(seed: int, count: int):
    """Digraphs of 0-40 nodes at several densities, with self-loops and
    nodes left isolated."""
    rng = random.Random(seed)
    yield Digraph(0)
    yield Digraph(1)
    yield Digraph(1, frozenset({(0, 0)}))
    for _ in range(count):
        n = rng.randint(1, 40)
        p = rng.choice((0.03, 0.08, 0.15, 0.3, 0.6))
        isolated = set(rng.sample(range(n), rng.randint(0, n // 4)))
        yield Digraph(n, frozenset(
            (s, t) for s in range(n) for t in range(n)
            if rng.random() < p and s not in isolated and t not in isolated))


def assert_matching_equal(n, adjacency):
    got = hopcroft_karp(n, adjacency)
    assert got == frozen_hopcroft_karp(n, adjacency)
    assert list(got) == sorted(got)


def assert_kernels_equal(g: Digraph):
    adj = g.successors()
    assert adj == frozen_successors(g)
    assert_matching_equal(g.node_count, adj)
    assert_matching_equal(g.node_count, [tuple(reversed(a)) for a in adj])
    d, ref = tarjan_scc(g), frozen_tarjan_scc(g)
    assert d.components == ref.components
    assert d.component_of == ref.component_of
    assert d.condensation == ref.condensation
    assert d.has_cycle == ref.has_cycle
    assert classify_sccs(g, d, contractions(g).matching) == frozen_classify_sccs(g, ref)
    comp = d.component_of
    internal = [[t for t in succ if comp[t] == comp[s]] for s, succ in enumerate(adj)]
    assert_matching_equal(g.node_count, internal)


def test_random_digraphs_match_frozen_kernels():
    for g in random_digraphs(seed=13, count=400):
        assert_kernels_equal(g)


def test_minus_side_wider_than_plus_side():
    """Rows of a surplus block: minus ids run past the plus count."""
    rng = random.Random(7)
    for _ in range(300):
        n_plus, n_minus = rng.randint(0, 12), rng.randint(0, 30)
        adjacency = [sorted(rng.sample(range(n_minus), rng.randint(0, min(n_minus, 4))))
                     for _ in range(n_plus)]
        assert_matching_equal(n_plus, adjacency)


@pytest.mark.parametrize("variant", ["plain", "self-loops"])
def test_corpus_sized_graph_matches_frozen_kernels(variant):
    g = corpus_graphs()[variant == "self-loops"]
    assert (g.node_count, len(frozenset(e for e in g.edges if e[0] != e[1]))) == (1224, 15_500)
    assert_kernels_equal(g)


def random_start(rng: random.Random, adjacency) -> dict[int, int]:
    """A random matching of edges of ``adjacency``: the edges in random
    order, each kept with probability 0.7 when both its ends are free."""
    edges = [(p, m) for p, succ in enumerate(adjacency) for m in succ]
    rng.shuffle(edges)
    start: dict[int, int] = {}
    taken: set[int] = set()
    for p, m in edges:
        if p not in start and m not in taken and rng.random() < 0.7:
            start[p] = m
            taken.add(m)
    return start


def assert_warm_starts_exact(g: Digraph, rng: random.Random):
    """From a random start, ``hopcroft_karp`` still finds a maximum matching,
    and the taxonomy labels do not depend on the matching it starts from."""
    adj = g.successors()
    canonical = frozen_hopcroft_karp(g.node_count, adj)
    family = contractions(g)
    assert family.matching == canonical
    labels = frozen_classify_sccs(g, frozen_tarjan_scc(g))
    d = tarjan_scc(g)
    assert classify_sccs(g, d, family.matching) == labels
    for _ in range(3):
        start = random_start(rng, adj)
        got = hopcroft_karp(g.node_count, adj, start)
        assert len(got) == len(canonical)
        assert len(set(got.values())) == len(got)
        assert all(m in adj[p] for p, m in got.items())
        assert classify_sccs(g, d, start) == labels


@given(small_digraphs(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_warm_started_matchings_are_maximum(g, rng):
    assert_warm_starts_exact(g, rng)


def test_warm_started_matchings_are_maximum_on_corpus_sized_graph():
    assert_warm_starts_exact(blogs_shaped(1), random.Random(3))
