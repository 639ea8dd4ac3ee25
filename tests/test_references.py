"""The decomposition of a corpus-sized graph checked against scipy, which
shares no code with the library: the structural rank, the union of the
contraction sets, the SCC partition and condensation, and each component's
parent and matched labels."""

import numpy as np
import pytest

scipy_sparse = pytest.importorskip("scipy.sparse")
csgraph = pytest.importorskip("scipy.sparse.csgraph")

from netobserve.classify import decompose  # noqa: E402

from .oracles import corpus_graphs  # noqa: E402


def matching_size(rows, cols, shape) -> int:
    """Size of a maximum matching of the bipartite graph rows x cols."""
    m = scipy_sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=shape)
    return int((csgraph.maximum_bipartite_matching(m, perm_type="column") >= 0).sum())


@pytest.fixture(scope="module", params=["plain", "self-loops"])
def corpus(request):
    g = corpus_graphs()[request.param == "self-loops"]
    src, dst = np.array(sorted(g.edges)).T
    return g, decompose(g), src, dst


def test_structural_rank_and_contraction_union(corpus):
    """s_rank is scipy's matching size; a plus node lies in some contraction
    set iff dropping its edges keeps that size (some maximum matching leaves
    it unmatched)."""
    g, dec, src, dst = corpus
    n = g.node_count
    rank = matching_size(src, dst, (n, n))
    assert dec.s_rank == rank
    avoidable = set()
    for s in range(n):
        keep = src != s
        if matching_size(src[keep], dst[keep], (n, n)) == rank:
            avoidable.add(s)
    assert dec.family.union_members == avoidable


def test_scc_partition_condensation_and_labels(corpus):
    g, dec, src, dst = corpus
    n = g.node_count
    a = scipy_sparse.csr_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
    count, label = csgraph.connected_components(a, directed=True, connection="strong")
    members = [frozenset(np.flatnonzero(label == c).tolist()) for c in range(count)]
    assert set(dec.sccs.components) == set(members)
    assert all(dec.sccs.components[dec.sccs.component_of[v]] == members[label[v]]
               for v in range(n))

    cross = label[src] != label[dst]
    condensation = {(members[s], members[t])
                    for s, t in zip(label[src[cross]], label[dst[cross]])}
    components = dec.sccs.components
    assert {(components[s], components[t]) for s, t in dec.sccs.condensation.edges} \
        == condensation
    parents = set(members) - {s for s, _ in condensation}

    internal = ~cross
    for comp, lab in zip(components, dec.labels):
        assert lab.is_parent == (comp in parents)
        nodes = np.array(sorted(comp))
        inside = internal & np.isin(src, nodes)
        k = len(nodes)
        perfect = matching_size(np.searchsorted(nodes, src[inside]),
                                np.searchsorted(nodes, dst[inside]), (k, k)) == k
        assert lab.is_matched == perfect, sorted(comp)
