"""Results checked against scipy and networkx, which share no code with the
library.

* The decomposition of a corpus-sized graph: the structural rank, the union
  of the contraction sets, the SCC partition and condensation, and each
  component's parent and matched labels.
* The distributed check and the topology conditions on a design-mixed
  graph: ``check_distributed`` against the fused pair (W kron A, D_H) built
  as sparse matrices, and ``verify_topology`` against conditions (i) and
  (ii) evaluated with networkx, on the canonical design and crippled copies.
"""

import numpy as np
import pytest

scipy_sparse = pytest.importorskip("scipy.sparse")
csgraph = pytest.importorskip("scipy.sparse.csgraph")
nx = pytest.importorskip("networkx")

from dataclasses import replace  # noqa: E402

from netobserve.classify import ALPHA, decompose, place_agents  # noqa: E402
from netobserve.graph_core import Digraph  # noqa: E402
from netobserve.netdesign import TopologyVerdict, design_canonical, verify_topology  # noqa: E402
from netobserve.structural_check import ObservabilityVerdict, check_distributed  # noqa: E402

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


def heard_by(net) -> list[set[int]]:
    """Per agent: itself and every agent with an alpha edge into it."""
    heard = [{i} for i in range(net.agent_count)]
    for u, v in net.alpha_edges:
        heard[v].add(u)
    return heard


def fused_reference(net, n: int, arcs) -> ObservabilityVerdict:
    """The verdict on (W kron A, D_H) built explicitly: W has the diagonal
    and entry (v, u) per beta edge (u, v), A entry (t, s) per arc s -> t,
    and D_H one unit row per state an agent hears of.  The rank is scipy's
    matching size of the stacked rows; a fused state is accessible iff a
    breadth-first search back from the observed fused states reaches it."""
    agents = net.agent_count
    dim = agents * n
    w_entries = [(i, i) for i in range(agents)] + [(v, u) for u, v in net.beta_edges]
    w = scipy_sparse.csr_matrix((np.ones(len(w_entries)), tuple(zip(*w_entries))),
                                shape=(agents, agents))
    src, dst = np.array(arcs).T
    a = scipy_sparse.csr_matrix((np.ones(len(src)), (dst, src)), shape=(n, n))
    fused = scipy_sparse.kron(w, a, format="csr")
    observed = sorted({i * n + p.state for i, heard in enumerate(heard_by(net))
                       for j in heard for p in net.observations[j]})
    d_h = scipy_sparse.csr_matrix((np.ones(len(observed)), (range(len(observed)), observed)),
                                  shape=(len(observed), dim))
    # matched from the column side: scipy's search from the 2x longer row
    # side of the stacked pair can take minutes on a cut ring
    stacked = scipy_sparse.vstack([fused, d_h], format="csr").T.tocsr()
    rank = int((csgraph.maximum_bipartite_matching(stacked, perm_type="column") >= 0).sum())
    # row r of W kron A lists the fused states that drive r: search from a
    # root linked to every observed state back along those entries
    root = scipy_sparse.csr_matrix((np.ones(len(observed)), ([0] * len(observed), observed)),
                                   shape=(1, dim + 1))
    flow = scipy_sparse.vstack([scipy_sparse.hstack([fused, scipy_sparse.csr_matrix((dim, 1))]),
                                root], format="csr")
    reached = set(csgraph.breadth_first_order(flow, dim, directed=True,
                                              return_predecessors=False).tolist())
    inaccessible = tuple(v for v in range(dim) if v not in reached)
    return ObservabilityVerdict(accessible=not inaccessible, inaccessible_states=inaccessible,
                                s_rank_ok=rank == dim, deficiency=dim - rank)


def topology_reference(net, dec) -> TopologyVerdict:
    """Conditions (i) and (ii) per agent, the beta paths from networkx."""
    beta = nx.DiGraph()
    beta.add_nodes_from(range(net.agent_count))
    beta.add_edges_from(net.beta_edges)

    def observe(agents, states, kinds):
        return any(p.state in states and p.kind in kinds
                   for j in agents for p in net.observations[j])

    violations = []
    for i, heard in enumerate(heard_by(net)):
        for ci, c in enumerate(dec.family.sets):
            if not observe(heard, c.members, {ALPHA}):
                violations.append((i, f"(i): no direct alpha link covering contraction {ci}"))
        sends = heard | nx.descendants(beta, i)
        for j in dec.matched_parents:
            if not observe(sends, dec.sccs.components[j], {ALPHA, "beta"}):
                violations.append(
                    (i, f"(ii): no direct link or beta path to an observer of SCC {j}"))
    return TopologyVerdict(ok=not violations, violations=tuple(violations))


@pytest.fixture(scope="module")
def mixed_design():
    from perfbench.workloads import design_mixed

    n, arcs = design_mixed(np.random.default_rng(39))[0]
    dec = decompose(Digraph(n, frozenset(arcs)))
    return n, arcs, dec, design_canonical(place_agents(dec))


def crippled_copies(net, dec):
    """One alpha edge dropped from the broadcaster that alone observes a
    contraction set, and the beta ring cut once."""
    lone = next(agents.pop() for c in dec.family.sets
                if len(agents := {i for i, obs in enumerate(net.observations) for p in obs
                                  if p.kind == ALPHA and p.state in c.members}) == 1)
    deprived = net.agent_count - 1 if lone != net.agent_count - 1 else 0
    return {
        "alpha-dropped": replace(net, alpha_edges=net.alpha_edges - {(lone, deprived)}),
        "ring-cut": replace(net, beta_edges=net.beta_edges - {min(net.beta_edges)}),
    }, (lone, deprived)


@pytest.mark.parametrize("case", ["canonical", "alpha-dropped", "ring-cut"])
def test_fused_check_and_topology_match_references(mixed_design, case):
    n, arcs, dec, net = mixed_design
    assert 54 <= net.agent_count <= 55
    copies, (lone, deprived) = crippled_copies(net, dec)
    candidate = copies.get(case, net)
    alpha = candidate.alpha_edges
    if case == "alpha-dropped":  # the broadcaster's other edges become explicit
        assert lone not in alpha.broadcast and lone in net.alpha_edges.broadcast
        assert alpha.explicit == {(lone, v) for v in range(net.agent_count)
                                  if v not in (lone, deprived)}
    verdict = check_distributed(candidate, dec)
    assert verdict == fused_reference(candidate, n, arcs)
    topology = verify_topology(candidate, dec)
    assert topology == topology_reference(candidate, dec)
    assert (verdict.observable, topology.ok) == (
        (True, True) if case == "canonical" else (False, False))
