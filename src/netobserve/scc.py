"""Strongly connected components, condensation order, and SCC taxonomy.

An SCC is *parent* when its component has no outgoing condensation edges,
*child* otherwise.  An SCC is *matched* when its internal edges admit a
union of disjoint cycles covering all of its nodes, i.e. the bipartite
graph of the component's internal edges has a perfect matching.  Cycles
cannot leave an SCC, so only internal edges participate: a singleton is
matched iff it has a self-loop, and no matching is run for it.  The
bipartite graph of the internal edges of the cyclic components (two or
more nodes) is block-diagonal per component, so one maximum matching of it
labels all of them: a cyclic component is matched iff all its nodes are.
Which maximum matching is found does not change the labels, so the search
may start from the pairs of any matching of the digraph that lie inside one
cyclic component, such as the canonical one a contraction family records.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .graph_core import Digraph
from .matching import hopcroft_karp


@dataclass(frozen=True)
class SccDecomposition:
    components: tuple[frozenset[int], ...]
    component_of: tuple[int, ...]
    condensation: Digraph


@dataclass(frozen=True)
class SccLabel:
    is_parent: bool
    is_matched: bool


def tarjan_scc(g: Digraph) -> SccDecomposition:
    """Tarjan's algorithm, iterative to survive deep recursion on large graphs.
    Components are numbered as they complete, from roots in increasing order:
    every condensation edge runs from a higher to a lower number."""
    n = g.node_count
    adj = g.successors()
    index = [-1] * n
    lowlink = [0] * n
    stack: list[int] = []
    components: list[frozenset[int]] = []
    component_of = [-1] * n  # a visited node is on the stack until numbered
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(adj[root]))]  # one frame per open node: its untried neighbours
        while work:
            v, untried = work[-1]
            for w in untried:
                if index[w] == -1:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if component_of[w] == -1 and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:
                if lowlink[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        component_of[w] = len(components)
                        comp.append(w)
                        if w == v:
                            break
                    components.append(frozenset(comp))
                work.pop()
                if work:
                    u = work[-1][0]
                    if lowlink[v] < lowlink[u]:
                        lowlink[u] = lowlink[v]

    cond_edges = set()
    for s, succ in enumerate(adj):
        cs = component_of[s]
        for t in succ:
            if component_of[t] != cs:
                cond_edges.add((cs, component_of[t]))
    return SccDecomposition(
        components=tuple(components),
        component_of=tuple(component_of),
        condensation=Digraph(len(components), frozenset(cond_edges)),
    )


def classify_sccs(g: Digraph, d: SccDecomposition,
                  matching: Mapping[int, int]) -> tuple[SccLabel, ...]:
    """Label every component as parent/child and matched/unmatched.

    ``matching``, a matching (plus -> minus) of ``g``'s edges such as
    ``contractions(g).matching``, seeds the taxonomy matching with its
    pairs inside cyclic components; the labels do not depend on it.
    """
    out_degree = [0] * len(d.components)
    for s, _ in d.condensation.edges:
        out_degree[s] += 1
    comp = d.component_of
    adj = g.successors()
    size = [len(c) for c in d.components]
    covered = [True] * len(d.components)
    internal: list[Sequence[int]] = [()] * g.node_count
    for v, c in enumerate(comp):
        if size[c] > 1:
            internal[v] = [t for t in adj[v] if comp[t] == c]
        elif v not in adj[v]:  # a singleton without a self-loop
            covered[c] = False
    start = {p: m for p, m in matching.items()
             if comp[p] == comp[m] and size[comp[p]] > 1}  # edges of ``internal``
    matched = hopcroft_karp(g.node_count, internal, start)
    for v, c in enumerate(comp):
        if size[c] > 1 and v not in matched:
            covered[c] = False
    return tuple(
        SccLabel(is_parent=(out_degree[i] == 0), is_matched=covered[i])
        for i in range(len(d.components))
    )


def matched_parent_indices(labels: tuple[SccLabel, ...]) -> tuple[int, ...]:
    return tuple(i for i, lab in enumerate(labels) if lab.is_parent and lab.is_matched)

