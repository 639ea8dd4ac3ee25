"""Strongly connected components, condensation order, and SCC taxonomy.

An SCC is *parent* when its component has no outgoing condensation edges,
*child* otherwise.  An SCC is *matched* when its internal edges admit a
union of disjoint cycles covering all of its nodes, i.e. the bipartite
graph of the component's internal edges has a perfect matching.  Cycles
cannot leave an SCC, so only internal edges participate; in particular a
singleton without a self-loop is unmatched.  The bipartite graph of all
intra-SCC edges is block-diagonal per component, so one maximum matching
of it labels every component: a component is matched iff all its nodes are.
"""

from __future__ import annotations

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
    """Tarjan's algorithm, iterative to survive deep recursion on large graphs."""
    n = g.node_count
    adj = g.successors()
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[frozenset[int]] = []
    component_of = [-1] * n
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if recurse:
                continue
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component_of[w] = len(components)
                    comp.append(w)
                    if w == v:
                        break
                components.append(frozenset(comp))
            work.pop()
            if work:
                u = work[-1][0]
                lowlink[u] = min(lowlink[u], lowlink[v])

    cond_edges = set()
    for s, t in g.edges:
        cs, ct = component_of[s], component_of[t]
        if cs != ct:
            cond_edges.add((cs, ct))
    return SccDecomposition(
        components=tuple(components),
        component_of=tuple(component_of),
        condensation=Digraph(len(components), frozenset(cond_edges)),
    )


def classify_sccs(g: Digraph, d: SccDecomposition) -> tuple[SccLabel, ...]:
    """Label every component as parent/child and matched/unmatched."""
    out_degree = [0] * len(d.components)
    for s, _ in d.condensation.edges:
        out_degree[s] += 1
    comp = d.component_of
    internal = [[t for t in succ if comp[t] == comp[s]]
                for s, succ in enumerate(g.successors())]
    matched = hopcroft_karp(g.node_count, internal)
    covered = [True] * len(d.components)
    for v in range(g.node_count):
        if v not in matched:
            covered[comp[v]] = False
    return tuple(
        SccLabel(is_parent=(out_degree[i] == 0), is_matched=covered[i])
        for i in range(len(d.components))
    )


def matched_parent_indices(labels: tuple[SccLabel, ...]) -> tuple[int, ...]:
    return tuple(i for i, lab in enumerate(labels) if lab.is_parent and lab.is_matched)

