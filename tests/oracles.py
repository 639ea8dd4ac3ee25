"""Independent brute-force oracles used to cross-check the library.

Everything in here is deliberately naive: exponential-time enumeration and
dense boolean linear algebra.  The point is that none of it shares code (or
algorithmic ideas) with the implementations under test.
"""
from __future__ import annotations

import math
import random
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, combinations

import numpy as np

from netobserve.classify import ALPHA, Decomposition
from netobserve.estimator import (
    ErrorTrace,
    GainSchedule,
    UnobservableSystemError,
    _observation_rows,
)
from netobserve.graph_core import Digraph, reachable
from netobserve.ingest import LabeledGraph
from netobserve.matching import hopcroft_karp
from netobserve.netdesign import (
    AgentNetwork,
    AlphaEdges,
    TopologyVerdict,
    _observer_union,
)
from netobserve.numeric import kron_numeric, observability_rank
from netobserve.scc import SccDecomposition, SccLabel
from netobserve.structural_check import ObservabilityVerdict, observed_fused_states


def brute_max_matching_size(n_plus: int, adjacency: dict[int, frozenset[int]]) -> int:
    """Maximum bipartite matching size via bitmask dynamic programming."""
    adj = [sorted(adjacency.get(u, ())) for u in range(n_plus)]
    # best[mask] = max matching using plus nodes 0..k-1 and minus-set mask
    best = {0: 0}
    for u in range(n_plus):
        nxt = dict(best)
        for mask, size in best.items():
            for v in adj[u]:
                if not mask & (1 << v):
                    m2 = mask | (1 << v)
                    if nxt.get(m2, -1) < size + 1:
                        nxt[m2] = size + 1
        best = nxt
    return max(best.values())


def brute_structural_rank(g: Digraph, observed: Iterable[int] = ()) -> int:
    """Structural rank of [A; H]: A the structure of ``g`` (edge ``j -> i``
    is entry ``(i, j)``), H a unit row per ``observed`` state."""
    adjacency: dict[int, set[int]] = {}  # column -> its rows
    for j, i in g.edges:
        adjacency.setdefault(j, set()).add(i)
    for k, s in enumerate(observed):
        adjacency.setdefault(s, set()).add(g.node_count + k)
    adj = {u: frozenset(vs) for u, vs in adjacency.items()}
    return brute_max_matching_size(g.node_count, adj)


def column_deletion_avoidable(g: Digraph, states: Iterable[int]) -> bool:
    """Some maximum matching of ``g`` leaves every state of ``states``
    unmatched on the plus (column) side: deleting those columns keeps the
    maximum matching size.  The planner's pin trial, as it was decided
    before it asked the plan certificate's rank test."""
    deleted = set(states)
    adj = g.successors()
    kept = [() if s in deleted else succ for s, succ in enumerate(adj)]
    return len(hopcroft_karp(g.node_count, kept)) == len(hopcroft_karp(g.node_count, adj))


def kron_structure(w: Digraph, a: Digraph) -> Digraph:
    """Materialised Kronecker product W (x) A: block (i, j) is a copy of A
    wherever W has entry (i, j), i.e. edge ``(jw, ja) -> (iw, ia)`` for
    every edge ``jw -> iw`` of W and ``ja -> ia`` of A."""
    n = a.node_count
    return Digraph(w.node_count * n, frozenset(
        (jw * n + ja, iw * n + ia) for jw, iw in w.edges for ja, ia in a.edges))


def row_list_verdict(rows: Sequence[Sequence[int]], observed: Iterable[int]) -> ObservabilityVerdict:
    """Accessibility and structural rank of [A; H] from the row lists of a
    square A and the observed states, one unit row of H each: a BFS and one
    matching over all n + |H| rows, the reference for ``check_centralized``
    (rows ``g.predecessors()``) and ``check_distributed``."""
    n = len(rows)
    observed = list(observed)
    accessible = reachable(rows, observed)
    inaccessible = tuple(v for v in range(n) if v not in accessible)
    rank = len(hopcroft_karp(n + len(observed), [*rows, *([s] for s in observed)]))
    return ObservabilityVerdict(
        accessible=not inaccessible,
        inaccessible_states=inaccessible,
        s_rank_ok=(rank == n),
        deficiency=n - rank,
    )


def row_list_distributed(net: AgentNetwork, a: Digraph) -> ObservabilityVerdict:
    """The fused pair (W kron A, D_H) checked from its listed rows: row
    ``iw * n + ia`` holds ``jw * n + ja`` for every ``jw`` in row ``iw`` of W
    and every ``ja`` in row ``ia`` of A.  Lists all nnz(W) * nnz(A) entries,
    so it serves as the mid-scale reference for ``check_distributed``."""
    n = a.node_count
    fused = [[jw * n + ja for jw in w_row for ja in a_row]
             for w_row in net.fusion.predecessors() for a_row in a.predecessors()]
    return row_list_verdict(fused, observed_fused_states(net, n))


def emit_gml(lg: LabeledGraph) -> str:
    """Canonical GML for the supported subset, for writing test inputs and
    round-tripping through ``parse_gml``."""
    lines = ["graph [", f"  directed {1 if lg.directed else 0}"]
    for i, label in enumerate(lg.labels):
        lines.append(f'  node [ id {i} label "{label}" ]')
    if lg.directed:
        edges = sorted(lg.digraph.edges)
    else:
        edges = sorted({(min(s, t), max(s, t)) for s, t in lg.digraph.edges})
    for s, t in edges:
        lines.append(f"  edge [ source {s} target {t} ]")
    lines.append("]")
    return "\n".join(lines) + "\n"


def reachability_matrix(g: Digraph) -> np.ndarray:
    """Boolean reachability closure by repeated squaring (includes self)."""
    n = g.node_count
    r = np.eye(n, dtype=bool)
    for u, v in g.edges:
        r[u, v] = True
    for _ in range(max(1, n.bit_length())):
        r = r | (r @ r)
    return r


def brute_sccs(g: Digraph) -> list[frozenset[int]]:
    """SCCs as mutual-reachability classes, in some order."""
    r = reachability_matrix(g)
    seen: set[int] = set()
    out = []
    for u in range(g.node_count):
        if u in seen:
            continue
        comp = frozenset(v for v in range(g.node_count) if r[u, v] and r[v, u])
        seen |= comp
        out.append(comp)
    return out


def brute_component_matched(g: Digraph, comp: frozenset[int]) -> bool:
    """Internal edges of ``comp`` admit a perfect matching (a cycle cover)."""
    adjacency = {s: frozenset(t for u, t in g.edges if u == s and t in comp)
                 for s in comp}
    return brute_max_matching_size(g.node_count, adjacency) == len(comp)


def brute_accessible(g: Digraph, outputs: frozenset[int]) -> bool:
    """Every state reaches some directly observed state."""
    r = reachability_matrix(g)
    return all(any(r[u, y] for y in outputs) for u in range(g.node_count))


def minimal_deficient_sets(g: Digraph) -> list[frozenset[int]]:
    """Minimal column sets S of the structure of ``g`` with |N(S)| < |S|
    (Hall violators); column ``j``'s rows are the targets of ``j``'s edges.

    Exponential; keep inputs small.
    """
    n = g.node_count
    neighbors = {j: set() for j in range(n)}
    for j, i in g.edges:
        neighbors[j].add(i)
    found: list[frozenset[int]] = []
    for size in range(1, n + 1):
        for cols in combinations(range(n), size):
            if any(v <= set(cols) for v in found):
                continue
            hood = set().union(*(neighbors[j] for j in cols))
            if len(hood) < len(cols):
                found.append(frozenset(cols))
    return found


def random_digraph(rng: np.random.Generator, n: int, p: float) -> Digraph:
    edges = frozenset((u, v) for u in range(n) for v in range(n)
                      if rng.random() < p)
    return Digraph(n, edges)


def all_digraphs(n: int):
    """Every digraph on n nodes (2^(n^2) of them; use only for tiny n)."""
    cells = [(u, v) for u in range(n) for v in range(n)]
    for mask in range(1 << len(cells)):
        edges = frozenset(cells[k] for k in range(len(cells)) if mask >> k & 1)
        yield Digraph(n, edges)


def brute_observability_rank(a: np.ndarray, h: np.ndarray) -> int:
    n = a.shape[0]
    blocks = [h]
    for _ in range(n - 1):
        blocks.append(blocks[-1] @ a)
    return int(np.linalg.matrix_rank(np.vstack(blocks)))


def gf_observability_rank(a: np.ndarray, h: np.ndarray, p: int) -> int:
    """Rank over GF(p) of the stacked [H; HA; ...; HA^(n-1)], eliminated over
    Python ints (object arrays), so no product can overflow."""
    a = np.mod(a.astype(object), p)
    blocks = [np.mod(h.astype(object), p)]
    for _ in range(a.shape[0] - 1):
        blocks.append((blocks[-1] @ a) % p)
    m = np.vstack(blocks)
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r, col] != 0), None)
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = (m[rank] * pow(int(m[rank, col]), p - 2, p)) % p
        for r in range(rows):
            if r != rank and m[r, col] != 0:
                m[r] = (m[r] - m[r, col] * m[rank]) % p
        rank += 1
        if rank == rows:
            break
    return rank


def alpha_edge_set(net: AgentNetwork) -> frozenset[tuple[int, int]]:
    """The alpha layer of ``net`` as its full edge set, broadcasts expanded."""
    alpha = net.alpha_edges
    return alpha.explicit | {(u, v) for u in alpha.broadcast
                             for v in range(net.agent_count) if v != u}


def with_alpha_edges(net: AgentNetwork, edges: Iterable[tuple[int, int]]) -> AgentNetwork:
    """``net`` with the alpha layer given as a full edge set, e.g. an edited
    :func:`alpha_edge_set`."""
    return replace(net, alpha_edges=AlphaEdges(net.agent_count, (), edges))


def agent_sources(net: AgentNetwork) -> list[tuple[int, ...]]:
    """Per agent ``i``: ``i`` itself, then its alpha in-neighbors in
    increasing order."""
    return [(i, *sorted({*net.alpha_edges.broadcast, *extra} - {i}))
            for i, extra in enumerate(net.alpha_in)]


def per_agent_verify_topology(net: AgentNetwork, dec: Decomposition) -> TopologyVerdict:
    """Conditions (i) and (ii) with one forward BFS over the beta layer per
    agent: quadratic in the agent count, the reference for
    ``verify_topology``."""
    observers: dict[int, set[int]] = {}
    alpha_observers: dict[int, set[int]] = {}
    for agent, placements in enumerate(net.observations):
        for p in placements:
            observers.setdefault(p.state, set()).add(agent)
            if p.kind == ALPHA:
                alpha_observers.setdefault(p.state, set()).add(agent)
    contraction_observers = [_observer_union(alpha_observers, c.members)
                             for c in dec.family.sets]
    scc_observers = [(j, _observer_union(observers, dec.sccs.components[j]))
                     for j in dec.matched_parents]

    violations: list[tuple[int, str]] = []
    beta_fwd = Digraph(net.agent_count, net.beta_edges).successors()
    for i, sources in enumerate(agent_sources(net)):
        direct = set(sources)
        for ci, found in enumerate(contraction_observers):
            if direct.isdisjoint(found):
                violations.append(
                    (i, f"(i): no direct alpha link covering contraction {ci}"))
        sends_to = reachable(beta_fwd, [i])
        for j, found in scc_observers:
            if not direct.isdisjoint(found):
                continue  # (ii-a)
            if not sends_to.isdisjoint(found):
                continue  # (ii-b), send direction
            violations.append(
                (i, f"(ii): no direct link or beta path to an observer of SCC {j}"))
    return TopologyVerdict(ok=not violations, violations=tuple(violations))


def fused_observation_realization(net: AgentNetwork, n: int) -> np.ndarray:
    """Block-diagonal D_H with blocks sum_j H_j^T H_j over alpha in-neighborhoods."""
    h, r = _observation_rows(net, n)
    return np.diag((r @ h).ravel())


def _assemble_gain(blocks, n_agents: int, n: int) -> np.ndarray:
    big = np.zeros((n_agents * n, n_agents * n))
    for i, k in enumerate(blocks):
        big[i * n:(i + 1) * n, i * n:(i + 1) * n] = k
    return big


def _closed_loop(m: np.ndarray, kbar: np.ndarray, d_h: np.ndarray
                 ) -> tuple[np.ndarray, float]:
    f = m - kbar @ d_h @ m
    return f, float(np.max(np.abs(np.linalg.eigvals(f))))


def dense_gain_search(w: np.ndarray, a: np.ndarray, net: AgentNetwork,
                      budget: int = 10_000, seed: int = 0) -> GainSchedule:
    """The gain search on the dense fused matrices: D_H as a full diagonal
    matrix and the centralized gain through a pseudo-inverse of the whole
    innovation covariance ``D_H S D_H + I``.  The reference for
    ``estimator.gain_search``, which solves on the observed block only."""
    n_agents = net.agent_count
    n = a.shape[0]
    dim = n_agents * n
    m = kron_numeric(w, a)
    d_h = fused_observation_realization(net, n)

    rank = observability_rank(m, d_h)
    if rank < dim:
        raise UnobservableSystemError(rank, dim)

    def project(g: np.ndarray) -> list[np.ndarray]:
        return [g[i * n:(i + 1) * n, i * n:(i + 1) * n].copy() for i in range(n_agents)]

    q = np.eye(dim)
    r = np.eye(dim)
    p = np.eye(dim)
    evaluations = 0
    best_blocks = [np.zeros((n, n)) for _ in range(n_agents)]
    _, best_rho = _closed_loop(m, _assemble_gain(best_blocks, n_agents, n), d_h)
    evaluations += 1

    for _ in range(min(200, budget)):
        s = m @ p @ m.T + q
        g = s @ d_h.T @ np.linalg.pinv(d_h @ s @ d_h.T + r)
        blocks = project(g)
        kbar = _assemble_gain(blocks, n_agents, n)
        _, rho = _closed_loop(m, kbar, d_h)
        evaluations += 1
        if rho < best_rho:
            best_rho, best_blocks = rho, blocks
        ikd = np.eye(dim) - kbar @ d_h
        p = ikd @ s @ ikd.T + kbar @ r @ kbar.T
        if evaluations >= budget:
            break

    rng = np.random.default_rng(seed)
    scale = 0.5
    while best_rho >= 1.0 and evaluations < budget:
        blocks = [k + scale * rng.standard_normal(k.shape) for k in best_blocks]
        _, rho = _closed_loop(m, _assemble_gain(blocks, n_agents, n), d_h)
        evaluations += 1
        if rho < best_rho:
            best_rho, best_blocks = rho, blocks
            scale = max(scale * 0.9, 1e-3)

    return GainSchedule(tuple(best_blocks), best_rho, best_rho < 1.0, evaluations)


def blogs_shaped(seed: int, n: int = 1224, arcs: int = 15_500) -> Digraph:
    """A blogs-sized digraph (the corpus has 1,224 nodes) drawn with
    ``random.Random`` and correctly rounded float operations only, so it is
    the same under every numpy and platform: exactly ``arcs`` distinct
    non-loop arcs, with zipf-like out-degree (weight 1/k), 30% sinks and
    popular targets (weight 1/sqrt(k))."""
    rng = random.Random(seed)
    out_w = [1.0 / k for k in range(1, n + 1)]
    in_w = [1.0 / math.sqrt(k) for k in range(1, n + 1)]
    rng.shuffle(out_w)
    rng.shuffle(in_w)
    for s in rng.sample(range(n), round(0.3 * n)):
        out_w[s] = 0.0
    out_cum, in_cum = list(accumulate(out_w)), list(accumulate(in_w))
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < arcs:
        src = rng.choices(range(n), cum_weights=out_cum, k=arcs)
        dst = rng.choices(range(n), cum_weights=in_cum, k=arcs)
        for s, t in zip(src, dst):
            if s != t:
                chosen.add((s, t))
                if len(chosen) == arcs:
                    break
    return Digraph(n, frozenset(chosen))


def corpus_graphs():
    """The blogs-shaped graph, plain (no matched component) and with a
    self-loop on every fifth node (matched parent singletons)."""
    g = blogs_shaped(1)
    loops = frozenset((v, v) for v in range(0, g.node_count, 5))
    return [g, Digraph(g.node_count, g.edges | loops)]


# Frozen references: the graph kernels as they were before they were
# rewritten for speed, kept to check that the rewrite returns exactly what
# they return.  Copied verbatim, except that they call each other instead
# of the library's kernels.

_INF = -1


@dataclass(frozen=True)
class FrozenDigraph:
    """``Digraph`` as it was when it stored a frozenset of edge tuples and
    bucketed them by source, or by target, on first use."""

    node_count: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.node_count < 0:
            raise ValueError(f"negative node count: {self.node_count}")
        if not isinstance(self.edges, frozenset):
            object.__setattr__(self, "edges", frozenset(self.edges))
        for s, t in self.edges:
            if not (0 <= s < self.node_count and 0 <= t < self.node_count):
                raise ValueError(f"edge ({s}, {t}) out of range [0, {self.node_count})")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def successors(self) -> tuple[tuple[int, ...], ...]:
        return self._successors

    @cached_property
    def _successors(self) -> tuple[tuple[int, ...], ...]:
        return _frozen_buckets(self.node_count, self.edges)

    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        return self._predecessors

    @cached_property
    def _predecessors(self) -> tuple[tuple[int, ...], ...]:
        return _frozen_buckets(self.node_count, ((t, s) for s, t in self.edges))


def _frozen_buckets(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Per key ``0..n-1``, the sorted values of the ``(key, value)`` pairs."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for k, v in pairs:
        adj[k].append(v)
    for values in adj:
        values.sort()
    return tuple(map(tuple, adj))


def frozen_successors(g: Digraph) -> tuple[tuple[int, ...], ...]:
    """``Digraph.successors`` by one sort of all edge tuples."""
    adj: list[list[int]] = [[] for _ in range(g.node_count)]
    for s, t in sorted(g.edges):
        adj[s].append(t)
    return tuple(map(tuple, adj))


def frozen_hopcroft_karp(node_count: int, adjacency: Sequence[Sequence[int]]) -> dict[int, int]:
    """``matching.hopcroft_karp`` with dict-based pairs and layers."""
    pair_plus: dict[int, int] = {}
    pair_minus: dict[int, int] = {}
    dist: dict[int, int] = {}

    def bfs() -> bool:
        queue: deque[int] = deque()
        for p in range(node_count):
            if p not in pair_plus:
                dist[p] = 0
                queue.append(p)
            else:
                dist[p] = _INF
        found = False
        while queue:
            p = queue.popleft()
            for m in adjacency[p]:
                q = pair_minus.get(m)
                if q is None:
                    found = True
                elif dist[q] == _INF:
                    dist[q] = dist[p] + 1
                    queue.append(q)
        return found

    def dfs(p: int) -> None:
        # The alternating path is kept on an explicit stack of
        # (plus node, its untried neighbours, minus node leading onward).
        untried = iter(adjacency[p])
        stack: list[tuple[int, Iterator[int], int]] = []
        while True:
            layer = dist[p] + 1
            for m in untried:
                q = pair_minus.get(m)
                if q is None:  # free minus node: augment along the path
                    pair_plus[p] = m
                    pair_minus[m] = p
                    for p, _, m in stack:
                        pair_plus[p] = m
                        pair_minus[m] = p
                    return
                if dist[q] == layer:
                    stack.append((p, untried, m))
                    p, untried = q, iter(adjacency[q])
                    break
            else:
                dist[p] = _INF  # dead end: no augmenting path through p
                if not stack:
                    return
                p, untried, _ = stack.pop()

    while bfs():
        for p in range(node_count):
            if p not in pair_plus:
                dfs(p)
    return pair_plus


def frozen_overlap_matching(dec: Decomposition) -> dict[int, int]:
    """``classify._overlap_matching`` as it was before it indexed members by
    component: one set intersection per contraction set and matched parent."""
    parents = dec.matched_parents
    comp_nodes = [dec.sccs.components[j] for j in parents]
    size = max(len(dec.family.sets), len(parents), 1)
    adj: list[list[int]] = [[] for _ in range(size)]
    for ci, c in enumerate(dec.family.sets):
        adj[ci] = [pj for pj, nodes in enumerate(comp_nodes) if c.members & nodes]
    pair = frozen_hopcroft_karp(size, adj)
    return {ci: pj for ci, pj in pair.items() if ci < len(dec.family.sets)}


def frozen_tarjan_scc(g: Digraph) -> SccDecomposition:
    """``scc.tarjan_scc`` indexing each node's neighbours by position, with
    each component's cycle flag read from the edge set afterwards."""
    n = g.node_count
    adj = frozen_successors(g)
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
        has_cycle=tuple(len(c) > 1 or (min(c), min(c)) in g.edges for c in components),
    )


def frozen_classify_sccs(g: Digraph, d: SccDecomposition) -> tuple[SccLabel, ...]:
    """``scc.classify_sccs`` by one matching of all intra-SCC edges."""
    out_degree = [0] * len(d.components)
    for s, _ in d.condensation.edges:
        out_degree[s] += 1
    comp = d.component_of
    internal = [[t for t in succ if comp[t] == comp[s]]
                for s, succ in enumerate(frozen_successors(g))]
    matched = frozen_hopcroft_karp(g.node_count, internal)
    covered = [True] * len(d.components)
    for v in range(g.node_count):
        if v not in matched:
            covered[comp[v]] = False
    return tuple(
        SccLabel(is_parent=(out_degree[i] == 0), is_matched=covered[i])
        for i in range(len(d.components))
    )


# The estimator's loops as they were before the spectral radii were taken in
# batches and the noise drawn in blocks of steps: one ``eigvals`` call per
# iterate, two generator draws per step.  Copied verbatim, except that the
# search calls ``frozen_closed_loop``.

def frozen_closed_loop(m: np.ndarray, blocks: np.ndarray, d: np.ndarray
                       ) -> tuple[np.ndarray, float]:
    """Dense block-diagonal K of the agents x n x n ``blocks``, and rho(F)
    for F = M - (K * d) M, i.e. K D_H as a column scaling."""
    n_agents, n, _ = blocks.shape
    k = np.zeros((n_agents, n, n_agents, n))
    agents = np.arange(n_agents)
    k[agents, :, agents, :] = blocks
    k = k.reshape(n_agents * n, n_agents * n)
    f = m - (k * d) @ m
    return k, float(np.max(np.abs(np.linalg.eigvals(f))))


def frozen_gain_search(w: np.ndarray, a: np.ndarray, net: AgentNetwork,
                       budget: int = 10_000, seed: int = 0) -> GainSchedule:
    """``estimator.gain_search`` with one ``eigvals`` call per iterate."""
    n_agents = net.agent_count
    n = a.shape[0]
    dim = n_agents * n
    m = kron_numeric(w, a)
    h, r = _observation_rows(net, n)
    d = (r @ h).ravel()
    obs = np.flatnonzero(d)
    d_obs = d[obs]

    rank = observability_rank(m, np.eye(dim)[obs])
    if rank < dim:
        raise UnobservableSystemError(rank, dim)

    agents = np.arange(n_agents)
    best = np.zeros((n_agents, n, n))
    _, best_rho = frozen_closed_loop(m, best, d)
    evaluations = 1

    p = np.eye(dim)
    for _ in range(min(200, budget)):
        s = m @ p @ m.T + np.eye(dim)
        s_obs = s[:, obs] * d_obs
        x = d_obs[:, None] * s_obs[obs] + np.eye(len(obs))
        g = np.zeros((dim, dim))
        g[:, obs] = np.linalg.solve(x.T, s_obs.T).T
        blocks = g.reshape(n_agents, n, n_agents, n)[agents, :, agents, :]
        k, rho = frozen_closed_loop(m, blocks, d)
        evaluations += 1
        if rho < best_rho:
            best_rho, best = rho, blocks
        ikd = np.eye(dim) - k * d
        p = ikd @ s @ ikd.T + k @ k.T
        if evaluations >= budget:
            break

    rng = np.random.default_rng(seed)
    scale = 0.5
    while best_rho >= 1.0 and evaluations < budget:
        blocks = best + scale * rng.standard_normal(best.shape)
        _, rho = frozen_closed_loop(m, blocks, d)
        evaluations += 1
        if rho < best_rho:
            best_rho, best = rho, blocks
            scale = max(scale * 0.9, 1e-3)

    return GainSchedule(tuple(best), best_rho, best_rho < 1.0, evaluations)


def frozen_simulate(w: np.ndarray, a: np.ndarray, net: AgentNetwork,
                    gains: GainSchedule, horizon: int = 1000,
                    process_noise: float = 0.1, observation_noise: float = 0.1,
                    seed: int = 0) -> ErrorTrace:
    """``estimator.simulate`` drawing the noise and reducing the MSE per step."""
    if w.dtype.kind != "f" or a.dtype.kind != "f":
        raise ValueError("simulation runs on real-valued realizations")
    n_agents = net.agent_count
    if w.shape != (n_agents, n_agents):
        raise ValueError(f"fusion matrix of shape {w.shape} does not match "
                         f"{n_agents} agents")
    if np.abs(w.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValueError("fusion matrix rows must sum to one")
    rng = np.random.default_rng(seed)
    n = a.shape[0]
    h, r = _observation_rows(net, n)
    d = r @ h
    k = np.stack(gains.blocks)

    e = np.tile(-rng.standard_normal(n), (n_agents, 1))
    mse = np.zeros((horizon, n_agents))
    for step in range(horizon):
        e = w @ e @ a.T - process_noise * rng.standard_normal(n)
        nu = observation_noise * rng.standard_normal(len(h))
        e = e - np.einsum("inm,im->in", k, d * e - (r * nu) @ h)
        mse[step] = np.mean(e ** 2, axis=1)
    return ErrorTrace(mse)
