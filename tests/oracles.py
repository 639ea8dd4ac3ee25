"""Independent brute-force oracles used to cross-check the library.

Everything in here is deliberately naive: exponential-time enumeration and
dense boolean linear algebra.  The point is that none of it shares code (or
algorithmic ideas) with the implementations under test.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from netobserve.graph_core import Digraph, StructuredMatrix
from netobserve.ingest import LabeledGraph
from netobserve.netdesign import AgentNetwork, w_structure
from netobserve.structural_check import (
    ObservabilityVerdict,
    _rows,
    _verdict,
    fused_observation_structure,
)


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


def brute_structural_rank(s: StructuredMatrix) -> int:
    adjacency: dict[int, set[int]] = {}
    for i, j in s.support:
        adjacency.setdefault(j, set()).add(i)
    adj = {u: frozenset(vs) for u, vs in adjacency.items()}
    return brute_max_matching_size(s.cols, adj)


def kron_structure(w: StructuredMatrix, a: StructuredMatrix) -> StructuredMatrix:
    """Materialised support of the Kronecker product: block (i, j) is a copy
    of A's support wherever (i, j) lies in W's support."""
    support = frozenset(
        (iw * a.rows + ia, jw * a.cols + ja)
        for iw, jw in w.support
        for ia, ja in a.support
    )
    return StructuredMatrix(w.rows * a.rows, w.cols * a.cols, support)


def row_list_distributed(net: AgentNetwork, a: StructuredMatrix) -> ObservabilityVerdict:
    """The fused pair (W kron A, D_H) checked from its listed rows: row
    ``iw * n + ia`` holds ``jw * n + ja`` for every ``jw`` in row ``iw`` of W
    and every ``ja`` in row ``ia`` of A.  Lists all nnz(W) * nnz(A) entries,
    so it serves as the mid-scale reference for ``check_distributed``."""
    n = a.rows
    a_rows = _rows(a)
    fused = [[jw * n + ja for jw in w_row for ja in a_row]
             for w_row in _rows(w_structure(net)) for a_row in a_rows]
    return _verdict(fused, _rows(fused_observation_structure(net, n)))


def plan_observation_structure(states: tuple[int, ...], n: int) -> StructuredMatrix:
    """Stacked single-state observation rows (one row per observed state)."""
    return StructuredMatrix(len(states), n,
                            frozenset((k, s) for k, s in enumerate(states)))


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


def minimal_deficient_sets(s: StructuredMatrix) -> list[frozenset[int]]:
    """Minimal column sets S with |N(S)| < |S| (Hall violators).

    Exponential; keep inputs small.
    """
    neighbors = {j: set() for j in range(s.cols)}
    for i, j in s.support:
        neighbors[j].add(i)
    found: list[frozenset[int]] = []
    for size in range(1, s.cols + 1):
        for cols in combinations(range(s.cols), size):
            if any(v <= set(cols) for v in found):
                continue
            hood = set().union(*(neighbors[j] for j in cols))
            if len(hood) < len(cols):
                found.append(frozenset(cols))
    return found


def unmatched_witnesses(s: StructuredMatrix) -> frozenset[int]:
    """Columns that are unmatched in at least one maximum matching."""
    full = brute_structural_rank(s)
    out = set()
    for j in range(s.cols):
        reduced = StructuredMatrix(
            s.rows, s.cols, frozenset(e for e in s.support if e[1] != j))
        if brute_structural_rank(reduced) == full:
            out.add(j)
    return frozenset(out)


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
