"""Structural observability tests for (A, H) and the fused agent pair.

A pair is structurally observable iff

* every state has a path in the state digraph to an observed state
  (*accessibility*), and
* the stacked structure [A; H] has full structural rank, tested as the
  size of its maximum matching rather than by enumerating cycle/path
  covers (the two are equivalent and matching is polynomial).

Both questions are answered from the row adjacency of the pair: row ``i``
of A lists the states that drive state ``i``, so read as successor lists
the rows are the reversed state digraph, and the accessible states are
those reachable from the columns the observation rows touch.

The distributed test asks the same of the pair ``(W (x) A, D_H)``: the
Kronecker support of the fusion structure with the system structure,
observed through the block-diagonal of the per-agent accumulated
observation structures.  W always holds its full diagonal, and two exact
reductions answer both questions without listing the nnz(W) * nnz(A)
entries of the product:

* *Rank from the surplus block.*  Let C_K be the states that some maximum
  matching of A leaves unmatched (the union of the contraction sets) and
  R_K the rows of A that touch them.  Every maximum matching matches R_K
  into C_K and every other column to a row outside R_K, so the diagonal
  blocks of W (x) A match the N (n - |C_K|) columns outside agents x C_K,
  which no other rows touch.  What is left is the matching of W's rows x
  A[R_K, C_K], with the rows of D_H on agents x C_K.
* *Accessibility from walk lengths.*  A walk in W (x) A steps both factors
  at once, and W's diagonal lets the agent factor stand still.  So fused
  state (j, s) reaches an observed (i, t) iff some walk over A's rows from
  t to s is at least as long as the distance over W's rows from i to j.
  The longest walks from each distinct observed set take one pass over
  A's condensation; they are unbounded once they enter a cyclic component.

Both reductions read A from the command's ``classify.Decomposition``: C_K
is the union of its contraction family and the condensation is its SCC
decomposition, so the check adds no matching or Tarjan pass over A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classify import Decomposition
from .graph_core import DimensionError, StructuredMatrix, reachable
from .matching import hopcroft_karp
from .netdesign import AgentNetwork, w_structure
from .scc import SccDecomposition


@dataclass(frozen=True)
class ObservabilityVerdict:
    accessible: bool
    inaccessible_states: tuple[int, ...]
    s_rank_ok: bool
    deficiency: int

    @property
    def observable(self) -> bool:
        return self.accessible and self.s_rank_ok

    def to_json(self) -> dict:
        return {
            "observable": self.observable,
            "accessible": self.accessible,
            "inaccessible_states": list(self.inaccessible_states),
            "s_rank_ok": self.s_rank_ok,
            "s_rank_deficiency": self.deficiency,
        }


def _rows(s: StructuredMatrix) -> list[list[int]]:
    """Column lists of every row of a structure, sorted."""
    rows: list[list[int]] = [[] for _ in range(s.rows)]
    for i, j in sorted(s.support):
        rows[i].append(j)
    return rows


def _verdict(rows: Sequence[Sequence[int]],
             observations: Sequence[Sequence[int]]) -> ObservabilityVerdict:
    """Accessibility and structural rank of [A; H] from the row lists of a
    square A and of H."""
    n = len(rows)
    observations = [r for r in observations if r]
    accessible = reachable(rows, {j for r in observations for j in r})
    inaccessible = tuple(v for v in range(n) if v not in accessible)
    rank = len(hopcroft_karp(n + len(observations), [*rows, *observations]))
    return ObservabilityVerdict(
        accessible=not inaccessible,
        inaccessible_states=inaccessible,
        s_rank_ok=(rank == n),
        deficiency=n - rank,
    )


def check_centralized(a: StructuredMatrix, h: StructuredMatrix) -> ObservabilityVerdict:
    """Two-part structural test on the pair (A, H): every state must reach
    an observed state, and the stacked support must have full structural
    rank."""
    if not a.is_square:
        raise DimensionError(f"system structure must be square, got {a.rows}x{a.cols}")
    if h.cols != a.cols:
        raise DimensionError(f"observation columns {h.cols} != state count {a.cols}")
    return _verdict(_rows(a), _rows(h))


def _observed_states(net: AgentNetwork) -> list[frozenset[int]]:
    """Per agent: the states observed by its alpha sources (itself and its
    alpha in-neighborhood)."""
    return [frozenset(p.state for j in sources for p in net.observations[j])
            for sources in net.alpha_sources]


def fused_observation_structure(net: AgentNetwork, n: int) -> StructuredMatrix:
    """Block-diagonal D_H: block ``i`` is the union of H_j^T H_j over agent
    ``i``'s alpha sources."""
    dim = net.agent_count * n
    return StructuredMatrix(dim, dim, frozenset(
        (i * n + s, i * n + s)
        for i, states in enumerate(_observed_states(net)) for s in states))


def _longest_walks(sccs: SccDecomposition, cyclic: Sequence[bool],
                   sources: frozenset[int], cap: int) -> list[int]:
    """Per state ``s``: the longest walk over A's rows from some source to
    ``s``, capped at ``cap`` (which also stands for unbounded), or -1 when no
    source reaches ``s``.

    A walk over the rows runs against the digraph's edges, so it enters a
    component from its condensation successors, which Tarjan numbers lower:
    one pass in increasing component order settles every component.  A walk
    that reaches a component with a cycle can go round it for ever.
    """
    comp = sccs.component_of
    start = {comp[t] for t in sources}
    longest = [-1] * len(sccs.components)
    for c, upstream in enumerate(sccs.condensation.successors()):
        best = 0 if c in start else -1
        for d in upstream:
            if longest[d] >= 0:
                best = max(best, longest[d] + 1)
        longest[c] = cap if best >= 0 and cyclic[c] else min(best, cap)
    return [longest[c] for c in comp]


def _distances(w_rows: Sequence[Sequence[int]], sources: Sequence[int]) -> list[int]:
    """BFS distance over W's rows from the nearest source; unreachable
    agents get ``len(w_rows) + 1``, beyond every capped walk length."""
    far = len(w_rows) + 1
    dist = [far] * len(w_rows)
    frontier = list(sources)
    for i in frontier:
        dist[i] = 0
    while frontier:
        step = []
        for i in frontier:
            for j in w_rows[i]:
                if dist[j] == far:
                    dist[j] = dist[i] + 1
                    step.append(j)
        frontier = step
    return dist


def _inaccessible(dec: Decomposition, w_rows: Sequence[Sequence[int]],
                  observed: Sequence[frozenset[int]]) -> tuple[int, ...]:
    """Fused states ``j * n + s`` from which no walk of W (x) A reaches an
    observed fused state, in increasing order."""
    agents = len(w_rows)
    sccs = dec.sccs
    succ = dec.digraph.successors()
    cyclic = [len(c) > 1 or any(v in succ[v] for v in c) for c in sccs.components]
    groups: dict[frozenset[int], list[int]] = {}
    for i, states in enumerate(observed):
        if states:
            groups.setdefault(states, []).append(i)
    accessible = np.zeros((agents, dec.digraph.node_count), dtype=bool)
    for states, observers in groups.items():
        walk = np.array(_longest_walks(sccs, cyclic, states, agents))
        dist = np.array(_distances(w_rows, observers))
        accessible |= walk[None, :] >= dist[:, None]
    return tuple(np.flatnonzero(~accessible).tolist())


def _surplus_deficiency(dec: Decomposition, w_rows: Sequence[Sequence[int]],
                        observed: Sequence[frozenset[int]]) -> int:
    """Structural-rank deficiency of [W (x) A; D_H], from the surplus block
    of A alone (see the module docstring)."""
    surplus = sorted(dec.family.union_members)
    column = {s: k for k, s in enumerate(surplus)}
    width = len(surplus)
    block: dict[int, list[int]] = {}  # row of A touching the surplus -> its columns there
    for s in surplus:
        for i in dec.digraph.successors()[s]:
            block.setdefault(i, []).append(column[s])
    rows = [[jw * width + k for jw in w_row for k in a_row]
            for w_row in w_rows for a_row in block.values()]
    rows += [[i * width + column[s]] for i, states in enumerate(observed)
             for s in sorted(states) if s in column]
    return len(w_rows) * width - len(hopcroft_karp(len(rows), rows))


def check_distributed(net: AgentNetwork, dec: Decomposition) -> ObservabilityVerdict:
    """Observability of the fused pair (W (x) A, D_H) for the given network,
    where A is the structure of ``dec.digraph``.

    Row ``iw * n + ia`` of W (x) A holds ``jw * n + ja`` for every ``jw`` in
    row ``iw`` of W and every ``ja`` in row ``ia`` of A; the product is
    never listed (see the module docstring for the two reductions).  C_K is
    ``dec.family.union_members`` and the components are ``dec.sccs``, so the
    check runs no matching or Tarjan pass of its own over A.

    Caveat: the test treats every nonzero of W (x) A as a free parameter,
    while the filter repeats the same A entries across blocks, so a passing
    verdict is necessary but not sufficient for the Kronecker-tied pair.
    Pair it with the topology conditions (``verify_topology``) and the
    numeric rank suite for a sufficient certificate.
    """
    w_rows = _rows(w_structure(net))
    observed = _observed_states(net)
    inaccessible = _inaccessible(dec, w_rows, observed)
    deficiency = _surplus_deficiency(dec, w_rows, observed)
    return ObservabilityVerdict(
        accessible=not inaccessible,
        inaccessible_states=inaccessible,
        s_rank_ok=(deficiency == 0),
        deficiency=deficiency,
    )
