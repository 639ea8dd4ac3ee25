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

Every agent hears the network's alpha broadcasters, so every agent's
observed set contains their states B.  The check therefore works per
distinct observed set, each held as B plus the further states, never per
agent x broadcaster:

* if A[R_K, C_K] with unit rows on B matches all of C_K, so does every
  agent's block and the deficiency is 0 (the canonical case: alpha
  placements are simultaneously avoidable); otherwise the product is
  matched;
* a state with a path into B is accessible in every block at W-distance
  0; the walk-versus-distance comparison runs only for the other states,
  over the region each set's further states reach.
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


def _observed_states(net: AgentNetwork) -> tuple[frozenset[int], dict[frozenset[int], list[int]]]:
    """The states observed through an agent's alpha sources (itself and its
    alpha in-neighborhood), as the states ``base`` of the broadcasters,
    which every agent hears, and the agents grouped by the further states
    they observe: agent ``i`` observes ``base | extra`` for the ``extra`` it
    is listed under, and agents in increasing order per group."""
    states = [frozenset(p.state for p in obs) for obs in net.observations]
    sources = net.alpha_sources
    base = frozenset().union(*(states[j] for j in sources.broadcast))
    groups: dict[frozenset[int], list[int]] = {}
    for i, extra in enumerate(sources.extra):
        key = states[i].union(*(states[j] for j in extra)) - base
        groups.setdefault(key, []).append(i)
    return base, groups


def fused_observation_structure(net: AgentNetwork, n: int) -> StructuredMatrix:
    """Block-diagonal D_H: block ``i`` is the union of H_j^T H_j over agent
    ``i``'s alpha sources."""
    base, groups = _observed_states(net)
    return StructuredMatrix(net.agent_count * n, net.agent_count * n, frozenset(
        (i * n + s, i * n + s)
        for extra, agents in groups.items() for i in agents for s in base | extra))


def _longest_walks(sccs: SccDecomposition, cyclic: Sequence[bool],
                   into: Sequence[Sequence[int]], start: set[int],
                   closed: Sequence[bool], cap: int) -> dict[int, int]:
    """Per component that a walk over A's rows from the components
    ``start`` reaches without entering a ``closed`` one: its longest such
    walk, capped at ``cap`` (which also stands for unbounded).

    A walk over the rows runs against the digraph's edges, so it enters a
    component from its condensation successors (``into[d]`` lists the
    components with an edge into ``d``), which Tarjan numbers lower: one
    pass over the reached components in increasing order settles them all.
    A walk that reaches a component with a cycle can go round it for ever.
    """
    reached = set(start)
    frontier = list(start)
    for d in frontier:  # appended to while read
        for c in into[d]:
            if c not in reached and not closed[c]:
                reached.add(c)
                frontier.append(c)
    upstream = sccs.condensation.successors()
    longest: dict[int, int] = {}
    for c in sorted(reached):
        best = max([longest[d] + 1 for d in upstream[c] if d in longest],
                   default=0)  # only a start component has no reached successor
        longest[c] = cap if cyclic[c] else min(best, cap)
    return longest


def _distances(w_rows: Sequence[Sequence[int]], sources: Sequence[int],
               limit: int) -> np.ndarray:
    """BFS distance over W's rows from the nearest source, up to ``limit``
    steps; agents farther away or unreachable get ``len(w_rows) + 1``,
    beyond every capped walk length."""
    far = len(w_rows) + 1
    dist = np.full(len(w_rows), far)
    dist[sources] = 0
    frontier = sources
    for depth in range(1, limit + 1):
        step = []
        for i in frontier:
            for j in w_rows[i]:
                if dist[j] == far:
                    dist[j] = depth
                    step.append(j)
        if not step:
            break
        frontier = step
    return dist


def _inaccessible(dec: Decomposition, w_rows: Sequence[Sequence[int]],
                  base: frozenset[int], groups: dict[frozenset[int], list[int]],
                  w_connected: bool) -> tuple[int, ...]:
    """Fused states ``j * n + s`` from which no walk of W (x) A reaches an
    observed fused state, in increasing order.

    Every agent observes ``base`` itself, at W-distance 0, so a state with
    a path into ``base`` is accessible in every block.  Only the other
    (*open*) states are compared, per group of agents observing the same
    further states, over the region those states reach.  When W is
    irreducible, a walk that can grow without bound meets every agent.
    """
    agents = len(w_rows)
    n = dec.digraph.node_count
    sccs = dec.sccs
    comp = sccs.component_of
    succ = dec.digraph.successors()
    cyclic = [len(c) > 1 or any(v in succ[v] for v in c) for c in sccs.components]
    into: list[list[int]] = [[] for _ in sccs.components]
    for c, upstream in enumerate(sccs.condensation.successors()):
        for d in upstream:
            into[d].append(c)
    closed = [False] * len(sccs.components)
    for c in _longest_walks(sccs, cyclic, into, {comp[t] for t in base}, closed, agents):
        closed[c] = True
    open_states = [s for s in range(n) if not closed[comp[s]]]
    if not open_states:
        return ()
    position = {s: k for k, s in enumerate(open_states)}
    accessible = np.zeros((len(open_states), agents), dtype=bool)  # open state x agent
    far = agents + 1
    for extra, observers in groups.items():
        start = {comp[t] for t in extra if not closed[comp[t]]}
        if not start:
            continue
        longest = _longest_walks(sccs, cyclic, into, start, closed, agents)
        region = [s for c in longest for s in sccs.components[c]]
        walk = np.array([longest[comp[s]] for s in region])
        if w_connected:  # an unbounded walk outlasts every finite distance
            walk[walk == agents] = far
            limit = int(walk[walk < far].max(initial=0))
        else:
            limit = agents
        dist = _distances(w_rows, observers, limit)
        accessible[[position[s] for s in region]] |= walk[:, None] >= dist[None, :]
    blocked = np.flatnonzero(~accessible.T)
    states = np.array(open_states)[blocked % len(open_states)]
    return tuple((blocked // len(open_states) * n + states).tolist())


def _surplus_deficiency(dec: Decomposition, w_rows: Sequence[Sequence[int]],
                        base: frozenset[int], groups: dict[frozenset[int], list[int]]) -> int:
    """Structural-rank deficiency of [W (x) A; D_H], from the surplus block
    of A alone (see the module docstring).

    W's diagonal puts each agent's own block A[R_K, C_K] plus its unit rows
    on its observed states in C_K into the product.  If that block matches
    every column of C_K for the broadcasters' states alone, it does for
    every agent's superset and the deficiency is 0; otherwise the product
    is matched.
    """
    surplus = sorted(dec.family.union_members)
    column = {s: k for k, s in enumerate(surplus)}
    width = len(surplus)
    block: dict[int, list[int]] = {}  # row of A touching the surplus -> its columns there
    for s in surplus:
        for i in dec.digraph.successors()[s]:
            block.setdefault(i, []).append(column[s])
    block_rows = list(block.values())
    units = [[column[s]] for s in sorted(base) if s in column]
    if len(hopcroft_karp(len(block_rows) + len(units), block_rows + units)) == width:
        return 0
    rows = [[jw * width + k for jw in w_row for k in a_row]
            for w_row in w_rows for a_row in block_rows]
    for i, extra in sorted((i, extra) for extra, agents in groups.items() for i in agents):
        rows += [[i * width + column[s]] for s in sorted(base | extra) if s in column]
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
    base, groups = _observed_states(net)
    inaccessible = _inaccessible(dec, w_rows, base, groups, net.beta_connected)
    deficiency = _surplus_deficiency(dec, w_rows, base, groups)
    return ObservabilityVerdict(
        accessible=not inaccessible,
        inaccessible_states=inaccessible,
        s_rank_ok=(deficiency == 0),
        deficiency=deficiency,
    )
