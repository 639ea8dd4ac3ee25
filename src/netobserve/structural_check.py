"""Structural observability tests for (A, H) and the fused agent pair.

A pair is structurally observable iff

* every state has a path in the state digraph to an observed state
  (*accessibility*), and
* the stacked structure [A; H] has full structural rank, tested as the
  size of its maximum matching rather than by enumerating cycle/path
  covers (the two are equivalent and matching is polynomial).

H is one unit row per observed state, as in the paper, so it is given as
those states.

One engine answers both checks.  The distributed test asks the question of
the pair ``(W (x) A, D_H)``: the Kronecker support of the fusion structure
with the system structure, observed through the block-diagonal of the
per-agent accumulated observation structures.  The centralized pair (A, H)
is that pair for one agent: W = [1], so W (x) A = A and D_H = H, and
``check_centralized`` runs the same reductions with W's one row and H's
states as the broadcasters' states: the one agent observes them at
W-distance 0, so it is grouped under no further states.

W always holds its full diagonal, and two exact reductions answer both
questions without listing the nnz(W) * nnz(A) entries of the product:

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
  The comparison is held in bit sets of agents (Python ints): a state
  gains the agents within its longest walk of an observer.

Both reductions read A from the command's ``classify.Decomposition``: C_K
is the union of its contraction family, and the condensation and cycle
flags come from its SCC decomposition, so the check adds no matching or
Tarjan pass over A, nor a scan for self-loops.

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
from itertools import chain, compress, count
from typing import TYPE_CHECKING, Iterable, Sequence

from .graph_core import reachable
from .matching import hopcroft_karp
from .scc import SccDecomposition

if TYPE_CHECKING:  # annotations only: ``classify`` imports this module
    from .classify import Decomposition
    from .netdesign import AgentNetwork


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


def _observed_states(net: AgentNetwork) -> tuple[frozenset[int], dict[frozenset[int], list[int]]]:
    """The states observed through an agent's alpha sources (itself and its
    alpha in-neighborhood), as the states ``base`` of the broadcasters,
    which every agent hears, and the agents grouped by the further states
    they observe: agent ``i`` observes ``base | extra`` for the ``extra`` it
    is listed under, and agents in increasing order per group."""
    states = [frozenset(p.state for p in obs) for obs in net.observations]
    base = frozenset().union(*(states[j] for j in net.alpha_edges.broadcast))
    groups: dict[frozenset[int], list[int]] = {}
    for i, extra in enumerate(net.alpha_in):
        key = states[i].union(*(states[j] for j in extra)) - base
        groups.setdefault(key, []).append(i)
    return base, groups


def observed_fused_states(net: AgentNetwork, n: int) -> list[int]:
    """The fused states ``i * n + s`` that D_H observes, in increasing
    order: agent ``i`` observes the states of its alpha sources.  D_H is
    diagonal, so its unit rows on these states span its row space."""
    base, groups = _observed_states(net)
    return sorted(i * n + s for extra, agents in groups.items()
                  for s in base | extra for i in agents)


def _longest_walks(sccs: SccDecomposition, into: Sequence[Sequence[int]], start: set[int],
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
        longest[c] = cap if sccs.has_cycle[c] else min(best, cap)
    return longest


def _within(w_rows: Sequence[Sequence[int]], sources: Sequence[int],
            depths: Iterable[int]) -> dict[int, int]:
    """For each of the increasing ``depths``, the agents within that many
    steps over W's rows of a source, as a bit set."""
    found = set(sources)
    frontier = found
    digits = bytearray(b"0" * len(w_rows))  # the bit set in binary, agent 0 first
    within = {}
    depth = 0
    for target in depths:
        while depth < target and frontier:
            frontier = {j for i in frontier for j in w_rows[i]} - found
            found |= frontier
            depth += 1
        for j in found:
            digits[j] = ord("1")
        within[target] = int(digits[::-1], 2)
    return within


def _members(bits: int) -> list[int]:
    """The positions of the set bits of ``bits``, in increasing order."""
    return list(compress(count(), map("1".__eq__, reversed(bin(bits)[2:]))))


def _inaccessible(dec: Decomposition, w_rows: Sequence[Sequence[int]],
                  base: frozenset[int], groups: dict[frozenset[int], list[int]],
                  w_connected: bool) -> tuple[int, ...]:
    """Fused states ``j * n + s`` from which no walk of W (x) A reaches an
    observed fused state, in increasing order.

    Every agent observes ``base`` itself, at W-distance 0, so a state with
    a path into ``base`` is accessible in every block.  Only the other
    (*open*) states are compared, per group of agents observing the same
    further states, over the region those states reach: each open state
    gathers, as a bit set, the agents its longest walk outlasts the
    distance to.  When W is irreducible, a walk that can grow without
    bound meets every agent.
    """
    agents = len(w_rows)
    n = dec.digraph.node_count
    sccs = dec.sccs
    comp = sccs.component_of
    into = sccs.condensation.predecessors()
    closed = [False] * len(sccs.components)
    for c in reachable(into, {comp[t] for t in base}):
        closed[c] = True
    reached = {s: 0 for s in range(n) if not closed[comp[s]]}  # open state -> its agents
    everyone = (1 << agents) - 1
    # a walk of ``agents`` steps or more (the cap) meets every agent when W
    # is irreducible; otherwise only the agents that W reaches
    unbounded = agents if w_connected else agents + 1
    for extra, observers in groups.items():
        start = {comp[t] for t in extra if not closed[comp[t]]}
        if not start:
            continue
        longest = _longest_walks(sccs, into, start, closed, agents)
        within = _within(w_rows, observers,
                         sorted({walk for walk in longest.values() if walk < unbounded}))
        for c, walk in longest.items():
            bits = everyone if walk >= unbounded else within[walk]
            for s in sccs.components[c]:
                reached[s] |= bits
    states_of: dict[int, list[int]] = {}  # agents reached -> the open states, increasing
    for s, bits in reached.items():
        states_of.setdefault(bits, []).append(s)
    blocked: list[list[list[int]]] = [[] for _ in range(agents)]  # per agent, runs of states
    for bits, states in states_of.items():
        for j in _members(everyone ^ bits):
            blocked[j].append(states)
    return tuple(j * n + s for j, runs in enumerate(blocked) for s in sorted(chain(*runs)))


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


def _fused_verdict(dec: Decomposition, w_rows: Sequence[Sequence[int]],
                   base: frozenset[int], groups: dict[frozenset[int], list[int]],
                   w_connected: bool) -> ObservabilityVerdict:
    """Both reductions on the fused pair whose W has rows ``w_rows`` and
    whose agents observe ``base`` plus the states they are grouped under."""
    inaccessible = _inaccessible(dec, w_rows, base, groups, w_connected)
    deficiency = _surplus_deficiency(dec, w_rows, base, groups)
    return ObservabilityVerdict(
        accessible=not inaccessible,
        inaccessible_states=inaccessible,
        s_rank_ok=(deficiency == 0),
        deficiency=deficiency,
    )


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
    base, groups = _observed_states(net)
    return _fused_verdict(dec, net.fusion.predecessors(), base, groups, net.beta_connected)


def check_centralized(dec: Decomposition, observed: Iterable[int]) -> ObservabilityVerdict:
    """Two-part structural test on the pair (A, H), A the structure of
    ``dec.digraph`` and H a unit row per ``observed`` state: every state must
    reach an observed state, and [A; H] must have full structural rank.  It
    is the fused pair of one agent, W = [1], so the two reductions answer it
    with the states as ``base`` and the agent in one group with nothing
    further.  An observed state outside the graph raises ``ValueError``."""
    states = frozenset(observed)
    n = dec.digraph.node_count
    for s in states:
        if not 0 <= s < n:
            raise ValueError(f"observed state {s} out of range [0, {n})")
    return _fused_verdict(dec, [[0]], states, {frozenset(): [0]}, True)
