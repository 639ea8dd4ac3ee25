"""Bipartite view of a digraph: maximum matching, structural rank, contractions.

The bipartite graph of an n-node digraph has a *plus* copy of every node
(source side, columns of the system structure) and a *minus* copy (sink
side, rows).  Digraph edge ``j -> i`` becomes bipartite edge ``(j+, i-)``.
Both sides have the digraph's node count and the bipartite edges are the
digraph's own edges, so every function here takes the :class:`Digraph`
itself and reads the plus-side adjacency from ``Digraph.successors``.

A maximum matching certifies the structural rank; the nodes of the plus
side left unmatched witness the rank deficiency.  Each unmatched plus node
spans a *contraction set*: all plus nodes reachable from it by alternating
paths in the auxiliary graph (matching edges reversed).  Observing any
single state of a contraction set recovers one unit of structural rank.

Matching-dependence caveat: the family of contraction sets obtained from
alternating search genuinely depends on which maximum matching is used
(only the union of the members is matching-invariant).  To keep reports
reproducible and matching-independent, :func:`contractions` always derives
the family from the canonical matching produced by :func:`max_matching`;
the raw per-matching computation is available as
:func:`family_for_matching`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .graph_core import Digraph, DimensionError, StructuredMatrix

_INF = -1


class MatchingError(ValueError):
    """Raised when a supplied matching is invalid or not maximum."""


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint bipartite edges."""

    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        if not isinstance(self.pairs, frozenset):
            object.__setattr__(self, "pairs", frozenset(self.pairs))
        plus = [p for p, _ in self.pairs]
        minus = [m for _, m in self.pairs]
        if len(set(plus)) != len(plus) or len(set(minus)) != len(minus):
            raise MatchingError("two matching edges share an endpoint")

    @property
    def size(self) -> int:
        return len(self.pairs)

    def minus_of(self) -> dict[int, int]:
        return {p: m for p, m in self.pairs}

    def plus_of(self) -> dict[int, int]:
        return {m: p for p, m in self.pairs}

    def unmatched_plus(self, node_count: int) -> tuple[int, ...]:
        matched = {p for p, _ in self.pairs}
        return tuple(i for i in range(node_count) if i not in matched)


@dataclass(frozen=True)
class ContractionSet:
    witness: int
    members: frozenset[int]

    def __post_init__(self):
        if self.witness not in self.members:
            raise ValueError("witness must belong to the contraction set")


@dataclass(frozen=True)
class ContractionFamily:
    """One contraction set per unit of structural-rank deficiency."""

    sets: tuple[ContractionSet, ...]

    @property
    def union_members(self) -> frozenset[int]:
        out: set[int] = set()
        for c in self.sets:
            out.update(c.members)
        return frozenset(out)

    def as_sets(self) -> set[frozenset[int]]:
        return {c.members for c in self.sets}


def hopcroft_karp(node_count: int, adjacency: Sequence[Sequence[int]]) -> dict[int, int]:
    """Maximum bipartite matching in O(sqrt(n) |E|), mapping plus -> minus.

    ``adjacency[p]`` lists the minus nodes of plus node ``p``; minus ids may
    exceed ``node_count``.  Deterministic: each phase layers the graph by a
    full breadth-first search, then augments from the free plus nodes in
    increasing order along neighbours in adjacency order.  The result lists
    plus nodes in increasing order.
    """
    width = max(node_count, max(map(max, filter(None, adjacency)), default=-1) + 1)
    pair_plus = [-1] * node_count
    pair_minus = [-1] * width
    while True:
        free = [p for p, m in enumerate(pair_plus) if m < 0]
        dist = [0 if m < 0 else _INF for m in pair_plus]
        queue = free.copy()
        found = False
        for p in queue:  # appended to while read: a FIFO queue
            layer = dist[p] + 1
            for m in adjacency[p]:
                q = pair_minus[m]
                if q < 0:
                    found = True
                elif dist[q] == _INF:
                    dist[q] = layer
                    queue.append(q)
        if not found:
            return {p: m for p, m in enumerate(pair_plus) if m >= 0}
        for p in free:
            _augment(p, adjacency, pair_plus, pair_minus, dist)


def _augment(p: int, adjacency: Sequence[Sequence[int]], pair_plus: list[int],
             pair_minus: list[int], dist: list[int]) -> None:
    """Depth-first search along the layers of ``dist`` for an augmenting
    path from free plus node ``p``, flipped when found.  The path is kept on
    an explicit stack of (plus node, its untried neighbours, minus node
    leading onward), so paths of any length need no interpreter recursion."""
    untried = iter(adjacency[p])
    stack: list[tuple[int, Iterator[int], int]] = []
    while True:
        layer = dist[p] + 1
        for m in untried:
            q = pair_minus[m]
            if q < 0:  # free minus node: augment along the path
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


def max_matching(g: Digraph) -> Matching:
    """Canonical maximum matching of the digraph's bipartite view."""
    pair = hopcroft_karp(g.node_count, g.successors())
    return Matching(frozenset(pair.items()))


def _has_augmenting_path(g: Digraph, m: Matching) -> bool:
    """Berge's criterion: a matching is maximum iff no augmenting path exists."""
    adj = g.successors()
    plus_of = m.plus_of()
    minus_of = m.minus_of()
    frontier = deque(m.unmatched_plus(g.node_count))
    seen_plus = set(frontier)
    while frontier:
        p = frontier.popleft()
        for mi in adj[p]:
            q = plus_of.get(mi)
            if q is None:
                if minus_of.get(p) != mi:
                    return True
            elif q not in seen_plus:
                seen_plus.add(q)
                frontier.append(q)
    return False


def is_maximum(g: Digraph, m: Matching) -> bool:
    if not m.pairs <= g.edges:
        raise MatchingError("matching contains edges outside the graph")
    return not _has_augmenting_path(g, m)


def structural_rank(s: StructuredMatrix) -> int:
    """Maximum matching size between rows and columns of an arbitrary structure."""
    # Plus side = columns, minus side = rows, matching on the support.
    n = max(s.rows, s.cols)
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in sorted(s.support):
        adj[j].append(i)
    return len(hopcroft_karp(n, adj))


def s_rank(a: StructuredMatrix) -> int:
    """Structural rank of a square structure (size of a maximum matching)."""
    if not a.is_square:
        raise DimensionError(f"s_rank requires a square structure, got {a.rows}x{a.cols}")
    return structural_rank(a)


def _alternating_family(g: Digraph, m: Matching) -> ContractionFamily:
    """Contraction family of a maximum matching ``m``, by alternating BFS.

    The auxiliary graph keeps non-matching edges plus->minus and reverses
    matching edges minus->plus, so a plain directed BFS encodes the
    alternation without parity bookkeeping.
    """
    adj = g.successors()
    plus_of = [-1] * g.node_count
    for p, mi in m.pairs:
        plus_of[mi] = p
    sets = []
    for witness in m.unmatched_plus(g.node_count):
        members = {witness}
        queue = [witness]
        for p in queue:  # appended to while read: a FIFO queue
            for mi in adj[p]:
                # p's own matching edge leads back to p, already a member,
                # so matched edges only run minus -> plus
                q = plus_of[mi]
                if q >= 0 and q not in members:
                    members.add(q)
                    queue.append(q)
        sets.append(ContractionSet(witness, frozenset(members)))
    return ContractionFamily(tuple(sets))


def family_for_matching(g: Digraph, m: Matching) -> ContractionFamily:
    """Contraction family under a *specific* matching, which must be maximum."""
    if not is_maximum(g, m):
        raise MatchingError("contractions require a maximum matching")
    return _alternating_family(g, m)


def contractions(g: Digraph) -> ContractionFamily:
    """Canonical contraction family of the digraph.

    The family is computed from the canonical matching of
    :func:`max_matching`, so it does not depend on any matching a caller
    holds.  See the module docstring for why this canonicalization is
    needed.  Its witnesses are the nodes that matching leaves unmatched, in
    increasing order, so the structural rank is ``node_count - len(sets)``.
    """
    return _alternating_family(g, max_matching(g))
