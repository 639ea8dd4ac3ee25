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
reproducible, :func:`contractions` always derives the family from the
deterministic matching of :func:`hopcroft_karp`, and the family records
that matching, so later passes can start from it.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

from .graph_core import Digraph

_INF = -1


@dataclass(frozen=True)
class ContractionSet:
    witness: int
    members: frozenset[int]

    def __post_init__(self):
        if self.witness not in self.members:
            raise ValueError("witness must belong to the contraction set")


@dataclass(frozen=True)
class ContractionFamily:
    """One contraction set per unit of structural-rank deficiency, with the
    maximum matching (plus -> minus) the sets were derived from.  The
    matching is a by-product, not part of the family's identity: two
    families with the same sets compare and hash equal."""

    sets: tuple[ContractionSet, ...]
    matching: Mapping[int, int] = field(compare=False, repr=False)

    @cached_property
    def union_members(self) -> frozenset[int]:
        out: set[int] = set()
        for c in self.sets:
            out.update(c.members)
        return frozenset(out)


def hopcroft_karp(node_count: int, adjacency: Sequence[Sequence[int]],
                  start: Mapping[int, int] | None = None) -> dict[int, int]:
    """Maximum bipartite matching in O(sqrt(n) |E|), mapping plus -> minus.

    ``adjacency[p]`` lists the minus nodes of plus node ``p``; minus ids may
    exceed ``node_count``.  Deterministic: each phase layers the graph by a
    full breadth-first search, then augments from the free plus nodes in
    increasing order along neighbours in adjacency order.  The result lists
    plus nodes in increasing order.

    ``start``, a matching (plus -> minus) of edges of ``adjacency``, is
    augmented instead of the empty matching: the result is a maximum
    matching all the same, found in fewer phases when ``start`` is large,
    but which one depends on ``start``.
    """
    width = max(node_count, max(map(max, filter(None, adjacency)), default=-1) + 1)
    pair_plus = [-1] * node_count
    pair_minus = [-1] * width
    for p, m in (start or {}).items():
        pair_plus[p] = m
        pair_minus[m] = p
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


def _alternating_family(g: Digraph, pair: dict[int, int]) -> ContractionFamily:
    """Contraction family of a maximum matching ``pair`` (plus -> minus), by
    alternating BFS from each plus node it leaves unmatched, in increasing
    order.

    The auxiliary graph keeps non-matching edges plus->minus and reverses
    matching edges minus->plus, so a plain directed BFS encodes the
    alternation without parity bookkeeping.
    """
    adj = g.successors()
    plus_of = [-1] * g.node_count
    for p, mi in pair.items():
        plus_of[mi] = p
    sets = []
    for witness in range(g.node_count):
        if witness in pair:
            continue
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
    return ContractionFamily(tuple(sets), pair)


def contractions(g: Digraph) -> ContractionFamily:
    """Canonical contraction family of the digraph.

    The family is computed from the deterministic matching of
    :func:`hopcroft_karp`, so it does not depend on any matching a caller
    holds.  See the module docstring for why this canonicalization is
    needed.  Its witnesses are the nodes that matching leaves unmatched, in
    increasing order, so the structural rank is ``node_count - len(sets)``;
    the matching itself is kept as ``matching``.
    """
    return _alternating_family(g, hopcroft_karp(g.node_count, g.successors()))
