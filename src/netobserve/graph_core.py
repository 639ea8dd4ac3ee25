"""Directed-graph primitives shared by all analysis modules.

Conventions used throughout the package:

* A structure records only the zero/nonzero pattern of a real square
  matrix, and is held as a :class:`Digraph`; values live in
  :mod:`netobserve.numeric`.
* Entry ``(i, j)`` (row ``i``, column ``j`` nonzero) is the digraph edge
  ``j -> i``: information flows from state ``j`` to state ``i``.  Row ``i``
  of a structure is therefore :meth:`Digraph.predecessors` of ``i``.
* Node ids are dense integers ``0..n-1``; external labels are kept in a
  side table by :mod:`netobserve.ingest`.

All types are immutable after construction and safe to share across
threads; all operations are pure functions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Digraph:
    """A directed graph on nodes ``0..node_count-1``.

    Self-loops are permitted; duplicate edges are collapsed by the
    frozenset representation.
    """

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
        """Adjacency lists, each in increasing order (deterministic).

        Built on first use and kept: the graph is immutable, so matching,
        SCC and reachability passes over one graph share one build.  The
        build buckets the edges by source and sorts each bucket, which
        costs less than sorting all edge tuples.
        """
        return self._successors

    @cached_property
    def _successors(self) -> tuple[tuple[int, ...], ...]:
        return _buckets(self.node_count, self.edges)

    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        """In-neighbour lists, each in increasing order: entry ``i`` lists
        the ``j`` with an edge ``j -> i``, i.e. row ``i`` of the structure.
        Built on first use and kept, like :meth:`successors`."""
        return self._predecessors

    @cached_property
    def _predecessors(self) -> tuple[tuple[int, ...], ...]:
        return _buckets(self.node_count, ((t, s) for s, t in self.edges))


def _buckets(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Per key ``0..n-1``, the sorted values of the ``(key, value)`` pairs."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for k, v in pairs:
        adj[k].append(v)
    for values in adj:
        values.sort()
    return tuple(map(tuple, adj))


def reachable(successors: Sequence[Sequence[int]], sources: Iterable[int]) -> frozenset[int]:
    """Forward reachability closure of ``sources`` (sources included) over
    adjacency lists, e.g. :meth:`Digraph.successors`."""
    seen = set()
    queue: deque[int] = deque()
    for s in sources:
        if not (0 <= s < len(successors)):
            raise ValueError(f"source {s} out of range")
        if s not in seen:
            seen.add(s)
            queue.append(s)
    while queue:
        u = queue.popleft()
        for v in successors[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return frozenset(seen)
