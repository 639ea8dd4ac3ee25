"""Directed-graph and structured-matrix primitives shared by all analysis modules.

Conventions used throughout the package:

* A structured matrix records only the zero/nonzero pattern (the *support*)
  of a real matrix; values live in :mod:`netobserve.numeric`.
* A support entry ``(i, j)`` of a square structure (row ``i``, column ``j``
  nonzero) produces the digraph edge ``j -> i``: information flows from
  state ``j`` to state ``i``.
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


class DimensionError(ValueError):
    """Raised when matrix/graph dimensions are incompatible."""


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
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for s, t in self.edges:
            adj[s].append(t)
        for targets in adj:
            targets.sort()
        return tuple(map(tuple, adj))


@dataclass(frozen=True)
class StructuredMatrix:
    """Zero/nonzero pattern of a matrix: the social digraph in matrix form."""

    rows: int
    cols: int
    support: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if not isinstance(self.support, frozenset):
            object.__setattr__(self, "support", frozenset(self.support))
        for i, j in self.support:
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise ValueError(f"support entry ({i}, {j}) out of bounds "
                                 f"{self.rows}x{self.cols}")

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def nnz(self) -> int:
        return len(self.support)


def structure_from_digraph(g: Digraph) -> StructuredMatrix:
    """Square structure of a digraph: edge ``j -> i`` gives entry ``(i, j)``."""
    return StructuredMatrix(g.node_count, g.node_count,
                            frozenset((t, s) for s, t in g.edges))


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
