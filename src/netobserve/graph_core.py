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

A :class:`Digraph` stores one form, per node its sorted successor tuple;
predecessor lists and the edge set are views derived from it.  All types
are immutable after construction and safe to share across threads; all
operations are pure functions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


@dataclass(frozen=True, init=False)
class Digraph:
    """A directed graph on nodes ``0..node_count-1``.

    It stores one form: per node, its successors as a sorted tuple without
    repeats, built once in the constructor.  ``Digraph(n, pairs)`` takes any
    iterable of ``(source, target)`` pairs, checks that both ends lie in
    ``0..n-1``, collapses duplicates and keeps self-loops.  The predecessor
    lists and the ``edges`` set are views derived from the successor tuples
    on first use and kept.  Two digraphs are equal when their node counts
    and successor tuples are.
    """

    node_count: int
    _successors: tuple[tuple[int, ...], ...]

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]] = ()):
        if node_count < 0:
            raise ValueError(f"negative node count: {node_count}")
        buckets: list[list[int]] = [[] for _ in range(node_count)]
        for s, t in edges:
            if not (0 <= s < node_count and 0 <= t < node_count):
                raise ValueError(f"edge ({s}, {t}) out of range [0, {node_count})")
            buckets[s].append(t)
        self._fill(node_count, buckets)

    @classmethod
    def _from_buckets(cls, node_count: int,
                      buckets: Sequence[Sequence[int]]) -> Digraph:
        """The digraph in which ``buckets[s]`` lists the targets of ``s``, in
        any order and with repeats.  No endpoint is checked: the caller
        vouches that all lie in ``0..node_count-1``."""
        g = cls.__new__(cls)
        g._fill(node_count, buckets)
        return g

    def _fill(self, node_count: int, buckets: Sequence[Sequence[int]]) -> None:
        """Store each bucket sorted and without repeats."""
        object.__setattr__(self, "node_count", node_count)
        object.__setattr__(self, "_successors", tuple(
            [tuple(sorted(set(b))) if len(b) > 1 else tuple(b) for b in buckets]))

    def __repr__(self):
        return f"Digraph({self.node_count}, {sorted(self.edges)!r})"

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._successors))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The ``(source, target)`` pairs, a view built from the successor
        tuples on first use and kept."""
        return frozenset(
            (s, t) for s, targets in enumerate(self._successors) for t in targets)

    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Adjacency lists, each in increasing order: the stored form, which
        matching, SCC and reachability passes over one graph share."""
        return self._successors

    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        """In-neighbour lists, each in increasing order: entry ``i`` lists
        the ``j`` with an edge ``j -> i``, i.e. row ``i`` of the structure."""
        return self._predecessors

    @cached_property
    def _predecessors(self) -> tuple[tuple[int, ...], ...]:
        """Built on first use and kept, by one pass over the successors in
        source order, which leaves every list sorted."""
        into: list[list[int]] = [[] for _ in range(self.node_count)]
        for s, targets in enumerate(self._successors):
            for t in targets:
                into[t].append(s)
        return tuple(map(tuple, into))


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
