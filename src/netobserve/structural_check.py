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

The distributed test applies the same machinery to the pair
``(W (x) A, D_H)``: the Kronecker support of the fusion structure with the
system structure, observed through the block-diagonal of the per-agent
accumulated observation structures.  The Kronecker rows are listed
directly from the rows of W and A; the product is never materialised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph_core import DimensionError, StructuredMatrix, reachable
from .matching import hopcroft_karp
from .netdesign import AgentNetwork, w_structure


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


def fused_observation_structure(net: AgentNetwork, n: int) -> StructuredMatrix:
    """Block-diagonal D_H: block ``i`` is the union of H_j^T H_j over agent
    ``i``'s alpha sources (itself and its alpha in-neighborhood)."""
    dim = net.agent_count * n
    return StructuredMatrix(dim, dim, frozenset(
        (i * n + p.state, i * n + p.state)
        for i, sources in enumerate(net.alpha_sources)
        for j in sources
        for p in net.observations[j]))


def check_distributed(net: AgentNetwork, a: StructuredMatrix) -> ObservabilityVerdict:
    """Observability of the fused pair (W (x) A, D_H) for the given network.

    Row ``iw * n + ia`` of W (x) A holds ``jw * n + ja`` for every ``jw`` in
    row ``iw`` of W and every ``ja`` in row ``ia`` of A.

    Caveat: the test treats every nonzero of W (x) A as a free parameter,
    while the filter repeats the same A entries across blocks, so a passing
    verdict is necessary but not sufficient for the Kronecker-tied pair.
    Pair it with the topology conditions (``verify_topology``) and the
    numeric rank suite for a sufficient certificate.
    """
    if not a.is_square:
        raise DimensionError("system structure must be square")
    n = a.rows
    a_rows = _rows(a)
    fused = [[jw * n + ja for jw in w_row for ja in a_row]
             for w_row in _rows(w_structure(net)) for a_row in a_rows]
    return _verdict(fused, _rows(fused_observation_structure(net, n)))

