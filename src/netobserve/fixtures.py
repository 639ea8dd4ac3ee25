"""Small hand-built systems used by the test-suite, docs, and CLI demos."""

from __future__ import annotations

from .graph_core import Digraph


def six_state_demo() -> Digraph:
    """Six-state digraph with a rich decomposition, used as the worked example.

    With states written 1-based (x1..x6) its decomposition is:

    * structural rank 4 (deficiency 2, so two unmatched nodes);
    * contraction sets {x3, x1} and {x4, x5, x6, x1};
    * SCCs: {x1, x2} (child), {x3}, {x4} (children), {x5}, {x6} -- the two
      self-loop singletons are the matched parent SCCs;
    * contractions and matched parent SCCs share {x5, x6}, so one alpha
      placement absorbs one beta requirement: 2 alpha + 1 beta suffice.
    """
    edges = {
        (0, 1),  # x1 -> x2
        (1, 0),  # x2 -> x1
        (1, 4),  # x2 -> x5 (keeps {x1,x2} a child SCC)
        (2, 1),  # x3 -> x2
        (3, 1),  # x4 -> x2
        (3, 4),  # x4 -> x5
        (3, 5),  # x4 -> x6
        (4, 4),  # x5 self-loop
        (5, 5),  # x6 self-loop
    }
    return Digraph(6, frozenset(edges))


def fan_contraction() -> Digraph:
    """Five states where {x1, x3, x5} all point to both {x2, x4}: a single
    contraction of three nodes into two, structural rank deficiency 1.

    The back-edges x2 -> x1 and x4 -> x3 keep the fan targets matched, so
    the only deficiency is the 3-into-2 fan itself: any maximum matching
    leaves exactly one of {x1, x3, x5} unmatched and the single contraction
    set is {x1, x3, x5}.
    """
    edges = {(s, t) for s in (0, 2, 4) for t in (1, 3)}
    edges |= {(1, 0), (3, 2)}
    return Digraph(5, frozenset(edges))
