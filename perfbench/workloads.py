"""Seeded synthetic inputs for the three benchmark workloads.

The public corpora the package was written for cannot be fetched offline,
so every workload draws graphs of the same shape from the run's seed:

* ``corpus-directed``: one blogs-sized directed graph, 1224 nodes and
  15,500 distinct arcs drawn with zipf out-degree, 30% sinks and
  zipf-popular targets (the corpus lists 19,025 arcs; drawn this way about
  15.5k of them are distinct).  Only the ingest, matching, scc and classify
  layers work here, and the SCC taxonomy's per-component edge scan
  dominates.
* ``design-mixed``: three graphs, each the disjoint union of a blogs-shaped
  directed part and a coauthorship-shaped undirected part made of small
  components, so the plan has both alpha broadcasts and beta ring
  placements and the distributed check over ``W kron A`` dominates
  ``design``/``verify``.  A graph is kept only if its canonical design has
  54 or 55 agents.
* ``estimator-small``: twelve 12-16 state directed graphs whose canonical
  design has fused dimension ``N*n`` in ``[60, 64]``, where the GF(p)
  rank, gain search and the per-agent simulation loop dominate.

A workload's graphs depend on the seed only; the program under test sees
nothing but the GML files written from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Graph = tuple[int, list[tuple[int, int]]]  # (node count, sorted arcs)

# Blogs corpus row of the dataset registry: 1224 nodes, 19025 arcs, of which
# about 15.5k remain distinct when drawn this way.
BLOGS_NODES = 1224
BLOGS_ARCS = 15_500
# Shape of a blogs-like digraph: share of sinks, zipf exponents of the
# out-degree and of target popularity.
SINK_SHARE = 0.3
OUT_EXPONENT = 0.9
IN_EXPONENT = 0.6
# Shape of a coauthorship-like part: component sizes, papers per author.
COMPONENT_SIZES = (2, 3, 4, 5, 6, 7, 8)
PAPERS_PER_NODE = 0.9

# design-mixed: three graphs, each a 100-node directed part with 9 arcs per
# node and a 100-node coauthorship part.  A graph is kept only if its
# canonical design has 54 or 55 agents: design and verify cost about N^3 in
# the agent count, which drawn freely ranges over 51-58 and would make the
# seed-to-seed spread of the work larger than the timing noise.  The filter
# is on size only.  The sizes keep one command chain near 1.3 seconds on a
# 2-core box, so each of a run's processes holds several repetitions.
MIXED_GRAPHS = 3
MIXED_DIRECTED = 100
MIXED_ARCS_PER_NODE = 9
MIXED_UNDIRECTED = 100
MIXED_AGENTS = (54, 55)

# estimator-small pool: graph sizes, and the fused-dimension band the
# canonical design must fall in.  The band sits at the top of N*n <= 64 so
# every graph costs about the same; it filters on size only.
SMALL_STATES = (12, 16)
SMALL_FUSED_DIM = (60, 64)
SMALL_POOL = 12
VERIFY_SEEDS = 1  # GF(p) realizations per `verify --numeric`


def _zipf_weights(rng: np.random.Generator, n: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    return weights[rng.permutation(n)]


def blogs_like(rng: np.random.Generator, n: int, arcs: int) -> list[tuple[int, int]]:
    """Exactly ``arcs`` distinct arcs with zipf out-degree, a share of sinks
    and zipf-popular targets; draws repeat until that many distinct non-loop
    arcs exist, so the size does not vary with the seed."""
    out_w = _zipf_weights(rng, n, OUT_EXPONENT)
    out_w[rng.choice(n, int(round(SINK_SHARE * n)), replace=False)] = 0.0
    in_w = _zipf_weights(rng, n, IN_EXPONENT)
    p_out, p_in = out_w / out_w.sum(), in_w / in_w.sum()
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < arcs:
        src = rng.choice(n, arcs, p=p_out).tolist()
        dst = rng.choice(n, arcs, p=p_in).tolist()
        for s, t in zip(src, dst):
            if s != t:
                chosen.add((s, t))
                if len(chosen) == arcs:
                    break
    return sorted(chosen)


def coauthorship_like(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Undirected coauthorship arcs (both directions) over small components.

    Component sizes run through ``COMPONENT_SIZES`` in a seeded order, so the
    number of components hardly varies with the seed; each paper is a clique
    of 2-4 authors drawn from one component.
    """
    arcs: set[tuple[int, int]] = set()
    order = list(COMPONENT_SIZES)
    start = 0
    while start < n:
        rng.shuffle(order)
        for size in order:
            size = min(size, n - start)
            group = np.arange(start, start + size)
            start += size
            if size < 2:
                continue
            for _ in range(max(1, round(PAPERS_PER_NODE * size))):
                team = rng.choice(group, min(size, 2 + int(rng.poisson(0.7))), replace=False)
                arcs.update((int(s), int(t)) for s in team for t in team if s != t)
    return sorted(arcs)


def corpus_directed(rng: np.random.Generator) -> list[Graph]:
    return [(BLOGS_NODES, blogs_like(rng, BLOGS_NODES, BLOGS_ARCS))]


def design_mixed(rng: np.random.Generator) -> list[Graph]:
    nd, nu = MIXED_DIRECTED, MIXED_UNDIRECTED
    lo, hi = MIXED_AGENTS
    graphs = []
    while len(graphs) < MIXED_GRAPHS:
        directed = blogs_like(rng, nd, MIXED_ARCS_PER_NODE * nd)
        undirected = coauthorship_like(rng, nu)
        arcs = directed + [(s + nd, t + nd) for s, t in undirected]
        if lo <= canonical_agent_count(nd + nu, arcs) <= hi:
            graphs.append((nd + nu, arcs))
    return graphs


def canonical_agent_count(n: int, arcs: list[tuple[int, int]]) -> int:
    """Agents of the canonical design: one per placement of the plan."""
    from netobserve.classify import decompose, place_agents
    from netobserve.graph_core import Digraph

    return len(place_agents(decompose(Digraph(n, frozenset(arcs)))).placements)


def small_graphs(rng: np.random.Generator, count: int) -> list[Graph]:
    """12-16 state digraphs kept only if the canonical design's fused
    dimension lies in the ``SMALL_FUSED_DIM`` band."""
    lo, hi = SMALL_FUSED_DIM
    pool: list[Graph] = []
    while len(pool) < count:
        n = int(rng.integers(SMALL_STATES[0], SMALL_STATES[1] + 1))
        arcs = blogs_like(rng, n, 2 * n)
        if lo <= canonical_agent_count(n, arcs) * n <= hi:
            pool.append((n, arcs))
    return pool


def estimator_small(rng: np.random.Generator) -> list[Graph]:
    return small_graphs(rng, SMALL_POOL)


def warmup_graph(rng: np.random.Generator) -> Graph:
    """A small graph every command of every workload accepts; one chain on it
    loads what the commands import lazily before timing starts."""
    return small_graphs(rng, 1)[0]


def to_gml(graph: Graph) -> str:
    n, arcs = graph
    lines = ["graph [", "  directed 1"]
    lines += [f'  node [ id {i} label "v{i}" ]' for i in range(n)]
    lines += [f"  edge [ source {s} target {t} ]" for s, t in arcs]
    lines.append("]")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[str, ...]
    generate: Callable[[np.random.Generator], list[Graph]]
    verify_args: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus-directed",
            "blogs-sized digraph: ingest, matching, SCC taxonomy and placement do all the work",
            ("analyze", "classify"),
            corpus_directed,
        ),
        Workload(
            "design-mixed",
            "directed plus small undirected components: alpha and beta placements, "
            "W kron A distributed check dominates design/verify",
            ("analyze", "classify", "design", "verify"),
            design_mixed,
        ),
        Workload(
            "estimator-small",
            "12-16 state graphs at fused dimension 60-64: GF(p) rank, gain search "
            "and simulation dominate",
            ("analyze", "classify", "design", "verify", "simulate"),
            estimator_small,
            ("--numeric", "--seeds", str(VERIFY_SEEDS)),
        ),
    )
}
