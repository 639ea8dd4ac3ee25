"""Independent answers the CLI artifacts are compared with.

The reference values come from scipy's Hopcroft-Karp
(``scipy.sparse.csgraph.maximum_bipartite_matching``) and networkx, never
from the package under test.  Each check returns a list of problems; an
empty list means the artifact agrees.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from workloads import Graph

# A refusal of this exact form on a design that GF(p) certified is the known
# estimator defect: `_observability_rank_real` stacks unnormalised powers of
# W kron A, so when rho(A) > 1 its relative tolerance discards the early
# blocks.  It still counts as a failed operation.
FALSE_REFUSAL = "gain search refused: observability rank"


def _matching_size(rows: int, cols: int, entries: list[tuple[int, int]]) -> int:
    if not entries:
        return 0
    r, c = zip(*entries)
    m = csr_matrix((np.ones(len(entries)), (r, c)), shape=(rows, cols))
    return int(np.count_nonzero(maximum_bipartite_matching(m, perm_type="column") >= 0))


@dataclass
class Reference:
    """Per-graph answers computed once, outside the timed region."""

    n: int
    arcs: list[tuple[int, int]]
    s_rank: int
    scc_count: int

    @classmethod
    def of(cls, graph: Graph) -> "Reference":
        n, arcs = graph
        # Structure entry (row t, column s) for arc s -> t.
        s_rank = _matching_size(n, n, [(t, s) for s, t in arcs])
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(arcs)
        return cls(n, arcs, s_rank, nx.number_strongly_connected_components(g))


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def check_analyze(ref: Reference, out: Path) -> list[str]:
    report = _load(out / "analysis.json")
    problems = []
    for where, value in (("summary", report["summary"]["s_rank"]),
                         ("matching", report["matching"]["s_rank"])):
        if value != ref.s_rank:
            problems.append(f"{where} s_rank {value} != scipy {ref.s_rank}")
    for where, value in (("summary", report["summary"]["n_components"]),
                         ("sccs", len(report["sccs"]["components"]))):
        if value != ref.scc_count:
            problems.append(f"{where} SCC count {value} != networkx {ref.scc_count}")
    return problems


def check_classify(ref: Reference, out: Path) -> list[str]:
    plan = _load(out / "plan.json")["plan"]
    observed = sorted({p["state"] for p in plan["placements"]})
    problems = []
    # Accessibility: every state has an observed descendant.
    g = nx.DiGraph()
    g.add_nodes_from(range(ref.n + 1))
    g.add_edges_from(ref.arcs)
    g.add_edges_from((s, ref.n) for s in observed)  # node n collects all outputs
    missing = ref.n - len(nx.ancestors(g, ref.n))
    if missing:
        problems.append(f"plan leaves {missing} states without an observed descendant")
    # Full structural rank of the stacked [A; H_plan].
    stacked = [(t, s) for s, t in ref.arcs] + [(ref.n + k, s) for k, s in enumerate(observed)]
    rank = _matching_size(ref.n + len(observed), ref.n, stacked)
    if rank != ref.n:
        problems.append(f"stacked [A; H_plan] has structural rank {rank} < {ref.n}")
    return problems


def _verdict_problems(rc: int, verdict: dict) -> list[str]:
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if not verdict["topology_ok"]:
        problems.append("topology_ok is false")
    if not verdict["distributed"]["observable"]:
        problems.append("distributed.observable is false")
    return problems


def check_design(rc: int, out: Path) -> list[str]:
    return _verdict_problems(rc, _load(out / "verdict.json"))


def check_verify(rc: int, out: Path, numeric: bool) -> list[str]:
    report = _load(out / "verify.json")
    problems = _verdict_problems(rc, report)
    if numeric:
        agreement = report["numeric_agreement"]
        if agreement["agreeing"] != agreement["seeds"]:
            problems.append(f"GF(p) agrees on {agreement['agreeing']} of "
                            f"{agreement['seeds']} seeds")
    return problems


def check_simulate(rc: int, out: Path) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    mse = _load(out / "manifest.json")["steady_state_mse"]
    return [] if math.isfinite(mse) else [f"steady-state MSE {mse} is not finite"]
