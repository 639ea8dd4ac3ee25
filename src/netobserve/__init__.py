"""Structural observability toolkit for directed interaction graphs.

Given only the zero/nonzero structure of a dynamical interaction graph,
the package identifies the observation nodes needed for observability
(Type-alpha for structural-rank recovery, Type-beta for accessibility),
synthesizes and verifies agent communication topologies for distributed
observability, and demonstrates the result with a distributed estimator
simulation.
"""

from .classify import (
    ObservationPlan,
    decompose,
    equivalence_report,
    necessary_counts,
    place_agents,
    structural_counts_report,
)
from .graph_core import (
    Digraph,
    StructuredMatrix,
    digraph_from_structure,
    reachable,
    structure_from_digraph,
)
from .matching import (
    ContractionFamily,
    Matching,
    contractions,
    max_matching,
    s_rank,
    structural_rank,
)
from .netdesign import AgentNetwork, design_canonical, verify_topology, w_structure
from .scc import SccDecomposition, classify_sccs, tarjan_scc
from .structural_check import ObservabilityVerdict, check_centralized, check_distributed

__version__ = "0.1.0"

__all__ = [
    "AgentNetwork",
    "ContractionFamily",
    "Digraph",
    "Matching",
    "ObservabilityVerdict",
    "ObservationPlan",
    "SccDecomposition",
    "StructuredMatrix",
    "check_centralized",
    "check_distributed",
    "classify_sccs",
    "contractions",
    "decompose",
    "design_canonical",
    "digraph_from_structure",
    "equivalence_report",
    "max_matching",
    "necessary_counts",
    "place_agents",
    "reachable",
    "s_rank",
    "structural_counts_report",
    "structure_from_digraph",
    "structural_rank",
    "tarjan_scc",
    "verify_topology",
    "w_structure",
]
