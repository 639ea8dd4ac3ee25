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
    necessary_counts,
    place_agents,
    structural_counts_report,
)
from .graph_core import Digraph, reachable
from .matching import ContractionFamily, contractions
from .netdesign import AgentNetwork, design_canonical, verify_topology
from .scc import SccDecomposition, classify_sccs, tarjan_scc
from .structural_check import ObservabilityVerdict, check_centralized, check_distributed

__version__ = "0.1.0"

__all__ = [
    "AgentNetwork",
    "ContractionFamily",
    "Digraph",
    "ObservabilityVerdict",
    "ObservationPlan",
    "SccDecomposition",
    "check_centralized",
    "check_distributed",
    "classify_sccs",
    "contractions",
    "decompose",
    "design_canonical",
    "necessary_counts",
    "place_agents",
    "reachable",
    "structural_counts_report",
    "tarjan_scc",
    "verify_topology",
]
