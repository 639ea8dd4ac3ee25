"""Structural observability toolkit for directed interaction graphs.

Given only the zero/nonzero structure of a dynamical interaction graph,
the package identifies the observation nodes needed for observability
(Type-alpha for structural-rank recovery, Type-beta for accessibility),
synthesizes and verifies agent communication topologies for distributed
observability, and demonstrates the result with a distributed estimator
simulation.  Import the layers from their modules (``netobserve.classify``,
``netobserve.netdesign``, ...).
"""

__version__ = "0.1.0"
