"""Agent communication topology synthesis and verification.

The agent network has two layers: over the alpha layer agents forward raw
observations, over the beta layer they forward predictions.  An edge
``(u, v)`` in either layer means *u sends to v* (v receives).  The fused
structure ``W`` therefore has support ``(v, u)`` — row = receiver — for
every beta edge, plus the full diagonal (every agent keeps its own
prediction), so ``W`` always has full structural rank.

Conditions verified per agent ``i``:

(i)    for every contraction set, ``i`` receives a direct alpha link from
       an agent observing a state of that set (its own observations count);
(ii-a) for every matched parent SCC, ``i`` receives a direct alpha link
       from an agent observing a state of that SCC, or
(ii-b) ``i`` has a directed path in the beta layer to an agent observing a
       state of that SCC.

For (ii-b) the path runs in the *send* direction: agent ``i``'s block of
the global error dynamics is driven into observed blocks along the chain
``i`` sends through, which is what makes its states accessible.  The two
directions are easy to confuse; the numeric suite confirms the send
direction is the one tied to observability of the fused pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .classify import ALPHA, Decomposition, ObservationPlan, Placement, is_int
from .graph_core import Digraph, StructuredMatrix, reachable


MAX_AGENTS = 10_000  # above the 5,376 placements of a canonical design at 10x corpus size


class DesignError(ValueError):
    """Raised for unusable design inputs (e.g. an empty plan)."""


@dataclass(frozen=True)
class AgentNetwork:
    agent_count: int
    alpha_edges: frozenset[tuple[int, int]]
    beta_edges: frozenset[tuple[int, int]]
    observations: tuple[tuple[Placement, ...], ...]  # per agent

    def __post_init__(self):
        if self.agent_count < 1:
            raise ValueError(f"a network needs at least one agent, got {self.agent_count}")
        for u, v in self.alpha_edges | self.beta_edges:
            if not (0 <= u < self.agent_count and 0 <= v < self.agent_count):
                raise ValueError(f"edge ({u}, {v}) out of agent range")
        if len(self.observations) != self.agent_count:
            raise ValueError("observations must list every agent")

    @cached_property
    def alpha_sources(self) -> tuple[tuple[int, ...], ...]:
        """Per agent ``i``: the agents whose raw observations reach it, ``i``
        itself first, then its alpha in-neighbors in increasing order."""
        into: list[list[int]] = [[] for _ in range(self.agent_count)]
        for u, v in sorted(self.alpha_edges):
            into[v].append(u)
        return tuple((i, *us) for i, us in enumerate(into))

    def beta_graph(self) -> Digraph:
        return Digraph(self.agent_count, frozenset(self.beta_edges))


@dataclass(frozen=True)
class TopologyVerdict:
    ok: bool
    violations: tuple[tuple[int, str], ...] = field(default_factory=tuple)


def agents_from_plan(plan: ObservationPlan, agent_count: int | None = None
                     ) -> tuple[tuple[Placement, ...], ...]:
    """One agent per placement; extra agents hold no observation."""
    n = len(plan.placements) if agent_count is None else agent_count
    if n > MAX_AGENTS:
        raise DesignError(f"{n} agents exceed the cap of {MAX_AGENTS} agents")
    if n < len(plan.placements):
        raise DesignError(f"{n} agents cannot hold {len(plan.placements)} placements")
    obs: list[list[Placement]] = [[] for _ in range(n)]
    for p in plan.placements:
        if not 0 <= p.agent < n:
            raise DesignError(f"placement agent {p.agent} out of range for {n} agents")
        obs[p.agent].append(p)
    return tuple(tuple(o) for o in obs)


def design_canonical(plan: ObservationPlan, agent_count: int | None = None) -> AgentNetwork:
    """Alpha-agents broadcast to everyone; the beta layer is a directed ring.

    The broadcast satisfies the direct-link condition (i) everywhere, and
    the ring gives every agent a directed path to every beta-agent, i.e.
    condition (ii-b).  These conditions are necessary for the distributed
    error dynamics to be stabilizable; sufficiency is checked numerically
    rather than assumed.
    """
    if not plan.placements:
        raise DesignError("cannot design a network for an empty observation plan")
    observations = agents_from_plan(plan, agent_count)
    n = len(observations)
    alpha = set()
    for p in plan.placements:
        if p.kind == ALPHA:
            alpha.update((p.agent, j) for j in range(n) if j != p.agent)
    ring = set()
    if n > 1:
        ring = {(i, (i + 1) % n) for i in range(n)}
    return AgentNetwork(n, frozenset(alpha), frozenset(ring), observations)


def _observer_union(index: dict[int, set[int]], states: frozenset[int]) -> set[int]:
    return set().union(*(index[s] for s in states if s in index))


def verify_topology(net: AgentNetwork, dec: Decomposition) -> TopologyVerdict:
    """Check conditions (i) and (ii) for every agent; the verdict carries
    one entry per unmet condition instead of raising."""
    observers: dict[int, set[int]] = {}
    alpha_observers: dict[int, set[int]] = {}
    for agent, placements in enumerate(net.observations):
        for p in placements:
            observers.setdefault(p.state, set()).add(agent)
            if p.kind == ALPHA:
                alpha_observers.setdefault(p.state, set()).add(agent)
    contraction_observers = [_observer_union(alpha_observers, c.members)
                             for c in dec.family.sets]
    scc_observers = [(j, _observer_union(observers, dec.sccs.components[j]))
                     for j in dec.matched_parents]

    violations: list[tuple[int, str]] = []
    beta_fwd = net.beta_graph().successors()
    for i, sources in enumerate(net.alpha_sources):
        direct = set(sources)
        for ci, found in enumerate(contraction_observers):
            if direct.isdisjoint(found):
                violations.append(
                    (i, f"(i): no direct alpha link covering contraction {ci}"))
        sends_to = reachable(beta_fwd, [i])
        for j, found in scc_observers:
            if not direct.isdisjoint(found):
                continue  # (ii-a)
            if not sends_to.isdisjoint(found):
                continue  # (ii-b), send direction
            violations.append(
                (i, f"(ii): no direct link or beta path to an observer of SCC {j}"))
    return TopologyVerdict(ok=not violations, violations=tuple(violations))


def w_structure(net: AgentNetwork) -> StructuredMatrix:
    """Prediction-fusion structure: row i holds {i} and its beta in-neighbors."""
    support = {(i, i) for i in range(net.agent_count)}
    support.update((v, u) for u, v in net.beta_edges)
    return StructuredMatrix(net.agent_count, net.agent_count, frozenset(support))


def network_to_json(net: AgentNetwork) -> dict:
    return {
        "agents": net.agent_count,
        "alpha_edges": sorted(map(list, net.alpha_edges)),
        "beta_edges": sorted(map(list, net.beta_edges)),
        "w_support": sorted(map(list, w_structure(net).support)),
        "observations": [
            [{"state": p.state, "kind": p.kind} for p in obs]
            for obs in net.observations
        ],
    }


def network_from_json(data: dict, plan: ObservationPlan) -> AgentNetwork:
    """Rebuild a network from its JSON dump plus the matching plan."""
    if not isinstance(data, dict):
        raise ValueError(f"network JSON must be an object, not {type(data).__name__}")
    try:
        agents, alpha, beta = data["agents"], data["alpha_edges"], data["beta_edges"]
    except KeyError as exc:
        raise ValueError(f"network JSON is missing key {exc.args[0]!r}") from None
    if not is_int(agents):
        raise ValueError(f"network JSON field 'agents' must be an integer, not {agents!r}")
    for key, edges in (("alpha_edges", alpha), ("beta_edges", beta)):
        if not (isinstance(edges, list) and all(
                isinstance(e, list) and len(e) == 2 and all(map(is_int, e)) for e in edges)):
            raise ValueError(f"network JSON field {key!r} must be a list of "
                             f"[source, target] integer pairs")
    return AgentNetwork(
        agent_count=agents,
        alpha_edges=frozenset(tuple(e) for e in alpha),
        beta_edges=frozenset(tuple(e) for e in beta),
        observations=agents_from_plan(plan, agents),
    )


def network_to_dot(net: AgentNetwork) -> str:
    """DOT export: alpha edges solid, beta edges dashed."""
    lines = ["digraph agents {"]
    for i, obs in enumerate(net.observations):
        states = ",".join(f"x{p.state}" for p in obs) or "-"
        kinds = "".join(sorted({p.kind[0] for p in obs})) or "idle"
        lines.append(f'  a{i} [label="a{i} ({kinds}: {states})"];')
    for u, v in sorted(net.alpha_edges):
        lines.append(f"  a{u} -> a{v} [style=solid];")
    for u, v in sorted(net.beta_edges):
        lines.append(f"  a{u} -> a{v} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
