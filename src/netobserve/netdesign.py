"""Agent communication topology synthesis and verification.

The agent network has two layers: over the alpha layer agents forward raw
observations, over the beta layer they forward predictions.  An edge
``(u, v)`` in either layer means *u sends to v* (v receives).  The fused
structure ``W`` (:attr:`AgentNetwork.fusion`) is therefore the beta layer
itself, whose row ``v`` lists the senders to ``v``, plus a self-loop per
agent (every agent keeps its own prediction), so ``W`` always has full
structural rank.

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

The alpha layer is held as :class:`AlphaEdges`: the *broadcasters*, agents
with an alpha edge to every other agent, plus any other edges listed
explicitly.  A canonical design, where every alpha-agent broadcasts, is
then N_alpha integers instead of N_alpha * (N - 1) edges, and the checks,
the JSON and the DOT export work in the size of that description: a
condition some broadcaster meets holds for every agent at once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .classify import ALPHA, Decomposition, ObservationPlan, Placement, is_int
from .graph_core import Digraph, reachable


MAX_AGENTS = 10_000  # above the 5,376 placements of a canonical design at 10x corpus size


class DesignError(ValueError):
    """Raised for unusable design inputs (e.g. an empty plan)."""


@dataclass(frozen=True)
class AlphaEdges:
    """The alpha layer, held as the *broadcasters* (agents ``u`` with an
    edge ``(u, v)`` to every other agent) plus the remaining *explicit*
    ``(u, v)`` edges.

    A source listed with all ``agent_count - 1`` out-edges becomes a
    broadcaster, so the form is unique and a full edge list reads the same
    as its broadcasters; a canonical design's N_alpha * (N - 1) edges cost
    N_alpha integers.  ``len`` is the full alpha edge count.
    """

    agent_count: int
    broadcast: frozenset[int] = frozenset()
    explicit: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        n = self.agent_count
        broadcast = set(self.broadcast)
        explicit = set(map(tuple, self.explicit))
        for u in broadcast:
            if not 0 <= u < n:
                raise ValueError(f"alpha broadcaster {u} out of agent range")
        for u, v in explicit:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of agent range")
        if n < 2:
            broadcast = set()  # nobody to broadcast to
        else:
            out = Counter(u for u, v in explicit if u != v and u not in broadcast)
            broadcast.update(u for u, k in out.items() if k == n - 1)
        object.__setattr__(self, "broadcast", frozenset(broadcast))
        object.__setattr__(self, "explicit", frozenset(
            (u, v) for u, v in explicit if u == v or u not in broadcast))

    def __len__(self) -> int:
        return len(self.broadcast) * (self.agent_count - 1) + len(self.explicit)


@dataclass(frozen=True)
class AgentNetwork:
    agent_count: int
    alpha_edges: AlphaEdges
    beta_edges: frozenset[tuple[int, int]]
    observations: tuple[tuple[Placement, ...], ...]  # per agent

    def __post_init__(self):
        if self.agent_count < 1:
            raise ValueError(f"a network needs at least one agent, got {self.agent_count}")
        if self.alpha_edges.agent_count != self.agent_count:
            raise ValueError(f"alpha layer of {self.alpha_edges.agent_count} agents "
                             f"in a network of {self.agent_count}")
        for u, v in self.beta_edges:
            if not (0 <= u < self.agent_count and 0 <= v < self.agent_count):
                raise ValueError(f"edge ({u}, {v}) out of agent range")
        if len(self.observations) != self.agent_count:
            raise ValueError("observations must list every agent")

    @cached_property
    def alpha_in(self) -> tuple[tuple[int, ...], ...]:
        """Per agent, its explicit alpha in-neighbors in increasing order.
        The raw observations that reach agent ``i`` are its own, the
        broadcasters' (``alpha_edges.broadcast``) and those of
        ``alpha_in[i]``."""
        into: list[list[int]] = [[] for _ in range(self.agent_count)]
        for u, v in sorted(self.alpha_edges.explicit):
            if u != v:
                into[v].append(u)
        return tuple(map(tuple, into))

    @cached_property
    def fusion(self) -> Digraph:
        """Prediction-fusion structure W: the beta edges plus a self-loop per
        agent, so row ``i`` holds ``i`` and its beta in-neighbors."""
        out = [[i] for i in range(self.agent_count)]
        for u, v in self.beta_edges:  # in range: checked on construction
            out[u].append(v)
        return Digraph._from_buckets(self.agent_count, out)

    @cached_property
    def beta_connected(self) -> bool:
        """Whether every agent has a beta path to every other agent, i.e.
        the fusion structure W is irreducible."""
        return all(len(reachable(adj, [0])) == self.agent_count
                   for adj in (self.fusion.successors(), self.fusion.predecessors()))


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
    rather than assumed.  The alpha layer is held as its broadcaster set,
    so the design costs O(N) whatever the number of alpha-agents.
    """
    if not plan.placements:
        raise DesignError("cannot design a network for an empty observation plan")
    observations = agents_from_plan(plan, agent_count)
    n = len(observations)
    alpha = AlphaEdges(n, broadcast=(p.agent for p in plan.placements if p.kind == ALPHA))
    ring = frozenset((i, (i + 1) % n) for i in range(n)) if n > 1 else frozenset()
    return AgentNetwork(n, alpha, ring, observations)


def _observer_union(index: dict[int, set[int]], states: frozenset[int]) -> set[int]:
    return set().union(*(index[s] for s in states if s in index))


def verify_topology(net: AgentNetwork, dec: Decomposition) -> TopologyVerdict:
    """Check conditions (i) and (ii) for every agent; the verdict carries
    one entry per unmet condition instead of raising.

    A condition that some broadcaster meets holds for every agent, and a
    matched parent SCC with an observer holds (ii-b) for every agent when
    the beta layer is strongly connected; only the remaining conditions are
    checked per agent, against its explicit alpha in-neighbors and one
    backward search over the beta layer per such SCC.
    """
    observers: dict[int, set[int]] = {}
    alpha_observers: dict[int, set[int]] = {}
    for agent, placements in enumerate(net.observations):
        for p in placements:
            observers.setdefault(p.state, set()).add(agent)
            if p.kind == ALPHA:
                alpha_observers.setdefault(p.state, set()).add(agent)
    broadcast = net.alpha_edges.broadcast
    open_contractions = [
        (ci, found) for ci, c in enumerate(dec.family.sets)
        if broadcast.isdisjoint(found := _observer_union(alpha_observers, c.members))]
    open_sccs = [
        (j, found) for j in dec.matched_parents
        if broadcast.isdisjoint(found := _observer_union(observers, dec.sccs.components[j]))
        and not (found and net.beta_connected)]
    senders = [reachable(net.fusion.predecessors(), found) for _, found in open_sccs]

    violations: list[tuple[int, str]] = []
    for i, extra in enumerate(net.alpha_in):
        for ci, found in open_contractions:
            if i not in found and found.isdisjoint(extra):
                violations.append(
                    (i, f"(i): no direct alpha link covering contraction {ci}"))
        for (j, found), sends in zip(open_sccs, senders):
            if i in sends or i in found or not found.isdisjoint(extra):
                continue  # (ii-b) in the send direction, or (ii-a)
            violations.append(
                (i, f"(ii): no direct link or beta path to an observer of SCC {j}"))
    return TopologyVerdict(ok=not violations, violations=tuple(violations))


def network_to_json(net: AgentNetwork) -> dict:
    return {
        "agents": net.agent_count,
        "alpha_broadcast": sorted(net.alpha_edges.broadcast),
        "alpha_edges": sorted(map(list, net.alpha_edges.explicit)),
        "beta_edges": sorted(map(list, net.beta_edges)),
        "observations": [
            [{"state": p.state, "kind": p.kind} for p in obs]
            for obs in net.observations
        ],
    }


def network_from_json(data: dict, plan: ObservationPlan) -> AgentNetwork:
    """Rebuild a network from its JSON dump plus the matching plan.

    ``alpha_broadcast`` may be missing: a dump that lists every alpha edge
    reads the same, its complete broadcasts becoming broadcasters.
    """
    if not isinstance(data, dict):
        raise ValueError(f"network JSON must be an object, not {type(data).__name__}")
    try:
        agents, alpha, beta = data["agents"], data["alpha_edges"], data["beta_edges"]
    except KeyError as exc:
        raise ValueError(f"network JSON is missing key {exc.args[0]!r}") from None
    broadcast = data.get("alpha_broadcast", [])
    if not is_int(agents):
        raise ValueError(f"network JSON field 'agents' must be an integer, not {agents!r}")
    if not (isinstance(broadcast, list) and all(map(is_int, broadcast))):
        raise ValueError("network JSON field 'alpha_broadcast' must be a list of integers")
    for key, edges in (("alpha_edges", alpha), ("beta_edges", beta)):
        if not (isinstance(edges, list) and all(
                isinstance(e, list) and len(e) == 2 and all(map(is_int, e)) for e in edges)):
            raise ValueError(f"network JSON field {key!r} must be a list of "
                             f"[source, target] integer pairs")
    observations = agents_from_plan(plan, agents)
    return AgentNetwork(
        agent_count=agents,
        alpha_edges=AlphaEdges(agents, broadcast, alpha),
        beta_edges=frozenset(tuple(e) for e in beta),
        observations=observations,
    )


def network_to_dot(net: AgentNetwork) -> str:
    """DOT export: alpha edges solid, beta edges dashed; broadcasters send
    to one ``broadcast`` node, which stands for an edge to every agent."""
    lines = ["digraph agents {"]
    for i, obs in enumerate(net.observations):
        states = ",".join(f"x{p.state}" for p in obs) or "-"
        kinds = "".join(sorted({p.kind[0] for p in obs})) or "idle"
        lines.append(f'  a{i} [label="a{i} ({kinds}: {states})"];')
    broadcast = sorted(net.alpha_edges.broadcast)
    if broadcast:
        lines.append('  broadcast [shape=box, label="alpha broadcast to every agent"];')
    for u in broadcast:
        lines.append(f"  a{u} -> broadcast [style=solid];")
    for u, v in sorted(net.alpha_edges.explicit):
        lines.append(f"  a{u} -> a{v} [style=solid];")
    for u, v in sorted(net.beta_edges):
        lines.append(f"  a{u} -> a{v} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
