"""Observation placement: Type-alpha / Type-beta selection and minimal counts.

Two kinds of observed states make a digraph structurally observable:

* *alpha* placements, one **distinct** state per contraction set, recover
  the structural rank;
* *beta* placements, one state per matched parent SCC, recover
  accessibility.

A state shared by a contraction and a matched parent SCC can serve both
duties at once, so the minimal count corrects for the overlap.  The
overlap is resolved by a maximum bipartite matching between contraction
sets and matched parent SCCs with a nonempty state intersection: one
alpha observation can absorb at most one beta requirement and one
contraction offers at most one placement, so the matching size bounds the
saving from above.  The counts are therefore necessary counts, lower
bounds: a plan exceeds them when the states the overlap pins cannot all be
left unmatched by one maximum matching (see :func:`place_agents`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .graph_core import Digraph
from .matching import ContractionFamily, contractions, hopcroft_karp
from .scc import SccDecomposition, SccLabel, classify_sccs, matched_parent_indices, tarjan_scc

logger = logging.getLogger(__name__)

ALPHA = "alpha"
BETA = "beta"


class PlanError(RuntimeError):
    """Internal contradiction while building an observation plan."""


@dataclass(frozen=True)
class Placement:
    state: int
    agent: int
    kind: str  # ALPHA or BETA
    covers_contraction: int | None = None
    covers_scc: int | None = None
    repair: bool = False


@dataclass(frozen=True)
class ObservationPlan:
    placements: tuple[Placement, ...]

    @property
    def n_alpha(self) -> int:
        return sum(1 for p in self.placements if p.kind == ALPHA)

    @property
    def n_beta(self) -> int:
        return sum(1 for p in self.placements if p.kind == BETA)

    @property
    def repairs(self) -> tuple[Placement, ...]:
        return tuple(p for p in self.placements if p.repair)

    @property
    def states(self) -> tuple[int, ...]:
        return tuple(p.state for p in self.placements)

    def to_json(self, labels: tuple[str, ...] | None = None) -> dict:
        return {
            "placements": [
                {
                    "state": p.state,
                    "label": labels[p.state] if labels else str(p.state),
                    "agent": p.agent,
                    "kind": p.kind,
                    "covers_contraction": p.covers_contraction,
                    "covers_scc": p.covers_scc,
                }
                for p in self.placements
            ],
            "n_alpha": self.n_alpha,
            "n_beta": self.n_beta,
            "repairs": [p.state for p in self.repairs],
        }


def is_int(value) -> bool:
    """A JSON integer: ``bool`` is an ``int`` subclass, so exclude it."""
    return isinstance(value, int) and not isinstance(value, bool)


def plan_from_json(data: dict, n: int) -> ObservationPlan:
    """Rebuild a plan for an ``n``-state graph from its JSON dump."""
    if not isinstance(data, dict):
        raise ValueError(f"plan JSON must be an object, not {type(data).__name__}")
    items = data.get("placements")
    if items is not None and not (
            isinstance(items, list) and all(isinstance(item, dict) for item in items)):
        raise ValueError("plan JSON field 'placements' must be a list of objects")
    try:
        placements = tuple(
            Placement(
                state=item["state"],
                agent=item["agent"],
                kind=item["kind"],
                covers_contraction=item.get("covers_contraction"),
                covers_scc=item.get("covers_scc"),
            )
            for item in data["placements"]
        )
    except KeyError as exc:
        raise ValueError(f"plan JSON is missing key {exc.args[0]!r}") from None
    if not all(is_int(p.state) and is_int(p.agent) for p in placements):
        raise ValueError("plan JSON fields 'state' and 'agent' must be integers")
    for p in placements:
        if not 0 <= p.state < n:
            raise ValueError(f"plan JSON field 'state' must lie in [0, {n}), got {p.state}")
        if p.kind not in (ALPHA, BETA):
            raise ValueError(f"plan JSON field 'kind' must be 'alpha' or 'beta', got {p.kind!r}")
    return ObservationPlan(placements)


@dataclass(frozen=True)
class Decomposition:
    """Everything the planner needs, computed once from the digraph."""

    digraph: Digraph
    family: ContractionFamily
    sccs: SccDecomposition
    labels: tuple[SccLabel, ...]

    @property
    def s_rank(self) -> int:
        """Size of the canonical matching: each node it leaves unmatched
        witnesses one contraction set."""
        return self.digraph.node_count - len(self.family.sets)

    @property
    def matched_parents(self) -> tuple[int, ...]:
        return matched_parent_indices(self.labels)


def decompose(g: Digraph) -> Decomposition:
    """One canonical matching, one Tarjan pass and one taxonomy matching,
    the last started from the canonical one."""
    d = tarjan_scc(g)
    family = contractions(g)
    return Decomposition(
        digraph=g,
        family=family,
        sccs=d,
        labels=classify_sccs(g, d, family.matching),
    )


def _overlap_matching(dec: Decomposition) -> dict[int, int]:
    """Max matching contraction-index -> matched-parent position (both 0-based)."""
    parents = dec.matched_parents
    position = {j: pj for pj, j in enumerate(parents)}
    component_of = dec.sccs.component_of
    size = max(len(dec.family.sets), len(parents), 1)
    adj: list[list[int]] = [[] for _ in range(size)]
    for ci, c in enumerate(dec.family.sets):
        # Ties broken by lowest SCC index: adjacency kept in parent order.
        adj[ci] = sorted({position[j] for s in c.members
                          if (j := component_of[s]) in position})
    pair = hopcroft_karp(size, adj)
    return {ci: pj for ci, pj in pair.items() if ci < len(dec.family.sets)}


def necessary_counts(dec: Decomposition) -> dict:
    """Counts of necessary observations, with the overlap correction."""
    n_alpha = len(dec.family.sets)
    n_beta_raw = len(dec.matched_parents)
    saving = len(_overlap_matching(dec))
    return {
        "n_alpha": n_alpha,
        "n_beta_raw": n_beta_raw,
        "n_beta_min": n_beta_raw - saving,
        "min_total": n_alpha + n_beta_raw - saving,
        "overlap_matching_size": saving,
    }


def _avoidable(dec: Decomposition, states: set[int]) -> bool:
    """True when some maximum matching leaves every state in ``states`` unmatched.

    Observing the set then recovers the full deficiency: being distinct per
    contraction is necessary but not sufficient, the chosen states must also
    be *simultaneously* unmatched under a single maximum matching, which
    holds exactly when deleting their columns preserves the matching size.
    """
    g = dec.digraph
    adj = [() if s in states else succ for s, succ in enumerate(g.successors())]
    return len(hopcroft_karp(g.node_count, adj)) == dec.s_rank


def _distinct_representatives(
    dec: Decomposition, pinned: dict[int, list[int]]
) -> dict[int, int]:
    """One distinct state per contraction, honoring pinned choices when sound.

    The witness system (the canonical matching's unmatched nodes) is always
    a valid choice; each pinned overlap state is then swapped in only if the
    resulting set stays simultaneously avoidable, so a pinned choice can
    never silently break S-rank recovery.
    """
    cs = dec.family.sets
    chosen = {ci: c.witness for ci, c in enumerate(cs)}
    for ci, candidates in sorted(pinned.items()):
        if chosen[ci] in candidates:
            continue
        for state in candidates:
            if state in chosen.values():
                continue
            trial = dict(chosen)
            trial[ci] = state
            if _avoidable(dec, set(trial.values())):
                chosen = trial
                break
        else:
            logger.warning(
                "no overlap-pinned state for contraction %d is "
                "simultaneously avoidable; keeping witness %d",
                ci, chosen[ci])
    return chosen


def place_agents(dec: Decomposition) -> ObservationPlan:
    """Choose observed states satisfying the alpha/beta necessity conditions.

    Alpha placements are chosen preferentially inside uncovered matched
    parent SCCs (via the overlap matching), then as lowest-id distinct
    states.  Beta placements take the lowest-id state of every matched
    parent SCC left uncovered.

    A pinned state replaces its contraction's witness only when the chosen
    set stays simultaneously avoidable, and the check is needed: on the arcs
    (0,3) (1,3) (2,3) (0,4) (0,5) (4,4) (5,5) the overlap pins 4 and 5, yet
    no maximum matching leaves 3, 4 and 5 all unmatched, as 1 and 2 both
    reach only 3; one pin is refused and the plan places a beta.

    Every parent SCC ends up holding an observation, so the accessibility
    repairs never fire on a plan built here.  A parent SCC has no arcs
    leaving it, so its states match only among themselves, and an unmatched
    parent SCC keeps one of its states unmatched under every maximum
    matching.  The alpha states are always the unmatched set of one maximum
    matching (the witnesses, then only avoidable swaps), so each unmatched
    parent SCC holds an alpha state, and each matched parent SCC holds an
    overlapping alpha or a beta.
    """
    parents = dec.matched_parents
    parent_set = set(parents)
    overlap = _overlap_matching(dec)
    pinned: dict[int, list[int]] = {}
    for ci, pj in sorted(overlap.items()):
        comp = dec.sccs.components[parents[pj]]
        pinned[ci] = sorted(dec.family.sets[ci].members & comp)
    chosen = _distinct_representatives(dec, pinned)
    if len(set(chosen.values())) != len(dec.family.sets):
        raise PlanError("distinct alpha states do not exist; matching theory "
                        "guarantees they do, so this is an internal error")

    placements: list[Placement] = []
    covered_parents: set[int] = set()
    for ci in sorted(chosen):
        state = chosen[ci]
        comp_idx = dec.sccs.component_of[state]
        covers_scc = None
        if comp_idx in parent_set:
            covers_scc = comp_idx
            covered_parents.add(comp_idx)
        placements.append(Placement(state=state, agent=len(placements), kind=ALPHA,
                                    covers_contraction=ci, covers_scc=covers_scc))

    for j in parents:
        if j not in covered_parents:
            placements.append(Placement(state=min(dec.sccs.components[j]),
                                        agent=len(placements), kind=BETA,
                                        covers_scc=j))

    placements.extend(_accessibility_repairs(dec, placements))
    return ObservationPlan(tuple(placements))


def _accessibility_repairs(
    dec: Decomposition, placements: list[Placement]
) -> list[Placement]:
    """One repair per parent SCC that holds no observed state.

    A state that reaches no observation has only such successors, so the
    inaccessible states are closed downstream and the sinks of their
    condensation are exactly the unobserved parent SCCs; observing one
    state of each covers every inaccessible component upstream of it.
    """
    observed = {p.state for p in placements}
    repairs = []
    for j, (comp, lab) in enumerate(zip(dec.sccs.components, dec.labels)):
        if not lab.is_parent or not comp.isdisjoint(observed):
            continue
        state = min(comp)
        logger.warning("accessibility repair: extra observation of state %d", state)
        repairs.append(Placement(state=state, agent=len(placements) + len(repairs),
                                 kind=BETA, covers_scc=j, repair=True))
    return repairs


def structural_counts_report(dec: Decomposition, name: str = "") -> dict:
    """Full-pipeline summary row for a decomposed dataset digraph."""
    counts = necessary_counts(dec)
    n_matched = sum(1 for lab in dec.labels if lab.is_matched)
    return {
        "name": name,
        "n": dec.digraph.node_count,
        "edges": dec.digraph.edge_count,
        "s_rank": dec.s_rank,
        "n_alpha": counts["n_alpha"],
        "n_beta_raw": counts["n_beta_raw"],
        "n_beta_min": counts["n_beta_min"],
        "min_total": counts["min_total"],
        "n_components": len(dec.sccs.components),
        "n_matched_components": n_matched,
        "n_matched_parent": len(dec.matched_parents),
    }
