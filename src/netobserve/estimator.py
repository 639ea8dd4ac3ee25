"""Distributed filter: local prediction/update fusion, gain search, simulation.

Each agent keeps a full-state estimate.  One step of the filter is

* prediction fusion over the beta layer:
  ``xhat_i <- sum_{j in {i} u N_beta(i)} w_ij A xhat_j``, and
* innovation fusion over the alpha layer with a per-agent (block-diagonal)
  gain:
  ``xhat_i <- xhat_i + K_i sum_{j in {i} u N_alpha(i)} H_j^T (y_j - H_j xhat_i)``.

Stacked over agents these equal the centralized recursion on
``(W (x) A, D_H)`` with a block-diagonal gain, whose error matrix is
``F = (I - K D_H)(W (x) A)``; the filter is stable iff rho(F) < 1.

``W`` must be row-stochastic: then every agent's prediction of the truth
is the truth, and the simulation runs the filter as one recursion on the
error matrix ``E = Xhat - 1 x^T`` (agents x n) without a truth trajectory.

Gains are static.  The search replaces the cone-complementarity LMI
synthesis the theory points at: it iterates a covariance recursion whose
centralized gain is projected onto the block-diagonal at every step, then
falls back to random perturbations of the best candidate within the
evaluation budget.  Unobservable inputs are refused with a rank
certificate instead of searched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netdesign import AgentNetwork
from .numeric import REAL, Realization, kron_numeric, observability_rank


class UnobservableSystemError(RuntimeError):
    """Gain search refused: the fused pair is not numerically observable."""

    def __init__(self, rank: int, full: int):
        super().__init__(f"observability rank {rank} < {full}; no stabilizing "
                         f"block-diagonal gain can exist")
        self.rank = rank
        self.full = full


@dataclass(frozen=True)
class GainSchedule:
    blocks: tuple[np.ndarray, ...]  # per-agent, each n x n
    spectral_radius: float
    found: bool
    evaluations: int


@dataclass(frozen=True)
class ErrorTrace:
    mse: np.ndarray  # (horizon, agents)
    process_noise: float
    observation_noise: float

    def steady_state(self) -> float:
        tail = self.mse[int(0.8 * len(self.mse)):]
        return float(np.median(tail))


def _observation_rows(net: AgentNetwork, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows ``H`` (one per placement, in agent order) and the agents x
    rows matrix ``R`` that selects each agent's alpha sources."""
    states = [p.state for obs in net.observations for p in obs]
    owner = np.repeat(np.arange(net.agent_count), [len(obs) for obs in net.observations])
    sources = np.zeros((net.agent_count, net.agent_count))
    for i, js in enumerate(net.alpha_sources):
        sources[i, list(js)] = 1.0
    return np.eye(n)[states], sources[:, owner]


def fused_observation_realization(net: AgentNetwork, n: int) -> np.ndarray:
    """Block-diagonal D_H with blocks sum_j H_j^T H_j over alpha in-neighborhoods."""
    h, r = _observation_rows(net, n)
    return np.diag((r @ h).ravel())


def _assemble_gain(blocks, n_agents: int, n: int) -> np.ndarray:
    big = np.zeros((n_agents * n, n_agents * n))
    for i, k in enumerate(blocks):
        big[i * n:(i + 1) * n, i * n:(i + 1) * n] = k
    return big


def _closed_loop(m: np.ndarray, kbar: np.ndarray, d_h: np.ndarray
                 ) -> tuple[np.ndarray, float]:
    f = m - kbar @ d_h @ m
    return f, float(np.max(np.abs(np.linalg.eigvals(f))))


def gain_search(w: Realization, a: Realization, net: AgentNetwork,
                budget: int = 10_000, seed: int = 0) -> GainSchedule:
    """Find static per-agent gains with rho(F) < 1.

    Strategy: run the covariance recursion of the filter, projecting the
    centralized gain onto the block-diagonal at every iterate (Joseph form
    keeps the recursion valid for the projected gain).  If the fixed point
    is not contractive, spend the remaining budget on random coordinate
    perturbations of the best candidate.
    """
    n_agents = net.agent_count
    n = a.matrix.shape[0]
    dim = n_agents * n
    fused = kron_numeric(w, a)
    m = fused.matrix
    d_h = fused_observation_realization(net, n)

    rank = observability_rank(fused, Realization(d_h, REAL, 0))
    if rank < dim:
        raise UnobservableSystemError(rank, dim)

    def project(g: np.ndarray) -> list[np.ndarray]:
        return [g[i * n:(i + 1) * n, i * n:(i + 1) * n].copy() for i in range(n_agents)]

    q = np.eye(dim)
    r = np.eye(dim)
    p = np.eye(dim)
    evaluations = 0
    best_blocks = [np.zeros((n, n)) for _ in range(n_agents)]
    _, best_rho = _closed_loop(m, _assemble_gain(best_blocks, n_agents, n), d_h)
    evaluations += 1

    for _ in range(min(200, budget)):
        s = m @ p @ m.T + q
        g = s @ d_h.T @ np.linalg.pinv(d_h @ s @ d_h.T + r)
        blocks = project(g)
        kbar = _assemble_gain(blocks, n_agents, n)
        _, rho = _closed_loop(m, kbar, d_h)
        evaluations += 1
        if rho < best_rho:
            best_rho, best_blocks = rho, blocks
        ikd = np.eye(dim) - kbar @ d_h
        p = ikd @ s @ ikd.T + kbar @ r @ kbar.T
        if evaluations >= budget:
            break

    rng = np.random.default_rng(seed)
    scale = 0.5
    while best_rho >= 1.0 and evaluations < budget:
        blocks = [k + scale * rng.standard_normal(k.shape) for k in best_blocks]
        _, rho = _closed_loop(m, _assemble_gain(blocks, n_agents, n), d_h)
        evaluations += 1
        if rho < best_rho:
            best_rho, best_blocks = rho, blocks
            scale = max(scale * 0.9, 1e-3)

    return GainSchedule(tuple(best_blocks), best_rho, best_rho < 1.0, evaluations)


def simulate(w: Realization, a: Realization, net: AgentNetwork,
             gains: GainSchedule, horizon: int = 1000,
             process_noise: float = 0.1, observation_noise: float = 0.1,
             seed: int = 0) -> ErrorTrace:
    """Run the distributed filter as one recursion on the stacked error.

    Per step, with ``d = R H`` the diagonals of the blocks of ``D_H``:
    ``E <- W E A^T - v`` (process noise ``v``), then
    ``E_i <- E_i - K_i (d_i o E_i - sum_rows R_ir nu_r H_r)`` (observation
    noise ``nu``).  Noise is drawn as ``x0``, then per step ``n`` process
    and one observation draw per placement row, in agent order.
    """
    if a.field != REAL or w.field != REAL:
        raise ValueError("simulation runs on real-valued realizations")
    n_agents = net.agent_count
    if w.matrix.shape != (n_agents, n_agents):
        raise ValueError(f"fusion matrix of shape {w.matrix.shape} does not match "
                         f"{n_agents} agents")
    if np.abs(w.matrix.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValueError("fusion matrix rows must sum to one")
    rng = np.random.default_rng(seed)
    n = a.matrix.shape[0]
    h, r = _observation_rows(net, n)
    d = r @ h
    k = np.stack(gains.blocks)

    e = np.tile(-rng.standard_normal(n), (n_agents, 1))
    mse = np.zeros((horizon, n_agents))
    for step in range(horizon):
        e = w.matrix @ e @ a.matrix.T - process_noise * rng.standard_normal(n)
        nu = observation_noise * rng.standard_normal(len(h))
        e = e - np.einsum("inm,im->in", k, d * e - (r * nu) @ h)
        mse[step] = np.mean(e ** 2, axis=1)
    return ErrorTrace(mse, process_noise, observation_noise)
