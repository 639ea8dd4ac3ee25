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
class FilterState:
    """Per-agent estimates, shape (agents, n)."""

    estimates: np.ndarray
    step: int = 0


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


def observation_matrices(net: AgentNetwork, n: int) -> list[np.ndarray]:
    """Per-agent raw observation matrix H_i (one row per placement)."""
    mats = []
    for obs in net.observations:
        h = np.zeros((len(obs), n))
        for r, p in enumerate(obs):
            h[r, p.state] = 1.0
        mats.append(h)
    return mats


def fused_observation_realization(net: AgentNetwork, n: int) -> np.ndarray:
    """Block-diagonal D_H with blocks sum_j H_j^T H_j over alpha in-neighborhoods."""
    hs = observation_matrices(net, n)
    big = np.zeros((net.agent_count * n, net.agent_count * n))
    for i in range(net.agent_count):
        block = np.zeros((n, n))
        for j in net.alpha_sources[i]:
            block += hs[j].T @ hs[j]
        big[i * n:(i + 1) * n, i * n:(i + 1) * n] = block
    return big


def predict_step(state: FilterState, w: Realization, a: Realization) -> FilterState:
    """Prediction fusion; touches only beta in-neighborhoods (W's support)."""
    n_agents, n = state.estimates.shape
    if w.matrix.shape != (n_agents, n_agents):
        raise ValueError("fusion matrix does not match agent count")
    out = np.zeros_like(state.estimates)
    for i in range(n_agents):
        neighbors = np.flatnonzero(w.matrix[i])  # {i} and beta in-neighbors only
        for j in neighbors:
            out[i] += w.matrix[i, j] * (a.matrix @ state.estimates[j])
    return FilterState(out, state.step)


def update_step(state: FilterState, observations: dict[int, np.ndarray],
                gains: GainSchedule, net: AgentNetwork) -> FilterState:
    """Innovation fusion; touches only alpha in-neighborhoods."""
    n_agents, n = state.estimates.shape
    hs = observation_matrices(net, n)
    out = state.estimates.copy()
    for i in range(n_agents):
        innovation = np.zeros(n)
        for j in net.alpha_sources[i]:
            if len(net.observations[j]) == 0:
                continue
            if j not in observations:
                raise KeyError(f"missing observation from agent {j} "
                               f"declared on an alpha edge into {i}")
            innovation += hs[j].T @ (observations[j] - hs[j] @ state.estimates[i])
        out[i] = state.estimates[i] + gains.blocks[i] @ innovation
    return FilterState(out, state.step + 1)


def _assemble_gain(blocks, n_agents: int, n: int) -> np.ndarray:
    big = np.zeros((n_agents * n, n_agents * n))
    for i, k in enumerate(blocks):
        big[i * n:(i + 1) * n, i * n:(i + 1) * n] = k
    return big


def _closed_loop(m: np.ndarray, kbar: np.ndarray, d_h: np.ndarray
                 ) -> tuple[np.ndarray, float]:
    f = m - kbar @ d_h @ m
    return f, float(np.max(np.abs(np.linalg.eigvals(f))))


def error_matrix(w: Realization, a: Realization, gains: GainSchedule,
                 d_h: np.ndarray) -> tuple[np.ndarray, float]:
    """F = (W (x) A) - Kbar D_H (W (x) A) and its spectral radius."""
    kbar = _assemble_gain(gains.blocks, w.matrix.shape[0], a.matrix.shape[0])
    return _closed_loop(np.kron(w.matrix, a.matrix), kbar, d_h)


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
    """Run the distributed filter against a simulated truth trajectory."""
    if a.field != REAL or w.field != REAL:
        raise ValueError("simulation runs on real-valued realizations")
    rng = np.random.default_rng(seed)
    n_agents = net.agent_count
    n = a.matrix.shape[0]
    hs = observation_matrices(net, n)

    x = rng.standard_normal(n)
    state = FilterState(np.zeros((n_agents, n)))
    mse = np.zeros((horizon, n_agents))
    for k in range(horizon):
        x = a.matrix @ x + process_noise * rng.standard_normal(n)
        observations = {
            j: hs[j] @ x + observation_noise * rng.standard_normal(hs[j].shape[0])
            for j in range(n_agents) if hs[j].shape[0] > 0
        }
        state = predict_step(state, w, a)
        state = update_step(state, observations, gains, net)
        mse[k] = np.mean((state.estimates - x) ** 2, axis=1)
    return ErrorTrace(mse, process_noise, observation_noise)
