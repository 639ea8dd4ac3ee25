"""Distributed filter: local prediction/update fusion, gain search, simulation.

Each agent keeps a full-state estimate.  One step of the filter is

* prediction fusion over the beta layer:
  ``xhat_i <- sum_{j in {i} u N_beta(i)} w_ij A xhat_j``, and
* innovation fusion over the alpha layer with a per-agent (block-diagonal)
  gain:
  ``xhat_i <- xhat_i + K_i sum_{j in {i} u N_alpha(i)} H_j^T (y_j - H_j xhat_i)``,
  where ``N_alpha(i)`` is the network's broadcasters plus ``i``'s explicit
  alpha in-neighbors (``AgentNetwork.alpha_in``).

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
evaluation budget.  ``D_H`` is diagonal, held as the vector ``d = R H``
(flattened), nonzero on the observed coordinates ``O``.  The gain
``S D (D S D + I)^-1`` is then ``S[:, O] D_O X^-1`` on the columns ``O``
and zero elsewhere, with ``X = D_O S[O, O] D_O + I`` symmetric positive
definite: one ``|O| x |O|`` solve per step, not a pseudo-inverse of the
fused dimension.  Unobservable inputs are refused with a rank
certificate instead of searched.

Each iterate's rho(F) comes from one ``eigvals`` call, and the earliest
iterate of least rho wins.  The recursion stops at the first iterate
whose projected gain blocks moved by at most ``_GAIN_TOLERANCE`` times
their largest entry since the iterate before (the zero gain, for the
first): past that point rho moves only in its last bits.  An iterate
whose F is not finite (the covariance recursion overflowed) scores
rho = inf and ends the recursion.

The simulation iterates the certified error matrix F itself: stacked over
agents, the error obeys ``x <- F x + c`` with the forcing
``c = K vec(observed) - (I - K D_H)(1 (x) v)`` of the step's observation
and process noise.  It draws its noise per block of ``_STEP_BLOCK`` steps
from the same generator stream, in the same order, as one draw per step
would (generator draws concatenate), and takes the block's forcing in two
matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .netdesign import AgentNetwork
from .numeric import kron_numeric, observability_rank


class UnobservableSystemError(RuntimeError):
    """Gain search refused: the fused pair is not numerically observable."""

    def __init__(self, rank: int, full: int):
        super().__init__(f"observability rank {rank} < {full}; the fused pair is not "
                         f"numerically observable, so the gain search is refused")
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

    def steady_state(self) -> float:
        tail = self.mse[int(0.8 * len(self.mse)):]
        return float(np.median(tail))


def _observation_rows(net: AgentNetwork, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows ``H`` (one per placement, in agent order) and the agents x
    rows matrix ``R`` that selects each agent's alpha sources: itself, the
    broadcasters and its explicit alpha in-neighbors."""
    states = [p.state for obs in net.observations for p in obs]
    owner = np.repeat(np.arange(net.agent_count), [len(obs) for obs in net.observations])
    sources = np.eye(net.agent_count)
    sources[:, list(net.alpha_edges.broadcast)] = 1.0
    for i, js in enumerate(net.alpha_in):
        sources[i, list(js)] = 1.0
    return np.eye(n)[states], sources[:, owner]


# Steps drawn, and reduced to the MSE, together in one block.
_STEP_BLOCK = 128

# The gain search stops once no entry of the projected gain blocks moves by
# more than this times their largest entry.
_GAIN_TOLERANCE = 1e-12


def _closed_loop(m: np.ndarray, blocks: np.ndarray, d: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Dense block-diagonal K of the agents x n x n ``blocks``, and
    F = M - (K * d) M, i.e. K D_H as a column scaling."""
    n_agents, n, _ = blocks.shape
    k = np.zeros((n_agents, n, n_agents, n))
    agents = np.arange(n_agents)
    k[agents, :, agents, :] = blocks
    k = k.reshape(n_agents * n, n_agents * n)
    return k, m - (k * d) @ m


def _spectral_radius(f: np.ndarray) -> float:
    """rho(F), from one ``eigvals`` call; inf when F is not finite."""
    if not np.isfinite(f).all():
        return np.inf
    return float(np.abs(np.linalg.eigvals(f)).max())


def gain_search(w: np.ndarray, a: np.ndarray, net: AgentNetwork,
                budget: int = 10_000, seed: int = 0) -> GainSchedule:
    """Find static per-agent gains with rho(F) < 1.

    Strategy: run the covariance recursion of the filter, projecting the
    centralized gain onto the block-diagonal at every iterate (Joseph form
    keeps the recursion valid for the projected gain).  If the fixed point
    is not contractive, spend the remaining budget on random coordinate
    perturbations of the best candidate.
    """
    n_agents = net.agent_count
    n = a.shape[0]
    dim = n_agents * n
    m = kron_numeric(w, a)
    h, r = _observation_rows(net, n)
    d = (r @ h).ravel()
    obs = np.flatnonzero(d)
    d_obs = d[obs]

    rank = observability_rank(m, np.eye(dim)[obs])
    if rank < dim:
        raise UnobservableSystemError(rank, dim)

    best = np.zeros((n_agents, n, n))
    best_rho = _spectral_radius(_closed_loop(m, best, d)[1])
    evaluations = 1

    agents = np.arange(n_agents)
    eye, eye_obs = np.eye(dim), np.eye(len(obs))
    g = np.zeros((dim, dim))  # the centralized gain, nonzero on the columns obs only
    p = eye
    previous = best  # the zero gain, evaluated first
    # an overflowing recursion ends at its first non-finite F, which scores rho = inf
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(min(200, budget)):
            s = m @ p @ m.T + eye
            s_obs = s[:, obs] * d_obs
            x = d_obs[:, None] * s_obs[obs] + eye_obs
            g[:, obs] = np.linalg.solve(x.T, s_obs.T).T
            blocks = g.reshape(n_agents, n, n_agents, n)[agents, :, agents, :]
            k, f = _closed_loop(m, blocks, d)
            evaluations += 1
            rho = _spectral_radius(f)
            if rho < best_rho:
                best_rho, best = rho, blocks
            if rho == np.inf or evaluations >= budget or (
                    np.abs(blocks - previous).max() <= _GAIN_TOLERANCE * np.abs(blocks).max()):
                break
            previous = blocks
            ikd = eye - k * d
            p = ikd @ s @ ikd.T + k @ k.T

        rng = np.random.default_rng(seed)
        scale = 0.5
        while best_rho >= 1.0 and evaluations < budget:
            blocks = best + scale * rng.standard_normal(best.shape)
            evaluations += 1
            rho = _spectral_radius(_closed_loop(m, blocks, d)[1])
            if rho < best_rho:
                best_rho, best = rho, blocks
                scale = max(scale * 0.9, 1e-3)

    return GainSchedule(tuple(best), best_rho, best_rho < 1.0, evaluations)


def simulate(w: np.ndarray, a: np.ndarray, net: AgentNetwork,
             gains: GainSchedule, horizon: int = 1000,
             process_noise: float = 0.1, observation_noise: float = 0.1,
             seed: int = 0) -> ErrorTrace:
    """Run the distributed filter as one recursion on the stacked error.

    Per step, with ``d = R H`` the diagonals of the blocks of ``D_H``, the
    filter's ``E <- W E A^T - v`` (process noise ``v``), then
    ``E_i <- E_i - K_i (d_i o E_i - sum_rows R_ir nu_r H_r)`` (observation
    noise ``nu``), is ``x <- F x + c`` on ``x = vec(E)`` with
    ``F = (I - K D_H)(W (x) A)`` and ``c = K vec((R * nu) H) -
    (I - K D_H)(1 (x) v)``.  Noise is drawn as ``x0``, then per step ``n``
    process and one observation draw per placement row, in agent order;
    each block of ``_STEP_BLOCK`` steps takes its draws, and its forcing
    ``c``, in one call.
    """
    if w.dtype.kind != "f" or a.dtype.kind != "f":
        raise ValueError("simulation runs on real-valued realizations")
    n_agents = net.agent_count
    if w.shape != (n_agents, n_agents):
        raise ValueError(f"fusion matrix of shape {w.shape} does not match "
                         f"{n_agents} agents")
    if np.abs(w.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValueError("fusion matrix rows must sum to one")
    rng = np.random.default_rng(seed)
    n = a.shape[0]
    dim = n_agents * n
    h, r = _observation_rows(net, n)
    d = (r @ h).ravel()
    k, f = _closed_loop(kron_numeric(w, a), np.stack(gains.blocks), d)
    kt, ikd_t = k.T, (np.eye(dim) - k * d).T

    x = np.tile(-rng.standard_normal(n), n_agents)
    mse = np.zeros((horizon, n_agents))
    errors = np.empty((min(_STEP_BLOCK, horizon), n_agents, n))
    rows = errors.reshape(len(errors), dim)
    for start in range(0, horizon, _STEP_BLOCK):
        steps = min(_STEP_BLOCK, horizon - start)
        noise = rng.standard_normal((steps, n + len(h)))
        v = process_noise * noise[:, :n]
        nu = observation_noise * noise[:, n:]
        observed = ((r * nu[:, None, :]) @ h).reshape(steps, dim)  # (R * nu) H per step
        c = observed @ kt - np.tile(v, n_agents) @ ikd_t
        for c_step, row in zip(c, rows):
            np.matmul(f, x, out=row)
            row += c_step
            x = row
        np.mean(errors[:steps] ** 2, axis=2, out=mse[start:start + steps])
    return ErrorTrace(mse)


# trace.csv rows formatted, and written, per block: bounds the argument
# tuples that the one ``%`` call per block holds alive, and the text held.
_CSV_BLOCK_ENTRIES = 1 << 16


def _write_trace_csv(out_dir: Path, mse: np.ndarray) -> Path:
    """Write ``k,agent,mse`` rows of the (horizon, agents) ``mse`` to
    ``trace.csv``, one ``%`` formatting call and one write per block of
    steps, so no more than one block's text is held at a time."""
    horizon, agents = mse.shape
    block = max(1, _CSV_BLOCK_ENTRIES // agents)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "trace.csv"
    with path.open("w") as f:
        f.write("k,agent,mse\n")
        for start in range(0, horizon, block):
            chunk = mse[start:start + block]
            rows = np.empty(chunk.shape + (3,), dtype=object)
            rows[..., 0] = np.arange(start, start + len(chunk))[:, None]
            rows[..., 1] = np.arange(agents)
            rows[..., 2] = chunk
            f.write("%d,%d,%.6e\n" * chunk.size % tuple(rows.ravel().tolist()))
    return path
