import numpy as np
import pytest

from netobserve.classify import Placement, ObservationPlan
from netobserve.estimator import (
    ErrorTrace,
    FilterState,
    GainSchedule,
    UnobservableSystemError,
    error_matrix,
    fused_observation_realization,
    gain_search,
    observation_matrices,
    predict_step,
    simulate,
    update_step,
)
from netobserve.fixtures import six_state_demo
from netobserve.graph_core import structure_from_digraph
from netobserve.netdesign import AgentNetwork, w_structure
from netobserve.numeric import REAL, Realization, random_realization, stochastic_realization


def scaled_system(six_state, rho_target, seed=0):
    rng = np.random.default_rng(seed)
    s = structure_from_digraph(six_state)
    a = np.zeros((6, 6))
    for i, j in s.support:
        a[i, j] = rng.uniform(0.4, 1.0)
    a *= rho_target / max(abs(np.linalg.eigvals(a)))
    return Realization(a, REAL, seed)


def single_agent_full_obs(n):
    placements = tuple(
        Placement(state=i, agent=0, kind="alpha", covers_contraction=i)
        for i in range(n))
    net = AgentNetwork(1, frozenset(), frozenset(), (placements,))
    return net


class TestBuildingBlocks:
    def test_observation_matrices_rows(self, six_state_net):
        hs = observation_matrices(six_state_net, 6)
        assert [h.shape[0] for h in hs] == [1, 1, 1]
        for h, obs in zip(hs, six_state_net.observations):
            assert h[0, obs[0].state] == 1.0

    def test_fused_observation_block_diag(self, six_state_net):
        d = fused_observation_realization(six_state_net, 6)
        assert d.shape == (18, 18)
        # off-diagonal blocks vanish
        assert not d[:6, 6:].any()
        # the beta agent fuses every observed state via its alpha in-links
        beta_block = d[12:, 12:]
        observed = {p.state for obs in six_state_net.observations for p in obs}
        assert set(np.flatnonzero(np.diag(beta_block))) == observed


class TestPredictStep:
    def test_identity_w_independent_predictors(self):
        a = Realization(np.diag([0.5, 2.0]), REAL, 0)
        w = Realization(np.eye(3), REAL, 0)
        est = np.arange(6, dtype=float).reshape(3, 2)
        out = predict_step(FilterState(est), w, a)
        for i in range(3):
            assert np.allclose(out.estimates[i], a.matrix @ est[i])

    def test_single_agent_standard_predictor(self):
        a = Realization(np.array([[0.0, 1.0], [-0.5, 0.3]]), REAL, 0)
        w = Realization(np.eye(1), REAL, 0)
        est = np.array([[1.0, -2.0]])
        out = predict_step(FilterState(est), w, a)
        assert np.allclose(out.estimates[0], a.matrix @ est[0])

    def test_stacked_form_matches_kron(self, six_state, six_state_net):
        a = scaled_system(six_state, 0.9)
        w = stochastic_realization(w_structure(six_state_net), seed=1)
        est = np.random.default_rng(2).standard_normal((3, 6))
        out = predict_step(FilterState(est), w, a)
        stacked = np.kron(w.matrix, a.matrix) @ est.ravel()
        assert np.allclose(out.estimates.ravel(), stacked, atol=1e-12)

    def test_agent_count_mismatch(self):
        a = Realization(np.eye(2), REAL, 0)
        w = Realization(np.eye(2), REAL, 0)
        with pytest.raises(ValueError):
            predict_step(FilterState(np.zeros((3, 2))), w, a)


class TestUpdateStep:
    def test_zero_gain_no_change(self, six_state_net):
        est = np.random.default_rng(3).standard_normal((3, 6))
        gains = GainSchedule(tuple(np.zeros((6, 6)) for _ in range(3)),
                             1.0, False, 0)
        obs = {j: np.zeros(1) for j in range(3)}
        out = update_step(FilterState(est), obs, gains, six_state_net)
        assert np.allclose(out.estimates, est)
        assert out.step == 1

    def test_single_agent_exact_recovery(self):
        # noiseless full observation with the pseudo-inverse correction
        # recovers the state in one step
        n = 3
        net = single_agent_full_obs(n)
        h = observation_matrices(net, n)[0]
        x = np.array([1.0, -2.0, 0.5])
        est = np.zeros((1, n))
        gains = GainSchedule((np.linalg.inv(h.T @ h),), 0.0, True, 0)
        out = update_step(FilterState(est), {0: h @ x}, gains, net)
        assert np.allclose(out.estimates[0], x, atol=1e-12)

    def test_missing_declared_observation_raises(self, six_state_net):
        est = np.zeros((3, 6))
        gains = GainSchedule(tuple(np.zeros((6, 6)) for _ in range(3)),
                             1.0, False, 0)
        with pytest.raises(KeyError):
            update_step(FilterState(est), {0: np.zeros(1)}, gains, six_state_net)

    def test_stacked_form_matches_centralized(self, six_state, six_state_net):
        # one update step equals xhat + Kbar (y_stacked - D_H xhat) with the
        # block-diagonal assembled gain
        rng = np.random.default_rng(4)
        n, n_agents = 6, 3
        est = rng.standard_normal((n_agents, n))
        blocks = tuple(rng.standard_normal((n, n)) * 0.1 for _ in range(n_agents))
        gains = GainSchedule(blocks, 1.0, False, 0)
        hs = observation_matrices(six_state_net, n)
        x = rng.standard_normal(n)
        obs = {j: hs[j] @ x for j in range(n_agents)}
        out = update_step(FilterState(est), obs, gains, six_state_net)

        d_h = fused_observation_realization(six_state_net, n)
        kbar = np.zeros((n_agents * n, n_agents * n))
        for i, k in enumerate(blocks):
            kbar[i * n:(i + 1) * n, i * n:(i + 1) * n] = k
        stacked_truth = np.tile(x, n_agents)
        stacked = est.ravel() + kbar @ d_h @ (stacked_truth - est.ravel())
        assert np.allclose(out.estimates.ravel(), stacked, atol=1e-12)


class TestErrorMatrix:
    def test_zero_gain_kron_spectral_radius(self, six_state, six_state_net):
        a = scaled_system(six_state, 0.8)
        w = stochastic_realization(w_structure(six_state_net), seed=5)
        gains = GainSchedule(tuple(np.zeros((6, 6)) for _ in range(3)),
                             1.0, False, 0)
        d_h = fused_observation_realization(six_state_net, 6)
        f, rho = error_matrix(w, a, gains, d_h)
        kron = np.kron(w.matrix, a.matrix)
        assert np.allclose(f, kron)
        rho_kron = max(abs(np.linalg.eigvals(kron)))
        assert rho == pytest.approx(rho_kron, abs=1e-9)

    def test_single_agent_kalman_style_gain_stabilizes(self):
        # classical output injection: with full observation the deadbeat
        # gain K = A H^{-1}-style correction gives rho < 1
        n = 3
        net = single_agent_full_obs(n)
        rng = np.random.default_rng(6)
        a = Realization(rng.uniform(-1, 1, (n, n)), REAL, 0)
        w = Realization(np.eye(1), REAL, 0)
        d_h = fused_observation_realization(net, n)
        gains = GainSchedule((np.eye(n),), 0.0, True, 0)  # K D_H = I
        _, rho = error_matrix(w, a, gains, d_h)
        assert rho < 1e-9


class TestGainSearch:
    def test_single_agent_full_observation_succeeds(self):
        n = 4
        net = single_agent_full_obs(n)
        rng = np.random.default_rng(7)
        a = Realization(rng.uniform(-1, 1, (n, n)), REAL, 0)
        w = Realization(np.eye(1), REAL, 0)
        sched = gain_search(w, a, net, budget=2_000, seed=0)
        assert sched.found and sched.spectral_radius < 1.0

    def test_six_state_canonical_design_succeeds(self, six_state, six_state_net):
        a = scaled_system(six_state, 1.1)  # unstable plant
        w = stochastic_realization(w_structure(six_state_net), seed=0)
        sched = gain_search(w, a, six_state_net, budget=10_000, seed=1)
        assert sched.found
        assert sched.spectral_radius < 1.0
        assert sched.evaluations <= 10_000

    def test_unobservable_input_refused_with_certificate(self, six_state, six_state_net):
        # drop a load-bearing alpha broadcast edge and scale the plant
        # unstable: the search must refuse, not silently fail
        crippled = AgentNetwork(
            six_state_net.agent_count,
            six_state_net.alpha_edges - {(0, 1)},
            six_state_net.beta_edges,
            six_state_net.observations)
        a = scaled_system(six_state, 1.1)
        w = stochastic_realization(w_structure(crippled), seed=0)
        with pytest.raises(UnobservableSystemError) as exc_info:
            gain_search(w, a, crippled, budget=500, seed=0)
        assert exc_info.value.rank < exc_info.value.full
        assert exc_info.value.full == 18


    def test_fast_growing_powers_not_refused(self, six_state, six_state_net):
        # rho(A) near 10 makes the unscaled blocks D_H M^k span many orders
        # of magnitude; the design is observable, so the rank test must pass
        base = random_realization(structure_from_digraph(six_state), REAL, seed=0)
        a = Realization(base.matrix * 10, REAL, 0)
        w = stochastic_realization(w_structure(six_state_net), seed=0)
        sched = gain_search(w, a, six_state_net, budget=20, seed=0)
        assert sched.evaluations == 20


class TestSimulate:
    def test_noiseless_decay_rate_matches_rho_squared(self, six_state, six_state_net):
        a = scaled_system(six_state, 0.95)
        w = stochastic_realization(w_structure(six_state_net), seed=0)
        sched = gain_search(w, a, six_state_net, budget=10_000, seed=1)
        assert sched.found
        trace = simulate(w, a, six_state_net, sched, horizon=80,
                         process_noise=0.0, observation_noise=0.0, seed=2)
        m = trace.mse.mean(axis=1)
        # asymptotic per-step contraction of the squared error is rho^2
        window = 10
        observed = (m[60] / m[60 - window]) ** (1 / window)
        assert observed == pytest.approx(sched.spectral_radius ** 2, rel=0.05)

    def test_noisy_mse_bounded(self, six_state, six_state_net):
        a = scaled_system(six_state, 0.95)
        w = stochastic_realization(w_structure(six_state_net), seed=0)
        sched = gain_search(w, a, six_state_net, budget=10_000, seed=1)
        trace = simulate(w, a, six_state_net, sched, horizon=600,
                         process_noise=0.05, observation_noise=0.05, seed=3)
        steady = trace.steady_state()
        assert trace.mse[100:].max() < 10 * steady

    def test_divergence_with_sabotaged_gain(self, six_state, six_state_net):
        a = scaled_system(six_state, 1.1)
        w = stochastic_realization(w_structure(six_state_net), seed=0)
        zero = GainSchedule(tuple(np.zeros((6, 6)) for _ in range(3)),
                            1.1, False, 0)  # rho(F) = rho(W kron A) >= 1.1
        trace = simulate(w, a, six_state_net, zero, horizon=200,
                         process_noise=0.05, observation_noise=0.05, seed=4)
        assert trace.mse.max() > 1e6

    def test_requires_real_field(self, six_state, six_state_net):
        from netobserve.numeric import GF
        a = random_realization(structure_from_digraph(six_state), GF, seed=0)
        w = stochastic_realization(w_structure(six_state_net), seed=0)
        sched = GainSchedule(tuple(np.zeros((6, 6)) for _ in range(3)), 1.0, False, 0)
        with pytest.raises(ValueError):
            simulate(w, a, six_state_net, sched)
