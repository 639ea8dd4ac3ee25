import numpy as np
import pytest

from netobserve.classify import Placement, ObservationPlan, decompose, place_agents
from netobserve.estimator import (
    GainSchedule,
    UnobservableSystemError,
    gain_search,
    simulate,
)
from netobserve.fixtures import six_state_demo
from netobserve.graph_core import Digraph
from netobserve.netdesign import AgentNetwork, AlphaEdges, design_canonical
from netobserve.numeric import REAL, Realization, random_realization, stochastic_realization

from .oracles import (
    alpha_edge_set,
    dense_gain_search,
    fused_observation_realization,
    with_alpha_edges,
)


def scaled_system(six_state, rho_target, seed=0):
    rng = np.random.default_rng(seed)
    a = np.zeros((6, 6))
    for j, i in sorted(six_state.edges):
        a[i, j] = rng.uniform(0.4, 1.0)
    a *= rho_target / max(abs(np.linalg.eigvals(a)))
    return Realization(a, REAL, seed)


def single_agent_full_obs(n):
    placements = tuple(
        Placement(state=i, agent=0, kind="alpha", covers_contraction=i)
        for i in range(n))
    net = AgentNetwork(1, AlphaEdges(1), frozenset(), (placements,))
    return net


class TestBuildingBlocks:
    def test_fused_observation_block_diag(self, six_state_net):
        d = fused_observation_realization(six_state_net, 6)
        assert d.shape == (18, 18)
        # off-diagonal blocks vanish
        assert not d[:6, 6:].any()
        # the beta agent fuses every observed state via its alpha in-links
        beta_block = d[12:, 12:]
        observed = {p.state for obs in six_state_net.observations for p in obs}
        assert set(np.flatnonzero(np.diag(beta_block))) == observed


def zero_gains(n_agents, n):
    return GainSchedule(tuple(np.zeros((n, n)) for _ in range(n_agents)), 1.0, False, 0)


def initial_error(n, seed):
    # simulate draws x0 first, and every agent starts from xhat = 0
    return -np.random.default_rng(seed).standard_normal(n)


def noiseless(w, a, net, gains, horizon=20, seed=5):
    return simulate(w, a, net, gains, horizon=horizon, process_noise=0.0,
                    observation_noise=0.0, seed=seed)


def unobserving_agents(n_agents):
    # observations are irrelevant under zero gains; each agent needs one
    return AgentNetwork(n_agents, AlphaEdges(n_agents), frozenset(), tuple(
        (Placement(state=0, agent=i, kind="alpha"),) for i in range(n_agents)))


class TestPredictStep:
    # with zero gains every step is the prediction E <- W E A^T alone

    def test_identity_w_independent_predictors(self):
        a = Realization(np.diag([0.5, 2.0]), REAL, 0)
        w = Realization(np.eye(3), REAL, 0)
        trace = noiseless(w, a, unobserving_agents(3), zero_gains(3, 2))
        e = initial_error(2, 5)
        for step in range(20):
            e = a.matrix @ e
            assert np.allclose(trace.mse[step], np.mean(e ** 2), rtol=1e-12)

    def test_single_agent_standard_predictor(self):
        a = Realization(np.array([[0.0, 1.0], [-0.5, 0.3]]), REAL, 0)
        w = Realization(np.eye(1), REAL, 0)
        trace = noiseless(w, a, unobserving_agents(1), zero_gains(1, 2))
        e = initial_error(2, 5)
        for step in range(20):
            e = a.matrix @ e
            assert trace.mse[step, 0] == pytest.approx(np.mean(e ** 2), rel=1e-12)

    def test_stacked_form_matches_kron(self, six_state, six_state_net):
        a = scaled_system(six_state, 0.9)
        w = stochastic_realization(six_state_net.fusion, seed=1)
        trace = noiseless(w, a, six_state_net, zero_gains(3, 6))
        kron = np.kron(w.matrix, a.matrix)
        e = np.tile(initial_error(6, 5), 3)
        for step in range(20):
            e = kron @ e
            expected = np.mean(e.reshape(3, 6) ** 2, axis=1)
            assert np.allclose(trace.mse[step], expected, rtol=1e-9, atol=1e-15)


class TestUpdateStep:
    def test_zero_gain_no_change(self, six_state, six_state_net):
        # a zero gain ignores the innovation, so observation noise is inert
        a = scaled_system(six_state, 0.9)
        w = stochastic_realization(six_state_net.fusion, seed=1)
        runs = [simulate(w, a, six_state_net, zero_gains(3, 6), horizon=50,
                         process_noise=0.1, observation_noise=noise, seed=3)
                for noise in (0.0, 1.0)]
        assert np.array_equal(runs[0].mse, runs[1].mse)

    def test_single_agent_exact_recovery(self):
        # noiseless full observation with the pseudo-inverse correction
        # (H^T H)^-1 = I recovers the state at every step, whatever the
        # process noise drove it to
        n = 3
        a = Realization(np.random.default_rng(6).uniform(-1, 1, (n, n)), REAL, 0)
        w = Realization(np.eye(1), REAL, 0)
        gains = GainSchedule((np.eye(n),), 0.0, True, 0)
        trace = simulate(w, a, single_agent_full_obs(n), gains, horizon=20,
                         process_noise=0.5, observation_noise=0.0, seed=2)
        assert not trace.mse.any()


class TestErrorMatrix:
    def test_zero_gain_kron_spectral_radius(self, six_state, six_state_net):
        # F = W kron A under zero gains: the noiseless squared error
        # contracts per step at rho(W kron A)^2
        a = scaled_system(six_state, 0.8)
        w = stochastic_realization(six_state_net.fusion, seed=5)
        rho_kron = max(abs(np.linalg.eigvals(np.kron(w.matrix, a.matrix))))
        m = noiseless(w, a, six_state_net, zero_gains(3, 6), horizon=80).mse.mean(axis=1)
        window = 10
        observed = (m[60] / m[60 - window]) ** (1 / window)
        assert observed == pytest.approx(rho_kron ** 2, rel=0.05)

    def test_single_agent_kalman_style_gain_stabilizes(self):
        # classical output injection: with full observation K D_H = I
        # gives rho(F) = 0, so even an unstable plant leaves only the
        # last observation noise as error
        n = 3
        a = Realization(np.random.default_rng(6).uniform(-1, 1, (n, n)), REAL, 0)
        a = Realization(a.matrix * 3 / max(abs(np.linalg.eigvals(a.matrix))), REAL, 0)
        w = Realization(np.eye(1), REAL, 0)
        gains = GainSchedule((np.eye(n),), 0.0, True, 0)  # K D_H = I
        trace = simulate(w, a, single_agent_full_obs(n), gains, horizon=200,
                         process_noise=0.1, observation_noise=0.1, seed=4)
        assert trace.mse.max() < 0.1
        unstabilized = simulate(w, a, single_agent_full_obs(n), zero_gains(1, n),
                                horizon=200, process_noise=0.1,
                                observation_noise=0.1, seed=4)
        assert unstabilized.mse.max() > 1e6


def six_state_case(six_state, six_state_net, blocks):
    a = scaled_system(six_state, 0.9)
    w = stochastic_realization(six_state_net.fusion, seed=1)
    return w, a, six_state_net, GainSchedule(blocks, 1.0, False, 0)


def deadbeat_case():
    # full observation of one agent: D_H = I, so K = I gives K D_H = I
    n = 3
    a = Realization(np.random.default_rng(6).uniform(-1, 1, (n, n)), REAL, 0)
    w = Realization(np.eye(1), REAL, 0)
    return w, a, single_agent_full_obs(n), GainSchedule((np.eye(n),), 0.0, True, 0)


@pytest.mark.parametrize("case, vanishes", [
    (lambda g, net: six_state_case(g, net, zero_gains(3, 6).blocks), False),
    (lambda g, net: six_state_case(g, net, tuple(
        np.random.default_rng(4).standard_normal((3, 6, 6)) * 0.1)), False),
    (lambda g, net: deadbeat_case(), True),
], ids=["zero-gain", "random-gains", "deadbeat"])
def test_error_recursion_matches_dense(six_state, six_state_net, case, vanishes):
    # noiseless, the stacked error after step k is F^(k+1) e0 with
    # F = (I - Kbar D_H)(W kron A) and e0 = -x0 in every agent's block
    w, a, net, gains = case(six_state, six_state_net)
    n_agents, n = net.agent_count, a.matrix.shape[0]
    kbar = np.zeros((n_agents * n, n_agents * n))
    for i, k in enumerate(gains.blocks):
        kbar[i * n:(i + 1) * n, i * n:(i + 1) * n] = k
    d_h = fused_observation_realization(net, n)
    f = (np.eye(n_agents * n) - kbar @ d_h) @ np.kron(w.matrix, a.matrix)
    e = np.tile(-np.random.default_rng(5).standard_normal(n), n_agents)
    trace = simulate(w, a, net, gains, horizon=20, process_noise=0.0,
                     observation_noise=0.0, seed=5)
    for step in range(20):
        e = f @ e
        expected = np.mean(e.reshape(n_agents, n) ** 2, axis=1)
        assert np.allclose(trace.mse[step], expected, rtol=1e-9, atol=1e-15)
    if vanishes:
        assert not trace.mse.any()


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
        w = stochastic_realization(six_state_net.fusion, seed=0)
        sched = gain_search(w, a, six_state_net, budget=10_000, seed=1)
        assert sched.found
        assert sched.spectral_radius < 1.0
        assert sched.evaluations <= 10_000

    def test_unobservable_input_refused_with_certificate(self, six_state, six_state_net):
        # drop a load-bearing alpha broadcast edge and scale the plant
        # unstable: the search must refuse, not silently fail
        crippled = with_alpha_edges(six_state_net, alpha_edge_set(six_state_net) - {(0, 1)})
        a = scaled_system(six_state, 1.1)
        w = stochastic_realization(crippled.fusion, seed=0)
        with pytest.raises(UnobservableSystemError) as exc_info:
            gain_search(w, a, crippled, budget=500, seed=0)
        assert exc_info.value.rank < exc_info.value.full
        assert exc_info.value.full == 18


    def test_fast_growing_powers_not_refused(self, six_state, six_state_net):
        # rho(A) near 10 makes the unscaled blocks D_H M^k span many orders
        # of magnitude; the design is observable, so the rank test must pass
        base = random_realization(six_state, REAL, seed=0)
        a = Realization(base.matrix * 10, REAL, 0)
        w = stochastic_realization(six_state_net.fusion, seed=0)
        sched = gain_search(w, a, six_state_net, budget=20, seed=0)
        assert sched.evaluations == 20


class TestDenseReference:
    """``gain_search`` solves on the observed block and stops at a converged
    gain; the dense pseudo-inverse recursion of ``dense_gain_search``, run
    to its 200th iterate, must give the same schedule up to rounding."""

    @staticmethod
    def assert_matches_dense(w, a, net, budget, seed):
        sched = gain_search(w, a, net, budget=budget, seed=seed)
        ref = dense_gain_search(w, a, net, budget=budget, seed=seed)
        assert sched.found == ref.found
        assert sched.evaluations <= ref.evaluations
        assert abs(sched.spectral_radius - ref.spectral_radius) <= 1e-9
        assert len(sched.blocks) == len(ref.blocks)
        for k, k_ref in zip(sched.blocks, ref.blocks):
            np.testing.assert_allclose(k, k_ref, rtol=0, atol=1e-9)
        trace = simulate(w, a, net, sched, horizon=200, seed=3)
        trace_ref = simulate(w, a, net, ref, horizon=200, seed=3)
        np.testing.assert_allclose(trace.mse, trace_ref.mse, rtol=1e-9)
        return sched

    @pytest.mark.parametrize("rho", [0.95, 1.1])
    def test_six_state_fixture(self, six_state, six_state_net, rho):
        w = stochastic_realization(six_state_net.fusion, seed=0)
        self.assert_matches_dense(w, scaled_system(six_state, rho), six_state_net,
                                  budget=10_000, seed=1)

    def test_fast_growing_with_perturbation_fallback(self, six_state, six_state_net):
        # rho(A) near 10: no iterate is contractive, so the 99 evaluations
        # after the 201 covariance steps are random perturbations
        base = random_realization(six_state, REAL, seed=0)
        a = Realization(base.matrix * 10, REAL, 0)
        w = stochastic_realization(six_state_net.fusion, seed=0)
        sched = self.assert_matches_dense(w, a, six_state_net, budget=300, seed=0)
        assert not sched.found

    def test_benchmark_sized_graphs(self):
        """Six 12-16 state graphs at fused dimension 60-64."""
        from perfbench.workloads import small_graphs

        for n, arcs in small_graphs(np.random.default_rng(5), 6):
            g = Digraph(n, frozenset(arcs))
            net = design_canonical(place_agents(decompose(g)))
            w = stochastic_realization(net.fusion, seed=0)
            a = random_realization(g, REAL, seed=0)
            self.assert_matches_dense(w, a, net, budget=10_000, seed=0)


class TestSimulate:
    def test_noiseless_decay_rate_matches_rho_squared(self, six_state, six_state_net):
        a = scaled_system(six_state, 0.95)
        w = stochastic_realization(six_state_net.fusion, seed=0)
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
        w = stochastic_realization(six_state_net.fusion, seed=0)
        sched = gain_search(w, a, six_state_net, budget=10_000, seed=1)
        trace = simulate(w, a, six_state_net, sched, horizon=600,
                         process_noise=0.05, observation_noise=0.05, seed=3)
        steady = trace.steady_state()
        assert trace.mse[100:].max() < 10 * steady

    def test_divergence_with_sabotaged_gain(self, six_state, six_state_net):
        a = scaled_system(six_state, 1.1)
        w = stochastic_realization(six_state_net.fusion, seed=0)
        zero = GainSchedule(tuple(np.zeros((6, 6)) for _ in range(3)),
                            1.1, False, 0)  # rho(F) = rho(W kron A) >= 1.1
        trace = simulate(w, a, six_state_net, zero, horizon=200,
                         process_noise=0.05, observation_noise=0.05, seed=4)
        assert trace.mse.max() > 1e6

    def test_unstable_plant_mse_stays_small(self, six_state, six_state_net):
        # rho(A) = 1.1: the estimate and the truth both diverge, yet their
        # difference contracts at rho(F) < 1
        a = scaled_system(six_state, 1.1)
        w = stochastic_realization(six_state_net.fusion, seed=0)
        sched = gain_search(w, a, six_state_net, budget=10_000, seed=1)
        assert sched.found
        trace = simulate(w, a, six_state_net, sched, horizon=1000,
                         process_noise=0.05, observation_noise=0.05, seed=3)
        assert trace.steady_state() < 1.0
        assert trace.mse[800:].max() < 1.0

    @pytest.mark.parametrize("matrix", [
        np.full((3, 3), 0.5),  # rows sum to 1.5
        np.eye(2),             # two agents for a three-agent network
    ], ids=["not-stochastic", "wrong-shape"])
    def test_rejects_bad_fusion_matrix(self, six_state, six_state_net, matrix):
        a = scaled_system(six_state, 0.9)
        with pytest.raises(ValueError, match="fusion matrix"):
            simulate(Realization(matrix, REAL, 0), a, six_state_net, zero_gains(3, 6))

    def test_requires_real_field(self, six_state, six_state_net):
        from netobserve.numeric import GF
        a = random_realization(six_state, GF, seed=0)
        w = stochastic_realization(six_state_net.fusion, seed=0)
        sched = GainSchedule(tuple(np.zeros((6, 6)) for _ in range(3)), 1.0, False, 0)
        with pytest.raises(ValueError):
            simulate(w, a, six_state_net, sched)
