"""The estimator's loops agree with the frozen per-iterate and per-step
loops in ``tests.oracles``.  Those run all 200 covariance iterates and the
per-agent error update; the gain search stops at a converged gain and the
simulation iterates the error matrix F, so gain blocks, rho and the MSE
trace agree up to rounding, and the search makes no more evaluations.
Where the search runs the same iterates as the frozen one (before it
stops, or on a plant whose gain never converges), it returns the same
schedule bit for bit."""

import functools
import tracemalloc

import numpy as np
import pytest

from netobserve import estimator
from netobserve.classify import decompose, place_agents
from netobserve.estimator import (
    _CSV_BLOCK_ENTRIES,
    _GAIN_TOLERANCE,
    _STEP_BLOCK,
    _spectral_radius,
    _write_trace_csv,
    gain_search,
    simulate,
)
from netobserve.graph_core import Digraph
from netobserve.netdesign import design_canonical
from netobserve.numeric import REAL, random_realization, stochastic_realization

from . import oracles
from .oracles import frozen_gain_search, frozen_simulate
from .test_estimator import scaled_system


def assert_same_schedule(got, ref):
    assert got.spectral_radius == ref.spectral_radius
    assert (got.found, got.evaluations) == (ref.found, ref.evaluations)
    assert len(got.blocks) == len(ref.blocks)
    for k, k_ref in zip(got.blocks, ref.blocks):
        assert np.array_equal(k, k_ref)


def assert_close_schedule(got, ref):
    assert got.found == ref.found
    assert abs(got.spectral_radius - ref.spectral_radius) <= 1e-9
    assert got.evaluations <= ref.evaluations
    assert len(got.blocks) == len(ref.blocks)
    for k, k_ref in zip(got.blocks, ref.blocks):
        np.testing.assert_allclose(k, k_ref, rtol=0, atol=1e-9)


def assert_matches_frozen(w, a, net, budget, seed, horizon=1000):
    sched = gain_search(w, a, net, budget=budget, seed=seed)
    assert_close_schedule(sched, frozen_gain_search(w, a, net, budget=budget, seed=seed))
    trace = simulate(w, a, net, sched, horizon=horizon, seed=seed)
    np.testing.assert_allclose(trace.mse, frozen_simulate(w, a, net, sched, horizon=horizon,
                                                          seed=seed).mse, rtol=1e-9)
    return sched


@functools.cache
def small_cases(seed: int):
    """The estimator-small workload's graphs at ``seed``, realized as the
    ``simulate`` command realizes them."""
    from perfbench.workloads import estimator_small

    cases = []
    for n, arcs in estimator_small(np.random.default_rng(seed)):
        g = Digraph(n, frozenset(arcs))
        net = design_canonical(place_agents(decompose(g)))
        cases.append((stochastic_realization(net.fusion, seed=0),
                      random_realization(g, REAL, seed=0), net))
    return cases


@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_graphs(seed):
    cases = small_cases(seed)
    assert len(cases) == 12
    for w, a, net in cases:
        assert 60 <= net.agent_count * a.shape[0] <= 64
        assert_matches_frozen(w, a, net, budget=10_000, seed=0)


@pytest.mark.parametrize("rho", [0.95, 1.1])
def test_six_state_fixture(six_state, six_state_net, rho):
    w = stochastic_realization(six_state_net.fusion, seed=0)
    assert_matches_frozen(w, scaled_system(six_state, rho), six_state_net,
                          budget=10_000, seed=1)


def scaled_plant(six_state, six_state_net, scale=10):
    """The fixture's plant times ``scale``.  At 10, rho(A) is near 10: no
    covariance iterate is contractive, so a budget past 201 evaluations is
    spent in the perturbation fallback."""
    base = random_realization(six_state, REAL, seed=0)
    w = stochastic_realization(six_state_net.fusion, seed=0)
    return w, base * scale, six_state_net


@pytest.mark.parametrize("budget", [1, 2, 100, 101, 102, 103, 200, 201, 202, 300])
def test_budgets_around_batch_and_loop_ends(six_state, six_state_net, budget):
    # the projected gain of this plant never converges: the search runs the
    # frozen search's iterates and perturbations
    case = scaled_plant(six_state, six_state_net)
    sched = gain_search(*case, budget=budget, seed=0)
    assert_same_schedule(sched, frozen_gain_search(*case, budget=budget, seed=0))
    assert not sched.found
    assert sched.evaluations == max(budget, 2)
    np.testing.assert_allclose(simulate(*case, sched, horizon=50, seed=0).mse,
                               frozen_simulate(*case, sched, horizon=50, seed=0).mse,
                               rtol=1e-9)


def test_budgets_on_a_benchmark_graph():
    # fused dimension 60; the gain converges at iterate 12
    w, a, net = small_cases(1)[0]
    for budget in (1, 2, 9, 10, 11, 12):
        assert_same_schedule(gain_search(w, a, net, budget=budget, seed=0),
                             frozen_gain_search(w, a, net, budget=budget, seed=0))
    for budget in (13, 19, 20, 200, 201, 202):
        sched = gain_search(w, a, net, budget=budget, seed=0)
        assert_close_schedule(sched, frozen_gain_search(w, a, net, budget=budget, seed=0))
        assert sched.evaluations == 13


@pytest.mark.parametrize("horizon", [1, 2, _STEP_BLOCK - 1, _STEP_BLOCK,
                                     _STEP_BLOCK + 1, 3 * _STEP_BLOCK + 5])
def test_simulate_horizons_across_step_blocks(six_state, six_state_net, horizon):
    w, a, net = scaled_plant(six_state, six_state_net, scale=1)
    sched = gain_search(w, a, net, budget=300, seed=0)
    for seed in (0, 7):
        got = simulate(w, a, net, sched, horizon=horizon, process_noise=0.2,
                       observation_noise=0.05, seed=seed)
        ref = frozen_simulate(w, a, net, sched, horizon=horizon, process_noise=0.2,
                              observation_noise=0.05, seed=seed)
        assert got.mse.shape == (horizon, net.agent_count)
        np.testing.assert_allclose(got.mse, ref.mse, rtol=1e-9)


@pytest.mark.parametrize("scale", [1e200, 1e20, 30])
def test_overflowing_recursion_fails_without_raising(six_state, six_state_net, scale,
                                                     monkeypatch):
    # the covariance recursion overflows to inf and nan, and the frozen
    # search raises from ``eigvals``; the search scores the first non-finite
    # F as rho = inf, ends the recursion (the perturbations around the best
    # finite gain give finite F) and reports that no gain was found, without
    # a numpy warning, which the test configuration turns into an error
    case = scaled_plant(six_state, six_state_net, scale=scale)
    radii = []
    monkeypatch.setattr(estimator, "_spectral_radius",
                        lambda f: radii.append(_spectral_radius(f)) or radii[-1])
    with np.errstate(all="ignore"):
        with pytest.raises(np.linalg.LinAlgError):
            frozen_gain_search(*case, budget=300, seed=0)
    sched = gain_search(*case, budget=300, seed=0)
    assert sched.found is False
    assert np.isfinite(sched.spectral_radius)
    assert (sched.evaluations, len(radii), radii.count(np.inf)) == (300, 300, 1)


def traced_peak(run):
    """Peak of the memory ``run()`` allocates, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_is_the_trace_plus_a_fixed_margin(six_state, six_state_net,
                                                          tmp_path):
    # a (horizon, agents, n) buffer of errors would take six times the trace
    w, a, net = scaled_plant(six_state, six_state_net, scale=1)
    sched = gain_search(w, a, net, budget=300, seed=0)
    horizon = 20_000
    traces = []
    peak = traced_peak(lambda: traces.append(simulate(w, a, net, sched, horizon=horizon,
                                                      seed=0)))
    mse = traces[0].mse
    assert mse.nbytes == horizon * net.agent_count * 8
    assert peak <= mse.nbytes + 2**18
    # trace.csv is formatted and written one block of rows at a time: the
    # trace, and one of four blocks and more, peak no higher than one block
    block = _CSV_BLOCK_ENTRIES // net.agent_count
    longer = np.tile(mse, (5, 1))
    one = traced_peak(lambda: _write_trace_csv(tmp_path, longer[:block]))
    assert traced_peak(lambda: _write_trace_csv(tmp_path, mse)) <= one
    assert traced_peak(lambda: _write_trace_csv(tmp_path, longer[:4 * block + 5])) \
        <= one + 2**18
    assert (tmp_path / "trace.csv").stat().st_size > 4 * block * net.agent_count * 15


@pytest.mark.parametrize("seed, index, tied", [(1, 0, False), (1, 1, True), (2, 4, True)])
def test_search_stops_at_the_first_converged_iterate(monkeypatch, seed, index, tied):
    # Every iterate of the frozen 200-iterate search is recorded: the search
    # must stop at the first whose gain blocks moved by at most the tolerance
    # since the iterate before (the zero gain before the first), and return
    # the earliest iterate of least rho among those it ran, bit for bit, at
    # budgets on either side of the stop.  A second pass rounds every rho to
    # two decimals, so that later iterates tie with the least one, unless the
    # zero gain is the least (on the first graph).
    from netobserve import estimator

    evaluated = []
    closed_loop = oracles.frozen_closed_loop

    def recording(m, blocks, d):
        k, rho = closed_loop(m, blocks, d)
        evaluated.append((np.array(blocks), rho))
        return k, rho

    monkeypatch.setattr(oracles, "frozen_closed_loop", recording)
    w, a, net = small_cases(seed)[index]
    frozen_gain_search(w, a, net, budget=201, seed=0)
    blocks = [b for b, _ in evaluated]  # the zero gain, then iterates 1-200
    stop = next(i for i in range(1, len(blocks))
                if np.abs(blocks[i] - blocks[i - 1]).max()
                <= _GAIN_TOLERANCE * np.abs(blocks[i]).max())
    assert 10 <= stop < 100
    ties = 0
    for digits in (None, 2):
        if digits:
            monkeypatch.setattr(estimator, "_spectral_radius",
                                lambda f: round(_spectral_radius(f), digits))
        rhos = [round(rho, digits) if digits else rho for _, rho in evaluated]
        for budget in (stop - 1, stop, stop + 1, stop + 2, 201, 10_000):
            ran = min(stop, max(1, budget - 1))
            best = min(range(ran + 1), key=lambda i: (rhos[i], i))
            ties += rhos[best] in rhos[best + 1:ran + 1]
            sched = gain_search(w, a, net, budget=budget, seed=0)
            assert sched.found
            assert sched.evaluations == ran + 1
            assert sched.spectral_radius == rhos[best]
            assert np.array_equal(np.stack(sched.blocks), blocks[best])
    assert bool(ties) == tied
