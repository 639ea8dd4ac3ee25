"""The estimator's batched loops return exactly what the frozen per-iterate
and per-step loops in ``tests.oracles`` return: the same gain blocks, rho,
``found`` flag and evaluation count, and the same MSE trace, bit for bit.
Rounding-level agreement is not enough: ``trace.csv``, ``rho`` and
``gain_digest`` are compared byte for byte across versions."""

import functools
import tracemalloc

import numpy as np
import pytest

from netobserve.classify import decompose, place_agents
from netobserve.cli import _CSV_BLOCK_ENTRIES, _write_trace_csv
from netobserve.estimator import (
    _RHO_BATCH_BYTES,
    _STEP_BLOCK,
    _spectral_radii,
    gain_search,
    simulate,
)
from netobserve.graph_core import Digraph
from netobserve.netdesign import design_canonical
from netobserve.numeric import REAL, Realization, random_realization, stochastic_realization

from .oracles import frozen_gain_search, frozen_simulate
from .test_estimator import scaled_system


def assert_same_schedule(got, ref):
    assert got.spectral_radius == ref.spectral_radius
    assert (got.found, got.evaluations) == (ref.found, ref.evaluations)
    assert len(got.blocks) == len(ref.blocks)
    for k, k_ref in zip(got.blocks, ref.blocks):
        assert np.array_equal(k, k_ref)


def assert_matches_frozen(w, a, net, budget, seed, horizon=1000):
    sched = gain_search(w, a, net, budget=budget, seed=seed)
    assert_same_schedule(sched, frozen_gain_search(w, a, net, budget=budget, seed=seed))
    trace = simulate(w, a, net, sched, horizon=horizon, seed=seed)
    assert np.array_equal(trace.mse, frozen_simulate(w, a, net, sched, horizon=horizon,
                                                     seed=seed).mse)
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
        assert 60 <= net.agent_count * a.matrix.shape[0] <= 64
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
    return w, Realization(base.matrix * scale, REAL, 0), six_state_net


def test_batch_size_at_fixture_dimension():
    # the budgets below straddle the batch boundaries of the fused dimension 18
    assert _RHO_BATCH_BYTES // (8 * 18 * 18) == 101


@pytest.mark.parametrize("budget", [1, 2, 100, 101, 102, 103, 200, 201, 202, 300])
def test_budgets_around_batch_and_loop_ends(six_state, six_state_net, budget):
    sched = assert_matches_frozen(*scaled_plant(six_state, six_state_net),
                                  budget=budget, seed=0, horizon=50)
    assert not sched.found
    assert sched.evaluations == max(budget, 2)


def test_budgets_on_a_benchmark_graph():
    # fused dimension 60: batches of 9
    w, a, net = small_cases(1)[0]
    for budget in (1, 2, 9, 10, 11, 19, 20, 200, 201, 202):
        assert_same_schedule(gain_search(w, a, net, budget=budget, seed=0),
                             frozen_gain_search(w, a, net, budget=budget, seed=0))


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
        assert np.array_equal(got.mse, ref.mse)


def test_batched_radii_equal_one_call_per_matrix():
    # a batch that mixes real and complex spectra returns complex
    # eigenvalues for every matrix; |x + 0j| must still be |x| exactly
    rng = np.random.default_rng(3)
    stack = np.stack([rng.standard_normal((12, 12)), np.triu(rng.standard_normal((12, 12))),
                      np.diag(rng.standard_normal(12)), np.zeros((12, 12)),
                      rng.standard_normal((12, 12)) * 1e-150])
    expected = [float(np.max(np.abs(np.linalg.eigvals(f)))) for f in stack]
    assert _spectral_radii(stack) == expected
    assert [_spectral_radii(f[None])[0] for f in stack] == expected


@pytest.mark.parametrize("scale", [1e200, 1e20])
def test_overflowing_recursion_raises_as_frozen(six_state, six_state_net, scale):
    # the covariance recursion overflows to inf and nan; the batched search
    # runs on to the end of its batch before it takes any rho, and must
    # still fail as the per-iterate search does
    case = scaled_plant(six_state, six_state_net, scale=scale)
    with np.errstate(all="ignore"):
        with pytest.raises(Exception) as frozen:
            frozen_gain_search(*case, budget=300, seed=0)
        with pytest.raises(frozen.type):
            gain_search(*case, budget=300, seed=0)
    assert frozen.type is np.linalg.LinAlgError


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


@pytest.mark.parametrize("seed, index, repeat", [(1, 0, 20), (1, 10, 31)])
def test_search_stops_at_a_repeated_covariance(monkeypatch, seed, index, repeat):
    # On these benchmark graphs the covariance iterate P repeats bit for bit
    # at iterate ``repeat`` (of ``repeat - 1`` and ``repeat - 3``): from there
    # on every iterate replays an earlier F, so the search stops there and
    # still returns what the full loop returns, at budgets on either side.
    import hashlib
    from types import SimpleNamespace

    from netobserve import estimator

    digests = []

    def blake2b(data, **kwargs):
        digests.append(hashlib.blake2b(data, **kwargs).digest())
        return SimpleNamespace(digest=lambda: digests[-1])

    monkeypatch.setattr(estimator, "hashlib", SimpleNamespace(blake2b=blake2b))
    w, a, net = small_cases(seed)[index]
    for budget in (repeat, repeat + 1, repeat + 2, repeat + 3, 201, 10_000):
        digests.clear()
        assert_same_schedule(gain_search(w, a, net, budget=budget, seed=0),
                             frozen_gain_search(w, a, net, budget=budget, seed=0))
        iterates = min(200, budget, max(1, budget - 1))
        assert len(digests) == min(iterates, repeat + 1)
        assert len(set(digests)) == min(iterates, repeat)
