from dataclasses import replace

import numpy as np
import pytest

from netobserve.graph_core import Digraph
from netobserve.numeric import (
    GF,
    PRIME,
    REAL,
    kron_numeric,
    observability_rank,
    random_realization,
    stochastic_realization,
    stochastic_realization_gf,
)
from netobserve.classify import decompose, place_agents
from netobserve.netdesign import design_canonical
from netobserve.structural_check import check_centralized, observed_fused_states

from .oracles import (
    alpha_edge_set,
    brute_observability_rank,
    gf_observability_rank,
    kron_structure,
    random_digraph,
    with_alpha_edges,
)


def identity_structure(n):
    return Digraph(n, frozenset((i, i) for i in range(n)))


def observed_rows(net, n, dtype=np.int64):
    """D_H as its unit rows on the observed fused states."""
    return np.eye(net.agent_count * n, dtype=dtype)[observed_fused_states(net, n)]


class TestRandomRealization:
    def test_empty_support_zero_matrix(self):
        r = random_realization(Digraph(2), REAL, seed=0)
        assert not r.any()

    def test_identity_support_diagonal(self):
        r = random_realization(identity_structure(3), GF, seed=0)
        off = r * (1 - np.eye(3, dtype=r.dtype))
        assert not off.any()
        assert all(r[i, i] != 0 for i in range(3))

    def test_seed_reproducible(self):
        s = Digraph(4, frozenset({(1, 0), (3, 2), (0, 3)}))
        for field in (GF, REAL):
            a = random_realization(s, field, seed=7)
            b = random_realization(s, field, seed=7)
            assert (a == b).all()

    def test_support_respected(self):
        s = Digraph(3, frozenset({(1, 0), (2, 1)}))
        r = random_realization(s, GF, seed=1)
        nonzero = {(i, j) for i in range(3) for j in range(3) if r[i, j]}
        assert nonzero == {(i, j) for j, i in s.edges}


class TestStochasticRealization:
    def test_identity_support_gives_identity(self):
        r = stochastic_realization(identity_structure(3), seed=0)
        assert np.allclose(r, np.eye(3))

    def test_rows_sum_to_one(self):
        edges = frozenset({(i, i) for i in range(4)} | {((i + 1) % 4, i) for i in range(4)})
        r = stochastic_realization(Digraph(4, edges), seed=3)
        assert np.allclose(r.sum(axis=1), 1.0, atol=1e-12)

    def test_gf_rows_sum_to_one_mod_p(self):
        edges = frozenset({(i, i) for i in range(4)} | {((i + 1) % 4, i) for i in range(4)})
        r = stochastic_realization_gf(Digraph(4, edges), seed=3)
        sums = np.array([int(sum(int(v) for v in row)) % PRIME for row in r])
        assert (sums == 1).all()

    def test_requires_nonempty_rows(self):
        s = Digraph(2, frozenset({(1, 0)}))  # row 1 is empty
        with pytest.raises(ValueError):
            stochastic_realization(s, seed=0)


class TestRanks:
    """With an identity A the observability rank is the rank of H."""

    @staticmethod
    def rank_of(h):
        eye = np.eye(h.shape[1], dtype=h.dtype)
        return observability_rank(eye, h)

    def test_gf_identity(self):
        assert self.rank_of(np.eye(5, dtype=np.int64)) == 5

    def test_gf_rank_deficient(self):
        m = np.array([[1, 2], [2, 4]], dtype=np.int64)
        assert self.rank_of(m) == 1

    def test_gf_wraps_modulus(self):
        # a matrix singular only mod p: [[1, 1], [1, p+1]] == [[1,1],[1,1]]
        m = np.array([[1, 1], [1, PRIME + 1]], dtype=np.int64)
        assert self.rank_of(m) == 1

    def test_real_matches_numpy(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 4))
        assert self.rank_of(m) == np.linalg.matrix_rank(m)


class TestObservability:
    def test_full_observation_full_rank(self):
        a = random_realization(identity_structure(4), GF, seed=0)
        h = random_realization(identity_structure(4), GF, seed=1)
        assert observability_rank(a, h) == 4

    def test_zero_observation(self):
        a = random_realization(identity_structure(4), GF, seed=0)
        h = np.zeros((1, 4), dtype=np.int64)
        assert observability_rank(a, h) == 0

    def test_matches_gf_reference(self):
        """The Krylov basis agrees with eliminating the stacked n blocks."""
        rng = np.random.default_rng(11)
        pairs = []
        for _ in range(240):  # centralized pairs
            n = int(rng.integers(1, 9))
            g = random_digraph(rng, n, float(rng.uniform(0.1, 0.5)))
            h = np.zeros((int(rng.integers(1, 4)), n), dtype=np.int64)
            for row in h:
                cols = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
                row[cols] = rng.integers(1, PRIME, size=cols.size)
            seed = int(rng.integers(1 << 30))
            pairs.append((random_realization(g, GF, seed), h))
        while len(pairs) < 280:  # fused pairs of canonical designs, whole and crippled
            g = random_digraph(rng, int(rng.integers(3, 8)), 0.35)
            net = design_canonical(place_agents(decompose(g)))
            edges = alpha_edge_set(net)
            nets = [net] + [with_alpha_edges(net, edges - {e}) for e in sorted(edges)[:1]]
            a = random_realization(g, GF, seed=len(pairs))
            for each in nets:
                w = stochastic_realization_gf(each.fusion, seed=len(pairs))
                pairs.append((kron_numeric(w, a), observed_rows(each, g.node_count)))
        # dense uniform residues at dimension 64: a plain int64 product overflows;
        # the second A has rank 40, so its observability rank is deficient
        a = rng.integers(0, PRIME, (64, 64))
        low = np.mod(rng.integers(0, PRIME, (64, 40)).astype(object)
                     @ rng.integers(0, PRIME, (40, 64)).astype(object), PRIME)
        h = rng.integers(0, PRIME, (2, 64))
        pairs += [(a, h), (low.astype(np.int64), h[:1])]

        ranks = [observability_rank(a, h) for a, h in pairs]
        assert ranks == [gf_observability_rank(a, h, PRIME) for a, h in pairs]
        assert ranks[-2:] == [64, 41]
        assert any(r < a.shape[0] for r, (a, _) in zip(ranks, pairs))

    def test_gf_matches_oracle_on_full_and_deficient_pairs(self):
        """The GF(p) frontier basis agrees with the floating-point oracle on
        small integer pairs, where the GF(p) rank is the rational rank: full
        and deficient A, and H with repeated and zero rows."""
        rng = np.random.default_rng(12)
        ranks = []
        for trial in range(60):
            n = int(rng.integers(2, 7))
            a = rng.integers(-2, 3, (n, n)) * (rng.random((n, n)) < 0.45)
            if trial % 3 == 0:  # block diagonal, H sees the first block only
                a[:n // 2, n // 2:] = a[n // 2:, :n // 2] = 0
                h = np.zeros((2, n), dtype=np.int64)
                h[:, :n // 2] = rng.integers(-1, 2, (2, n // 2))
            else:
                h = rng.integers(-1, 2, (int(rng.integers(1, 4)), n))
                h[-1] = h[0] * (trial % 2)  # a repeated or a zero row
            rank = observability_rank(a, h)
            assert rank == brute_observability_rank(a.astype(float), h.astype(float))
            ranks.append(rank == n)
        assert 10 <= sum(ranks) <= 50

    def test_real_scaled_powers_keep_full_rank(self, six_state, six_state_net):
        # A times 10 makes the blocks H A^k span many orders of magnitude;
        # eliminating them stacked loses all but 6 of the 18 directions
        base = random_realization(six_state, REAL, seed=0)
        a = base * 10
        w = stochastic_realization(six_state_net.fusion, seed=0)
        d = observed_rows(six_state_net, 6, float)
        assert observability_rank(kron_numeric(w, a), d) == 18

    def test_real_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_digraph(rng, 5, 0.4)
            a = random_realization(g, REAL, seed=int(rng.integers(1 << 30)))
            h = np.zeros((2, 5))
            h[0, 0], h[1, 3] = 0.7, -0.4
            assert observability_rank(a, h) == brute_observability_rank(a, h)

    def test_structural_verdict_generic(self):
        # structurally observable pairs achieve full numeric rank for almost
        # every realization: allow the measure-zero failures a small quota
        rng = np.random.default_rng(6)
        checked = agreeing = 0
        while checked < 20:
            g = random_digraph(rng, 8, 0.25)
            states = [int(v) for v in rng.choice(8, size=3, replace=False)]
            if not check_centralized(decompose(g), states).observable:
                continue
            checked += 1
            seed = int(rng.integers(1 << 30))
            a = random_realization(g, GF, seed=seed)
            h = np.eye(8, dtype=np.int64)[states]
            agreeing += int(observability_rank(a, h) == 8)
        assert agreeing >= 19  # >= 95%


class TestFieldRule:
    """A realization's dtype names its field: integer arrays are GF(p)
    residues, float arrays are reals, and nothing else is accepted."""

    @staticmethod
    def pair(seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(-3, 4, (5, 5)), rng.integers(-1, 2, (2, 5))

    def test_integer_dtypes_give_the_exact_gf_rank(self):
        # negative entries are residues too; narrow dtypes are widened to
        # int64 before any modular product
        for seed in range(10):
            a, h = self.pair(seed)
            expected = gf_observability_rank(a, h, PRIME)
            assert expected == brute_observability_rank(a.astype(float), h.astype(float))
            for dtype in (np.int8, np.int16, np.int32, np.int64):
                assert observability_rank(a.astype(dtype), h.astype(dtype)) == expected
            residues = np.mod(a, PRIME).astype(np.uint32), np.mod(h, PRIME).astype(np.uint32)
            assert observability_rank(*residues) == expected

    def test_integer_kron_is_reduced_mod_p(self):
        a, _ = self.pair()
        w = np.array([[2, -1], [0, 1]], dtype=np.int32)
        assert np.array_equal(kron_numeric(w, a.astype(np.int16)),
                              np.mod(np.kron(w.astype(np.int64), a), PRIME))

    def test_float_residues_are_reals(self):
        # the same entries as floats are ranked over the reals, not mod p
        a = np.diag([1.0, float(PRIME + 1)])
        h = np.array([[1.0, 1.0]])
        assert observability_rank(a, h) == 2
        assert observability_rank(a.astype(np.int64), h.astype(np.int64)) == 1

    @pytest.mark.parametrize("mixed", ["a-float", "h-float"])
    def test_mixed_fields_raise(self, mixed):
        a, h = self.pair()
        if mixed == "a-float":
            a = a.astype(float)
        else:
            h = h.astype(float)
        with pytest.raises(ValueError, match="all integer"):
            observability_rank(a, h)
        with pytest.raises(ValueError, match="all integer"):
            kron_numeric(a, h)

    @pytest.mark.parametrize("dtype", [bool, np.complex128, object, np.uint64])
    def test_other_dtypes_raise(self, dtype):
        a = np.eye(3).astype(dtype)
        with pytest.raises(ValueError, match="all integer"):
            observability_rank(a, a)
        with pytest.raises(ValueError, match="all integer"):
            kron_numeric(a, a)


class TestKroneckerTiedGenericity:
    def test_structural_check_is_only_necessary_for_tied_pairs(
            self, six_state, six_state_net):
        """The free-entry structural test can overestimate (W kron A, D_H).

        The structural test treats every nonzero of W kron A as a free
        parameter, but the filter's transition matrix repeats the same A
        entries in every block.  Dropping the alpha edge (1, 0) builds a
        pair that is structurally observable with free entries -- and an
        element-wise free realization indeed reaches full rank -- yet every
        Kronecker-tied realization loses one rank unit.  The topology
        conditions (direct alpha links) are what rule this case out, which
        is why design verification never relies on check_distributed alone.
        """
        from netobserve.netdesign import verify_topology
        from netobserve.structural_check import check_distributed

        crippled = with_alpha_edges(six_state_net, alpha_edge_set(six_state_net) - {(1, 0)})
        dec = decompose(six_state)
        assert check_distributed(crippled, dec).observable
        assert not verify_topology(crippled, dec).ok

        n, full = 6, 18
        d = observed_rows(crippled, n)
        m_s = kron_structure(crippled.fusion, six_state)
        tied_ranks, free_ranks = [], []
        for seed in range(5):
            a = random_realization(six_state, GF, seed=seed)
            w = random_realization(crippled.fusion, GF, seed=seed)
            m_free = random_realization(m_s, GF, seed=seed + 2)
            tied_ranks.append(observability_rank(kron_numeric(w, a), d))
            free_ranks.append(observability_rank(m_free, d))
        assert all(r < full for r in tied_ranks)
        assert all(r == full for r in free_ranks)


class TestObservedRows:
    def test_unit_rows_rank_as_a_random_diagonal(self, six_state, six_state_net):
        """Over GF(p) a nonzero diagonal D_H and its unit rows on the
        observed fused states give the same observability rank: a nonzero
        row scaling keeps the row space.  Checked on the six-state design,
        a crippled copy and canonical designs of random digraphs with one
        alpha or one beta edge dropped."""
        rng = np.random.default_rng(13)
        crippled = with_alpha_edges(six_state_net, alpha_edge_set(six_state_net) - {(0, 1)})
        cases = [(six_state, six_state_net), (six_state, crippled)]
        while len(cases) < 60:
            g = random_digraph(rng, int(rng.integers(2, 8)), float(rng.uniform(0.1, 0.5)))
            net = design_canonical(place_agents(decompose(g)))
            cases.append((g, net))
            for layer, rebuild in ((alpha_edge_set(net), lambda e: with_alpha_edges(net, e)),
                                   (net.beta_edges, lambda e: replace(net, beta_edges=e))):
                edges = sorted(layer)
                if edges:
                    cases.append((g, rebuild(layer - {edges[int(rng.integers(len(edges)))]})))
        outcomes = set()
        for k, (g, net) in enumerate(cases):
            n, full = g.node_count, net.agent_count * g.node_count
            m = kron_numeric(stochastic_realization_gf(net.fusion, seed=k),
                             random_realization(g, GF, seed=k))
            observed = observed_fused_states(net, n)
            diagonal = np.zeros(full, dtype=np.int64)
            diagonal[observed] = rng.integers(1, PRIME, size=len(observed))
            rank = observability_rank(m, observed_rows(net, n))
            assert rank == observability_rank(m, np.diag(diagonal))
            outcomes.add(rank == full)
        assert outcomes == {True, False}


class TestKronAndBlocks:
    def test_scalar_w(self):
        a = random_realization(identity_structure(3), REAL, seed=0)
        w = stochastic_realization(identity_structure(1), seed=0)
        assert np.allclose(kron_numeric(w, a), a)

    def test_identity_w_block_diag(self):
        a = random_realization(identity_structure(2), REAL, seed=0)
        w = stochastic_realization(identity_structure(2), seed=0)
        k = kron_numeric(w, a)
        assert np.allclose(k[:2, :2], a)
        assert np.allclose(k[2:, 2:], a)
        assert not k[:2, 2:].any()

    def test_consensus_identity_for_stochastic_w(self):
        # when all agents hold the same estimate x, fusing with any
        # stochastic W leaves the stacked prediction equal to 1 kron (A x)
        rng = np.random.default_rng(7)
        complete = frozenset({(i, j) for i in range(3) for j in range(3)})
        w = stochastic_realization(Digraph(3, complete), seed=1)
        a = random_realization(identity_structure(4), REAL, seed=2)
        x = rng.standard_normal(4)
        stacked = np.tile(x, 3)
        lhs = kron_numeric(w, a) @ stacked
        rhs = np.tile(a @ x, 3)
        assert np.allclose(lhs, rhs, atol=1e-12)
