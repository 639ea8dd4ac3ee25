import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netobserve.graph_core import (
    Digraph,
    StructuredMatrix,
    reachable,
    structure_from_digraph,
)

from .oracles import random_digraph, reachability_matrix


def small_digraphs():
    return st.integers(1, 8).flatmap(
        lambda n: st.frozensets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        ).map(lambda edges: Digraph(n, edges)))


class TestStructuredMatrix:
    def test_rejects_out_of_range_support(self):
        with pytest.raises(ValueError):
            StructuredMatrix(2, 2, frozenset({(2, 0)}))

    def test_rejects_negative_dims(self):
        with pytest.raises(ValueError):
            StructuredMatrix(-1, 3, frozenset())


class TestDigraphConversion:
    def test_self_loop_support(self):
        a = structure_from_digraph(Digraph(1, frozenset({(0, 0)})))
        assert (a.rows, a.cols, a.support) == (1, 1, frozenset({(0, 0)}))

    def test_entry_one_zero_means_edge_zero_to_one(self):
        # edge 0 -> 1 ("state 0 drives state 1") is support entry (row 1, col 0)
        a = structure_from_digraph(Digraph(2, frozenset({(0, 1)})))
        assert a.support == frozenset({(1, 0)})


class TestReachable:
    def test_chain_from_head(self):
        g = Digraph(3, frozenset({(0, 1), (1, 2)}))
        assert reachable(g.successors(), [0]) == frozenset({0, 1, 2})

    def test_chain_from_tail(self):
        g = Digraph(3, frozenset({(0, 1), (1, 2)}))
        assert reachable(g.successors(), [2]) == frozenset({2})

    def test_matches_matrix_power_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            g = random_digraph(rng, 8, 0.25)
            r = reachability_matrix(g)
            for s in range(8):
                assert reachable(g.successors(), [s]) == frozenset(np.flatnonzero(r[s]))

    @given(small_digraphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_idempotent(self, g, data):
        sources = data.draw(st.frozensets(st.integers(0, g.node_count - 1)))
        closed = reachable(g.successors(), sources)
        assert sources <= closed
        assert reachable(g.successors(), closed) == closed
