import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netobserve.graph_core import Digraph, reachable

from .oracles import random_digraph, reachability_matrix


def small_digraphs():
    return st.integers(1, 8).flatmap(
        lambda n: st.frozensets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        ).map(lambda edges: Digraph(n, edges)))


class TestDigraph:
    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Digraph(2, frozenset({(2, 0)}))

    def test_rejects_negative_node_count(self):
        with pytest.raises(ValueError):
            Digraph(-1, frozenset())


class TestDigraphConversion:
    """A digraph read as a structure: row ``i`` is ``predecessors()[i]``."""

    def test_self_loop_support(self):
        assert Digraph(1, frozenset({(0, 0)})).predecessors() == ((0,),)

    def test_entry_one_zero_means_edge_zero_to_one(self):
        # edge 0 -> 1 ("state 0 drives state 1") is entry (row 1, col 0)
        assert Digraph(2, frozenset({(0, 1)})).predecessors() == ((), (0,))

    @given(small_digraphs())
    @settings(max_examples=60, deadline=None)
    def test_predecessors_transpose_successors(self, g):
        into = [[] for _ in range(g.node_count)]
        for s, targets in enumerate(g.successors()):
            for t in targets:
                into[t].append(s)
        assert g.predecessors() == tuple(tuple(sorted(row)) for row in into)


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
