import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netobserve.graph_core import Digraph, reachable

from .oracles import FrozenDigraph, random_digraph, reachability_matrix


def small_digraphs():
    return st.integers(1, 8).flatmap(
        lambda n: st.frozensets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        ).map(lambda edges: Digraph(n, edges)))


def pair_lists(low=0, high=0):
    """A node count and a list of pairs, repeats and self-loops included,
    whose ends run from ``low`` to ``node_count - 1 + high``."""
    return st.integers(0, 8).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(low, n - 1 + high), st.integers(low, n - 1 + high)),
        max_size=30) if n - 1 + high >= low else st.just([])))


# The forms a caller may hand the constructor: a one-shot iterator as well.
PAIR_FORMS = (list, tuple, set, frozenset, iter)


class TestDigraph:
    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Digraph(2, frozenset({(2, 0)}))

    @pytest.mark.parametrize("edge", [(-1, 0), (0, -1), (0, 3)])
    def test_rejects_negative_and_too_large_ends(self, edge):
        # a negative source would otherwise count from the end of the buckets
        with pytest.raises(ValueError):
            Digraph(3, {edge})

    @given(pair_lists(low=-2, high=2), st.sampled_from(PAIR_FORMS))
    @settings(max_examples=150, deadline=None)
    def test_refuses_what_the_frozenset_digraph_refuses(self, case, form):
        n, pairs = case
        try:
            FrozenDigraph(n, pairs)
        except ValueError:
            with pytest.raises(ValueError):
                Digraph(n, form(pairs))
        else:
            Digraph(n, form(pairs))

    @given(pair_lists(), st.sampled_from(PAIR_FORMS), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_frozenset_digraph(self, case, form, data):
        n, pairs = case
        g, ref = Digraph(n, form(pairs)), FrozenDigraph(n, pairs)
        assert g.node_count == ref.node_count
        assert g.successors() == ref.successors()
        assert g.predecessors() == ref.predecessors()
        assert g.edges == ref.edges and isinstance(g.edges, frozenset)
        assert g.edge_count == ref.edge_count

        shuffled = data.draw(st.permutations(pairs + pairs[: len(pairs) // 2]))
        for m, qs in ((n, shuffled), data.draw(pair_lists()), (n + 1, pairs)):
            h = Digraph(m, qs)
            assert (g == h) == (ref == FrozenDigraph(m, qs))
            if g == h:
                assert hash(g) == hash(h)

        buckets = [[] for _ in range(n)]
        for s, t in shuffled:
            buckets[s].append(t)
        assert Digraph._from_buckets(n, buckets) == g

    def test_is_immutable_and_copies(self):
        g = Digraph(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.node_count = 3
        assert g != (2, ((1,), ())) and repr(g) == "Digraph(2, [(0, 1)])"
        for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert twin == g and twin.predecessors() == ((), (0,))

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
