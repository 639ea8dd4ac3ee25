import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netobserve.graph_core import Digraph
from netobserve.ingest import (
    EmptyGraphError,
    LabeledGraph,
    MalformedInput,
    UnknownNodeError,
    drop_isolates,
    emit_gml,
    largest_component,
    parse_edge_list,
    parse_gml,
)

MINIMAL_GML = """
graph [
  directed 1
  node [ id 0 ]
  node [ id 1 ]
  edge [ source 0 target 1 ]
]
"""


class TestParseGml:
    def test_minimal(self):
        lg = parse_gml(MINIMAL_GML)
        assert lg.digraph.node_count == 2
        assert lg.digraph.edges == frozenset({(0, 1)})
        assert lg.directed

    def test_undirected_default_symmetrizes(self):
        text = """graph [
          node [ id 0 ] node [ id 1 ]
          edge [ source 0 target 1 ]
        ]"""
        lg = parse_gml(text)
        assert not lg.directed
        assert lg.digraph.edges == frozenset({(0, 1), (1, 0)})

    def test_labels_and_sparse_ids_remapped(self):
        text = """graph [ directed 1
          node [ id 10 label "ten" ]
          node [ id 3 label "three" ]
          edge [ source 10 target 3 ]
        ]"""
        lg = parse_gml(text)
        assert lg.labels == ("three", "ten")
        assert lg.digraph.edges == frozenset({(1, 0)})

    def test_duplicate_labels_deduplicated(self):
        text = """graph [ directed 1
          node [ id 0 label "a" ] node [ id 1 label "a" ]
          edge [ source 0 target 1 ]
        ]"""
        lg = parse_gml(text)
        assert len(set(lg.labels)) == 2

    def test_unknown_keys_skipped(self):
        text = """Creator "someone"
        graph [ directed 1
          node [ id 0 graphics [ x 1.0 y 2.0 ] ]
          node [ id 1 ]
          edge [ source 0 target 1 value 3 ]
        ]"""
        lg = parse_gml(text)
        assert lg.digraph.edge_count == 1

    def test_bytes_accepted(self):
        assert parse_gml(MINIMAL_GML.encode()).digraph.node_count == 2

    def test_edge_to_unknown_node(self):
        text = """graph [ directed 1
          node [ id 0 ]
          edge [ source 0 target 9 ]
        ]"""
        with pytest.raises(UnknownNodeError) as e:
            parse_gml(text)
        assert e.value.line is not None

    def test_no_graph_block(self):
        with pytest.raises(MalformedInput):
            parse_gml('Creator "x"')

    def test_no_nodes(self):
        with pytest.raises(EmptyGraphError):
            parse_gml("graph [ directed 1 ]")

    def test_unbalanced_bracket(self):
        with pytest.raises(MalformedInput):
            parse_gml("graph [ node [ id 0 ]")


class TestParseEdgeList:
    def test_directed_pair(self):
        lg = parse_edge_list("0 1\n1 0")
        assert lg.digraph.node_count == 2
        assert lg.digraph.edges == frozenset({(0, 1), (1, 0)})

    def test_comments_and_commas(self):
        lg = parse_edge_list("# header\n0, 1\n2 3  # trailing\n")
        assert lg.digraph.node_count == 4
        assert lg.digraph.edge_count == 2

    def test_undirected(self):
        lg = parse_edge_list("0 1", directed=False)
        assert lg.digraph.edges == frozenset({(0, 1), (1, 0)})

    def test_sparse_ids_remapped(self):
        lg = parse_edge_list("100 5")
        assert lg.digraph.node_count == 2
        assert lg.labels == ("5", "100")

    def test_empty_file(self):
        with pytest.raises(EmptyGraphError):
            parse_edge_list("")

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(MalformedInput) as e:
            parse_edge_list("0 1\n0 1 2\n")
        assert e.value.line == 2

    def test_non_integer(self):
        with pytest.raises(MalformedInput):
            parse_edge_list("a b")


class TestPreprocessing:
    def test_drop_isolates(self):
        lg = LabeledGraph(Digraph(4, frozenset({(0, 3)})),
                          ("a", "b", "c", "d"), True, {})
        out = drop_isolates(lg)
        assert out.digraph.node_count == 2
        assert out.labels == ("a", "d")
        assert out.meta["dropped_isolates"] == 2

    def test_largest_component(self):
        lg = LabeledGraph(
            Digraph(5, frozenset({(0, 1), (1, 2), (3, 4)})),
            tuple("abcde"), True, {})
        out = largest_component(lg)
        assert out.digraph.node_count == 3
        assert out.labels == ("a", "b", "c")


class TestRoundTrips:
    def test_gml_round_trip(self):
        lg = parse_gml(MINIMAL_GML)
        again = parse_gml(emit_gml(lg))
        assert again.digraph == lg.digraph
        assert again.labels == lg.labels
        assert again.directed == lg.directed

    @given(st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.frozensets(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1))),
            st.booleans())))
    @settings(max_examples=50, deadline=None)
    def test_emit_parse_gml_property(self, spec):
        n, edges, directed = spec
        if not directed:
            edges = edges | frozenset((t, s) for s, t in edges)
        lg = LabeledGraph(Digraph(n, edges),
                          tuple(f"v{i}" for i in range(n)), directed, {})
        again = parse_gml(emit_gml(lg))
        assert again.digraph == lg.digraph
        assert again.directed == lg.directed
