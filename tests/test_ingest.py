import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netobserve import ingest
from netobserve.graph_core import Digraph
from netobserve.ingest import (
    EmptyGraphError,
    LabeledGraph,
    MalformedInput,
    UnknownNodeError,
    drop_isolates,
    largest_component,
    parse_edge_list,
    parse_gml,
)

from .gml_mutants import compare
from .oracles import emit_gml

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

    def test_byte_order_mark_skipped(self):
        lg = parse_gml(b"\xef\xbb\xbf" + MINIMAL_GML.encode())
        assert lg == parse_gml(MINIMAL_GML)

    def test_byte_order_mark_skipped_in_text(self):
        assert parse_gml("\ufeff" + MINIMAL_GML) == parse_gml(MINIMAL_GML)
        assert parse_gml("\ufeffgraph [ node [ id 0 ] ]").digraph.node_count == 1

    def test_edge_to_unknown_node(self):
        text = """graph [ directed 1
          node [ id 0 ]
          edge [ source 0 target 9 ]
        ]"""
        with pytest.raises(UnknownNodeError) as e:
            parse_gml(text)
        assert e.value.line is not None

    @pytest.mark.parametrize("directed", [0, 1])
    @pytest.mark.parametrize("edge", [(-1, 0), (0, -1), (-4, 0), (0, -4), (3, 0), (0, 3)])
    def test_undeclared_end_beside_dense_ids(self, directed, edge):
        # ids 0..2 keep their numbers, and a negative end must not count
        # from the end of the successor buckets
        text = (f"graph [ directed {directed}\n"
                "node [ id 0 ] node [ id 1 ] node [ id 2 ]\n"
                f"edge [ source {edge[0]} target {edge[1]} ]\n]")
        assert ingest._scan_gml(text, "<gml>") is None
        with pytest.raises(UnknownNodeError) as e:
            parse_gml(text)
        assert e.value.line == 3

    def test_no_graph_block(self):
        with pytest.raises(MalformedInput):
            parse_gml('Creator "x"')

    def test_no_nodes(self):
        with pytest.raises(EmptyGraphError):
            parse_gml("graph [ directed 1 ]")

    def test_unbalanced_bracket(self):
        with pytest.raises(MalformedInput):
            parse_gml("graph [ node [ id 0 ]")

    def test_deep_nesting_parses(self):
        depth = 5000
        deep = "deep " + "[ k " * depth + "v" + " ]" * depth
        lg = parse_gml(f"graph [ directed 1\n node [ id 0 {deep} ]\n node [ id 1 ]\n"
                       f" edge [ source 0 target 1 ]\n]")
        assert lg.digraph.edges == frozenset({(0, 1)})

    @pytest.mark.parametrize("text, message, line", [
        ("graph [\n node [ id 1.5 ]\n]", "'id' must be an integer, got 1.5", 2),
        ('graph [\n node [ id "a" ]\n]', "'id' must be an integer, got \"a\"", 2),
        ("graph [\n node [ id [ ] ]\n]", "'id' must be a value, not a block", 2),
        ("graph [\n node [ id 1 ]\n node [ id 1 ]\n]", "repeated node id 1", 3),
        ("graph [ node [ id 0 ]\n edge [ source 0\n target x ] ]",
         "'target' must be an integer, got x", 3),
        ("graph [\n node 5\n]", "node must be a block", 2),
        ('graph [\n node [ label "a" ]\n]', "node without id", 2),
        ("graph [ node [ id 0 ]\n edge [ source 0 ]\n]", "edge without source/target", 2),
        ("Creator 1\n]", "unexpected ']' at top level", 2),
        ("graph [ node [ id 0 ] [ ] ]", "unexpected '['", 1),
        ('Creator "x"\nVersion', "key 'Version' without a value", 2),
        ("graph [\n node [ id 0 ]\n\n# trailing comment\n", "unclosed '['", 2),
        ('# comment\nCreator "x"', "no 'graph [ ... ]' block found", 1),
        ('graph [\n node [ id 0 ]\n node [ id 1 label "a\n b" ]\n]',
         "unterminated quoted string", 3),
    ], ids=["float-id", "string-id", "block-id", "repeated-id", "string-target",
            "scalar-node", "node-without-id", "edge-without-target", "stray-close",
            "stray-open", "key-without-value", "unclosed", "no-graph", "multi-line-string"])
    def test_refusal_names_its_line(self, text, message, line):
        with pytest.raises(MalformedInput) as e:
            parse_gml(text)
        assert message in str(e.value)
        assert e.value.line == line

    @pytest.mark.parametrize("value, directed", [
        ("1", True), ('"1"', True), ("0", False), ("2", False), ('"0"', False)])
    def test_only_directed_1_is_directed(self, value, directed):
        lg = parse_gml(f"graph [ directed {value} node [ id 0 ] node [ id 1 ]"
                       f" edge [ source 0 target 1 ] ]")
        assert lg.directed is directed
        assert lg.digraph.edges == (frozenset({(0, 1)}) if directed
                                    else frozenset({(0, 1), (1, 0)}))

    def test_unquoted_label_keeps_token_text(self):
        lg = parse_gml('graph [ node [ id 7 label 007 ] node [ id 8 label 1.50 ] '
                       'node [ id 9 ] ]')
        assert lg.labels == ("007", "1.50", "9")

    def test_dedup_never_repeats_a_label(self):
        lg = parse_gml('graph [ node [ id 0 label "a" ] node [ id 1 label "a" ] '
                       'node [ id 2 label "a#2" ] ]')
        assert lg.labels == ("a", "a#2", "a#2#2")

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_networkx(self, seed):
        nx = pytest.importorskip("networkx")
        rng = random.Random(seed)
        directed = seed % 2 == 0
        ids = rng.sample(range(-50, 1000), rng.randint(1, 25))
        pairs = [(s, t) for s in ids for t in ids if directed or s <= t]
        lines = ['Creator "generated"', "# comment line", "graph ["]
        lines += ["  directed 1"] if directed else []
        for v in ids:
            label = f'label "n{v}"' if rng.random() < 0.7 else ""
            extra = "graphics [ x 1.5 style [ w 2 ] ]" if rng.random() < 0.3 else ""
            lines.append(f"  node [ {extra} id {v} {label} ]")
            if rng.random() < 0.1:
                lines.append("  # comment between nodes")
        for s, t in rng.sample(pairs, min(len(pairs), rng.randint(0, 3 * len(ids)))):
            extra = "value 2.5" if rng.random() < 0.5 else "style [ a [ b 1 ] ]"
            lines.append(f"  edge [ source {s} {extra} target {t} ]")
        text = "\n".join(lines + ["]"])

        lg = parse_gml(text)
        ref = nx.parse_gml(text, label="id")
        order = sorted(ref.nodes)
        index = {v: k for k, v in enumerate(order)}
        arcs = {(index[s], index[t]) for s, t in ref.edges}
        if not ref.is_directed():
            arcs |= {(t, s) for s, t in arcs}
        assert lg.directed == ref.is_directed() == directed
        assert lg.digraph.node_count == ref.number_of_nodes()
        assert lg.digraph.edges == arcs
        assert lg.labels == tuple(ref.nodes[v].get("label", str(v)) for v in order)


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

    def test_byte_order_mark_skipped(self):
        assert parse_edge_list(b"\xef\xbb\xbf0 1") == parse_edge_list("0 1")

    def test_byte_order_mark_skipped_in_text(self):
        assert parse_edge_list("\ufeff0 1") == parse_edge_list("0 1")


NEWMAN_GML = """Creator "Mark Newman on Sat Jul 22 05:32:16 2006"
graph
[
  directed 0
  node
  [
    id 1
    label "Edgar Allan Poe"
    value 1
    source "Blogarama"
  ]
  node
  [
    id 2
    label "Emily Dickinson"
    value 0
  ]
  edge
  [
    source 2
    target 1
    value 2.5
  ]
]
"""

COMMENTED_GML = """# written by hand
graph [
  # nodes first
  directed 1
  node [ id 0 label "a" ]
  node [
    # a comment inside a block
    id 1
  ]
\t# edges next
  edge [ source 0 target 1 ]
]
# trailer
"""


class TestGmlScan:
    """``parse_gml`` reads with one regex scan and hands what it might read
    differently to the token reader, ``_read_gml_tokens``."""

    def test_agrees_with_token_reader(self):
        count = 4000
        scanned, differ = compare(ingest, count)
        assert differ == []
        assert scanned > count // 10  # the scan itself answered a fair share

    @pytest.mark.parametrize("layout", ["emit_gml", "networkx", "newman", "comments"])
    def test_common_layouts_need_no_handover(self, layout, monkeypatch):
        if layout == "emit_gml":
            text = emit_gml(LabeledGraph(Digraph(3, frozenset({(0, 1), (1, 0), (2, 2)})),
                                         ("a", "b c", ""), False, {}))
        elif layout == "networkx":
            nx = pytest.importorskip("networkx")
            g = nx.DiGraph(name="demo")
            g.add_node("a", size=1.5)
            g.add_edges_from([("a", "b", {"weight": 2.5}), ("b", "c"), ("c", "a")])
            text = "\n".join(nx.generate_gml(g))
        else:
            text = NEWMAN_GML if layout == "newman" else COMMENTED_GML
        expected = ingest._read_gml_tokens(text, "<gml>")

        def refuse(*args):
            raise AssertionError("handed over to the token reader")

        monkeypatch.setattr(ingest, "_read_gml_tokens", refuse)
        lg = parse_gml(text)
        assert (lg, lg.meta) == (expected, expected.meta)


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

    def test_largest_component_of_empty_graph(self):
        """No nodes, no component: the result is the empty graph, as
        ``drop_isolates`` leaves an edgeless one."""
        lg = drop_isolates(LabeledGraph(Digraph(2), ("a", "b"), True, {}))
        out = largest_component(lg)
        assert out.digraph == Digraph(0)
        assert out.labels == ()
        assert out.meta["component_nodes"] == 0


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
