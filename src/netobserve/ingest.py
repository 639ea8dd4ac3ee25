"""Parsers for the supported network file formats.

Supported inputs:

* a GML subset: ``graph [ directed 0|1 node [ id N label "..." ] ...
  edge [ source N target N ] ... ]``, with unknown (possibly nested) keys
  skipped;
* whitespace- or comma-separated integer edge lists with ``#`` comments.

Undirected files are symmetrized into bidirectional arcs (the analysis
needs a digraph), multi-edges collapse to one structural edge, and
self-loops survive.  Node ids are remapped to dense integers; original
labels are kept in a side table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .graph_core import Digraph


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class MalformedInput(ParseError):
    """Bad syntax: bracket nesting, stray tokens, unparseable lines."""


class UnknownNodeError(ParseError):
    """An edge references a node id that was never declared."""


class EmptyGraphError(ParseError):
    """The input declares no nodes."""


@dataclass(frozen=True)
class LabeledGraph:
    digraph: Digraph
    labels: tuple[str, ...]
    directed: bool
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if len(self.labels) != self.digraph.node_count:
            raise ValueError("one label per node required")


def _dedup_labels(labels: list[str]) -> tuple[str, ...]:
    seen: dict[str, int] = {}
    out = []
    for lab in labels:
        if lab in seen:
            seen[lab] += 1
            out.append(f"{lab}#{seen[lab]}")
        else:
            seen[lab] = 1
            out.append(lab)
    return tuple(out)


_TOKEN = re.compile(r'"[^"]*"|\[|\]|[^\s\[\]]+')


def _tokenize_gml(text: str) -> list[tuple[str, int]]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0] if line.lstrip().startswith("#") else line
        for match in _TOKEN.finditer(body):
            tokens.append((match.group(0), lineno))
    return tokens


def _parse_gml_value(tok: str):
    if tok.startswith('"'):
        return tok[1:-1]
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        return tok


def _parse_gml_object(tokens: list[tuple[str, int]], pos: int) -> tuple[list, int]:
    """Parse a `[ ... ]` block into a list of (key, value, line) triples."""
    items = []
    while pos < len(tokens):
        tok, line = tokens[pos]
        if tok == "]":
            return items, pos + 1
        if tok == "[":
            raise MalformedInput("unexpected '['", line)
        if pos + 1 >= len(tokens):
            raise MalformedInput(f"key {tok!r} without a value", line)
        nxt, nxt_line = tokens[pos + 1]
        if nxt == "[":
            value, pos = _parse_gml_object(tokens, pos + 2)
        else:
            value, pos = _parse_gml_value(nxt), pos + 2
        items.append((tok.lower(), value, line))
    raise MalformedInput("unclosed '['", tokens[-1][1] if tokens else 1)


def parse_gml(data: bytes | str, source: str = "<gml>") -> LabeledGraph:
    """Parse the GML subset into a labeled digraph.

    Undirected graphs (``directed 0`` or absent, the GML default) produce
    both edge directions; duplicate edges collapse.
    """
    text = data.decode("utf-8", errors="replace") if isinstance(data, bytes) else data
    tokens = _tokenize_gml(text)
    graph_items = None
    pos = 0
    while pos < len(tokens):
        tok, line = tokens[pos]
        if tok == "]" or tok == "[":
            raise MalformedInput(f"unexpected {tok!r} at top level", line)
        if pos + 1 >= len(tokens):
            raise MalformedInput(f"key {tok!r} without a value", line)
        if tokens[pos + 1][0] == "[":
            block, pos = _parse_gml_object(tokens, pos + 2)
            if tok.lower() == "graph":
                graph_items = block
                break
        else:
            pos += 2  # top-level key/value (Creator, Version, ...)
    if graph_items is None:
        raise MalformedInput("no 'graph [ ... ]' block found", 1)

    directed = False
    ids: list[int] = []
    labels: dict[int, str] = {}
    raw_edges: list[tuple[int, int, int]] = []
    for key, value, line in graph_items:
        if key == "directed":
            directed = bool(value)
        elif key == "node":
            if not isinstance(value, list):
                raise MalformedInput("node must be a block", line)
            fields = {k: v for k, v, _ in value}
            if "id" not in fields:
                raise MalformedInput("node without id", line)
            node_id = int(fields["id"])
            ids.append(node_id)
            labels[node_id] = str(fields.get("label", node_id))
        elif key == "edge":
            if not isinstance(value, list):
                raise MalformedInput("edge must be a block", line)
            fields = {k: v for k, v, _ in value}
            if "source" not in fields or "target" not in fields:
                raise MalformedInput("edge without source/target", line)
            raw_edges.append((int(fields["source"]), int(fields["target"]), line))
        # unknown keys (graphics, Creator, etc.) are skipped

    if not ids:
        raise EmptyGraphError("graph declares no nodes", 1)
    index = {node_id: k for k, node_id in enumerate(sorted(set(ids)))}
    edges = set()
    for s, t, line in raw_edges:
        if s not in index or t not in index:
            missing = s if s not in index else t
            raise UnknownNodeError(f"edge references unknown node id {missing}", line)
        edges.add((index[s], index[t]))
        if not directed:
            edges.add((index[t], index[s]))

    digraph = Digraph(len(index), frozenset(edges))
    ordered_labels = _dedup_labels([labels[i] for i in sorted(index)])
    meta = {"source": source, "raw_nodes": len(ids), "raw_edges": len(raw_edges)}
    return LabeledGraph(digraph, ordered_labels, directed, meta)


def parse_edge_list(data: bytes | str, directed: bool = True,
                    source: str = "<edgelist>") -> LabeledGraph:
    """Parse `src dst` / `src,dst` lines; nodes are implied by endpoints."""
    text = data.decode("utf-8", errors="replace") if isinstance(data, bytes) else data
    pairs: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = [t for t in re.split(r"[,\s]+", body) if t]
        if len(tokens) != 2:
            raise MalformedInput(f"expected two endpoints, got {len(tokens)}", lineno)
        try:
            s, t = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise MalformedInput(f"non-integer endpoint in {body!r}", lineno) from None
        pairs.append((s, t))
    if not pairs:
        raise EmptyGraphError("no edges found", 1)
    node_ids = sorted({v for pair in pairs for v in pair})
    index = {v: k for k, v in enumerate(node_ids)}
    edges = set()
    for s, t in pairs:
        edges.add((index[s], index[t]))
        if not directed:
            edges.add((index[t], index[s]))
    digraph = Digraph(len(node_ids), frozenset(edges))
    labels = _dedup_labels([str(v) for v in node_ids])
    return LabeledGraph(digraph, labels, directed,
                        {"source": source, "raw_edges": len(pairs)})


def drop_isolates(lg: LabeledGraph) -> LabeledGraph:
    """Remove nodes that touch no edge (common dataset preprocessing)."""
    touched = sorted({v for e in lg.digraph.edges for v in e})
    index = {v: k for k, v in enumerate(touched)}
    edges = frozenset((index[s], index[t]) for s, t in lg.digraph.edges)
    meta = dict(lg.meta)
    meta["dropped_isolates"] = lg.digraph.node_count - len(touched)
    return LabeledGraph(Digraph(len(touched), edges),
                        tuple(lg.labels[v] for v in touched), lg.directed, meta)


def largest_component(lg: LabeledGraph) -> LabeledGraph:
    """Restrict to the largest weakly connected component."""
    from .scc import tarjan_scc  # weak components = SCCs of the symmetrized graph

    sym = Digraph(lg.digraph.node_count,
                  lg.digraph.edges | frozenset((t, s) for s, t in lg.digraph.edges))
    comps = tarjan_scc(sym).components
    keep = max(comps, key=lambda c: (len(c), -min(c) if c else 0))
    nodes = sorted(keep)
    index = {v: k for k, v in enumerate(nodes)}
    edges = frozenset((index[s], index[t]) for s, t in lg.digraph.edges
                      if s in keep and t in keep)
    meta = dict(lg.meta)
    meta["component_nodes"] = len(nodes)
    return LabeledGraph(Digraph(len(nodes), edges),
                        tuple(lg.labels[v] for v in nodes), lg.directed, meta)


def emit_gml(lg: LabeledGraph) -> str:
    """Canonical GML emitter for the supported subset (round-trips)."""
    lines = ["graph [", f"  directed {1 if lg.directed else 0}"]
    for i, label in enumerate(lg.labels):
        lines.append(f'  node [ id {i} label "{label}" ]')
    if lg.directed:
        edges = sorted(lg.digraph.edges)
    else:
        edges = sorted({(min(s, t), max(s, t)) for s, t in lg.digraph.edges})
    for s, t in edges:
        lines.append(f"  edge [ source {s} target {t} ]")
    lines.append("]")
    return "\n".join(lines) + "\n"

