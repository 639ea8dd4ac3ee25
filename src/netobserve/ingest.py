"""Parsers for the supported network file formats.

Supported inputs:

* a GML subset: ``graph [ directed 0|1 node [ id N label "..." ] ...
  edge [ source N target N ] ... ]``, in which unknown keys and blocks
  nested to any depth are skipped.  Ids and endpoints must be integers, an
  id may not repeat, a quoted string must close on its line, and only
  ``directed 1`` means directed;
* whitespace- or comma-separated integer edge lists with ``#`` comments.

Bytes are decoded as UTF-8; a leading byte-order mark is skipped in bytes
and text alike.

GML is read with one ``findall`` of a compiled pattern, ``_GML_ITEM``.  Its
items are whole flat node and edge blocks, keys opening a block, ``]``,
``key value`` pairs and comment lines, and a short loop keeps the stack of
open blocks.  Whatever the scan would refuse, or cannot show it reads as
the token reader does, it hands over: the token reader,
``_read_gml_tokens``, then reads the text again token by token.  It alone
words a refusal and names its line, and both readers give the same graph.

Undirected files are symmetrized into bidirectional arcs (the analysis
needs a digraph), multi-edges collapse to one structural edge, and
self-loops survive.  Node ids are remapped to dense integers; original
labels are kept in a side table.  Every reader ends in ``_relabel``, which
puts each arc straight into its source's bucket of successors and builds
the :class:`~netobserve.graph_core.Digraph` from the buckets once; no set
of edge tuples is made.  That fill also finds an edge naming an undeclared
node, so the scan hands such a file to the token reader without a pass of
its own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

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
    """Suffix repeats with ``#2``, ``#3``, ..., skipping taken names: the result is unique."""
    out: dict[str, None] = {}  # insertion-ordered set
    repeats: dict[str, int] = {}
    for lab in labels:
        name = lab
        while name in out:
            repeats[lab] = repeats.get(lab, 1) + 1
            name = f"{lab}#{repeats[lab]}"
        out[name] = None
    return tuple(out)


def _relabel(ids: Iterable[int], label_of: Callable[[int], str],
             arcs: Iterable[tuple[int, int]], directed: bool, meta: dict) -> LabeledGraph:
    """Number ``ids`` 0..n-1 in sorted order, put each arc of ``arcs`` (in
    both directions when undirected) into its source's bucket of
    successors, renumbered, and dedup the labels.  Ids that already are
    0..n-1 keep their numbers.  An arc with an end outside ``ids`` raises
    ``KeyError``."""
    order = sorted(ids)
    n = len(order)
    if not directed:
        arcs = list(arcs)
        arcs += [(t, s) for s, t in arcs]
    if order and order[0] == 0 and order[-1] == n - 1:
        buckets = [[] for _ in order]
        for s, t in arcs:
            if not 0 <= s < n:  # a negative source would count from the end
                raise KeyError(s)
            buckets[s].append(t)
        g = Digraph._from_buckets(n, buckets)
        for targets in g.successors():  # sorted: the ends are the extremes
            if targets and (targets[0] < 0 or targets[-1] >= n):
                raise KeyError(targets[0] if targets[0] < 0 else targets[-1])
    else:
        index = {v: k for k, v in enumerate(order)}
        buckets = [[] for _ in order]
        for s, t in arcs:
            buckets[index[s]].append(index[t])
        g = Digraph._from_buckets(n, buckets)
    return LabeledGraph(g, _dedup_labels([label_of(v) for v in order]), directed, meta)


_TOKEN = re.compile(r'"[^"]*"|\[|\]|[^\s\[\]]+')

# Scope inside a block by (outer scope, key); any other block is skipped (None).
_SCOPES = {("", "graph"): "graph", ("graph", "node"): "node", ("graph", "edge"): "edge"}
_READ = {"node": ("id", "label"), "edge": ("source", "target")}


def _gml_tokens(text: str) -> Iterator[tuple[str, int]]:
    """(token, line) pairs of the non-comment lines.  A quoted string must
    close on its own line: a token opening a quote the line leaves open is
    refused at that line."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("#"):
            continue
        found = _TOKEN.findall(line)
        if '"' in line and any(t[0] == '"' and (len(t) == 1 or t[-1] != '"') for t in found):
            raise MalformedInput("unterminated quoted string", lineno)
        for tok in found:
            yield tok, lineno


# Line separators of ``str.splitlines``: a quoted string or a comment ends at any of them.
_EOL = r"\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"
_QUOTED = rf'"[^"{_EOL}]*"'
# A bare token with no quote; one starting with '#' might open a comment line.
_KEY = r'[^\s\[\]"#][^\s\[\]"]*'
_VALUE = rf'{_QUOTED}|[^\s\[\]"]+'


def _block_end(read: str) -> str:
    """A flat block's closing ']', after any ``key value`` pairs whose key is
    not one of the block's ``read`` keys (Newman's ``value``, say)."""
    other = rf"\s+(?!(?ai:{read})(?![^\s\[\]])){_KEY}[ \t]+(?:{_VALUE})"
    return rf"(?:\s*\]|(?:{other})+\s*\])"


# One item of the scan, after the whitespace before it: a whole flat edge or
# node block, a key opening a block, a key and its value on one line, a
# comment line, ']', or a run of other characters that the scan leaves to
# the token reader.  Such a run holds a quote in a bare token or one not
# closed on its line, a '#' that may open a comment, or a key whose value is
# ']' or on the next line; at the end of the text it is empty.  Items start
# and end between the tokens of ``_gml_tokens``, so the scan sees the tokens
# the token reader sees.  Keywords match ASCII-case-insensitively, as
# ``str.lower`` does for them.
_GML_ITEM = re.compile(
    rf"""\s*(?:
      (?ai:edge)\s*\[\s*(?ai:source)\s+(-?[0-9]+)\s+(?ai:target)\s+(-?[0-9]+)
      {_block_end("source|target")}
    | (?ai:node)\s*\[\s*(?ai:id)\s+(-?[0-9]+)(?:\s+(?ai:label)\s+({_QUOTED}))?
      {_block_end("id|label")}
    | ({_KEY})(?:\s*(\[)|[ \t]+({_VALUE}))         # key [ or key value
    )
    | \s*?(?<![^\n])[ \t]*\#[^{_EOL}]*               # a comment line
    | \s*(\]|[^\s\]]*)                             # ']' or a run of anything else
    """, re.VERBOSE)


def _scan_gml(text: str, source: str) -> LabeledGraph | None:
    """Read ``text`` with one ``findall`` of ``_GML_ITEM``, keeping the
    token reader's scope stack; None for anything the token reader may
    refuse or read differently."""
    items = iter(_GML_ITEM.findall(text))
    scope = ""  # as in _read_gml_tokens
    stack: list[str | None] = []  # the outer scope of each open block
    fields: dict[str, int | str] = {}
    labels: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    directed = False
    for source_id, target_id, node_id, label, key, opener, value, other in items:
        if source_id:
            if scope == "graph":
                edges.append((int(source_id), int(target_id)))
        elif node_id:
            if scope == "graph":
                node = int(node_id)
                if node in labels:
                    return None
                labels[node] = label[1:-1] if label else str(node)
        elif key:
            key = key.lower()
            if opener:
                if key in _READ.get(scope, ()):
                    return None
                stack.append(scope)
                scope = _SCOPES.get((scope, key))
                if scope in _READ:
                    fields = {}
            elif scope == "graph":
                if key in _READ:
                    return None
                if key == "directed":
                    directed = value in ("1", '"1"')
            elif key in _READ.get(scope, ()):
                if value.startswith('"'):
                    value = value[1:-1]
                if key != "label":
                    try:
                        value = int(value)
                    except ValueError:
                        return None
                fields[key] = value
        elif other == "]":
            if not stack:
                return None
            if scope == "graph":
                break
            if scope == "node":
                if "id" not in fields or fields["id"] in labels:
                    return None
                labels[fields["id"]] = fields.get("label", str(fields["id"]))
            elif scope == "edge":
                if "source" not in fields or "target" not in fields:
                    return None
                edges.append((fields["source"], fields["target"]))
            scope = stack.pop()
        elif other:
            return None
    else:  # the graph block never closed
        return None
    if any(any(item) for item in items) or not labels:  # only comment lines may follow
        return None
    meta = {"source": source, "raw_nodes": len(labels), "raw_edges": len(edges)}
    try:
        return _relabel(labels, labels.__getitem__, edges, directed, meta)
    except KeyError:  # an edge names an undeclared node; the token reader says where
        return None


def _text(data: bytes | str) -> str:
    """Bytes read as UTF-8, or text, without one leading byte-order mark."""
    return (data.decode("utf-8-sig", errors="replace") if isinstance(data, bytes)
            else data.removeprefix("\ufeff"))


def parse_gml(data: bytes | str, source: str = "<gml>") -> LabeledGraph:
    """Parse the GML subset into a labeled digraph.

    Undirected graphs (``directed 0`` or absent, the GML default) produce
    both edge directions; duplicate edges collapse.  Bytes are read as
    UTF-8; a leading byte-order mark is skipped in bytes and text alike.
    """
    text = _text(data)
    return _scan_gml(text, source) or _read_gml_tokens(text, source)


def _read_gml_tokens(text: str, source: str) -> LabeledGraph:
    """The token-by-token reader: the reference for what the GML subset
    means, and the only code that words a refusal and names its line."""
    tokens = _gml_tokens(text)
    scope = ""  # "" at top level; "graph", "node", "edge", or None in a skipped block
    stack: list[tuple[int, str | None]] = []  # per open block: its key's line, outer scope
    key = None  # lowercased key awaiting its value
    fields: dict[str, int | str] = {}  # values read in the open node or edge block
    labels: dict[int, str] = {}
    edges: list[tuple[int, int, int]] = []
    directed = False
    for tok, lineno in tokens:
        if key is not None:
            if tok == "[":
                if key in _READ.get(scope, ()):
                    raise MalformedInput(f"{key!r} must be a value, not a block", key_line)
                stack.append((key_line, scope))
                scope = _SCOPES.get((scope, key))
                if scope in _READ:
                    fields = {}
            elif scope == "graph":
                if key in _READ:
                    raise MalformedInput(f"{key} must be a block", key_line)
                if key == "directed":
                    directed = tok in ("1", '"1"')
            elif key in _READ.get(scope, ()):
                value = tok[1:-1] if tok.startswith('"') else tok
                if key != "label":
                    try:
                        value = int(value)
                    except ValueError:
                        raise MalformedInput(f"{key!r} must be an integer, got {tok}",
                                             key_line) from None
                fields[key] = value
            key = None
        elif tok == "]":
            if not stack:
                raise MalformedInput("unexpected ']' at top level", lineno)
            if scope == "graph":
                break
            block_line, outer = stack.pop()
            if scope == "node":
                if "id" not in fields:
                    raise MalformedInput("node without id", block_line)
                node_id = fields["id"]
                if node_id in labels:
                    raise MalformedInput(f"repeated node id {node_id}", block_line)
                labels[node_id] = fields.get("label", str(node_id))
            elif scope == "edge":
                if "source" not in fields or "target" not in fields:
                    raise MalformedInput("edge without source/target", block_line)
                edges.append((fields["source"], fields["target"], block_line))
            scope = outer
        elif tok == "[":
            raise MalformedInput("unexpected '['" + ("" if stack else " at top level"), lineno)
        else:
            key, key_text, key_line = tok.lower(), tok, lineno
    else:  # the input ended before the first top-level graph block closed
        if key is not None:
            raise MalformedInput(f"key {key_text!r} without a value", key_line)
        if stack:
            raise MalformedInput("unclosed '['", lineno)
        raise MalformedInput("no 'graph [ ... ]' block found", 1)
    if not labels:
        raise EmptyGraphError("graph declares no nodes", 1)
    for s, t, line in edges:
        if s not in labels or t not in labels:
            missing = s if s not in labels else t
            raise UnknownNodeError(f"edge references unknown node id {missing}", line)
    meta = {"source": source, "raw_nodes": len(labels), "raw_edges": len(edges)}
    return _relabel(labels, labels.__getitem__, ((s, t) for s, t, _ in edges),
                    directed, meta)


def parse_edge_list(data: bytes | str, directed: bool = True,
                    source: str = "<edgelist>") -> LabeledGraph:
    """Parse `src dst` / `src,dst` lines; nodes are implied by endpoints.
    Bytes are read as UTF-8; a leading byte-order mark is skipped in bytes
    and text alike."""
    text = _text(data)
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
    return _relabel({v for pair in pairs for v in pair}, str, pairs, directed,
                    {"source": source, "raw_edges": len(pairs)})


def drop_isolates(lg: LabeledGraph) -> LabeledGraph:
    """Remove nodes that touch no edge (common dataset preprocessing)."""
    g = lg.digraph
    touched = [v for v, (out, into) in enumerate(zip(g.successors(), g.predecessors()))
               if out or into]
    meta = {**lg.meta, "dropped_isolates": g.node_count - len(touched)}
    arcs = ((s, t) for s, targets in enumerate(g.successors()) for t in targets)
    return _relabel(touched, lg.labels.__getitem__, arcs, lg.directed, meta)


def largest_component(lg: LabeledGraph) -> LabeledGraph:
    """Restrict to the largest weakly connected component, if there is one."""
    from .scc import tarjan_scc  # weak components = SCCs of the symmetrized graph

    g = lg.digraph
    sym = Digraph._from_buckets(g.node_count, [
        out + into for out, into in zip(g.successors(), g.predecessors())])
    comps = tarjan_scc(sym).components
    keep = max(comps, key=lambda c: (len(c), -min(c)), default=frozenset())
    meta = {**lg.meta, "component_nodes": len(keep)}
    succ = g.successors()
    arcs = ((s, t) for s in keep for t in succ[s])  # t is in s's component
    return _relabel(keep, lg.labels.__getitem__, arcs, lg.directed, meta)
