"""Seeded GML documents and mutants of them, for checking that ``parse_gml``
answers exactly as its token reader does: the same graph, or the same
exception with the same message and line.

Standard library only.  ``python tests/gml_mutants.py [count]`` runs the
check on any Python the package supports, loading ``netobserve.ingest``
without the package ``__init__`` (which needs numpy).
"""

from __future__ import annotations

import random

# Tokens and separators a mutation inserts or swaps in: keywords in odd
# cases (``ſource`` and ``İD`` lowercase to no keyword), bad integers,
# glued and broken quotes, comment starts, every kind of line end, blocks
# nested in a node or a skipped block, and text after the graph's ']'.
VOCAB = (
    "graph", "node", "edge", "id", "label", "source", "target", "directed", "value",
    "Creator", "ſource", "İD", "ID", "NODE", "Edge", "tarGet", "Label",
    "[", "]", "0", "1", "2", "-1", "007", "1.5", "+3", "1_0", "x", "٣",
    '"1"', '"a"', '""', '"a b"', '"x ] ["', '"', 'x"y', '"a"b', '"a', "#", "#x",
    " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", " ", "\xa0",
    "\x1f", "\n# comment\n", "\n  # comment [ \" ]\n", "\r# comment\r", "\n#",
    " # ", "\x0c# a b\r",
    "graphics [ x 1.5 y [ z 2 ] ]", "node [ id 4 ]", "edge [ source 0 target 4 ]",
    "node [ id 4 value 1 ]", "edge [ source 0 target 4 value 2.5 ]",
    "skip [ node [ id 9 ] edge [ source 0 target 9 ] ]", "] graph [ node [ id 5 ] ]",
)


# Characters a quoted string may hold: line ends (which the token reader
# refuses inside quotes), brackets, '#' and spaces.
ODD = ("\x0c", "\x85", "\u2028", "\r", "]", "[", "#", " ", "\x1f", "")


def _case(rng: random.Random, word: str) -> str:
    """``word`` as written, in mixed case, or with a letter that matches its
    ASCII one only under Unicode case folding."""
    draw = rng.random()
    if draw < 0.95:
        return word
    if draw < 0.99:
        return "".join(c.upper() if rng.random() < 0.5 else c for c in word)
    return word.replace("s", "ſ").replace("i", "ı").replace("d", "D")


def _quoted(rng: random.Random, text: str) -> str:
    return f'"{text}{rng.choice(ODD) if rng.random() < 0.05 else ""}"'


def base_document(rng: random.Random) -> list[str]:
    """A well-formed document as a list of pieces (tokens and the whitespace
    between them), in one of three layouts: a block per line, a key per line
    (networkx) or Newman's, with key and '[' on separate lines and extra keys."""
    layout = rng.choice(("flat", "lines", "newman"))
    eol = rng.choice(("\n", "\n", "\r\n", "\r"))
    ids = rng.sample(range(-3, 12), rng.randint(1, 5))
    if rng.random() < 0.05:
        ids.append(ids[0])  # a repeated id
    pieces: list[str] = []

    def line(*tokens: str, indent: str = "  ") -> None:
        pieces.append(indent)
        for k, tok in enumerate(tokens):
            pieces.extend([" "] * (k > 0) + [tok])
        pieces.append(eol)

    def block(key: str, pairs: list[tuple[str, str]]) -> None:
        if layout == "flat":
            line(_case(rng, key), "[", *(t for pair in pairs for t in pair), "]")
            return
        if layout == "newman":
            line(_case(rng, key))
            line("[")
        else:
            line(_case(rng, key), "[")
        for pair in pairs:
            line(*pair, indent="    ")
        line("]")

    if rng.random() < 0.5:
        line("Creator", _quoted(rng, "generated"), indent="")
    if rng.random() < 0.3:
        line("# a comment", indent=rng.choice(("", "  ")))
    if layout == "newman":
        line("graph", indent="")
        line("[", indent="")
    else:
        line("graph", "[", indent="")
    if rng.random() < 0.7:
        line(_case(rng, "directed"), rng.choice(("0", "1", '"1"')))
    for v in ids:
        pairs = [(_case(rng, "id"), str(v) if rng.random() < 0.9 else f'"{v}"')]
        if rng.random() < 0.7:
            pairs.append((_case(rng, "label"), _quoted(rng, f"n{v}") if rng.random() < 0.8
                           else f"n{v}"))
        if layout == "newman" or rng.random() < 0.2:
            pairs += [("value", "1"), (_case(rng, "source"), _quoted(rng, "somewhere"))]
        if rng.random() < 0.15:
            pairs.insert(0, ("graphics", "[ x 1.5 ]"))
        if rng.random() < 0.05:  # blocks only a skipped block holds
            pairs.append(("graphics", f"[ node [ id {v} ] edge [ source {v} target {v} ] ]"))
        block("node", pairs)
        if rng.random() < 0.1:
            line("# between nodes")
    for _ in range(rng.randint(0, 6)):
        ends = ids + [12] * (rng.random() < 0.05)  # 12 is never declared
        pairs = [(_case(rng, "source"), str(rng.choice(ends))),
                 (_case(rng, "target"), str(rng.choice(ends)))]
        if layout == "newman" or rng.random() < 0.2:
            pairs.append(("value", rng.choice(("1", "2.5", _quoted(rng, "w")))))
        block("edge", pairs)
    line("]", indent="")
    return pieces


def mutant(rng: random.Random) -> str:
    """A base document after up to three random insertions, deletions or
    replacements of one piece."""
    pieces = base_document(rng)
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        op, k = rng.random(), rng.randrange(len(pieces) + 1)
        if op < 0.4:
            pieces.insert(k, rng.choice(VOCAB))
        elif k < len(pieces):
            pieces[k:k + 1] = [] if op < 0.7 else [rng.choice(VOCAB)]
    if rng.random() < 0.1:  # after the graph's ']', on its line or the next
        pieces.insert(len(pieces) - rng.randint(0, 1),
                      rng.choice(("\n# trailer", " x", '"', "\ngraph [ ]", "\n")))
    return "".join(pieces)


def outcome(read, text: str):
    """What ``read`` makes of ``text``: the graph with its metadata, or the
    exception's class, message and line."""
    try:
        lg = read(text)
    except Exception as e:  # every exception is an outcome to compare
        return type(e), str(e), getattr(e, "line", None)
    return lg.digraph, lg.labels, lg.directed, lg.meta


def compare(ingest, count: int) -> tuple[int, list[str]]:
    """Parse ``count`` seeded mutants with ``ingest.parse_gml`` and with its
    token reader; return how many the scan read without handing over, and
    the documents whose outcomes differ."""
    rng = random.Random(0)
    scanned, differ = 0, []
    for _ in range(count):
        text = mutant(rng)
        scanned += ingest._scan_gml(text, "<gml>") is not None
        if (outcome(ingest.parse_gml, text)
                != outcome(lambda t: ingest._read_gml_tokens(t, "<gml>"), text)):
            differ.append(text)
    return scanned, differ


if __name__ == "__main__":
    import sys
    import types
    from pathlib import Path

    package = types.ModuleType("netobserve")
    package.__path__ = [str(Path(__file__).resolve().parents[1] / "src" / "netobserve")]
    sys.modules["netobserve"] = package
    from netobserve import ingest

    count = int(sys.argv[1]) if len(sys.argv) > 1 else 30000
    scanned, differ = compare(ingest, count)
    print(f"python {sys.version.split()[0]}: {count} documents, {scanned} read by the scan, "
          f"{len(differ)} differ")
    for text in differ[:5]:
        print(repr(text))
    sys.exit(1 if differ else 0)
