"""The artifacts the commands write keep their content.

The sha256 digests below were recorded before the graph kernels (adjacency
build, Hopcroft–Karp, Tarjan, SCC taxonomy) were rewritten for speed, so a
rewrite that changes any artifact's content fails here.  A JSON artifact is
digested in the two-space indented rendering of its parsed content, the
layout the digests were recorded in; other files are digested as written.
The layout itself is checked byte for byte by
``test_json_artifacts_are_in_the_artifact_layout``.  ``manifest.json`` is
left out of the digests: it echoes the configuration, not the analysis.
The ``network.json`` and ``network.dot`` digests were re-recorded when the
alpha layer came to be written as its broadcaster set, and the
``network.json`` ones again when its derived ``w_support`` was dropped
(see ``docs/formats.md``).  The ``classify/plan.json`` and
``design/plan.json`` digests were re-recorded when the plan's always-empty
``repairs`` list gave way to ``refused_pins``, empty on both graphs; the
placements kept their content.  Every other digest predates those changes.

``simulate`` on the six-state fixture is pinned the same way: its
``trace.csv`` digest and the manifest's ``rho``, ``gain_digest`` and
``steady_state_mse``.  They were re-recorded when the gain search came to
stop at a converged gain and the simulation to iterate the error matrix F
(see ``docs/formats.md``): ``rho``, ``gain_digest`` and
``steady_state_mse`` moved in their last bits, and ``trace.csv`` kept its
bytes.

The GF(p) realizations behind ``verify --numeric`` and that command's
``verify.json`` were recorded before the structure type the realizations
read was replaced, so a changed draw order fails here.  The digests of the
random D_H diagonals for seeds 0-2 (``D_H/0`` to ``D_H/2``) were dropped
when ``verify --numeric`` came to rank D_H as its unit rows on the
observed fused states, which draws nothing; ``verify.json`` kept its
digest.  The digest check of its ``--field real`` run went with that
option.
"""

import hashlib
import json
from pathlib import Path

import pytest

from netobserve.classify import decompose, place_agents
from netobserve.cli import EXIT_OK, main
from netobserve.fixtures import six_state_demo
from netobserve.ingest import LabeledGraph
from netobserve.netdesign import design_canonical
from netobserve.numeric import GF, random_realization, stochastic_realization_gf

from .oracles import blogs_shaped, emit_gml

GRAPHS = {
    "six-state": lambda: LabeledGraph(six_state_demo(), tuple(f"x{i + 1}" for i in range(6)),
                                      True, {}),
    "blogs-shaped": lambda: LabeledGraph(blogs_shaped(1), tuple(f"v{i}" for i in range(1224)),
                                         True, {}),
}

GOLDEN = {
    "blogs-shaped": {
        "analyze/analysis.json":
            "49e544515f4a524915641501011792402a913c2ee8a5e3f96d1d3818f74cfbad",
        "classify/plan.json":
            "b7cd9e6987768f1fa4637dfeea7bfe4c29c768fd3b7c226d9da618201c0548ea",
        "design/network.dot":
            "6484691e62b97e9aca09f87c31131c8bf1dfc9152d1768de868f40b8671c05de",
        "design/network.json":
            "ca82ced9d01c0c807a6e3332ae72b98dafa736319ff900ae718f9b70974592dd",
        "design/plan.json":
            "0f9569dc619de64c7c3865944911381a83e6f76d910d0f404abcd56788375f8f",
        "design/verdict.json":
            "f538a5e682935c126b81a223f5edc166d6bda24d7594ecd872bd42b88ef8f12d",
        "verify/verify.json":
            "f538a5e682935c126b81a223f5edc166d6bda24d7594ecd872bd42b88ef8f12d",
    },
    "six-state": {
        "analyze/analysis.json":
            "27219114906e2c1f9188a82d5e713f52f22c8e7c19f9cb22e1c08020efa7e78e",
        "classify/plan.json":
            "a840f1a63bcf8498d1ca8ff3bf05599ed12f963174b468d540d32b93fad34a9b",
        "design/network.dot":
            "f00c996eedb16528c574b5ba543e530fea7999c5fd197b5dca4fc31ecd9c0a08",
        "design/network.json":
            "a3d6c6ef2db04cffbbae57af52d3d9cac7c331e160b22b0b5710d84ab822f5e5",
        "design/plan.json":
            "e439e429b411c26843795a852c51bf614b61394bafe2b5efd33f78fea6718837",
        "design/verdict.json":
            "f538a5e682935c126b81a223f5edc166d6bda24d7594ecd872bd42b88ef8f12d",
        "verify/verify.json":
            "f538a5e682935c126b81a223f5edc166d6bda24d7594ecd872bd42b88ef8f12d",
    },
}


def content_digest(path: Path) -> str:
    """sha256 of a file, a JSON one in its two-space indented rendering."""
    data = path.read_bytes()
    if path.suffix == ".json":
        data = json.dumps(json.loads(data), indent=2).encode()
    return hashlib.sha256(data).hexdigest()


def artifact_digests(name: str) -> dict[str, str]:
    """Run analyze, classify, design and verify on graph ``name`` in the
    working directory; content digest of every artifact but the manifests."""
    Path("graph.gml").write_text(emit_gml(GRAPHS[name]()))
    commands = {
        "analyze": ["analyze", "graph.gml"],
        "classify": ["classify", "graph.gml"],
        "design": ["design", "graph.gml"],
        "verify": ["verify", "graph.gml", "--plan", "design/plan.json",
                   "--network", "design/network.json"],
    }
    digests = {}
    for out, argv in commands.items():
        assert main([*argv, "--out", out]) == EXIT_OK, out
        for path in sorted(Path(out).iterdir()):
            if path.name != "manifest.json":
                digests[f"{out}/{path.name}"] = content_digest(path)
    return digests


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_artifacts_match_recorded_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert artifact_digests(name) == GOLDEN[name]


SIMULATE_GOLDEN = {
    "trace.csv": "f0ed9cbd71de64de2aaa758156a93d740fb8e5ef53f90f96174eadffb85fc101",
    "rho": 0.7130404835116846,
    "gain_digest": "3f846105538bb2cb",
    "steady_state_mse": 0.010775333254912627,
}


def test_simulate_matches_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("graph.gml").write_text(emit_gml(GRAPHS["six-state"]()))
    assert main(["simulate", "graph.gml", "--out", "simulate"]) == EXIT_OK
    trace = Path("simulate/trace.csv").read_bytes()
    manifest = json.loads(Path("simulate/manifest.json").read_text())
    assert {"trace.csv": hashlib.sha256(trace).hexdigest(),
            **{key: manifest[key] for key in ("rho", "gain_digest", "steady_state_mse")}
            } == SIMULATE_GOLDEN


def _gf_realizations():
    """The GF(p) realizations that ``verify --numeric`` draws for the
    six-state fixture's canonical design: A and W for seeds 0-2."""
    g = six_state_demo()
    net = design_canonical(place_agents(decompose(g)))
    for seed in range(3):
        yield f"A/{seed}", random_realization(g, GF, seed)
        yield f"W/{seed}", stochastic_realization_gf(net.fusion, seed)


GF_GOLDEN = {
    "A/0":
        "9ed9f7cbc1bf55c728f70257c98e214d833fb75946480264809431dff34f38c1",
    "W/0":
        "290fb1083b761017c3922a62c7d7f4df7dc2aafbf23ffea7a7069225b66005ac",
    "A/1":
        "9b104ee922908fd3314cbff47ee0ef85845d2907874b2acb3efa38cca90eb3f7",
    "W/1":
        "63e37535d30fc01a58520c4252b01ced715f3036808ea7407860760332ebf33e",
    "A/2":
        "697b4dc8592a9ed85ff07c506ac98b3a475da6b3121495979401252656ee6032",
    "W/2":
        "a6f0028cfa16904d40ad96e5f75baf4059856cb026dbb7a114498d5c699433c5",
}


def test_gf_realizations_match_recorded_digests():
    assert {name: hashlib.sha256(r.tobytes()).hexdigest()
            for name, r in _gf_realizations()} == GF_GOLDEN


# The GF(p) rank agrees with the structural verdict on all 20 seeds.
NUMERIC_VERIFY_GOLDEN = "ac5383f77482863193a5ccbd3d730d7bd052fba9c8be4e197d690081c7b4e605"


def test_numeric_verify_matches_recorded_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("graph.gml").write_text(emit_gml(GRAPHS["six-state"]()))
    assert main(["design", "graph.gml", "--out", "design"]) == EXIT_OK
    assert main(["verify", "graph.gml", "--plan", "design/plan.json",
                 "--network", "design/network.json", "--numeric",
                 "--out", "verify"]) == EXIT_OK
    assert content_digest(Path("verify/verify.json")) == NUMERIC_VERIFY_GOLDEN


def test_json_artifacts_are_in_the_artifact_layout(tmp_path, monkeypatch):
    """Every JSON file the five commands write on the six-state fixture,
    manifests included, holds one value per line, unindented, with a final
    newline; only the manifests sort their keys (docs/formats.md)."""
    monkeypatch.chdir(tmp_path)
    Path("graph.gml").write_text(emit_gml(GRAPHS["six-state"]()))
    for argv in (["analyze", "graph.gml"], ["classify", "graph.gml"], ["design", "graph.gml"],
                 ["verify", "graph.gml", "--plan", "design/plan.json",
                  "--network", "design/network.json", "--numeric"],
                 ["simulate", "graph.gml"]):
        assert main([*argv, "--out", argv[0]]) == EXIT_OK, argv[0]
    written = sorted(Path().glob("*/*.json"))
    assert len(written) == 11
    for path in written:
        text = path.read_text()
        layout = json.dumps(json.loads(text), separators=(",\n", ": "),
                            sort_keys=path.name == "manifest.json") + "\n"
        assert text == layout, path
