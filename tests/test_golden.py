"""The artifacts the commands write stay byte-identical.

The sha256 digests below were recorded before the graph kernels (adjacency
build, Hopcroft–Karp, Tarjan, SCC taxonomy) were rewritten for speed, so a
rewrite that changes any artifact byte fails here.  ``manifest.json`` is
left out: it echoes the configuration, not the analysis.  The
``network.json`` and ``network.dot`` digests were re-recorded when the
alpha layer came to be written as its broadcaster set (see
``docs/formats.md``); every other digest predates that change.

``simulate`` on the six-state fixture is pinned the same way: its
``trace.csv`` digest and the manifest's ``rho``, ``gain_digest`` and
``steady_state_mse`` were recorded before the estimator's gain search took
its spectral radii in batches and its simulation drew noise per block of
steps.
"""

import hashlib
import json
from pathlib import Path

import pytest

from netobserve.cli import EXIT_OK, main
from netobserve.fixtures import six_state_demo
from netobserve.ingest import LabeledGraph

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
            "3bfd20dfab4f3e1e12bd87938adf88f504668f4a44875c6aa1a4d5479656b612",
        "design/network.dot":
            "6484691e62b97e9aca09f87c31131c8bf1dfc9152d1768de868f40b8671c05de",
        "design/network.json":
            "bbfb309160843c2e951342186351d836d686afcd88950f2a1875ac0ac0724402",
        "design/plan.json":
            "021814cb34e468c5a7ba9e275c5db1a97496a184518e1b317c5a14304550c396",
        "design/verdict.json":
            "f538a5e682935c126b81a223f5edc166d6bda24d7594ecd872bd42b88ef8f12d",
        "verify/verify.json":
            "f538a5e682935c126b81a223f5edc166d6bda24d7594ecd872bd42b88ef8f12d",
    },
    "six-state": {
        "analyze/analysis.json":
            "27219114906e2c1f9188a82d5e713f52f22c8e7c19f9cb22e1c08020efa7e78e",
        "classify/plan.json":
            "72cda868277d6eb2187d5f04ee35172f0520e3fdfbda2f8503119524a56e7c9e",
        "design/network.dot":
            "f00c996eedb16528c574b5ba543e530fea7999c5fd197b5dca4fc31ecd9c0a08",
        "design/network.json":
            "fa0db447f7ef5e8fdeaefba7b761ef7f7f5fb6be0f4a8726235675afc722cab9",
        "design/plan.json":
            "739eab0f8e2a311020a1f93af89c990545e491ee4f175d0569b4e220285c7bd5",
        "design/verdict.json":
            "f538a5e682935c126b81a223f5edc166d6bda24d7594ecd872bd42b88ef8f12d",
        "verify/verify.json":
            "f538a5e682935c126b81a223f5edc166d6bda24d7594ecd872bd42b88ef8f12d",
    },
}


def artifact_digests(name: str) -> dict[str, str]:
    """Run analyze, classify, design and verify on graph ``name`` in the
    working directory; digest of every artifact but the manifests."""
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
                digests[f"{out}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_artifacts_match_recorded_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert artifact_digests(name) == GOLDEN[name]


SIMULATE_GOLDEN = {
    "trace.csv": "f0ed9cbd71de64de2aaa758156a93d740fb8e5ef53f90f96174eadffb85fc101",
    "rho": 0.7130404835115951,
    "gain_digest": "107650e7d77770d5",
    "steady_state_mse": 0.010775333254911,
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
