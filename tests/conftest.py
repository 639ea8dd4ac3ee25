import json

import pytest

from netobserve.classify import decompose, place_agents
from netobserve.cli import EXIT_OK, main
from netobserve.fixtures import six_state_demo
from netobserve.ingest import LabeledGraph
from netobserve.netdesign import design_canonical

from .oracles import emit_gml


@pytest.fixture(scope="session")
def six_state():
    return six_state_demo()


@pytest.fixture(scope="session")
def six_state_dec(six_state):
    return decompose(six_state)


@pytest.fixture(scope="session")
def six_state_plan(six_state_dec):
    return place_agents(six_state_dec)


@pytest.fixture(scope="session")
def six_state_net(six_state_plan):
    return design_canonical(six_state_plan)


@pytest.fixture()
def six_state_gml(six_state, tmp_path):
    """The six-state fixture written as GML, states labelled x1..x6."""
    lg = LabeledGraph(six_state, tuple(f"x{i + 1}" for i in range(6)), True, {})
    path = tmp_path / "fixture.gml"
    path.write_text(emit_gml(lg))
    return path


@pytest.fixture()
def six_state_analysis(six_state_gml, tmp_path):
    """The ``analysis.json`` that ``analyze`` writes for the six-state fixture."""
    out = tmp_path / "out"
    assert main(["analyze", str(six_state_gml), "--out", str(out)]) == EXIT_OK
    return json.loads((out / "analysis.json").read_text())
