import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import netobserve
from netobserve import cli
from netobserve.classify import PlanError
from netobserve.cli import EXIT_DESIGN, EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_VERIFY, main
from netobserve.fixtures import six_state_demo
from netobserve.graph_core import Digraph
from netobserve.ingest import LabeledGraph
from netobserve.matching import contractions
from netobserve.netdesign import MAX_AGENTS
from netobserve.scc import tarjan_scc

from .oracles import emit_gml


@pytest.fixture()
def fixture_gml(tmp_path):
    g = six_state_demo()
    lg = LabeledGraph(g, tuple(f"x{i + 1}" for i in range(6)), True, {})
    path = tmp_path / "fixture.gml"
    path.write_text(emit_gml(lg))
    return path


class TestAnalyze:
    def test_fixture_report(self, fixture_gml, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["analyze", str(fixture_gml), "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "s_rank=4" in printed and "n_alpha=2" in printed and "n_beta_min=1" in printed
        report = json.loads((out / "analysis.json").read_text())
        assert report["summary"]["s_rank"] == 4
        assert (out / "manifest.json").is_file()

    def test_formats_doc_example_is_fixture_output(self, fixture_gml, tmp_path):
        doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()

        def documented(heading):
            return json.loads(re.search(heading + r".*?```json\n(.*?)```", doc, re.S).group(1))

        for command in ("analyze", "classify", "design"):
            assert main([command, str(fixture_gml), "--out", str(tmp_path / command)]) == EXIT_OK

        def produced(command, name):
            return json.loads((tmp_path / command / name).read_text())

        analysis = documented(r"`analyze` → `analysis\.json`")
        report = produced("analyze", "analysis.json")
        for r in (analysis, report):
            del r["summary"]["name"]
        assert analysis == report
        assert documented(r"`classify` → `plan\.json`") == produced("classify", "plan.json")
        assert documented(r"`network\.json` for the fixture:") == \
            produced("design", "network.json")
        assert documented(r"`verdict\.json` for the fixture:") == \
            produced("design", "verdict.json")

    def test_formats_doc_dot_example_is_fixture_output(self, fixture_gml, tmp_path):
        doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
        example = re.search(r"`network\.dot` for the fixture:.*?```dot\n(.*?)```", doc, re.S)
        assert main(["design", str(fixture_gml), "--out", str(tmp_path)]) == EXIT_OK
        assert example.group(1) == (tmp_path / "network.dot").read_text()

    def test_formats_doc_layout_example_is_fixture_output(self, fixture_gml, tmp_path):
        doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
        example = re.search(r"`verdict\.json` exactly as `design` writes it:\n\n```\n(.*?)```",
                            doc, re.S)
        assert main(["design", str(fixture_gml), "--out", str(tmp_path)]) == EXIT_OK
        assert example.group(1) == (tmp_path / "verdict.json").read_text()

    def test_empty_edgelist_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code = main(["analyze", str(empty), "--format", "edgelist",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert "no edges" in capsys.readouterr().err

    def test_missing_input(self, capsys):
        assert main(["analyze"]) == EXIT_INPUT

    def test_nonexistent_file(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.gml")]) == EXIT_INPUT

    @pytest.mark.parametrize("node", ["node [ id 1.5 ]", 'node [ id "a" ]', "node [ id [ ] ]",
                                      "node [ id 0 ]\n node [ id 0 ]",
                                      'node [ id 1 label "a\n b" ]'],
                             ids=["float-id", "string-id", "block-id", "repeated-id",
                                  "multi-line-string"])
    def test_malformed_gml_exit_2(self, tmp_path, capsys, node):
        path = tmp_path / "bad.gml"
        path.write_text(f"graph [\n node [ id 0 ]\n {node}\n]\n")
        assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "(line 3)" in err

    @pytest.mark.parametrize("flag, n", [("--largest", 3), ("--drop-isolates", 5)])
    def test_dataset_applies_preprocessing_flags(self, tmp_path, capsys, flag, n):
        # two weak components, {0, 1, 2} and {3, 4}, plus the isolated node 5
        g = Digraph(6, frozenset({(0, 1), (1, 2), (3, 4)}))
        path = tmp_path / "monks.gml"
        path.write_text(emit_gml(LabeledGraph(g, tuple("abcdef"), True, {})))
        reports = []
        for name, source in (("path", [str(path)]),
                             ("dataset", ["--dataset", "monks", "--data-dir", str(tmp_path)])):
            out = tmp_path / name
            assert main(["analyze", *source, flag, "--out", str(out)]) == EXIT_OK
            assert f"n={n} " in capsys.readouterr().out
            report = json.loads((out / "analysis.json").read_text())
            del report["summary"]["name"]
            reports.append(report)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("command, option", [
        ("analyze", "--seed"), ("classify", "--field"), ("design", "--seed"),
        ("simulate", "--field")])
    def test_unread_options_are_not_registered(self, fixture_gml, tmp_path, capsys,
                                               command, option):
        value = "gf" if option == "--field" else "1"
        with pytest.raises(SystemExit) as exc_info:
            main([command, str(fixture_gml), option, value, "--out", str(tmp_path / "o")])
        assert exc_info.value.code == EXIT_INPUT
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err


class TestClassifyAndDesign:
    def test_classify_writes_plan(self, fixture_gml, tmp_path):
        out = tmp_path / "out"
        assert main(["classify", str(fixture_gml), "--out", str(out)]) == EXIT_OK
        plan = json.loads((out / "plan.json").read_text())
        assert plan["plan"]["n_alpha"] == 2
        assert plan["plan"]["n_beta"] == 1

    def test_design_artifacts(self, fixture_gml, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["design", str(fixture_gml), "--out", str(out)]) == EXIT_OK
        net = json.loads((out / "network.json").read_text())
        assert net["agents"] == 3
        dot = (out / "network.dot").read_text()
        assert "style=dashed" in dot
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["topology_ok"] is True
        assert "distributed_observable=True" in capsys.readouterr().out

    @pytest.mark.parametrize("error", [PlanError])
    def test_internal_contradiction_is_internal_error(self, fixture_gml, tmp_path, capsys,
                                                     monkeypatch, error):
        def contradict(net, dec):
            raise error("contradiction")

        monkeypatch.setattr(cli, "check_distributed", contradict)
        code = main(["design", str(fixture_gml), "--out", str(tmp_path / "out")])
        assert code == EXIT_INTERNAL
        assert "internal error: contradiction" in capsys.readouterr().err

    def test_design_extra_agents(self, fixture_gml, tmp_path):
        out = tmp_path / "out"
        assert main(["design", str(fixture_gml), "--agents", "5",
                     "--out", str(out)]) == EXIT_OK
        net = json.loads((out / "network.json").read_text())
        assert net["agents"] == 5
        idle = [obs for obs in net["observations"] if not obs]
        assert len(idle) == 2

    def test_agents_above_cap_refused(self, fixture_gml, tmp_path, capsys):
        start = time.perf_counter()
        code = main(["design", str(fixture_gml), "--agents", "200000000",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert time.perf_counter() - start < 5
        assert f"input error: 200000000 agents exceed the cap of {MAX_AGENTS} agents" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestVerify:
    def _design(self, fixture_gml, tmp_path):
        out = tmp_path / "design"
        assert main(["design", str(fixture_gml), "--out", str(out)]) == EXIT_OK
        return out / "plan.json", out / "network.json"

    def test_canonical_artifacts_pass(self, fixture_gml, tmp_path):
        plan, network = self._design(fixture_gml, tmp_path)
        code = main(["verify", str(fixture_gml), "--plan", str(plan),
                     "--network", str(network), "--out", str(tmp_path / "v")])
        assert code == EXIT_OK

    def test_missing_alpha_edge_exit_4(self, fixture_gml, tmp_path):
        plan, network = self._design(fixture_gml, tmp_path)
        data = json.loads(network.read_text())
        # agent 0 stops broadcasting: it keeps its edge to agent 2 only
        assert data["alpha_broadcast"] == [0, 1] and data["alpha_edges"] == []
        data["alpha_broadcast"] = [1]
        data["alpha_edges"] = [[0, 2]]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data))
        out = tmp_path / "v"
        code = main(["verify", str(fixture_gml), "--plan", str(plan),
                     "--network", str(broken), "--out", str(out)])
        assert code == EXIT_VERIFY
        report = json.loads((out / "verify.json").read_text())
        deprived = {agent for agent, _ in report["violations"]}
        assert deprived == {1}

    def test_full_edge_list_network_verifies_the_same(self, fixture_gml, tmp_path):
        """A ``network.json`` that lists every alpha edge and ``w_support``,
        as written before ``alpha_broadcast`` existed, gives the same
        ``verify.json`` bytes as the broadcaster form, also with one
        broadcast edge missing."""
        plan, network = self._design(fixture_gml, tmp_path)
        edge_list = json.loads(
            (Path(__file__).parent / "data" / "six_state_network_edge_list.json").read_text())
        assert "alpha_broadcast" not in edge_list and "w_support" in edge_list
        broadcast = json.loads(network.read_text())
        assert "w_support" not in broadcast
        pairs = [
            (edge_list, broadcast),
            ({**edge_list, "alpha_edges": [e for e in edge_list["alpha_edges"] if e != [0, 1]]},
             {**broadcast, "alpha_broadcast": [1], "alpha_edges": [[0, 2]]}),
        ]
        for k, pair in enumerate(pairs):
            written = []
            for form, data in zip(("edges", "broadcast"), pair):
                path = tmp_path / f"{form}-{k}.json"
                path.write_text(json.dumps(data))
                out = tmp_path / f"v-{form}-{k}"
                code = main(["verify", str(fixture_gml), "--plan", str(plan),
                             "--network", str(path), "--out", str(out)])
                assert code == (EXIT_OK if k == 0 else EXIT_VERIFY)
                written.append((out / "verify.json").read_bytes())
            assert written[0] == written[1]

    @pytest.mark.parametrize("name, key", [("plan", "agent"), ("network", "beta_edges")])
    def test_missing_key_is_input_error(self, fixture_gml, tmp_path, capsys, name, key):
        files = dict(zip(("plan", "network"), self._design(fixture_gml, tmp_path)))
        data = json.loads(files[name].read_text())
        if name == "plan":
            del data["placements"][0][key]
        else:
            del data[key]
        files[name] = tmp_path / f"broken-{name}.json"
        files[name].write_text(json.dumps(data))
        code = main(["verify", str(fixture_gml), "--plan", str(files["plan"]),
                     "--network", str(files["network"]), "--out", str(tmp_path / "v")])
        assert code == EXIT_INPUT
        assert f"input error: {name} JSON is missing key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("breaks, message", [
        ({"plan": lambda d: {**d, "placements": [1, *d["placements"][1:]]}},
         "plan JSON field 'placements' must be a list of objects"),
        ({"plan": lambda d: d["placements"]}, "plan JSON must be an object, not list"),
        ({"plan": lambda d: {**d, "placements": [{**d["placements"][0], "agent": 7}]}},
         "placement agent 7 out of range for 3 agents"),
        ({"plan": lambda d: {**d, "placements": [{**d["placements"][0], "state": 99}]}},
         "plan JSON field 'state' must lie in [0, 6), got 99"),
        ({"plan": lambda d: {**d, "placements": [{**d["placements"][0], "kind": "gamma"}]}},
         "plan JSON field 'kind' must be 'alpha' or 'beta', got 'gamma'"),
        ({"network": lambda d: {**d, "alpha_edges": [1, 2]}},
         "network JSON field 'alpha_edges' must be a list of [source, target] integer pairs"),
        ({"network": lambda d: {**d, "agents": "3"}},
         "network JSON field 'agents' must be an integer, not '3'"),
        ({"plan": lambda d: {"placements": []},
          "network": lambda d: {"agents": 0, "alpha_edges": [], "beta_edges": []}},
         "a network needs at least one agent, got 0"),
    ], ids=["placement-not-object", "plan-is-list", "agent-out-of-range", "state-out-of-range",
          "kind-unknown", "alpha-edges-flat", "agents-string", "zero-agents"])
    def test_wrong_typed_json_is_input_error(self, fixture_gml, tmp_path, capsys,
                                             breaks, message):
        files = dict(zip(("plan", "network"), self._design(fixture_gml, tmp_path)))
        for name, broken in breaks.items():
            data = broken(json.loads(files[name].read_text()))
            files[name] = tmp_path / f"broken-{name}.json"
            files[name].write_text(json.dumps(data))
        code = main(["verify", str(fixture_gml), "--plan", str(files["plan"]),
                     "--network", str(files["network"]), "--out", str(tmp_path / "v")])
        assert code == EXIT_INPUT
        assert f"input error: {message}" in capsys.readouterr().err

    def test_network_agents_above_cap_refused(self, fixture_gml, tmp_path, capsys):
        plan, network = self._design(fixture_gml, tmp_path)
        network.write_text(json.dumps({**json.loads(network.read_text()),
                                       "agents": 200000000}))
        start = time.perf_counter()
        code = main(["verify", str(fixture_gml), "--plan", str(plan),
                     "--network", str(network), "--out", str(tmp_path / "v")])
        assert code == EXIT_INPUT
        assert time.perf_counter() - start < 5
        assert f"input error: 200000000 agents exceed the cap of {MAX_AGENTS} agents" \
            in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("seeds", ["-2", "0"])
    def test_seeds_must_be_positive(self, fixture_gml, tmp_path, capsys, seeds):
        plan, network = self._design(fixture_gml, tmp_path)
        with pytest.raises(SystemExit) as exc_info:
            main(["verify", str(fixture_gml), "--plan", str(plan), "--network", str(network),
                  "--numeric", "--seeds", seeds, "--out", str(tmp_path / "v")])
        assert exc_info.value.code == EXIT_INPUT
        assert "--seeds: must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    def test_numeric_above_dense_cap_refused(self, fixture_gml, tmp_path, capsys):
        out = tmp_path / "design"
        assert main(["design", str(fixture_gml), "--agents", "50", "--out", str(out)]) == EXIT_OK
        code = main(["verify", str(fixture_gml), "--plan", str(out / "plan.json"),
                     "--network", str(out / "network.json"), "--numeric", "--seeds", "1",
                     "--out", str(tmp_path / "v")])
        assert code == EXIT_DESIGN
        assert "fused dimension 300 (50 agents x 6 states) exceeds the dense " \
               "realization cap 256" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    def test_numeric_agreement_report(self, fixture_gml, tmp_path):
        plan, network = self._design(fixture_gml, tmp_path)
        out = tmp_path / "v"
        code = main(["verify", str(fixture_gml), "--plan", str(plan),
                     "--network", str(network), "--numeric", "--seeds", "5",
                     "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "verify.json").read_text())
        assert report["numeric_agreement"] == {"seeds": 5, "agreeing": 5}


def test_successive_calls_share_no_parser_state(fixture_gml, tmp_path):
    """The parser is built once per process, and no call's options or
    subcommand leak into the next call's arguments."""
    assert cli.build_parser() is cli.build_parser()

    def config(argv, out):
        assert main([*argv, "--out", str(tmp_path / out)]) == EXIT_OK
        return json.loads((tmp_path / out / "manifest.json").read_text())["config"]

    graph = str(fixture_gml)
    assert config(["design", graph, "--agents", "4"], "d4")["agents"] == 4
    classify = config(["classify", graph], "c")
    assert classify["command"] == "classify" and "agents" not in classify
    assert config(["design", graph], "d")["agents"] is None
    design = tmp_path / "d"
    verify = ["verify", graph, "--plan", str(design / "plan.json"),
              "--network", str(design / "network.json")]
    first = config([*verify, "--numeric", "--seeds", "3"], "v1")
    assert (first["numeric"], first["seeds"]) == (True, 3)
    second = config(verify, "v2")
    assert (second["numeric"], second["seeds"]) == (False, 20)


def test_numeric_artifacts_are_identical_across_processes(tmp_path):
    """``verify --numeric`` and ``simulate`` write the same bytes in two fresh
    processes and in this one, whose heap has a different history, on two
    estimator-small graphs (fused dimension 60-64)."""
    from perfbench.workloads import estimator_small, to_gml

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(netobserve.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    artifacts = {}
    for k, graph in enumerate(estimator_small(np.random.default_rng(1))[:2]):
        gml = tmp_path / f"g{k}.gml"
        gml.write_text(to_gml(graph))
        design = tmp_path / f"design{k}"
        assert main(["design", str(gml), "--out", str(design)]) == EXIT_OK
        commands = {"verify.json": ["verify", str(gml), "--plan", str(design / "plan.json"),
                                    "--network", str(design / "network.json"),
                                    "--numeric", "--seeds", "1"],
                    "trace.csv": ["simulate", str(gml)]}
        for name, argv in commands.items():
            for run in ("first", "second", "in-process"):
                out = tmp_path / run / f"{k}-{argv[0]}"
                if run == "in-process":
                    assert main([*argv, "--out", str(out)]) == EXIT_OK
                else:
                    subprocess.run([sys.executable, "-m", "netobserve.cli", *argv,
                                    "--out", str(out)], check=True, env=env,
                                   capture_output=True)
                artifacts.setdefault((k, name), set()).add((out / name).read_bytes())
    assert [len(found) for found in artifacts.values()] == [1, 1, 1, 1]


def test_design_and_verify_decompose_once(fixture_gml, tmp_path, monkeypatch):
    """Each command runs one canonical matching and one Tarjan pass: the
    distributed check reads both from the command's decomposition."""
    calls = {}
    for fn in (tarjan_scc, contractions):
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("netobserve") and vars(module).get(fn.__name__) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    design = tmp_path / "design"
    commands = (
        ["design", str(fixture_gml), "--out", str(design)],
        ["verify", str(fixture_gml), "--plan", str(design / "plan.json"),
         "--network", str(design / "network.json"), "--out", str(tmp_path / "v")],
    )
    for argv in commands:
        calls.update(tarjan_scc=0, contractions=0)
        assert main(argv) == EXIT_OK
        assert calls == {"tarjan_scc": 1, "contractions": 1}, argv[0]


class TestSimulate:
    def test_simulation_trace(self, fixture_gml, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["simulate", str(fixture_gml), "--horizon", "50",
                     "--noise", "0.05", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "k,agent,mse"
        assert len(lines) == 1 + 50 * 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rho"] < 1.0
        assert "rho=" in capsys.readouterr().out

    def test_seed_reproducible(self, fixture_gml, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", str(fixture_gml), "--horizon", "30",
                         "--seed", "3", "--out", str(out)]) == EXIT_OK
            outs.append((out / "trace.csv").read_text())
        assert outs[0] == outs[1]

    def test_horizon_must_be_positive(self, fixture_gml, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", str(fixture_gml), "--horizon", "0", "--out", str(tmp_path / "s")])
        assert exc_info.value.code == EXIT_INPUT
        assert "--horizon: must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
    def test_noise_must_be_finite_and_nonnegative(self, fixture_gml, tmp_path, capsys, noise):
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", str(fixture_gml), "--noise", noise, "--out", str(tmp_path / "s")])
        assert exc_info.value.code == EXIT_INPUT
        assert f"--noise: must be a finite number >= 0, got {noise}" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_must_be_positive(self, fixture_gml, tmp_path, capsys, budget):
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", str(fixture_gml), "--budget", budget, "--out", str(tmp_path / "s")])
        assert exc_info.value.code == EXIT_INPUT
        assert "--budget: must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_horizon_above_trace_cap_refused(self, fixture_gml, tmp_path, capsys):
        start = time.perf_counter()
        code = main(["simulate", str(fixture_gml), "--horizon", "1000000000",
                     "--out", str(tmp_path / "s")])
        assert code == EXIT_INPUT
        assert time.perf_counter() - start < 5
        assert "input error: a trace of 1000000000 steps x 3 agents exceeds the cap " \
               "of 1000000 entries" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_above_dense_cap_refused(self, fixture_gml, tmp_path, capsys):
        code = main(["simulate", str(fixture_gml), "--agents", "50", "--out", str(tmp_path / "s")])
        assert code == EXIT_DESIGN
        assert "fused dimension 300 (50 agents x 6 states) exceeds the dense " \
               "realization cap 256" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()
