import gc
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
from netobserve import cli, estimator
from netobserve import classify as classify_mod
from netobserve.classify import ObservationPlan, PlanError
from netobserve.cli import EXIT_DESIGN, EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_VERIFY, main
from netobserve.fixtures import six_state_demo
from netobserve.graph_core import Digraph
from netobserve.ingest import LabeledGraph
from netobserve.matching import contractions
from netobserve.netdesign import MAX_AGENTS
from netobserve.scc import tarjan_scc

from .oracles import blogs_shaped, emit_gml


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

    def test_formats_doc_numeric_agreement_is_fixture_output(self, fixture_gml, tmp_path):
        doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
        example = re.search(r"`--numeric` adds\s+`(\"numeric_agreement\": \{.*?\})`", doc, re.S)
        design = tmp_path / "design"
        assert main(["design", str(fixture_gml), "--out", str(design)]) == EXIT_OK
        assert main(["verify", str(fixture_gml), "--plan", str(design / "plan.json"),
                     "--network", str(design / "network.json"), "--numeric",
                     "--out", str(tmp_path / "v")]) == EXIT_OK
        report = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert json.loads("{" + example.group(1) + "}") == \
            {"numeric_agreement": report["numeric_agreement"]}

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

    @pytest.mark.parametrize("case", ["input-directory", "plan-directory", "out-file"])
    def test_unreadable_path_exit_2(self, fixture_gml, tmp_path, capsys, case):
        """A directory where a file is read, or a file where ``--out`` makes a
        directory, is an input error, not an internal one."""
        taken = tmp_path / "taken"
        taken.write_text("")
        graph, out = str(fixture_gml), str(tmp_path / "out")
        argv = {
            "input-directory": ["analyze", str(tmp_path), "--out", out],
            "plan-directory": ["verify", graph, "--plan", str(tmp_path),
                               "--network", str(tmp_path), "--out", out],
            "out-file": ["classify", graph, "--out", str(taken)],
        }[case]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error: [Errno")

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

    def test_largest_of_edgeless_graph_is_empty(self, tmp_path, capsys):
        """``--drop-isolates`` leaves no node of an edgeless graph, and
        ``--largest`` then keeps the empty graph, not an input error."""
        path = tmp_path / "edgeless.gml"
        path.write_text("graph [ directed 1 node [ id 0 ] node [ id 1 ] ]\n")
        argv = ["analyze", str(path), "--drop-isolates", "--largest",
                "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("n=0 E=0 ")
        assert json.loads((tmp_path / "out" / "analysis.json").read_text())["summary"]["n"] == 0

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

    def test_uncertified_plan_is_internal_error(self, fixture_gml, tmp_path, capsys,
                                                monkeypatch):
        """A plan that fails the centralized check stops the command with
        ``PlanError`` before any artifact is written."""
        place_agents = classify_mod.place_agents

        def without_beta(dec):
            plan = place_agents(dec)
            return ObservationPlan(tuple(p for p in plan.placements if p.kind == "alpha"))

        monkeypatch.setattr(classify_mod, "place_agents", without_beta)
        out = tmp_path / "out"
        assert main(["classify", str(fixture_gml), "--out", str(out)]) == EXIT_INTERNAL
        assert capsys.readouterr().err == (
            "internal error: the plan does not make (A, H) structurally observable\n")
        assert not out.exists()
        lg = LabeledGraph(six_state_demo(), tuple(map(str, range(6))), True, {})
        with pytest.raises(PlanError):
            cli._plan_and_dec(lg)

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

    def test_classify_plan_verifies_the_same(self, fixture_gml, tmp_path):
        """``classify`` nests the plan under ``"plan"``; ``verify`` reads that
        ``plan.json`` as it reads ``design``'s flat one, byte for byte."""
        plan, network = self._design(fixture_gml, tmp_path)
        classified = tmp_path / "classify"
        assert main(["classify", str(fixture_gml), "--out", str(classified)]) == EXIT_OK
        written = []
        for k, path in enumerate((plan, classified / "plan.json")):
            out = tmp_path / f"v-{k}"
            code = main(["verify", str(fixture_gml), "--plan", str(path),
                         "--network", str(network), "--out", str(out)])
            assert code == EXIT_OK
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

    def test_field_option_is_gone(self, fixture_gml, tmp_path, capsys):
        # the GF(p) rank is exact, so no field is chosen
        plan, network = self._design(fixture_gml, tmp_path)
        with pytest.raises(SystemExit) as exc_info:
            main(["verify", str(fixture_gml), "--plan", str(plan), "--network", str(network),
                  "--numeric", "--field", "gf", "--out", str(tmp_path / "v")])
        assert exc_info.value.code == EXIT_INPUT
        assert "unrecognized arguments: --field" in capsys.readouterr().err
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


def test_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    """``analyze`` and ``classify`` on a blogs-sized graph write the same
    bytes under two string-hash seeds: adjacency comes from sorted
    successor lists, never from the iteration order of a set."""
    g = blogs_shaped(1)
    gml = tmp_path / "blogs.gml"
    gml.write_text(emit_gml(LabeledGraph(g, tuple(f"v{i}" for i in range(g.node_count)),
                                         True, {})))
    written = {}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [str(Path(netobserve.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        for command, name in (("analyze", "analysis.json"), ("classify", "plan.json")):
            out = tmp_path / seed / command
            subprocess.run([sys.executable, "-m", "netobserve.cli", command, gml.name,
                            "--out", str(out)], check=True, env=env, cwd=tmp_path,
                           capture_output=True)
            written.setdefault(name, set()).add((out / name).read_bytes())
    assert [len(found) for found in written.values()] == [1, 1]


def test_structural_layers_import_without_numpy():
    """The package, its structural layers and the command-line front end load
    no numpy: only ``numeric`` and ``estimator`` need it, and ``cli`` imports
    them inside ``verify --numeric`` and ``simulate``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(netobserve.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, netobserve, netobserve.classify, netobserve.netdesign, "
            "netobserve.structural_check, netobserve.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    run = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True)
    assert run.stdout == "[]\n"


def test_structural_commands_run_without_numpy(fixture_gml, tmp_path, monkeypatch):
    """With numpy unimportable, ``analyze``, ``classify``, ``design`` and
    ``verify`` exit 0 and write the same bytes as a run with numpy, on the
    fixture and on a design-mixed graph; the README library snippet runs."""
    from perfbench.workloads import design_mixed, to_gml

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(netobserve.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    (tmp_path / "mixed.gml").write_text(to_gml(design_mixed(np.random.default_rng(1))[0]))
    commands = []
    for name, gml in (("fixture", str(fixture_gml)), ("mixed", "../mixed.gml")):
        design = f"{name}-design"
        commands += [["analyze", gml, "--out", f"{name}-analyze"],
                     ["classify", gml, "--out", f"{name}-classify"],
                     ["design", gml, "--out", design],
                     ["verify", gml, "--plan", f"{design}/plan.json",
                      "--network", f"{design}/network.json", "--out", f"{name}-verify"]]
    without = ("import json, sys; sys.modules['numpy'] = None; "
               "from netobserve.cli import main; "
               "print([main(argv) for argv in json.loads(sys.argv[1])])")
    for side in ("with", "without"):
        (tmp_path / side).mkdir()
    run = subprocess.run([sys.executable, "-c", without, json.dumps(commands)],
                         cwd=tmp_path / "without", env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == str([EXIT_OK] * len(commands))
    monkeypatch.chdir(tmp_path / "with")
    assert [main(argv) for argv in commands] == [EXIT_OK] * len(commands)
    written = {path.relative_to(tmp_path / "with"): path.read_bytes()
               for path in (tmp_path / "with").rglob("*") if path.is_file()}
    assert len(written) == 2 * (2 + 2 + 5 + 2)
    assert written == {path.relative_to(tmp_path / "without"): path.read_bytes()
                       for path in (tmp_path / "without").rglob("*") if path.is_file()}
    readme = (Path(netobserve.__file__).parents[2] / "README.md").read_text()
    snippet = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    subprocess.run([sys.executable, "-c", "import sys; sys.modules['numpy'] = None\n" + snippet],
                   check=True, env=env, capture_output=True)


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


def test_commands_leave_no_reference_cycles(fixture_gml, tmp_path, monkeypatch):
    """``main`` pauses the cyclic collector, which costs no memory only while
    every command frees what it builds by reference counting: each command,
    an input refusal (exit 2) and an internal error (exit 1) leave nothing
    for ``gc.collect`` to find.  Each runs once as a warm-up first, because
    the first ``verify --numeric`` or ``simulate`` imports numpy, and that
    import leaves cycles once per process."""
    graph = str(fixture_gml)
    design = tmp_path / "design"
    verify = ["verify", graph, "--plan", str(design / "plan.json"),
              "--network", str(design / "network.json")]
    cases = [
        (["analyze", graph], EXIT_OK),
        (["classify", graph], EXIT_OK),
        (["design", graph], EXIT_OK),
        (verify, EXIT_OK),
        ([*verify, "--numeric", "--seeds", "1"], EXIT_OK),
        (["simulate", graph, "--horizon", "50"], EXIT_OK),
        (["analyze", str(tmp_path / "missing.gml")], EXIT_INPUT),
        (["design", graph], EXIT_INTERNAL),
    ]

    def contradict(net, dec):
        raise PlanError("contradiction")

    collecting = gc.isenabled()
    gc.disable()
    try:
        for argv, code in cases:
            argv = [*argv, "--out", str(tmp_path / argv[0])]  # design writes to `design`
            if code == EXIT_INTERNAL:
                monkeypatch.setattr(cli, "check_distributed", contradict)
            for _ in range(2):  # a warm-up run, then the checked one
                gc.collect()
                assert main(argv) == code, argv
            assert gc.collect() == 0, argv
    finally:
        if collecting:
            gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_state(fixture_gml, tmp_path, monkeypatch, enabled):
    """The command runs with the collector paused, and the caller's state
    comes back after exit 0, 2 and 1: the benchmark child and library
    callers run ``main`` in-process."""
    paused = []

    def contradict(net, dec):
        paused.append(not gc.isenabled())
        raise PlanError("contradiction")

    graph = str(fixture_gml)
    cases = [(["analyze", graph], EXIT_OK),
             (["analyze", str(tmp_path / "missing.gml")], EXIT_INPUT),
             (["design", graph], EXIT_INTERNAL)]
    collecting = gc.isenabled()
    try:
        for argv, code in cases:
            if code == EXIT_INTERNAL:
                monkeypatch.setattr(cli, "check_distributed", contradict)
            gc.enable() if enabled else gc.disable()
            assert main([*argv, "--out", str(tmp_path / "out")]) == code
            assert gc.isenabled() is enabled, argv
        assert paused == [True]
    finally:
        gc.enable() if collecting else gc.disable()


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

    def test_unobservable_pair_refused(self, fixture_gml, tmp_path, capsys, monkeypatch):
        # the refusal keeps its exit code and the prefix the benchmark matches
        def refuse(*args, **kwargs):
            raise estimator.UnobservableSystemError(17, 18)

        monkeypatch.setattr(estimator, "gain_search", refuse)
        code = main(["simulate", str(fixture_gml), "--out", str(tmp_path / "s")])
        assert code == EXIT_DESIGN
        assert capsys.readouterr().err.startswith(
            "gain search refused: observability rank 17 < 18; the fused pair is not "
            "numerically observable")
        assert not (tmp_path / "s").exists()

    def test_above_dense_cap_refused(self, fixture_gml, tmp_path, capsys):
        code = main(["simulate", str(fixture_gml), "--agents", "50", "--out", str(tmp_path / "s")])
        assert code == EXIT_DESIGN
        assert "fused dimension 300 (50 agents x 6 states) exceeds the dense " \
               "realization cap 256" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()
