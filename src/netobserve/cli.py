"""Command-line front end.

    netobserve analyze   GRAPH        decomposition report (JSON)
    netobserve classify  GRAPH        observation plan + equivalence classes
    netobserve design    GRAPH        plan + verified agent network (JSON, DOT)
    netobserve verify    --graph G --plan P --network N   re-check topology
    netobserve simulate  GRAPH        gain search + estimator error trace (CSV)

Exit codes: 0 ok, 1 internal error, 2 input/parse error, 3 design
verification or gain search failed or the fused dimension is too large for
a dense realization, 4 external verification failed.
Every command writes a manifest so runs are reproducible byte-for-byte
given (input, seed).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import classify as classify_mod
from . import estimator as estimator_mod
from . import ingest
from .datasets import REGISTRY, load_dataset
from .netdesign import (
    AgentNetwork,
    design_canonical,
    network_from_json,
    network_to_dot,
    network_to_json,
    verify_topology,
)
from .numeric import (
    GF,
    MAX_FUSED_DIM,
    MAX_TRACE_ENTRIES,
    REAL,
    kron_numeric,
    observability_rank,
    random_realization,
    stochastic_realization,
    stochastic_realization_gf,
)
from .structural_check import check_distributed, fused_observation_structure

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_DESIGN = 3
EXIT_VERIFY = 4


def _load_graph(args) -> ingest.LabeledGraph:
    if args.dataset:
        lg = load_dataset(args.dataset, data_dir=args.data_dir)
    else:
        path = Path(args.input)
        data = path.read_bytes()
        fmt = args.format
        if fmt == "auto":
            fmt = "gml" if path.suffix.lower() == ".gml" else "edgelist"
        if fmt == "gml":
            lg = ingest.parse_gml(data, source=str(path))
        else:
            lg = ingest.parse_edge_list(data, directed=not args.undirected, source=str(path))
    if args.drop_isolates:
        lg = ingest.drop_isolates(lg)
    if args.largest:
        lg = ingest.largest_component(lg)
    return lg


def _write(out_dir: Path, name: str, payload: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(payload)
    return path


def _json(obj, sort_keys: bool = False) -> str:
    """The artifact layout: every value on its own line, unindented, and a
    final newline.  Without indentation ``json.dumps`` runs CPython's C
    encoder in one call; any indentation falls back to its Python encoder."""
    return json.dumps(obj, separators=(",\n", ": "), sort_keys=sort_keys) + "\n"


def _manifest(args, extra: dict) -> str:
    return _json({"config": vars(args), **extra}, sort_keys=True)


def _plan_and_dec(lg: ingest.LabeledGraph):
    dec = classify_mod.decompose(lg.digraph)
    return dec, classify_mod.place_agents(dec)


def _too_large(net: AgentNetwork, n: int) -> bool:
    """Refuse a dense realization of W kron A above ``MAX_FUSED_DIM``."""
    dim = net.agent_count * n
    if dim <= MAX_FUSED_DIM:
        return False
    print(f"fused dimension {dim} ({net.agent_count} agents x {n} states) exceeds "
          f"the dense realization cap {MAX_FUSED_DIM}", file=sys.stderr)
    return True


def cmd_analyze(args) -> int:
    lg = _load_graph(args)
    dec = classify_mod.decompose(lg.digraph)
    family = dec.family.sets
    report = {
        "summary": classify_mod.structural_counts_report(
            dec, name=args.dataset or args.input or ""),
        "matching": {
            "s_rank": dec.s_rank,
            "unmatched": [c.witness for c in family],
            "contractions": [
                {"witness": c.witness, "members": sorted(c.members)} for c in family
            ],
        },
        "sccs": {
            "components": [
                {"nodes": sorted(comp), "parent": lab.is_parent, "matched": lab.is_matched}
                for comp, lab in zip(dec.sccs.components, dec.labels)
            ],
            "condensation_edges": sorted(map(list, dec.sccs.condensation.edges)),
        },
    }
    out = Path(args.out)
    path = _write(out, "analysis.json", _json(report))
    _write(out, "manifest.json", _manifest(args, {"outputs": [str(path)]}))
    row = report["summary"]
    print(f"n={row['n']} E={row['edges']} s_rank={row['s_rank']} "
          f"n_alpha={row['n_alpha']} n_beta_min={row['n_beta_min']}")
    return EXIT_OK


def cmd_classify(args) -> int:
    lg = _load_graph(args)
    dec, plan = _plan_and_dec(lg)
    payload = {
        "plan": plan.to_json(lg.labels),
        # interchangeable states per requirement: any member serves
        "alpha_classes": [sorted(c.members) for c in dec.family.sets],
        "beta_classes": [sorted(dec.sccs.components[j]) for j in dec.matched_parents],
    }
    out = Path(args.out)
    path = _write(out, "plan.json", _json(payload))
    _write(out, "manifest.json", _manifest(args, {"outputs": [str(path)]}))
    print(f"plan: {plan.n_alpha} alpha + {plan.n_beta} beta placements")
    return EXIT_OK


def _checks(net: AgentNetwork, dec: classify_mod.Decomposition):
    """Topology and distributed structural verdicts of ``net``, both from
    ``dec``, with the report block that ``design`` and ``verify`` write."""
    verdict = verify_topology(net, dec)
    structural = check_distributed(net, dec)
    report = {
        "topology_ok": verdict.ok,
        "violations": list(map(list, verdict.violations)),
        "distributed": structural.to_json(),
    }
    return verdict, structural, report


def cmd_design(args) -> int:
    lg = _load_graph(args)
    dec, plan = _plan_and_dec(lg)
    net = design_canonical(plan, args.agents)
    verdict, structural, report = _checks(net, dec)
    out = Path(args.out)
    outputs = [
        _write(out, "plan.json", _json(plan.to_json(lg.labels))),
        _write(out, "network.json", _json(network_to_json(net))),
        _write(out, "network.dot", network_to_dot(net)),
        _write(out, "verdict.json", _json(report)),
    ]
    _write(out, "manifest.json", _manifest(args, {"outputs": list(map(str, outputs))}))
    ok = verdict.ok and structural.observable
    print(f"agents={net.agent_count} topology_ok={verdict.ok} "
          f"distributed_observable={structural.observable}")
    return EXIT_OK if ok else EXIT_DESIGN


def cmd_verify(args) -> int:
    lg = _load_graph(args)
    n = lg.digraph.node_count
    plan = classify_mod.plan_from_json(json.loads(Path(args.plan).read_text()), n)
    net = network_from_json(json.loads(Path(args.network).read_text()), plan)
    if args.numeric and _too_large(net, n):
        return EXIT_DESIGN
    verdict, structural, report = _checks(net, classify_mod.decompose(lg.digraph))
    if args.numeric:
        d = fused_observation_structure(net, n)
        realize_w = stochastic_realization_gf if args.field == GF else stochastic_realization
        full = net.agent_count * n
        agree = 0
        for s in range(args.seeds):
            seed = args.seed + s
            w_real = realize_w(net.fusion, seed)
            a_real = random_realization(lg.digraph, args.field, seed)
            d_real = random_realization(d, args.field, seed + 1)
            rank = observability_rank(kron_numeric(w_real, a_real), d_real)
            agree += int((rank == full) == structural.observable)
        report["numeric_agreement"] = {"seeds": args.seeds, "agreeing": agree}
    out = Path(args.out)
    path = _write(out, "verify.json", _json(report))
    _write(out, "manifest.json", _manifest(args, {"outputs": [str(path)]}))
    print(f"topology_ok={verdict.ok} distributed_observable={structural.observable}")
    return EXIT_OK if verdict.ok and structural.observable else EXIT_VERIFY


# trace.csv rows formatted, and written, per block: bounds the argument
# tuples that the one ``%`` call per block holds alive, and the text held.
_CSV_BLOCK_ENTRIES = 1 << 16


def _write_trace_csv(out_dir: Path, mse: np.ndarray) -> Path:
    """Write ``k,agent,mse`` rows of the (horizon, agents) ``mse`` to
    ``trace.csv``, one ``%`` formatting call and one write per block of
    steps, so no more than one block's text is held at a time."""
    horizon, agents = mse.shape
    block = max(1, _CSV_BLOCK_ENTRIES // agents)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "trace.csv"
    with path.open("w") as f:
        f.write("k,agent,mse\n")
        for start in range(0, horizon, block):
            chunk = mse[start:start + block]
            rows = np.empty(chunk.shape + (3,), dtype=object)
            rows[..., 0] = np.arange(start, start + len(chunk))[:, None]
            rows[..., 1] = np.arange(agents)
            rows[..., 2] = chunk
            f.write("%d,%d,%.6e\n" * chunk.size % tuple(rows.ravel().tolist()))
    return path


def cmd_simulate(args) -> int:
    lg = _load_graph(args)
    dec, plan = _plan_and_dec(lg)
    net = design_canonical(plan, args.agents)
    if _too_large(net, lg.digraph.node_count):
        return EXIT_DESIGN
    if args.horizon * net.agent_count > MAX_TRACE_ENTRIES:
        raise ValueError(f"a trace of {args.horizon} steps x {net.agent_count} agents "
                         f"exceeds the cap of {MAX_TRACE_ENTRIES} entries")
    if not verify_topology(net, dec).ok:
        print("design does not verify; refusing to simulate", file=sys.stderr)
        return EXIT_DESIGN
    a_real = random_realization(lg.digraph, REAL, args.seed)
    w_real = stochastic_realization(net.fusion, args.seed)
    try:
        gains = estimator_mod.gain_search(w_real, a_real, net,
                                          budget=args.budget, seed=args.seed)
    except estimator_mod.UnobservableSystemError as exc:
        print(f"gain search refused: {exc}", file=sys.stderr)
        return EXIT_DESIGN
    if not gains.found:
        print(f"gain search failed (best rho={gains.spectral_radius:.3f})",
              file=sys.stderr)
        return EXIT_DESIGN
    trace = estimator_mod.simulate(
        w_real, a_real, net, gains, horizon=args.horizon,
        process_noise=args.noise, observation_noise=args.noise, seed=args.seed)
    out = Path(args.out)
    path = _write_trace_csv(out, trace.mse)
    digest = hashlib.sha256(
        b"".join(block.tobytes() for block in gains.blocks)).hexdigest()[:16]
    _write(out, "manifest.json", _manifest(args, {
        "outputs": [str(path)],
        "rho": gains.spectral_radius,
        "gain_digest": digest,
        "steady_state_mse": trace.steady_state(),
    }))
    print(f"rho={gains.spectral_radius:.4f} steady_state_mse={trace.steady_state():.4e}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    return value


def _noise(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("input", nargs="?", help="graph file (GML or edge list)")
    p.add_argument("--dataset", choices=sorted(REGISTRY),
                   help="load a registered corpus instead of a file")
    p.add_argument("--data-dir", default=None)
    p.add_argument("--format", choices=["auto", "gml", "edgelist"], default="auto")
    p.add_argument("--undirected", action="store_true",
                   help="treat an edge list as undirected")
    p.add_argument("--drop-isolates", action="store_true")
    p.add_argument("--largest", action="store_true",
                   help="keep only the largest weakly connected component")
    p.add_argument("--out", default="out", help="output directory")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs far
    more than a parse, and a parse leaves no state in it."""
    parser = argparse.ArgumentParser(prog="netobserve", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural decomposition report")
    _add_common(p)

    p = sub.add_parser("classify", help="observation plan + equivalence classes")
    _add_common(p)

    p = sub.add_parser("design", help="plan + canonical agent network")
    _add_common(p)
    p.add_argument("--agents", type=int, default=None)

    p = sub.add_parser("verify", help="verify an existing plan/network")
    _add_common(p)
    p.add_argument("--plan", required=True)
    p.add_argument("--network", required=True)
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--seeds", type=_positive_int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", choices=[GF, REAL], default=GF)

    p = sub.add_parser("simulate", help="distributed estimator simulation")
    _add_common(p)
    p.add_argument("--agents", type=int, default=None)
    p.add_argument("--horizon", type=_positive_int, default=1000)
    p.add_argument("--noise", type=_noise, default=0.1)
    p.add_argument("--budget", type=_positive_int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.input is None and args.dataset is None:
        print("error: provide an input file or --dataset", file=sys.stderr)
        return EXIT_INPUT
    try:
        # looked up per call: the cached parser must not pin the command functions
        return globals()[f"cmd_{args.command}"](args)
    except (ingest.ParseError, FileNotFoundError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
