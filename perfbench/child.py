"""One workload run in its own process; started by ``run.py``.

The process caps its own address space, writes the seeded GML inputs,
then runs the workload's command chain through ``netobserve.cli.main``
until the time is up.  Every invocation of a command is checked
independently.  An operation is one command on one graph: it fails if any
of its invocations fails (timeout, memory error, exception, nonzero exit
code, failed check or changed artifact digest), and the run goes on.  So
the operation counts depend on the seed only, not on how many repetitions
fit into the time.  The result is written as JSON for the
parent to report.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import speed  # noqa: E402

OP_TIMEOUT_S = 45
ADDRESS_SPACE_CAP = 3 * 2**30


class OpTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so the CLI's handler lets it through."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_cli(main, argv: list[str]) -> tuple[object, float, str]:
    """(exit code or failure kind, wall seconds, stderr) of one cli.main call.

    The wall time of a failed call runs until the failure, so a timeout
    counts its full 45 s."""
    err = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
    except OpTimeout:
        rc = "timeout"
    except MemoryError:
        rc = "out of memory"
    except Exception as exc:  # the run must go on; the operation failed
        rc = f"{type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return rc, wall, err.getvalue()


def label(k: int, count: int) -> str:
    return "warmup" if k == count - 1 else f"g{k}"


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "manifest.json"}


class Run:
    def __init__(self, workload, graphs, paths, share: list[int], traced: bool):
        # Imported here, after set-up is timed: scipy and networkx serve only
        # the checks.
        import checks
        from netobserve import cli

        self.cli = cli
        self.checks = checks
        self.workload = workload
        self.paths = paths
        self.share = share  # indices of the graphs this process measures
        self.warmup = len(graphs) - 1
        self.labels = [label(k, len(graphs)) for k in range(len(graphs))]
        self.refs = {k: checks.Reference.of(graphs[k]) for k in [*share, self.warmup]}
        self.times: dict[str, list[float]] = defaultdict(list)  # at the reference speed
        self.walls: dict[str, list[float]] = defaultdict(list)
        self.operations: set[tuple[str, str]] = set()  # (graph label, command)
        # operation -> its first failed invocation, or its first unexpected one
        self.failures: dict[tuple[str, str], dict] = {}
        self.digests: dict[str, str] = {}
        self.requests: list[tuple[int, int, float]] = []  # (rep, graph, wall)
        self.tracer = None
        if traced:
            from tracer import Tracer
            self.tracer = Tracer()
            self.tracer.install()

    def argv(self, command: str, k: int, out: Path) -> list[str]:
        graph = str(self.paths[k])
        design = out.parent / "design"
        if command == "verify":
            argv = ["verify", graph, "--plan", str(design / "plan.json"),
                    "--network", str(design / "network.json"), *self.workload.verify_args]
        else:
            argv = [command, graph]
        return argv + ["--out", str(out)]

    def check(self, command: str, k: int, rc, out: Path, stderr: str,
              verified: bool) -> tuple[list[str], bool]:
        """(problems, known defect) for one finished command."""
        c, ref = self.checks, self.refs[k]
        if command == "simulate":
            known = (rc == 3 and verified and c.FALSE_REFUSAL in stderr)
            return c.check_simulate(rc, out), known
        if not isinstance(rc, int):
            return [str(rc)], False
        if command == "analyze":
            problems = c.check_analyze(ref, out)
        elif command == "classify":
            problems = c.check_classify(ref, out)
        elif command == "design":
            problems = c.check_design(rc, out)
        else:
            problems = c.check_verify(rc, out, numeric="--numeric" in self.workload.verify_args)
        if command in ("analyze", "classify") and rc != 0:
            problems.insert(0, f"exit code {rc}")
        return problems, False

    def chain(self, rep: int, k: int) -> tuple[dict[str, float], dict[str, float]]:
        """Run the command chain on graph ``k``.

        Returns each command's time at the reference speed (``speed.py``)
        and its plain wall time."""
        scaled, walls = {}, {}
        verified = False
        for command in self.workload.commands:
            out = Path(f"out-{self.labels[k]}") / command
            argv = self.argv(command, k, out)
            gc.collect()
            if self.tracer:
                self.tracer.request = len(self.requests)
            before = speed.probe()
            rc, wall, stderr = run_cli(self.cli.main, argv)
            after = speed.probe()
            self.requests.append((rep, k, wall))
            operation = (self.labels[k], command)
            self.operations.add(operation)
            try:
                problems, known = self.check(command, k, rc, out, stderr, verified)
                if rc == 0:
                    problems += self.compare_digests(k, command, out)
            except Exception as exc:  # a missing or malformed artifact
                problems, known = [f"check failed: {type(exc).__name__}: {exc}"], False
            if command == "verify":
                verified = not problems
            prior = self.failures.get(operation)
            if problems and (prior is None or (prior["known_defect"] and not known)):
                self.failures[operation] = {"graph": self.labels[k], "command": command,
                                            "rep": rep, "known_defect": known,
                                            "problems": problems,
                                            "stderr": stderr.strip()[-300:]}
            walls[f"{command}_s"] = wall
            scaled[f"{command}_s"] = wall * speed.scale(before, after)
        for times in (scaled, walls):
            times["pipeline_s"] = sum(times.values())
        return scaled, walls

    def compare_digests(self, k: int, command: str, out: Path) -> list[str]:
        problems = []
        for name, digest in digests(out).items():
            key = f"{self.labels[k]}/{command}/{name}"
            first = self.digests.setdefault(key, digest)
            if first != digest:
                problems.append(f"{key} digest changed between repetitions")
        return problems

    def measure(self, seconds: float) -> None:
        """Warm up on the small warm-up graph, then time whole repetitions.

        A repetition runs the chain on every graph of this process's share
        and contributes each command's mean time per graph, scaled to the
        reference speed to ``times`` and plain to ``walls``.  Another
        repetition starts only if it is expected to end within ``seconds``
        (the first always runs).
        """
        self.chain(-1, self.warmup)
        start = time.perf_counter()
        rep = 0
        while True:
            began = time.perf_counter()
            chains = [self.chain(rep, k) for k in self.share]
            for kind, out in enumerate((self.times, self.walls)):
                for name in chains[0][kind]:
                    out[name].append(sum(c[kind][name] for c in chains) / len(chains))
            rep += 1
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                break

    def layer_metrics(self, by_request: dict[int, dict[str, float]]) -> dict[str, list[float]]:
        """Per-layer metrics of each timed repetition, as means per graph."""
        from tracer import COUNTERS
        per_graph: dict[tuple[int, int], dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for request, (rep, k, _) in enumerate(self.requests):
            if rep < 0:
                continue
            chain = per_graph[rep, k]
            for metric, value in by_request.get(request, {}).items():
                if metric in COUNTERS:  # sizes: every command sees the same graph
                    chain[metric] = max(chain[metric], value)
                else:
                    chain[metric] += value
        reps = sorted({rep for rep, _ in per_graph})
        names = {metric for values in per_graph.values() for metric in values}
        share = self.share
        return {metric: [sum(per_graph[rep, k].get(metric, 0.0) for k in share) / len(share)
                         for rep in reps]
                for metric in names}

    def self_time_gaps(self, by_request: dict[int, dict[str, float]]) -> list[float]:
        """Per traced command: |sum of layer self times - command wall| in seconds."""
        return [abs(sum(v for k, v in by_request[request].items() if k.endswith(".self_s"))
                    - wall)
                for request, (_, _, wall) in enumerate(self.requests)]


def setup(workload_name: str, seed: int, work: Path):
    """Import the package, draw the graphs and write the GML inputs."""
    import numpy as np
    import netobserve  # noqa: F401  (the package import is part of set-up)
    from workloads import WORKLOADS, to_gml, warmup_graph

    workload = WORKLOADS[workload_name]
    rng = np.random.default_rng(seed)
    graphs = workload.generate(rng)
    graphs.append(warmup_graph(rng))  # last: the warm-up graph
    # Relative paths keep the artifacts (which echo the input path) identical
    # across runs, children and checkouts.
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    paths = [Path(f"{label(k, len(graphs))}.gml") for k in range(len(graphs))]
    for path, graph in zip(paths, graphs):
        path.write_text(to_gml(graph))
    return workload, graphs, paths


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "untraced", "traced"], required=True)
    parser.add_argument("--share", default="0/1",
                        help="i/m: measure graphs i, i+m, ... (all graphs if fewer than m)")
    parser.add_argument("--t0", type=float, required=True,
                        help="parent's time.time() just before starting this process")
    parser.add_argument("--work", type=Path, required=True, help="working directory")
    parser.add_argument("--result", type=Path, required=True, help="absolute path")
    args = parser.parse_args()
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    begin = time.perf_counter()
    first_probe = speed.probe()
    excluded = time.perf_counter() - begin  # the probe is not part of set-up
    signal.signal(signal.SIGALRM, _on_alarm)

    workload, graphs, paths = setup(args.workload, args.seed, args.work)
    setup_wall = time.time() - args.t0 - excluded
    result: dict = {"setup_s": setup_wall * speed.scale(first_probe, speed.probe()),
                    "setup_wall_s": setup_wall,
                    "graphs": [[n, len(arcs)] for n, arcs in graphs[:-1]]}
    if args.mode != "setup":
        i, m = map(int, args.share.split("/"))
        measured = len(graphs) - 1
        share = list(range(i, measured, m)) if measured >= m else list(range(measured))
        run = Run(workload, graphs, paths, share, traced=args.mode == "traced")
        run.measure(args.seconds)
        result.update(times=run.times, walls=run.walls, attempted=len(run.operations),
                      failures=list(run.failures.values()), digests=run.digests,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if run.tracer:
            by_request = run.tracer.metrics_by_request()
            result["layers"] = run.layer_metrics(by_request)
            result["self_time_gaps"] = run.self_time_gaps(by_request)
            result["peak_mb"] = run.tracer.probe_peak_mb()
            run.tracer.write_spans(Path("spans.csv"))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
