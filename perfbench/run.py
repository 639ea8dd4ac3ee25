"""Stage-level benchmark of the netobserve CLI pipeline.

    python3 perfbench/run.py --workload corpus-directed --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 40        # every workload, both runs

Each run starts the workload in child processes (``child.py``) from the
repository root.  With ``--trace 0`` it reports the end-to-end metrics of
an untraced child plus the set-up time of several fresh children; with
``--trace 1`` it runs an untraced and a traced child for half the time
each and reports the per-layer metrics and the tracing overhead.  The
end-to-end times are scaled to a fixed machine speed (``speed.py``).  Human
readable lines come first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("setup_s", "s"), ("analyze_s", "s"), ("classify_s", "s"),
              ("pipeline_s", "s"), ("peak_rss_mb", "MB"))
COMMAND_TIMES = ("analyze_s", "classify_s", "design_s", "verify_s", "simulate_s", "pipeline_s")
# Python timings shift by several percent from one process to the next
# (memory layout), so a run measures in several processes and averages them.
PROCESSES = 3
SETUP_RUNS = 5  # set-up samples per run: the measuring processes plus set-up-only ones
RUN_DEADLINE_S = 170
SELF_TIME_TOLERANCE_S = 1e-3

KNOWN_DEFECT_NOTE = (
    "known defect: `simulate` refused a design that GF(p) certified. "
    "estimator._observability_rank_real stacks unnormalised powers of W kron A; "
    "when rho(A) > 1 its 1e-9*sigma_max tolerance drops the early blocks. "
    "Counted as a failed operation; the fix belongs in the estimator.")

CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
}


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str, work: Path,
          deadline: float, share: str = "0/1") -> dict:
    result = work / f"{mode}.json"
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
            "--share", share, "--work", str(work), "--result", str(result)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"no time left for the {mode} child")
    try:
        proc = subprocess.run(argv + ["--t0", repr(time.time())], cwd=ROOT,
                              env={**os.environ, **CHILD_ENV}, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child killed after {timeout:.0f} s") from None
    if proc.returncode != 0 or not result.exists():
        raise ChildFailed(f"{mode} child exited with {proc.returncode}:\n{proc.stdout[-2000:]}")
    return json.loads(result.read_text())


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest of p50..p99 with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, ordered[math.ceil(p / 100 * n) - 1]
    return None


def describe(name: str, unit: str, groups: list[list[float]]) -> str:
    """Mean of the group medians, with the pooled sample count and tail."""
    value = statistics.mean(statistics.median(g) for g in groups)
    pooled = [v for g in groups for v in g]
    line = f"  {name:<14} {value:12.6f} {unit:<3} {len(pooled)} samples"
    tail = tail_percentile(pooled)
    if tail:
        line += f", p{tail[0]} {tail[1]:.6f}"
    return line


class Report:
    """Counts operations and collects what the run prints."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.known = 0
        self.lines: list[str] = []
        self.digests: dict[str, str] = {}

    def add_child(self, child: dict) -> None:
        self.attempted += child["attempted"]
        self.failed += len(child["failures"])
        for f in child["failures"]:
            self.known += f["known_defect"]
            self.unexpected += not f["known_defect"]
            tag = "KNOWN DEFECT" if f["known_defect"] else "FAILED"
            self.lines.append(f"  {tag} graph {f['graph']} {f['command']} rep {f['rep']}: "
                              + "; ".join(f["problems"]))

    def check_digests(self, children: list[dict]) -> None:
        """Every artifact must have one digest across all processes of the run."""
        for child in children:
            for key, digest in child["digests"].items():
                if self.digests.setdefault(key, digest) != digest:
                    self.fail(f"{key} differs between two processes of the run")

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.unexpected += 1
        self.lines.append(f"  FAILED {message}")


def end_to_end(workload: str, seed: int, seconds: float, work: Path, deadline: float,
               report: Report) -> dict:
    setups = [spawn(workload, seed, 0, "setup", work / f"setup{i}", deadline)
              for i in range(SETUP_RUNS - PROCESSES)]
    children = [spawn(workload, seed, seconds / PROCESSES, "untraced", work / f"untraced{i}",
                      deadline, share=f"{i}/{PROCESSES}")
                for i in range(PROCESSES)]
    setups += children
    setup = [child["setup_s"] for child in setups]
    for child in children:
        report.add_child(child)
    report.check_digests(children)
    print("inputs: " + ", ".join(f"n={n} arcs={e}" for n, e in children[0]["graphs"]))
    print(f"end-to-end (untraced; mean over {PROCESSES} processes of each one's median "
          f"over its repetitions; samples pooled; seconds at the reference speed of "
          f"speed.py, then plain wall seconds):")
    print(describe("setup_s", "s", [setup]))
    print(describe("  wall", "s", [[child["setup_wall_s"] for child in setups]]))
    for name in COMMAND_TIMES:
        if name in children[0]["times"]:
            print(describe(name, "s", [child["times"][name] for child in children]))
            print(describe("  wall", "s", [child["walls"][name] for child in children]))
    rss = statistics.mean(child["peak_rss_mb"] for child in children)
    print(f"  {'peak_rss_mb':<14} {rss:12.3f} MB  mean of {PROCESSES} processes")
    attempted = sum(child["attempted"] for child in children)
    failed = sum(len(child["failures"]) for child in children)
    print(f"  {'error_rate':<14} {failed / attempted:12.6f}     "
          f"{failed} failed of {attempted} operations")
    print("artifact digests (sha256):")
    for key, digest in sorted(report.digests.items()):
        print(f"  {key:<32} {digest}")
    values = {"setup_s": statistics.median(setup), "peak_rss_mb": rss}
    for name in ("analyze_s", "classify_s", "pipeline_s"):
        values[name] = statistics.mean(statistics.median(child["times"][name])
                                       for child in children)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(workload: str, seed: int, seconds: float, work: Path, deadline: float,
              report: Report) -> dict:
    plain = spawn(workload, seed, seconds / 2, "untraced", work / "untraced", deadline)
    traced = spawn(workload, seed, seconds / 2, "traced", work / "traced", deadline)
    for child in (plain, traced):
        report.add_child(child)
    report.check_digests([plain, traced])
    gaps = traced["self_time_gaps"]
    if max(gaps, default=0.0) > SELF_TIME_TOLERANCE_S:
        report.fail(f"layer self times miss a command's wall time by {max(gaps):.6f} s")
    overhead = (statistics.median(traced["times"]["pipeline_s"])
                - statistics.median(plain["times"]["pipeline_s"]))
    layers = traced["layers"]
    n_reps = len(traced["times"]["pipeline_s"])
    print(f"per-layer (traced; median over {n_reps} repetitions of the mean per graph; "
          f"on every command the self times sum to its wall time within "
          f"{max(gaps, default=0):.6f} s):")
    metrics = {}
    for name, unit in per_layer_metrics():
        if name == "structural_check.peak_mb":
            value = traced["peak_mb"]
        else:
            value = statistics.median(layers[name]) if name in layers else 0.0
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<38} {value:14.6f} {unit}")
    metrics["tracing.overhead_s"] = {"value": overhead, "unit": "s"}
    print(f"  {'tracing.overhead_s':<38} {overhead:14.6f} s   (traced minus untraced pipeline_s)")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    work = ROOT / ".perfbench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report = Report()
    print(f"== {workload}  seed={seed}  seconds={seconds}  trace={trace}")
    print(f"   {WORKLOADS[workload].why}")
    phase = per_layer if trace else end_to_end
    try:
        metrics = phase(workload, seed, seconds, work, deadline, report)
    except ChildFailed as exc:
        report.fail(str(exc))
        metrics = None
    if report.known:
        report.lines.append("  " + KNOWN_DEFECT_NOTE)
    print("\n".join(report.lines) if report.lines else "  all correctness checks passed")
    return {"correct": report.unexpected == 0 and metrics is not None,
            "attempted": max(report.attempted, 1), "failed": report.failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; "
                             "default: both (every workload when --workload all)")
    args = parser.parse_args()
    if not (ROOT / "src" / "netobserve" / "__init__.py").is_file():
        print(f"error: no netobserve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.trace is None else (args.trace,)
    results = {(name, trace): run(name, args.seed, args.seconds, trace,
                                  time.monotonic() + RUN_DEADLINE_S)
               for name in workloads for trace in traces}
    if any(r["metrics"] is None for r in results.values()):
        return 1
    if len(results) == 1:
        [result] = results.values()
    else:  # one command for everything: metrics prefixed with their workload
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}/{metric}": value
                              for (name, _), r in results.items()
                              for metric, value in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
