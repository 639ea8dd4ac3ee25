"""Outside-in tracing of the netobserve layers.

Every public module-level function of a layer module is replaced by a
wrapper at every place the package binds it (``hopcroft_karp`` as bound in
``matching``, ``scc`` and ``classify``, ``reachable`` wherever it is
imported, and so on), so the program itself stays untouched.  A wrapper
records one span ``(name, start, end, parent, request)`` in memory; the
spans are written out once, at the end of the run.  A layer is a module,
and a span's self time is its duration minus the durations of its direct
children, so the self times of all spans under one ``cli.main`` call add
up to that call's wall time.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "ingest", "matching", "scc", "classify", "graph_core",
          "netdesign", "structural_check", "numeric", "estimator")


def _len_of(attr):
    return lambda result: len(getattr(result, attr))


# Size counters read from return values: metric -> (traced function, reader).
COUNTERS = {
    "matching.s_rank": ("matching.matching_report", lambda r: r["s_rank"]),
    "matching.contraction_sets": ("matching.contractions", lambda r: len(r.sets)),
    "scc.components": ("scc.tarjan_scc", _len_of("components")),
    "scc.matched_parents": ("scc.matched_parent_indices", len),
    "classify.alpha": ("classify.place_agents", lambda r: r.n_alpha),
    "classify.beta": ("classify.place_agents", lambda r: r.n_beta),
    "classify.repairs": ("classify.place_agents", _len_of("repairs")),
    "netdesign.agents": ("netdesign.design_canonical", lambda r: r.agent_count),
    "netdesign.alpha_edges": ("netdesign.design_canonical", _len_of("alpha_edges")),
    "netdesign.beta_edges": ("netdesign.design_canonical", _len_of("beta_edges")),
    "structural_check.kron_nnz": ("structural_check.kron_structure", lambda r: r.nnz),
    "structural_check.fused_dim": ("structural_check.kron_structure", lambda r: r.rows),
    "estimator.evaluations": ("estimator.gain_search", lambda r: r.evaluations),
    "estimator.steps": ("estimator.simulate", lambda r: r.mse.shape[0]),
}

# Inclusive time of the outermost call among a set of functions, and call counts.
TIMES = {
    "ingest.parse_s": ("ingest.parse_gml", "ingest.parse_edge_list"),
    "matching.hk_s": ("matching.hopcroft_karp",),
    "matching.contractions_s": ("matching.contractions", "matching.family_for_matching"),
    "matching.report_s": ("matching.matching_report",),
    "scc.tarjan_s": ("scc.tarjan_scc",),
    "scc.taxonomy_s": ("scc.classify_sccs",),
    "scc.report_s": ("scc.scc_report",),
    "classify.decompose_s": ("classify.decompose",),
    "classify.place_agents_s": ("classify.place_agents",),
    "classify.counts_report_s": ("classify.structural_counts_report",),
    "graph_core.reachable_s": ("graph_core.reachable",),
    "netdesign.design_s": ("netdesign.design_canonical",),
    "netdesign.verify_topology_s": ("netdesign.verify_topology",),
    "structural_check.check_distributed_s": ("structural_check.check_distributed",),
    "structural_check.kron_s": ("structural_check.kron_structure",),
    "numeric.rank_s": ("numeric.observability_rank",),
    "numeric.realization_s": ("numeric.random_realization", "numeric.stochastic_realization",
                              "numeric.stochastic_realization_gf"),
    "numeric.kron_s": ("numeric.kron_numeric",),
    "estimator.gain_search_s": ("estimator.gain_search",),
    "estimator.simulate_s": ("estimator.simulate",),
}
CALLS = {
    "matching.hk_calls": "matching.hopcroft_karp",
    "classify.decompose_calls": "classify.decompose",
    "graph_core.reachable_calls": "graph_core.reachable",
    "numeric.rank_calls": "numeric.observability_rank",
}

# Re-run under tracemalloc after the timed repetitions, so the allocation
# tracing does not slow the spans.
MEMORY_PROBE = "structural_check.check_distributed"


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count")]
    out += [(name, "s") for name in TIMES]
    out += [(name, "count") for name in CALLS]
    out += [(name, "count") for name in COUNTERS]
    out += [("ingest.bytes", "bytes"), ("structural_check.peak_mb", "MB")]
    return out


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, request]
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(dict)
        self.request = -1
        self._stack: list[int] = []
        self._probe_call = None

    def install(self) -> None:
        """Wrap every public function of every layer wherever it is bound."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"netobserve.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for name, module in list(sys.modules.items()):
            if name != "netobserve" and not name.startswith("netobserve."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(module, attr, wrappers[id(obj)][1])

    def _wrap(self, name: str, fn):
        readers = [(metric, read) for metric, (src, read) in COUNTERS.items() if src == name]
        parse = name in TIMES["ingest.parse_s"]
        probe = name == MEMORY_PROBE
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            counters = self.counters[self.request]
            for metric, read in readers:
                counters[metric] = read(result)
            if parse:
                counters["ingest.bytes"] = counters.get("ingest.bytes", 0) + len(args[0])
            if probe:
                self._probe_call = (fn, args, kwargs)
            return result

        return traced

    def probe_peak_mb(self) -> float:
        """Peak traced allocation of the last probed call, re-run once."""
        if self._probe_call is None:
            return 0.0
        fn, args, kwargs = self._probe_call
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def metrics_by_request(self) -> dict[int, dict[str, float]]:
        """Per-layer metrics of every request (one CLI call)."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        timed_names = {n: metric for metric, names in TIMES.items() for n in names}
        call_names = {n: metric for metric, n in CALLS.items()}
        for (name, start, end, parent, request), self_s in zip(self.spans, self.self_times()):
            layer = name.split(".", 1)[0]
            m = out[request]
            m[f"{layer}.self_s"] += self_s
            m[f"{layer}.calls"] += 1
            if name in call_names:
                m[call_names[name]] += 1
            metric = timed_names.get(name)
            if metric and not self._has_ancestor_in(parent, TIMES[metric]):
                m[metric] += end - start
        for request, counters in self.counters.items():
            out[request].update(counters)
        return out

    def _has_ancestor_in(self, parent: int, names: tuple[str, ...]) -> bool:
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def write_spans(self, path: Path) -> None:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "request", "name", "start", "end"])
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                writer.writerow([i, parent, request, name, f"{start:.9f}", f"{end:.9f}"])
