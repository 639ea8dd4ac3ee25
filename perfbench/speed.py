"""Machine-speed reference for the end-to-end timings.

On a shared host the speed of a core can change by a factor of 1.7 within
seconds, as other tenants load the same physical core, and the share of
slow time differs from one minute to the next.  Medians of plain wall
times then move by up to 25% between two runs of the same code.  A fixed
pure-Python loop, timed right before and right after each measured call,
tracks that speed: a call's wall time times ``NOMINAL_S`` over the loop's
time is its wall time at one fixed machine speed.  The loop touches
nothing of the program under test, so a change in the program moves the
scaled time exactly as much as the wall time.

The loop is graph code of the package's kind, written here: it builds the
adjacency lists of a fixed random digraph (1224 nodes, 6000 arcs), walks
it depth-first and sorts its arcs.  Next to 141 ``analyze`` calls its time
followed theirs in proportion (log-log slope 0.95, correlation 0.82), and
it cut the spread of 40 s medians from 0.09 to 0.05.  A loop of dict
look-ups in a 200,000-entry table did about as well in proportion but
tracked less closely (correlation 0.69), and a small arithmetic loop
moved less than the commands did (slope 0.73).
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

# Time of one ``loop()`` at the reference speed: about its median on a
# 2-core x86-64 VM under CPython 3.  Scaled times are wall seconds at that speed.
NOMINAL_S = 0.005
PROBE_LOOPS = 3
NODES = 1224
_rng = random.Random(0)
ARCS = [(_rng.randrange(NODES), _rng.randrange(NODES)) for _ in range(6000)]


def loop() -> int:
    adjacency: dict[int, list[int]] = {}
    for source, target in ARCS:
        adjacency.setdefault(source, []).append(target)
    seen: set[int] = set()
    order = []
    for root in range(NODES):
        stack = [root]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            order.append(node)
            stack.extend(adjacency.get(node, ()))
    return len(order) + len(sorted(set(ARCS)))


def probe() -> float:
    """Median time of ``PROBE_LOOPS`` runs of ``loop()``, in seconds."""
    times = []
    for _ in range(PROBE_LOOPS):
        start = perf_counter()
        loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to seconds at the reference speed, given the
    probes taken just before and just after the measured interval."""
    return NOMINAL_S * 2 / (before + after)
