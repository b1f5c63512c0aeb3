"""How fast the host runs Python code right now, gauged next to the workload.

The shared 2-vCPU host this was built on runs the same code 1.5-2x slower
for spells of seconds to many minutes, so two runs of identical code can
differ by that much.  Every worker times a fixed stdlib reference between
its operations (never inside one), and a run's timings are scaled by
NOMINAL_S over the median of all its reference samples: the time the
workload would take on a host where the reference takes NOMINAL_S.  The
reference shares no code with the package, so a change to the package
moves the scaled figures as much as the measured ones.
"""

from __future__ import annotations

import gc
import time

# The reference's median on that host in a quiet spell (0.9-1.1 ms).
NOMINAL_S = 1e-3
# A worker takes a sample between operations once this long has passed
# since the last one.
EVERY_S = 0.03
BURST = 5


def reference() -> int:
    """Breadth-first search of the 720 permutations of six points under two
    generators: tuples, a dict and lists, as in the package's own code."""
    gens = ((1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0))
    start = (0, 1, 2, 3, 4, 5)
    seen = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple([p[i] for i in g])
                if q not in seen:
                    seen[q] = (p, g)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


class Gauge:
    """Reference samples of one process, in seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        # without collections, the time does not depend on the package's heap
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference()
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)
        if enabled:
            gc.enable()

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample()

    def tick(self) -> None:
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()
