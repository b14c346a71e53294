"""A fixed calibration kernel that measures how fast the machine runs now.

On a shared host the same work can run 1.5x slower for minutes at a time.
The kernel mixes what a muxim solve spends its time on: small numpy
operations driven from a Python loop (the reference simulator's closure on
a fixed small multiplex) and pure-Python heap and dict work.  Timing it next
to each solve gives the machine's current speed, and a wall time scaled by
REFERENCE_SECONDS / kernel time reads as seconds on a machine where the
kernel takes REFERENCE_SECONDS.  The kernel is the benchmark's own code, so
a change to the program cannot move it.
"""

from __future__ import annotations

import heapq
from time import perf_counter

import numpy as np

import netgen
import refsim

# the kernel's time on the machine the reference figures in README.md come
# from, in its fast phase; it only sets the unit of the scaled times
REFERENCE_SECONDS = 0.3


class Kernel:
    def __init__(self):
        self.net = netgen.generate([30, 45, 60], 300, 0.5,
                                   [netgen.IC, netgen.LT, netgen.IC], 1)
        self.live = refsim.sample_live(self.net, 40, np.random.default_rng(0))
        self.seeds = [np.random.default_rng(i).choice(self.net.num_nodes, 3,
                                                      replace=False).tolist()
                      for i in range(100)]

    def time(self) -> float:
        """Seconds to run the fixed work once."""
        t = perf_counter()
        for seeds in self.seeds:
            refsim.closure(self.net, seeds, self.live, 40)
        heap: list[tuple[int, int]] = []
        totals: dict[int, int] = {}
        for i in range(150000):  # a bounded heap keeps the kernel's memory small
            heapq.heappush(heap, ((i * 7919) % 1009, i))
            if len(heap) > 500:
                key, value = heapq.heappop(heap)
                totals[key] = totals.get(key, 0) + value
        return perf_counter() - t
