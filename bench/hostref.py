"""Host-speed reference: a fixed kernel that does not use boundedkv.

The benchmark's host is a small VM on a shared machine whose speed
drifts with its neighbours' load, by 20-40% over minutes and up to 2x
for a second at a time, on both vCPUs alike. No statistic of the
program's own timings can remove a drift of the whole host. So the
benchmark times one unit of this kernel right after every
`StreamSimulator.step` (outside the step's own clock reads), and every
timing is reported at the host speed `NOMINAL_UNIT_S` stands for: a step
time is divided by the median unit time around that step over the
nominal one, a pass's frame rate multiplied by the same ratio over the
pass. One unit per step, whatever the step's time, keeps the
interleaving independent of the host's speed. A change to boundedkv
moves the program's timings and not the kernel's, so it still shows; a
slower host moves both and cancels.

A unit is shaped like the heaviest part of one evicting step: gather
400 per-token rows with `np.stack`, a matmul and a softmax over the
result, and rank the scores through a dict. Of the kernels tried, this
one tracked the program's step times most closely. It never changes: a
change that edits it changes every reported timing.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median unit time on the host the bounds were set on (2-vCPU x86
# microVM, Python 3.11, numpy 2.4, OpenBLAS 0.3, one thread). It only
# fixes the scale of the reported timings.
NOMINAL_UNIT_S = 0.0007

# Units on each side of a step's own unit; their median scales the step's time.
HALF_WINDOW = 8


class HostReference:
    """One fixed unit of work, timed on demand."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._rows = [rng.standard_normal(64) for _ in range(400)]
        self._weights = rng.standard_normal((64, 64))
        self.unit_ns()  # first calls allocate; not sampled

    def unit_ns(self) -> int:
        """Run one unit; return its wall time in ns."""
        start = time.perf_counter_ns()
        keys = np.stack(self._rows)
        scores = keys @ self._weights
        probs = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        ranked = {i: float(x) for i, x in enumerate(probs[:, 0])}
        victims = sorted(ranked, key=ranked.__getitem__)[:32]
        elapsed = time.perf_counter_ns() - start
        if len(victims) != 32:
            raise RuntimeError("host reference kernel computed a wrong result")
        return elapsed


def factor(unit_ns: list[int]) -> float:
    """Median unit time over the nominal one: above 1, the host ran slow."""
    return statistics.median(unit_ns) / 1e9 / NOMINAL_UNIT_S


def local_factors(unit_ns: list[int]) -> list[float]:
    """The factor around each unit: median over HALF_WINDOW units each side."""
    n = len(unit_ns)
    return [factor(unit_ns[max(0, i - HALF_WINDOW):min(n, i + HALF_WINDOW + 1)]) for i in range(n)]
