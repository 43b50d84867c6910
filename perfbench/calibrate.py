"""Reference kernel that measures how fast the CPU runs at the moment.

On a shared host the same computation runs up to 1.7 times slower while
another tenant is busy (on the sibling hyperthread or in the last-level
cache; process CPU time rises with wall time, so the slowdown is not
descheduling).  The busy and quiet stretches last from a fraction of a second
to minutes, so a run lands in a mix of them, and run-to-run spreads of 0.2 to
0.3 of the median follow.

`Reference.sample()` runs a short fixed computation that does not involve
distrisk and returns the machine's slowness: seconds taken over seconds on
the reference machine in a quiet stretch.  The benchmark samples it just
before and just after every measured item and divides the item's time by
the mean of the two, so each time is read at the speed the machine had
around it.  On the reference machine busy and quiet stretches alternate
every few tens of milliseconds for much of the time, so one sample takes
about 15 ms: long enough to average over several of them, short enough to
sit close to the item.  The kernel does the kinds of work the operations
do: interpreter dispatch, sorting and hashing Python objects, and numpy
calls on small arrays.  The first two slow down somewhat less than the
operations in a busy stretch and the third somewhat more, so the mix tracks
them better than any one part.  The inputs are fixed, not drawn from the
run's seed, so every sample does the same work.
"""

from __future__ import annotations

import time

import numpy as np

PERF = time.perf_counter

# Seconds one sample takes on the reference machine (2-vCPU Intel Xeon VM at
# 2.0 GHz, Python 3.11, numpy 2.4) in a quiet stretch (10th percentile of
# 1500 samples).  Only the ratio to it matters: on another machine every
# normalised timing shifts by the same factor.
NOMINAL_S = 0.01373


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(20230905)
        self.pairs = [(float(v), i) for i, v in enumerate(rng.normal(size=1 << 14))]
        self.table = dict(enumerate(rng.normal(size=1 << 14).tolist()))
        self.cells = [(rng.random(n), np.round(rng.normal(size=n), 1))
                      for n in rng.integers(4, 13, size=160)]

    def _kernel(self) -> float:
        s = 0
        for i in range(60_000):
            s += i * i % 7
        sorted(self.pairs)
        total = 0.0
        for i in range(1 << 14):
            total += self.table[i]
        for w, x in self.cells:  # a Choquet-like sum per small cell
            order = np.argsort(x, kind="stable")
            cum = np.cumsum(w[order]) / w.sum()
            total -= float(np.dot(x[order], np.diff(cum * cum, prepend=0.0)))
        return total + s

    def sample(self) -> float:
        """Slowness relative to the reference machine in a quiet stretch."""
        t0 = PERF()
        self._kernel()
        return (PERF() - t0) / NOMINAL_S
