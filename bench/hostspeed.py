"""A fixed reference kernel that measures how fast the host runs right now.

On shared hosts the same process, on-CPU throughout, can run at speeds
up to 1.8x apart for tens of seconds to minutes at a time: the 2-core
x86_64 host this benchmark was written on moved between about 100 and 185
fulmar `occupancy_distribution` calls per second in steps lasting that
long. No run length averages such steps away, so the benchmark times this
kernel between rounds of its workload and rescales every timing to the
speed at which the kernel's parts take REFERENCE_S.

The kernel uses numpy alone and mixes the kinds of work the workloads do:
an interpreter-bound Python loop, small-matrix numpy calls dispatched one
by one, medium matrix products, bulk random draws, and steps of a
(1000 x 32) occupancy table as `occupancy_distribution` takes them. The benchmark never
changes it, so a faster or slower stagedwell moves the rescaled figures
and leaves the kernel's time alone.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds one pass of each part of the kernel takes at the reference
# speed: the fast state of the host above (Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31, one BLAS thread).
REFERENCE_S = {"python": 0.00040, "small": 0.00024, "medium": 0.00031, "draws": 0.00044, "transport": 0.00055}
# Which parts time which kind of operation. On the host above, a slow
# state slows interpreter-bound code (Python loops, numpy calls on tiny
# arrays) far more than array-bound code: across 20-s runs the raw p50 of
# long_horizon (moments and tables at d = 16 and 32) moved 28-38% while
# its raw p90 (occupancy_distribution on (t x d) tables) moved 8-20%.
# So each operation is rescaled by the parts that match the work that
# dominates it; the table steps alone track occupancy_distribution, which
# medium in-cache products did not.
KINDS = {
    "interp": ("python", "small"),
    "array": ("transport",),
    "mixed": ("python", "small", "medium", "draws"),
}
PASSES = 3

PY_STEPS = 5_000
SMALL_STEPS = 150
MEDIUM_PRODUCTS = 30
DRAW_BATCHES = 2
DRAWS = 10_000
TRANSPORT_STEPS = 3


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._small = rng.random((4, 4)) / 4.0
        self._medium = rng.random((24, 24)) / 24.0
        self._rows = rng.random((300, 24))
        self._table = rng.random((1000, 32))
        self._target = (rng.random(32) < 0.5).astype(float)
        self._transport = rng.random((32, 32)) / 32.0
        self._probs = np.array([0.3, 0.3, 0.4])

    def _pass(self) -> dict:
        clock = time.perf_counter
        t0 = clock()
        x = 0
        for i in range(PY_STEPS):
            x = (x * 31 + i) % 1_000_003
        t1 = clock()
        w = np.ones(4)
        for _ in range(SMALL_STEPS):
            w = self._small @ w * 1.0
        t2 = clock()
        for _ in range(MEDIUM_PRODUCTS):
            self._rows @ self._medium.T
        t3 = clock()
        draws = np.random.default_rng(7)
        for _ in range(DRAW_BATCHES):
            draws.choice(3, size=DRAWS, p=self._probs)
        t4 = clock()
        for _ in range(TRANSPORT_STEPS):
            # one step of an occupancy table, at t = 1000 and d = 32
            moved = np.zeros((self._table.shape[0] + 1, self._table.shape[1]))
            moved[:-1] += self._table * (1.0 - self._target)
            moved[1:] += self._table * self._target
            float((moved @ self._transport.T).sum())
        t5 = clock()
        return {"python": t1 - t0, "small": t2 - t1, "medium": t3 - t2, "draws": t4 - t3, "transport": t5 - t4}

    def run(self) -> dict:
        """Time the kernel; return the host's speed for each kind of operation.

        A kind's speed is its parts' reference time over their measured
        time, taking the median of PASSES passes so that a pass an
        unrelated interruption stretched is ignored. Speed 0.6 means the
        host runs that kind of work at 60% of the reference speed, so a
        timing taken now is multiplied by 0.6 to express it at that speed.
        """
        passes = [self._pass() for _ in range(PASSES)]
        speeds = {}
        for kind, parts in KINDS.items():
            times = sorted(sum(p[part] for part in parts) for p in passes)
            speeds[kind] = sum(REFERENCE_S[part] for part in parts) / times[PASSES // 2]
        return speeds
