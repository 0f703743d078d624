"""Monte Carlo trajectory sampling.

This module is an independent cross-check on the analytic recurrences: it
never touches the occupancy tables, only simulates individuals one step at a
time with inversion sampling. Lives are simulated a block at a time, one
schedule step at a time, in two phases: while many of a block's lives
last, each step moves them all as arrays; the last few step as Python
scalars. Both phases read the same draws and pick the same stages, so
where they meet changes no outcome.

Seeding contract: trajectory g of a run is row g % BLOCK of block g // BLOCK.
Block b draws from np.random.default_rng((seed, b)): one random(BLOCK) for
the initial stages, then one random(BLOCK) per step while any requested row
lives, row r using entry r of each draw. A trajectory's outcome therefore
depends only on (seed, g), whichever rows of its block are simulated with
it, so a run split into [0, k) and [k, n) at any k merges to exactly the
single-run result.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import math

import numpy as np

from .chain import DEFAULT_MAX_HORIZON, DiscreteDistribution, Schedule, _integer
from .errors import NonTerminatingError
from .occupancy import TargetSet, _occupancy_start

# Trajectories per generator stream; part of the seeding contract. It divides
# the decimal sample counts in use (2000, 10**5, 10**6) into whole blocks.
BLOCK = 1000

# Live rows at which a block turns from array steps to scalar ones. An array
# step costs about a dozen numpy calls whatever its rows; a scalar step one
# draw and a few hundred ns a row. On the fulmar schedules 8 to 16 ran alike;
# 24 and 32 gained less, and 48 nothing.
_SCALAR_ROWS = 16


@dataclass(frozen=True)
class TrajectoryOutcome:
    """One simulated individual: steps lived, steps spent in the target set,
    and optionally the visited stage sequence (one entry per step lived)."""

    lifetime: int
    occupancy: int
    path: tuple[int, ...] | None = None


def _prepare(schedule: Schedule, initial, target: TargetSet):
    """Validated inputs of the block kernel: (thresholds, inc, vcum).

    thresholds[k, j, i] is the probability that matrix k moves stage j to a
    stage <= i, and +inf at i = d. A uniform u selects the first stage i
    with u < thresholds[k, j, i], which is d, absorption, when u falls in
    the column's deficit from 1. Row j = d (zeros, then +inf) keeps a dead
    row in stage d.
    inc[j] adds one lifetime step (bit 32 up) and the target indicator
    (low bits) to a row's packed counter, so one gather-add per step
    advances both counts; inc[d] is 0. vcum is the cumulative initial
    distribution.
    """
    v = _occupancy_start(schedule, initial, target)
    d = schedule.d
    thresholds = np.full((len(schedule.matrices), d + 1, d + 1), np.inf)
    thresholds[:, :d, :d] = np.cumsum(np.stack(schedule.matrices), axis=1).transpose(0, 2, 1)
    thresholds[:, d, :d] = 0.0
    inc = np.zeros(d + 1, dtype=np.int64)
    inc[:d] = [(1 << 32) + (j in target.members) for j in range(d)]
    return thresholds, inc, np.cumsum(v)


def _simulate_rows(schedule, thresholds, inc, vcum, start, rng, width, rows, step_cap, path=None):
    """Simulate the lives `rows` (ascending, each < width) of one block.

    Draws one rng.random(width) for the initial stages and one per step
    while any of `rows` lives; row r uses entry r of each draw. Returns
    (lifetime, occupancy), integer arrays aligned with `rows`.

    A block runs in two phases on the same draws. While more than
    _SCALAR_ROWS rows live, every step moves them all as arrays, a dozen
    numpy calls whatever their number; dead rows sit in stage d until at
    least half the working rows are dead, then are compacted away. The few
    rows left then step as Python scalars: a row in stage j moves to
    bisect_right(thresholds[k, j], u), the first stage i with
    u < thresholds[k, j, i], which the array step's argmin also picks, as
    the thresholds are nondecreasing in i; so the outcomes do not depend
    on where the phases meet. If `path` is a list, it receives the live
    rows' stages at each scalar step, which for a width-1 block, scalar
    from its first step, is the life's path.
    """
    d = vcum.size
    u = rng.random(width)
    state = np.minimum(np.searchsorted(vcum, u if rows.size == width else u[rows], side="right"), d - 1)
    packed = np.empty(rows.size, dtype=np.int64)
    pos = np.arange(rows.size)
    acc = np.zeros(rows.size, dtype=np.int64)
    indices = schedule.indices(start)
    step = 0
    while rows.size > _SCALAR_ROWS:
        if step >= step_cap:
            raise NonTerminatingError(step_cap)
        u = rng.random(width)
        if rows.size < width:
            u = u[rows]
        acc += inc[state]
        edges = thresholds[next(indices)].take(state, axis=0)
        state = (u[:, None] >= edges).argmin(axis=1)  # first i with u < edge
        step += 1
        live = state < d
        n = np.count_nonzero(live)
        if 2 * n <= state.size or n <= _SCALAR_ROWS:
            dead = ~live
            packed[pos[dead]] = acc[dead]
            pos, rows, acc, state = pos[live], rows[live], acc[live], state[live]
    tables, inc = thresholds.tolist(), inc.tolist()
    pos, acc, state = pos.tolist(), acc.tolist(), state.tolist()
    while state:
        if step >= step_cap:
            raise NonTerminatingError(step_cap)
        if path is not None:
            path.append(state)
        u = rng.random(width)[rows].tolist()
        table = tables[next(indices)]
        acc = [a + inc[j] for a, j in zip(acc, state)]
        state = [bisect_right(table[j], x) for j, x in zip(state, u)]
        step += 1
        if d in state:
            for p, a, j in zip(pos, acc, state):
                if j == d:
                    packed[p] = a
            keep = [i for i, j in enumerate(state) if j < d]
            rows = rows[keep]
            pos, acc, state = [pos[i] for i in keep], [acc[i] for i in keep], [state[i] for i in keep]
    return packed >> 32, packed & 0xFFFFFFFF


def simulate_trajectory(
    schedule: Schedule,
    initial,
    target: TargetSet,
    rng: np.random.Generator,
    start: int = 0,
    record_path: bool = False,
    step_cap: int = DEFAULT_MAX_HORIZON,
) -> TrajectoryOutcome:
    """Simulate one individual from time `start` until absorption.

    Runs the block kernel on a block of width 1, which steps as scalars
    from the first step, so it consumes exactly one uniform for the initial
    stage and one per step lived. Occupancy counts the steps whose
    pre-transition stage lies in the target set, matching the analytic
    convention.
    """
    start, step_cap = _integer(start, "start"), _integer(step_cap, "step_cap", 0)
    thresholds, inc, vcum = _prepare(schedule, initial, target)
    path = [] if record_path else None
    lifetime, occupancy = _simulate_rows(
        schedule, thresholds, inc, vcum, start, rng, 1, np.zeros(1, dtype=np.intp), step_cap, path,
    )
    return TrajectoryOutcome(
        lifetime=int(lifetime[0]),
        occupancy=int(occupancy[0]),
        path=tuple(s[0] for s in path) if record_path else None,
    )


@dataclass(frozen=True)
class EmpiricalSummary:
    """Histogram summary of a batch of simulated trajectories.

    Counts are exact integers, and the derived statistics are computed from
    integer histogram sums, so merging two batches and then summarizing gives
    bit-identical results to summarizing the merged run directly.
    """

    n_samples: int
    occupancy_counts: dict[int, int]
    lifetime_counts: dict[int, int]

    def _sums(self) -> tuple[int, int]:
        s1 = sum(a * c for a, c in self.occupancy_counts.items())
        s2 = sum(a * a * c for a, c in self.occupancy_counts.items())
        return s1, s2

    @property
    def mean(self) -> float:
        s1, _ = self._sums()
        return s1 / self.n_samples

    @property
    def variance(self) -> float:
        """Sample variance of the occupancy totals (ddof 1; 0.0 for one sample)."""
        if self.n_samples < 2:
            return 0.0
        s1, s2 = self._sums()
        return (s2 - s1 * s1 / self.n_samples) / (self.n_samples - 1)

    @property
    def std_error(self) -> float:
        return math.sqrt(self.variance / self.n_samples)

    def merge(self, other: "EmpiricalSummary") -> "EmpiricalSummary":
        occ = Counter(self.occupancy_counts)
        occ.update(other.occupancy_counts)
        life = Counter(self.lifetime_counts)
        life.update(other.lifetime_counts)
        return EmpiricalSummary(
            n_samples=self.n_samples + other.n_samples,
            occupancy_counts=dict(occ),
            lifetime_counts=dict(life),
        )


def _tally(counts: Counter, values: np.ndarray) -> None:
    # bincount counts a full block's values in a fraction of np.unique's
    # sort, but allocates a counter for every value up to the largest: it
    # runs only where that is a few counters per value
    if values.max() < 4 * values.size:
        n = np.bincount(values)
        keys = np.flatnonzero(n)
        n = n[keys]
    else:
        keys, n = np.unique(values, return_counts=True)
    counts.update(dict(zip(keys.tolist(), n.tolist())))


def empirical_distribution(
    schedule: Schedule,
    initial,
    target: TargetSet,
    n_samples: int,
    seed: int = 0,
    start: int = 0,
    first_index: int = 0,
    step_cap: int = DEFAULT_MAX_HORIZON,
) -> EmpiricalSummary:
    """Simulate n_samples trajectories and histogram their outcomes.

    The run covers global trajectory indices first_index .. first_index +
    n_samples - 1. Trajectory g is row g % BLOCK of block g // BLOCK, and
    block b draws from np.random.default_rng((seed, b)) as described in the
    module docstring; only the requested rows of a block are simulated. An
    outcome depends only on (seed, g), so a run split across workers as
    [0, k) and [k, n), for any k, merges to exactly the single-run result.

    Memory stays proportional to BLOCK, not to n_samples. The step cap
    applies to a block: NonTerminatingError is raised once any requested
    row is still alive after step_cap steps. The default cap is the
    analytic engines' default max_horizon, past which a life has
    probability below tail_tol wherever those engines converge with their
    defaults. A block that never dies pays for stepping its rows that far:
    about 3 s for a full block and 0.8 s for one row, which steps as
    scalars, at the default cap on a 2-core x86_64 host.
    """
    n_samples, lo = _integer(n_samples, "n_samples", 1), _integer(first_index, "first_index", 0)
    start, seed, step_cap = _integer(start, "start"), _integer(seed, "seed"), _integer(step_cap, "step_cap", 0)
    thresholds, inc, vcum = _prepare(schedule, initial, target)
    hi = lo + n_samples
    occ: Counter = Counter()
    life: Counter = Counter()
    for block in range(lo // BLOCK, (hi - 1) // BLOCK + 1):
        base = block * BLOCK
        rows = np.arange(max(lo - base, 0), min(hi - base, BLOCK))
        lifetime, occupancy = _simulate_rows(
            schedule, thresholds, inc, vcum, start, np.random.default_rng((seed, block)), BLOCK, rows, step_cap,
        )
        _tally(life, lifetime)
        _tally(occ, occupancy)
    return EmpiricalSummary(
        n_samples=n_samples,
        occupancy_counts=dict(occ),
        lifetime_counts=dict(life),
    )


def total_variation(
    dist: DiscreteDistribution,
    counts: Mapping[int, int],
    n_samples: int,
) -> float:
    """Total variation distance between a truncated analytic distribution and
    an empirical histogram, charging the analytic tail mass as unmatched."""
    n_samples = _integer(n_samples, "n_samples", 1)
    points = set(dist.probs) | set(counts)
    diff = sum(abs(dist.pmf(a) - counts.get(a, 0) / n_samples) for a in points)
    return 0.5 * (diff + dist.tail_mass)
