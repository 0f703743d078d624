"""Joint stage/occupancy bookkeeping and lifetime occupancy statistics.

The central object is the table p(a, n): the probability of being alive at
time n, in each stage, having spent a of the elapsed steps inside a chosen
target set of stages. Occupancy is counted per step spent in the set before
the transition fires, so an individual starting inside the set at time
`start` already accrues that step. One step of the model transports the
table by

    p(., n+1) = B(n) applied to [ shift-up of the target rows of p(., n)
                                  plus the unshifted non-target rows ]

which is iterated here in vectorized form. Summing absorption losses over
time yields the distribution of the lifetime occupancy total, and the same
transport acting on a stack of weighted tables yields its raw moments
without ever forming the full distribution.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .chain import (
    DEFAULT_MAX_HORIZON,
    DEFAULT_TAIL_TOL,
    DiscreteDistribution,
    Schedule,
    StateSpace,
    _recurrence,
    validate_distribution,
)
from .errors import NegativeVarianceError

# Roundoff allowance when deciding that a variance is genuinely negative
# rather than a victim of cancellation between nearly equal moments.
VARIANCE_TOL = 1e-12


@dataclass(frozen=True)
class TargetSet:
    """Subset of the d stages whose occupancy time is being counted."""

    d: int
    members: frozenset[int]
    _mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = int(self.d)
        members = frozenset(int(i) for i in self.members)
        if d < 1:
            raise ValueError("need at least one stage")
        bad = [i for i in members if not 0 <= i < d]
        if bad:
            raise ValueError(f"stage indices {bad} outside 0..{d - 1}")
        mask = np.zeros(d)
        for i in members:
            mask[i] = 1.0
        mask.flags.writeable = False
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_mask", mask)

    @classmethod
    def from_labels(cls, space: StateSpace, labels) -> "TargetSet":
        return cls(space.d, frozenset(space.index(lab) for lab in labels))

    @classmethod
    def none(cls, d: int) -> "TargetSet":
        return cls(d, frozenset())

    @classmethod
    def all_states(cls, d: int) -> "TargetSet":
        return cls(d, frozenset(range(int(d))))

    @property
    def mask(self) -> np.ndarray:
        """Length-d 0/1 vector marking member stages."""
        return self._mask

    @property
    def indicator(self) -> np.ndarray:
        """d x d diagonal projection onto the member stages."""
        return np.diag(self._mask)

    def __contains__(self, index) -> bool:
        return int(index) in self.members


class OccupancyDistribution(DiscreteDistribution):
    """Distribution of total steps spent in a target set; support starts at 0."""


def _transport(rows: np.ndarray, r: np.ndarray) -> np.ndarray:
    """One occupancy-count update: target mass moves up one row in a."""
    out = np.zeros((rows.shape[0] + 1, rows.shape[1]))
    out[:-1] += rows * (1.0 - r)
    out[1:] += rows * r
    return out


def _occupancy_start(schedule: Schedule, initial, target: TargetSet) -> np.ndarray:
    """Validated initial distribution as the one-row table p(0, start)."""
    v = validate_distribution(initial, schedule.d)
    if target.d != schedule.d:
        raise ValueError(f"target set is over {target.d} stages, schedule over {schedule.d}")
    return v[np.newaxis, :]


@dataclass(frozen=True, eq=False)
class JointOccupancyTable:
    """Tables p(a, n) for n = start .. start + horizon.

    values[t] has shape (t + 1, d): row a holds the per-stage probabilities
    of being alive at time start + t with occupancy count a. Entries with
    a > t are structurally zero and not stored.
    """

    start: int
    values: tuple[np.ndarray, ...]

    @property
    def horizon(self) -> int:
        return len(self.values) - 1

    @property
    def d(self) -> int:
        return self.values[0].shape[1]

    def _elapsed(self, n: int) -> int:
        t = int(n) - self.start
        if not 0 <= t <= self.horizon:
            raise ValueError(f"time {n} outside table range {self.start}..{self.start + self.horizon}")
        return t

    def joint(self, a: int, n: int) -> np.ndarray:
        """Per-stage probabilities of (occupancy == a, alive) at time n."""
        t = self._elapsed(n)
        a = int(a)
        if a < 0 or a > t:
            return np.zeros(self.d)
        return self.values[t][a]

    def mass(self, n: int) -> float:
        """Total surviving probability at time n."""
        return float(self.values[self._elapsed(n)].sum())

    def occupancy_marginal(self, n: int) -> np.ndarray:
        """P{occupancy == a, alive at n} for a = 0 .. n - start."""
        return self.values[self._elapsed(n)].sum(axis=1)

    def moment_vector(self, k: int, n: int) -> np.ndarray:
        """Per-stage k-th occupancy moments sum_a a^k p(a, n)."""
        rows = self.values[self._elapsed(n)]
        weights = np.arange(rows.shape[0], dtype=float) ** k
        return weights @ rows


def evolve_joint(
    schedule: Schedule,
    initial,
    target: TargetSet,
    start: int = 0,
    tail_tol: float = DEFAULT_TAIL_TOL,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> JointOccupancyTable:
    """Run the joint recurrence from p(0, start) = initial and keep every table.

    Stops once the surviving mass falls below tail_tol (the final,
    below-tolerance table is included); raises NonAbsorbingError if that has
    not happened within max_horizon steps.
    """
    r = target.mask
    tables = []
    final = _recurrence(
        schedule, _occupancy_start(schedule, initial, target), start, tail_tol, max_horizon,
        lift=lambda rows: _transport(rows, r), keep=lambda rows, *_: tables.append(rows),
    )
    tables.append(final)
    for tab in tables:
        tab.flags.writeable = False
    return JointOccupancyTable(start=int(start), values=tuple(tables))


def occupancy_distribution(
    schedule: Schedule,
    initial,
    target: TargetSet,
    start: int = 0,
    tail_tol: float = DEFAULT_TAIL_TOL,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> OccupancyDistribution:
    """Distribution of the lifetime number of steps spent in `target`.

    Accumulates, over each step, the occupancy-resolved absorption losses
    b(n)' applied to the transported table, so the atoms need no final pass
    over a stored table stack. Truncation mirrors lifetime_distribution: the
    n-sum stops once surviving mass is below tail_tol and the neglected mass
    is reported as the tail (each stored atom is exact up to that tail).
    """
    r = target.mask
    acc = np.zeros(64)

    def keep(rows, moved, b):
        nonlocal acc
        if acc.size < moved.shape[0]:
            acc = np.concatenate([acc, np.zeros(acc.size)])
        acc[: moved.shape[0]] += moved @ b

    rows = _recurrence(
        schedule, _occupancy_start(schedule, initial, target), start, tail_tol, max_horizon,
        lift=lambda rows: _transport(rows, r), keep=keep,
    )
    probs = {a: float(p) for a, p in enumerate(acc[: rows.shape[0]]) if p != 0.0}
    return OccupancyDistribution(probs, tail_mass=float(rows.sum()))


def _binomial_shift(order: int) -> np.ndarray:
    """Strictly lower-triangular matrix with L[k, k-j] = C(k, j), j = 1..k."""
    if math.comb(order, order // 2) > sys.float_info.max:
        raise ValueError(f"binomial weights of order {order} overflow float64")
    L = np.zeros((order + 1, order + 1))
    for k in range(1, order + 1):
        for j in range(1, k + 1):
            L[k, k - j] = math.comb(k, j)
    return L


def _moment_recurrence(schedule, initial, target, start, order, tail_tol, max_horizon, keep):
    """Run the moment stack M, row k holding m_k(n), from M[0] = initial,
    with A = M + (L @ M) * r lifting M before each transition."""
    M = np.zeros((order + 1, schedule.d))
    M[0] = _occupancy_start(schedule, initial, target)[0]
    shift = _binomial_shift(order)
    r = target.mask
    return _recurrence(schedule, M, start, tail_tol, max_horizon, order=order, keep=keep,
                       lift=lambda M: M + (shift @ M) * r, mass=lambda M: M[0].sum())


@dataclass(frozen=True, eq=False)
class MomentTable:
    """Per-stage raw occupancy moments m_k(n) for k = 0..order, n in range.

    values has shape (horizon + 1, order + 1, d); values[t, k] is the vector
    whose j-th entry is E[occupancy^k; alive in stage j at time start + t]
    (k = 0 gives the surviving-mass vector).
    """

    start: int
    order: int
    values: np.ndarray

    @property
    def horizon(self) -> int:
        return self.values.shape[0] - 1

    def vector(self, k: int, n: int) -> np.ndarray:
        t = int(n) - self.start
        if not 0 <= t <= self.horizon:
            raise ValueError(f"time {n} outside table range {self.start}..{self.start + self.horizon}")
        if not 0 <= int(k) <= self.order:
            raise ValueError(f"moment order {k} outside 0..{self.order}")
        return self.values[t, int(k)]


def moment_tables(
    schedule: Schedule,
    initial,
    target: TargetSet,
    start: int = 0,
    order: int = 2,
    tail_tol: float = DEFAULT_TAIL_TOL,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> MomentTable:
    """Iterate the stacked moment recurrences and keep every step.

    The stack update is A = M + (L @ M) * r followed by M <- A B', where
    row k of M holds m_k(n) and L carries the binomial weights tying lower
    moments into higher ones whenever a target stage is occupied.

    Truncation is moment-aware: because survivors at time t can still add
    occupancy totals up to about t to the k-th moment with weight t^k, the
    loop runs until the surviving mass times (t+1)^order drops below
    tail_tol, not just the mass alone. The neglected contribution to every
    reported moment is then of order tail_tol rather than
    tail_tol * horizon^order.
    """
    order = int(order)
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    stack = []
    final = _moment_recurrence(schedule, initial, target, start, order, tail_tol, max_horizon,
                               keep=lambda M, *_: stack.append(M))
    values = np.array(stack + [final])
    values.flags.writeable = False
    return MomentTable(start=int(start), order=order, values=values)


def occupancy_moments(
    schedule: Schedule,
    initial,
    target: TargetSet,
    start: int = 0,
    order: int = 2,
    tail_tol: float = DEFAULT_TAIL_TOL,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> list[float]:
    """Raw moments E[occupancy^k], k = 1..order, without storing tables.

    Streams the same stacked recurrence as moment_tables, adding each step's
    absorption losses directly into the moment accumulators, and uses the
    same moment-aware stopping rule (see moment_tables), so the truncation
    error in each reported moment is of order tail_tol.
    """
    order = int(order)
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    acc = np.zeros(order + 1)

    def keep(M, A, b):
        acc[:] += A @ b

    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        _moment_recurrence(schedule, initial, target, start, order, tail_tol, max_horizon, keep)
    if not np.isfinite(acc).all():
        raise ValueError(f"occupancy moments up to order {order} overflow float64")
    return [float(x) for x in acc[1:]]


@dataclass(frozen=True)
class SummaryStats:
    """Mean, variance and coefficient of variation of one occupancy total.

    cv is NaN when the mean is zero (undefined rather than infinite).
    """

    mean: float
    variance: float
    cv: float


def summary_stats(first_moment: float, second_moment: float) -> SummaryStats:
    """Mean/variance/CV from the first two raw moments."""
    first = float(first_moment)
    variance = float(second_moment) - first * first
    if variance < -VARIANCE_TOL:
        raise NegativeVarianceError(first_moment, second_moment)
    variance = max(variance, 0.0)
    cv = math.sqrt(variance) / first if first != 0.0 else math.nan
    return SummaryStats(mean=first, variance=variance, cv=cv)
