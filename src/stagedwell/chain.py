"""Core machinery for time-varying absorbing chains on a finite stage space.

A model is a sequence of column-substochastic matrices. Entry (i, j) of the
matrix acting at step n is the probability that an individual in stage j at
time n is in stage i at time n+1; the deficit of column j from 1 is the
probability of being absorbed (dying) during that step. Column vectors of
stage probabilities are propagated by left multiplication, w(n+1) = B(n) w(n).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ColumnSumError,
    InvalidDistributionError,
    NegativeEntryError,
    NonAbsorbingError,
    NonFiniteEntryError,
    NonSquareMatrixError,
    ScheduleExhaustedError,
    UnknownLabelError,
)

DEFAULT_TAIL_TOL = 1e-12
DEFAULT_MAX_HORIZON = 100_000

# Slack allowed on column sums and probability-vector sums. Published
# demographic rates are printed to five or six decimals, so anything past
# 1e-9 is a genuine violation rather than rounding of the source values.
COLUMN_SUM_TOL = 1e-9

EXTENSIONS = ("hold_last", "cycle", "error")


@dataclass(frozen=True)
class StateSpace:
    """Ordered, distinct labels for the transient stages."""

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        if not labels:
            raise ValueError("a state space needs at least one stage")
        if len(set(labels)) != len(labels):
            raise ValueError(f"stage labels must be distinct, got {labels}")
        object.__setattr__(self, "labels", labels)

    @property
    def d(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        """0-based index of a stage label."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabelError(label, self.labels) from None

    @classmethod
    def numbered(cls, d: int) -> "StateSpace":
        return cls(tuple(f"s{i}" for i in range(int(d))))


def validate_matrix(raw) -> np.ndarray:
    """Check that an array is a square column-substochastic matrix.

    Returns a read-only float64 copy. Raises a MatrixValidationError subclass
    naming the first offending entry or column; column indices are 0-based.
    """
    m = np.array(raw, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquareMatrixError(m.shape)
    if not np.isfinite(m).all():
        i, j = np.argwhere(~np.isfinite(m))[0]
        raise NonFiniteEntryError(i, j, m[i, j])
    if (m < 0).any():
        i, j = np.argwhere(m < 0)[0]
        raise NegativeEntryError(i, j, m[i, j])
    sums = m.sum(axis=0)
    worst = int(np.argmax(sums))
    if sums[worst] > 1.0 + COLUMN_SUM_TOL:
        raise ColumnSumError(worst, sums[worst])
    m.flags.writeable = False
    return m


def validate_distribution(raw, d: int | None = None) -> np.ndarray:
    """Check that a vector is a probability distribution over d stages.

    Returns a read-only float64 copy.
    """
    try:
        v = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidDistributionError(f"not a numeric vector: {exc}") from None
    if v.ndim != 1:
        raise InvalidDistributionError(f"expected a 1-d vector, got shape {v.shape}")
    if d is not None and v.size != d:
        raise InvalidDistributionError(f"expected length {d}, got {v.size}")
    if not np.isfinite(v).all():
        raise InvalidDistributionError("entries must be finite")
    if (v < 0).any() or (v > 1).any():
        k = int(np.flatnonzero((v < 0) | (v > 1))[0])
        raise InvalidDistributionError(f"entry {k} = {v[k]} is outside [0, 1]")
    total = float(v.sum())
    if abs(total - 1.0) > COLUMN_SUM_TOL:
        raise InvalidDistributionError(f"entries sum to {total}, not 1")
    v.flags.writeable = False
    return v


def absorption_vector(matrix: np.ndarray) -> np.ndarray:
    """Per-stage one-step absorption probabilities: 1 minus each column sum.

    A tiny negative deficit from a column summing to 1 + roundoff is clamped
    to zero so the result is always a probability vector.
    """
    b = np.maximum(1.0 - matrix.sum(axis=0), 0.0)
    b.flags.writeable = False
    return b


@dataclass(frozen=True, eq=False)
class Schedule:
    """Rule assigning a transition matrix to every step n >= 0.

    `sequence` holds indices into `matrices` for the first len(sequence)
    steps. Past that prefix the schedule extends by `extension`:

    - "hold_last": repeat the matrix of the final prefix step forever,
    - "cycle": repeat the whole prefix periodically,
    - "error": raise ScheduleExhaustedError.

    Matrices are validated and absorption vectors precomputed on
    construction; instances are immutable.
    """

    matrices: tuple[np.ndarray, ...]
    sequence: np.ndarray
    extension: str = "hold_last"
    _absorptions: tuple = field(init=False, repr=False)

    def __post_init__(self):
        mats = tuple(validate_matrix(m) for m in self.matrices)
        if not mats:
            raise ValueError("a schedule needs at least one matrix")
        d = mats[0].shape[0]
        if any(m.shape != (d, d) for m in mats):
            raise ValueError("all scheduled matrices must share one shape")
        seq = np.array(self.sequence, dtype=np.intp)
        if seq.ndim != 1 or seq.size == 0:
            raise ValueError("sequence must be a non-empty 1-d list of matrix indices")
        if seq.min() < 0 or seq.max() >= len(mats):
            raise ValueError(
                f"sequence refers to matrix {int(seq.max())} but only "
                f"{len(mats)} matrices are defined"
            )
        if self.extension not in EXTENSIONS:
            raise ValueError(f"extension must be one of {EXTENSIONS}, got {self.extension!r}")
        seq.flags.writeable = False
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "sequence", seq)
        object.__setattr__(self, "_absorptions", tuple(absorption_vector(m) for m in mats))

    @classmethod
    def constant(cls, matrix) -> "Schedule":
        """The same matrix at every step."""
        return cls((matrix,), np.zeros(1, dtype=np.intp), "hold_last")

    @classmethod
    def explicit(cls, matrices, sequence, extension: str = "hold_last") -> "Schedule":
        return cls(tuple(matrices), sequence, extension)

    @classmethod
    def periodic(cls, matrices, sequence) -> "Schedule":
        """Repeat `sequence` forever."""
        return cls(tuple(matrices), sequence, "cycle")

    @property
    def d(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def prefix_length(self) -> int:
        return int(self.sequence.size)

    def index_at(self, n: int) -> int:
        """Index into `matrices` of the matrix acting at step n."""
        n = int(n)
        if n < 0:
            raise ValueError(f"time index must be nonnegative, got {n}")
        length = self.sequence.size
        if n < length:
            return int(self.sequence[n])
        if self.extension == "hold_last":
            return int(self.sequence[-1])
        if self.extension == "cycle":
            return int(self.sequence[n % length])
        raise ScheduleExhaustedError(n, length)

    def matrix_at(self, n: int) -> np.ndarray:
        return self.matrices[self.index_at(n)]

    def absorption_at(self, n: int) -> np.ndarray:
        return self._absorptions[self.index_at(n)]


def transition_operator(schedule: Schedule, n: int, m: int = 0) -> np.ndarray:
    """Product B(n-1) ... B(m) mapping stage probabilities at m to those at n.

    With n == m this is the identity. Multiplying two operators with matching
    inner times composes them: transition_operator(s, n, m) @
    transition_operator(s, m, k) equals transition_operator(s, n, k).
    """
    n, m = int(n), int(m)
    if m < 0 or n < m:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    phi = np.eye(schedule.d)
    for k in range(m, n):
        phi = schedule.matrix_at(k) @ phi
    return phi


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability table over nonnegative integers, with truncated tail mass.

    `probs` maps support points to probabilities (exact zeros are omitted);
    `tail_mass` is the probability neglected past the truncation horizon, so
    the stored probabilities plus the tail account for all the mass.
    """

    probs: dict[int, float]
    tail_mass: float

    def pmf(self, n: int) -> float:
        return self.probs.get(int(n), 0.0)

    def support(self) -> list[int]:
        return sorted(self.probs)

    def max_support(self) -> int:
        return max(self.probs, default=0)

    def total(self) -> float:
        return float(sum(self.probs.values()) + self.tail_mass)

    def to_array(self, length: int | None = None) -> np.ndarray:
        """Dense pmf over 0 .. length-1 (default: 0 .. max support)."""
        if length is None:
            length = self.max_support() + 1
        out = np.zeros(int(length))
        for n, p in self.probs.items():
            if n < length:
                out[n] = p
        return out

    def moment(self, k: int) -> float:
        return float(sum((n**k) * p for n, p in self.probs.items()))

    def mean(self) -> float:
        return self.moment(1)

    def variance(self) -> float:
        m1 = self.moment(1)
        return max(self.moment(2) - m1 * m1, 0.0)


class LifetimeDistribution(DiscreteDistribution):
    """Distribution of the number of steps lived; support starts at 1."""


def _check_truncation(tail_tol: float, max_horizon: int) -> tuple[float, int]:
    tail_tol = float(tail_tol)
    max_horizon = int(max_horizon)
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    if max_horizon < 1:
        raise ValueError(f"max_horizon must be at least 1, got {max_horizon}")
    return tail_tol, max_horizon


def _negligible(mass: float, t: int, order: int, tail_tol: float) -> bool:
    """The stopping rule: not mass * (t+1)**order >= tail_tol.

    Past the float64 range of (t+1)**order the product exceeds any
    tail_tol < 1 until the mass itself falls below the normal range, where
    the recurrence no longer resolves it, so the rule then stops there. A
    NaN mass, from a state that has overflowed, also stops the loop.
    """
    try:
        return not mass * float(t + 1) ** order >= tail_tol
    except OverflowError:
        return not mass >= sys.float_info.min


def _recurrence(schedule, state, start, tail_tol, max_horizon, lift, keep, mass=np.ndarray.sum, order=0):
    """The one stepping loop of the exact engines; returns the final state.

    Step t lifts the state by the engine's pre-transition `lift`, calls
    keep(state, lifted, b) with the absorption vector b of the matrix B
    acting at time start + t, and moves on to lifted @ B'. Each engine
    keeps what it needs: the absorption losses lifted @ b, or every state.
    The loop stops before step t once mass(state) * (t+1)**order < tail_tol
    (order 0 for the distributions; see moment_tables for why moments
    weight the mass) and raises NonAbsorbingError if that has not happened
    within max_horizon steps.
    """
    tail_tol, max_horizon = _check_truncation(tail_tol, max_horizon)
    start = int(start)
    transposed = [m.T for m in schedule.matrices]
    t = 0
    while not _negligible(surviving := float(mass(state)), t, order, tail_tol):
        if t >= max_horizon:
            raise NonAbsorbingError(surviving, max_horizon)
        k = schedule.index_at(start + t)
        lifted = lift(state)
        keep(state, lifted, schedule._absorptions[k])
        state = lifted @ transposed[k]
        t += 1
    return state


def lifetime_distribution(
    schedule: Schedule,
    initial,
    tail_tol: float = DEFAULT_TAIL_TOL,
    max_horizon: int = DEFAULT_MAX_HORIZON,
    start: int = 0,
) -> LifetimeDistribution:
    """Distribution of the remaining lifetime of an individual entering at `start`.

    The probability of dying on step n (n = 1, 2, ...) is the absorption mass
    leaving the surviving-stage vector between times start+n-1 and start+n.
    Iteration stops at the first horizon where the surviving mass drops below
    `tail_tol`; the leftover mass is reported as the distribution's tail. If
    the mass is still above tolerance after `max_horizon` steps the schedule
    is considered non-absorbing and NonAbsorbingError is raised.
    """
    deaths: list[float] = []
    w = _recurrence(
        schedule, validate_distribution(initial, schedule.d), start, tail_tol, max_horizon,
        lift=lambda w: w, keep=lambda w, _, b: deaths.append(float(w @ b)),
    )
    probs = {n: died for n, died in enumerate(deaths, start=1) if died != 0.0}
    return LifetimeDistribution(probs, tail_mass=float(w.sum()))
