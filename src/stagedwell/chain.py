"""Core machinery for time-varying absorbing chains on a finite stage space.

A model is a sequence of column-substochastic matrices. Entry (i, j) of the
matrix acting at step n is the probability that an individual in stage j at
time n is in stage i at time n+1; the deficit of column j from 1 is the
probability of being absorbed (dying) during that step. Column vectors of
stage probabilities are propagated by left multiplication, w(n+1) = B(n) w(n).
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
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

# log of the least mass _unchecked lets unchecked steps reach
_LOG_TINY = math.log(sys.float_info.min / sys.float_info.epsilon)

# Sequence entries Schedule.indices converts to Python ints at a time.
INDEX_CHUNK = 1024

# A homogeneous tail is evaluated in segments of at least SEGMENT steps (see
# _segment_tail). Squaring the period operator costs D^3 in the state size
# D, so the kept-state path (lifetime_distribution, evolve_joint's stage
# vector, moment_tables) keeps the recurrence for states of more than
# MAX_SEGMENT_STATES entries, and the closed distribution's visit series
# takes one-step segments there. Measured with BLAS on one thread
# (x86_64): at D = 192 a 1829-step lifetime tail took 0.83x and a 3445-step
# order-3 moment-table tail 0.29x the recurrence's time, at D = 256 1.05x
# and 0.95x. A short tail pays for the squarings at any D: a 78-step
# lifetime tail at D = 192 took 7x.
SEGMENT = 64
MAX_SEGMENT_STATES = 192


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
        return cls(tuple(f"s{i}" for i in range(_integer(d, "d"))))


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
    except (TypeError, ValueError, OverflowError) as exc:
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


def _integer(value, what: str, least: int | None = None, too_small: str | None = None) -> int:
    """`value` as an int, by the one integer rule of every count, time and
    index argument and index list entry: ints, numpy integers and integral
    floats such as 2.0 pass, while bools, 0.7, '1' and None raise ValueError
    "<what> <value> is not an integer". Below `least` it raises ValueError
    too_small, formatted with the value (by default "<what> must be at
    least <least>, got {}", or "nonnegative")."""
    if not (type(value) is int or isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            or isinstance(value, (float, np.floating)) and float(value).is_integer()):
        raise ValueError(f"{what} {value.item() if isinstance(value, np.generic) else value!r} is not an integer")
    if least is not None and int(value) < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError((too_small or f"{what} must be {bound}, got {{}}").format(int(value)))
    return int(value)


def _as_indices(values, what: str) -> np.ndarray:
    """`values` as an intp array: an integer array, or entries all Python
    ints, as they are; anything else (a float or bool array, a mixed list)
    entry by entry by _integer, as given, not as numpy would coerce it."""
    arr = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    if arr.dtype.kind in "iu" or all(type(x) is int for x in arr.flat):
        return arr.astype(np.intp)
    return np.array([_integer(x, what) for x in arr.flat], dtype=np.intp).reshape(arr.shape)


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

    Matrices are validated, and their absorption vectors and transposes
    (contiguous, for the engines' row-vector products) precomputed, on
    construction; instances are immutable.
    """

    matrices: tuple[np.ndarray, ...]
    sequence: np.ndarray
    extension: str = "hold_last"
    _absorptions: tuple = field(init=False, repr=False)
    _transposes: tuple = field(init=False, repr=False)

    def __post_init__(self):
        mats = tuple(validate_matrix(m) for m in self.matrices)
        if not mats:
            raise ValueError("a schedule needs at least one matrix")
        d = mats[0].shape[0]
        if any(m.shape != (d, d) for m in mats):
            raise ValueError("all scheduled matrices must share one shape")
        seq = _as_indices(self.sequence, "sequence entry")
        if seq.ndim != 1 or seq.size == 0:
            raise ValueError("sequence must be a non-empty 1-d list of matrix indices")
        if seq.min() < 0 or seq.max() >= len(mats):
            i = np.flatnonzero((seq < 0) | (seq >= len(mats)))[0]
            raise ValueError(f"sequence entry {seq[i]} at position {i} is outside "
                             f"the matrix indices 0..{len(mats) - 1}")
        if self.extension not in EXTENSIONS:
            raise ValueError(f"extension must be one of {EXTENSIONS}, got {self.extension!r}")
        seq.flags.writeable = False
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "sequence", seq)
        object.__setattr__(self, "_absorptions", tuple(absorption_vector(m) for m in mats))
        object.__setattr__(self, "_transposes", tuple(m.T.copy() for m in mats))

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
        n = _integer(n, "n", 0, "time index must be nonnegative, got {}")
        length = self.sequence.size
        if n < length:
            return int(self.sequence[n])
        if self.extension == "hold_last":
            return int(self.sequence[-1])
        if self.extension == "cycle":
            return int(self.sequence[n % length])
        raise ScheduleExhaustedError(n, length)

    def indices(self, start: int = 0):
        """Iterator over the matrix indices of steps start, start + 1, ...

        It yields index_at(start), index_at(start + 1), ... and raises what
        index_at raises at the first step it cannot serve, when that step is
        drawn: ValueError for a negative start, ScheduleExhaustedError past
        the end of an "error" schedule. Stepping loops read it instead of
        calling index_at once per step. The sequence is converted to Python
        ints INDEX_CHUNK entries at a time, as they are reached; a cycle
        converts its first pass so, from start % prefix_length on, and
        replays it from the ints it kept.
        """
        start = _integer(start, "start", 0, "time index must be nonnegative, got {}")
        seq, length = self.sequence, self.sequence.size
        if self.extension == "cycle":
            yield from itertools.cycle(itertools.chain.from_iterable(seq[i : min(i + INDEX_CHUNK, hi)].tolist()
                for lo, hi in ((start % length, length), (0, start % length)) for i in range(lo, hi, INDEX_CHUNK)))
        for lo in range(start, length, INDEX_CHUNK):
            yield from seq[lo : lo + INDEX_CHUNK].tolist()
        if self.extension == "hold_last":
            yield from itertools.repeat(int(seq[-1]))
        raise ScheduleExhaustedError(max(start, length), length)

    def _permuted(self, order) -> "Schedule":
        """This schedule over its stages taken in `order`. The entries,
        absorption vectors and transposes are moved, not recomputed, so the
        permuted chain is the same chain and is not validated again."""
        moved, at = copy.copy(self), np.ix_(order, order)
        moved.__dict__.update(matrices=tuple(m[at] for m in self.matrices),
                              _absorptions=tuple(b[order] for b in self._absorptions),
                              _transposes=tuple(m[at] for m in self._transposes))
        return moved

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
    n, m = _integer(n, "n"), _integer(m, "m")
    if m < 0 or n < m:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    phi = np.eye(schedule.d)
    for k in itertools.islice(schedule.indices(m), n - m):
        phi = schedule.matrices[k] @ phi
    return phi


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability table over nonnegative integers, with truncated tail mass.

    `probs` maps support points to probabilities (exact zeros are omitted);
    `tail_mass` is the probability neglected past the truncation horizon (for
    an occupancy distribution with a closed tail, that of an occupancy beyond
    the last atom; for any occupancy distribution, plus the mass its band cut
    off), so the stored probabilities plus the tail account for all the mass.
    """

    probs: dict[int, float]
    tail_mass: float

    def pmf(self, n: int) -> float:
        return self.probs.get(_integer(n, "n"), 0.0)

    def support(self) -> list[int]:
        return sorted(self.probs)

    def max_support(self) -> int:
        return max(self.probs, default=0)

    def total(self) -> float:
        return float(sum(self.probs.values()) + self.tail_mass)

    def to_array(self, length: int | None = None) -> np.ndarray:
        """Dense pmf over 0 .. length-1 (default: 0 .. max support)."""
        length = self.max_support() + 1 if length is None else _integer(length, "length", 0)
        out = np.zeros(length)
        for n, p in self.probs.items():
            if n < length:
                out[n] = p
        return out

    def moment(self, k: int) -> float:
        k = _integer(k, "k", 0)
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
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    return tail_tol, _integer(max_horizon, "max_horizon", 1)


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


def _first_negligible(masses: np.ndarray, t: int, order: int, tail_tol: float):
    """Index of the first of `masses`, those at steps t, t+1, ..., that the
    stopping rule ends the loop at, or None.

    A single mass, as at each segment start of _segment_tail, is judged by
    _negligible alone. Otherwise numpy's power, which may round
    (t+1)**order a unit differently from Python's, only screens: each entry
    not clear of tail_tol by far more than that rounding is judged by
    _negligible itself, in order.
    """
    if masses.size == 1:
        return 0 if _negligible(float(masses[0]), t, order, tail_tol) else None
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = masses * np.arange(t + 1.0, t + 1.0 + masses.size) ** order
        near = ~(weighted >= tail_tol * (1.0 + 1e-9)) | ~(masses >= sys.float_info.min)
    for j in np.flatnonzero(near).tolist():
        if _negligible(float(masses[j]), t + j, order, tail_tol):
            return j
    return None


def _decay_rate(absorptions) -> float:
    """-log floor, floor the least factor by which a step of any matrix with
    these absorption vectors can multiply a surviving mass: 1 less the
    largest absorption probability, less a margin for the rounding of the
    column sums and of a step's products. inf when floor is not above 0."""
    worst = max(float(b.max()) for b in absorptions) + 4 * (absorptions[0].size + 1) * sys.float_info.epsilon
    return -math.log1p(-worst) if worst < 1.0 else math.inf


def _unchecked(mass: float, t: int, order: int, tail_tol: float, rate: float) -> int:
    """How many steps after t the stopping rule cannot hold at, given that
    it does not hold at t with surviving `mass` (see _decay_rate for rate).

    By step t + s the mass is at least mass * exp(-rate * s), and the
    weighted mass at least that times (t+1)**order. The rule cannot hold
    while the latter is at least tail_tol and the former above float64's
    normal range, where _negligible's overflow regime stops, widened by
    1/epsilon so that a step's rounding stays relative. The logarithms'
    rounding is taken off generously.
    """
    logs = (math.log(mass), order * math.log(t + 1), math.log(tail_tol), _LOG_TINY)
    room = min(logs[0] + logs[1] - logs[2], logs[0] - logs[3]) - 2.0**-40 * sum(map(abs, logs))
    return max(int(room / rate), 0)


def _recurrence(schedule, state, start, tail_tol, max_horizon, advance, order=0, closes=False):
    """The one stepping loop of the exact engines; returns (state, tail).

    Step t moves the state on to advance(state, k), the engine's whole step
    for the matrix k acting at time start + t, read from
    schedule.indices(start). The first d entries of every state are
    its surviving stage vector. The loop stops before step t once their
    mass times (t+1)**order is below tail_tol (order 0 for the
    distributions; see moment_tables for why moments weight the mass), and
    raises NonAbsorbingError if that has not happened within max_horizon
    steps; tail is then None. A hold-last schedule turns homogeneous at
    step t0 = max(prefix_length - 1 - start, 0), a cycle at t0 =
    prefix_length; an "error" schedule never does. If the loop reaches t0,
    _closing_tail reads the tail there and raises if the rule can hold at
    no step up to max_horizon, so a chain with a stage that never dies
    raises at t0 rather than max_horizon steps on. The loop returns that
    tail for the engine to close if the engine `closes` and the tail is
    closable, and otherwise steps on.

    The mass is read only where the rule can hold: after a read at t, the
    steps _unchecked finds it cannot hold at, by the schedule's
    _decay_rate, are taken unread, short of t0 and max_horizon. So the
    loop stops, raises and returns at the steps, and with the states, of
    reading the mass at every step.
    """
    tail_tol, max_horizon = _check_truncation(tail_tol, max_horizon)
    start = _integer(start, "start")
    length, indices, d = schedule.prefix_length, schedule.indices(start), schedule.d
    t0 = {"hold_last": max(length - 1 - start, 0), "cycle": length}.get(schedule.extension, max_horizon)
    stop = min(t0, max_horizon)
    rate = _decay_rate(schedule._absorptions)
    t = 0
    while not _negligible(surviving := float(state.ravel()[:d].sum()), t, order, tail_tol):
        if t >= stop:
            if t >= max_horizon:
                raise NonAbsorbingError(surviving, max_horizon)
            tail = _closing_tail(schedule, start, t0, state.ravel()[:d], order, tail_tol, max_horizon)
            if closes and tail[2]:
                return state, tail
            stop = max_horizon
        n = min(1 + _unchecked(surviving, t, order, tail_tol, rate), stop - t)
        for k in itertools.islice(indices, n):
            state = advance(state, k)
        t += n
    return state, None


def _closing_tail(schedule, start, t0, x, order, tail_tol, max_horizon):
    """The homogeneous tail (t0, period, closable) at its first step t0
    after `start`, where the stage vector is x; raises NonAbsorbingError as
    the recurrence would, if the stopping rule holds at no step from t0 to
    max_horizon.

    period = (ks, matrices, product) is the repeating stretch: the matrix
    indices of steps t0, ..., t0 + p - 1 (p = 1 for a hold-last schedule,
    prefix_length for a cycle), their matrices and their product Pi. The
    product is squared to carry x to max_horizon. The mass of x times the
    largest column sum of a power of Pi bounds the mass left after that
    many periods, and the squaring stops once the bound passes the rule at
    max_horizon, before the entries reach float64's subnormal range, where a
    squaring is a hundred times slower. Each power read also bounds the
    mass at max_horizon by its column-sum bound raised to the number q of
    its applications still ahead, rounded up first by the margin below for
    the rounding of the squarings it stands for, and the smaller bound is
    taken; so a period that contracts is decided at its first read, and the
    squarings run only where a column of Pi sums to about 1. A mass of
    tail_tol or more at max_horizon passes the rule at no earlier step,
    since the mass never rises. A smaller one may, if a moment order's
    weighted mass fell below tail_tol and rose again, so the steps are then
    followed one at a time.

    closable says that I - Pi can be inverted, as the closed tails need: one
    of the powers read has every column sum below 1 less the rounding
    margin of _decay_rate for each of the n steps it covers. A column
    summing to 1 less a few units of rounding is not taken for decay, and a
    tail whose decay no power read shows before max_horizon is not closed.
    """
    p = schedule.prefix_length if schedule.extension == "cycle" else 1
    ks = list(itertools.islice(schedule.indices(start + t0), p))
    matrices = [schedule.matrices[k] for k in ks]
    period = ks, matrices, functools.reduce(lambda acc, H: H @ acc, matrices)
    q, rest = divmod(max_horizon - t0, p)
    power, steps, y, closable = period[2], p, x, False
    while q:
        bound, margin = float(power.sum(axis=0).max()), 4 * (x.size + 1) * steps * sys.float_info.epsilon
        closable, ahead = closable or bound < 1.0 - margin, min(bound, min(bound + margin, 1.0) ** min(q, sys.maxsize))
        if bound <= 1.0 and _negligible(float(y.sum()) * ahead, max_horizon, order, tail_tol):
            return t0, period, closable
        if q & 1:
            y = power @ y
        power, q, steps = power @ power, q >> 1, 2 * steps
    for H in matrices[:rest]:
        y = H @ y
    if _negligible(mass := float(y.sum()), max_horizon, order, tail_tol):
        return t0, period, closable
    if mass < tail_tol:
        for t, H in zip(range(t0 + 1, max_horizon), itertools.cycle(matrices)):
            x = H @ x
            if _negligible(float(x.sum()), t, order, tail_tol):
                return t0, period, closable
    raise NonAbsorbingError(mass, max_horizon)


def _segment_tail(x, p, step, last, ends=None, head=0):
    """States x_0 = x, x_1, ... of a linear recurrence that applies the
    steps step(X, 0), ..., step(X, p - 1) in turn forever, by segments.

    `step(X, m)` applies phase m to every state of a batch X (a leading
    axis). A segment is m*p steps long, m being the smallest power of two
    with m*p >= SEGMENT (m = 1 above MAX_SEGMENT_STATES entries), or all
    last + 1 states if that is fewer. Each further segment starts at the
    previous start times the jump: the period operator (the p phases
    applied to the identity batch) to the m-th power, by squaring. Then all
    segments are stepped at once, so N states cost about N/(m*p) + m*p
    Python-level steps instead of N.

    ends(rows, j), for rows holding x_j, x_j+1, ..., gives the offset of the
    first state that ends the tail, or None. Segments are added until it
    ends at a segment's start or they pass x_last. Returns (rows, n):
    rows[head + j] is x_j, flattened, for j = 0 .. n at least, and n is the
    first j <= last that ends the tail (None if none does; `last` when
    there is no `ends`). rows[:head] is left for the caller.
    """
    size, shape = x.size, x.shape
    m = 1
    while m * p < SEGMENT and size <= MAX_SEGMENT_STATES:
        m *= 2
    length, jump = min(m * p, last + 1), None
    starts = [x.reshape(size)]
    while len(starts) * length <= last:
        if ends is not None and ends(starts[-1][np.newaxis], (len(starts) - 1) * length) is not None:
            length = length if len(starts) > 1 else 1   # x itself ends it: nothing to step
            break
        if length == 1:
            starts.append(step(starts[-1].reshape(1, *shape), 0).reshape(size))
            continue
        if jump is None:
            jump = np.eye(size).reshape(size, *shape)
            for phase in range(p):
                jump = step(jump, phase)
            jump = jump.reshape(size, size)
            for _ in range(m.bit_length() - 1):
                jump = jump @ jump
        starts.append(starts[-1].dot(jump))
    rows = np.empty((head + len(starts) * length, size))
    segments = rows[head:].reshape(len(starts), length, size)
    segments[:, 0] = starts
    for i in range(1, length):
        moved = step(segments[:, i - 1].reshape(len(starts), *shape), (i - 1) % p)
        segments[:, i] = moved.reshape(len(starts), size)
    n = last if ends is None else ends(rows[head : head + last + 1], 0)
    return rows, n


def _kept_states(schedule, state, start, advance, order, tail_tol, max_horizon) -> np.ndarray:
    """Every state of _recurrence run with `advance` and `order`, from
    `state` to the one at which the stopping rule ends the loop, as one
    array of shape (steps + 1, *state.shape).

    A hold-last or cycle schedule whose state has at most MAX_SEGMENT_STATES
    entries is stepped only to where it turns homogeneous, if the tail
    there is closable (see _closing_tail). The rest is evaluated by
    _segment_tail, which applies `advance` to a batch of states (a leading
    axis) with the period's matrix indices, to the same horizon and with
    the same NonAbsorbingError. Each state is kept as the loop steps it on,
    so `advance` must return a new state, not change the one it is given."""
    tail_tol, max_horizon = _check_truncation(tail_tol, max_horizon)
    kept = []

    def keeping(state, k):
        kept.append(state)
        return advance(state, k)

    final, tail = _recurrence(schedule, state, start, tail_tol, max_horizon, keeping, order,
                              state.size <= MAX_SEGMENT_STATES)
    if tail is None:
        return np.array(kept + [final])
    (t0, (phases, _, _), _), d = tail, schedule.d
    last = max_horizon - t0

    def ends(rows, j):
        return _first_negligible(rows[:, :d].sum(axis=1), t0 + j, order, tail_tol)

    rows, n = _segment_tail(final, len(phases), lambda X, m: advance(X, phases[m]), last, ends, len(kept))
    if n is None:   # the rule held at no step up to max_horizon, though _closing_tail found one
        raise NonAbsorbingError(float(rows[len(kept) + last, :d].sum()), max_horizon)
    states = rows[: len(kept) + n + 1].reshape(-1, *state.shape)
    if kept:
        np.stack(kept, out=states[: len(kept)])
    return states


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

    The atoms are every kept state but the last against the absorption
    vector of its step; a hold-last or cycle tail is evaluated by segments
    (see _kept_states), to the same horizon and with the same errors.
    """
    w = validate_distribution(initial, schedule.d)
    states = _kept_states(schedule, w, start, lambda w, k: w.dot(schedule._transposes[k]), 0, tail_tol, max_horizon)
    losses = np.array(schedule._absorptions)[list(itertools.islice(schedule.indices(start), len(states) - 1))]
    deaths = np.einsum("ij,ij->i", states[:-1], losses)
    probs = {n: died for n, died in enumerate(deaths.tolist(), start=1) if died != 0.0}
    return LifetimeDistribution(probs, tail_mass=float(states[-1].sum()))
