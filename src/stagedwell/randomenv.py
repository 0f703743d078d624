"""Random environments: i.i.d. draws of the yearly transition matrix.

Each environment sequence drawn from a RandomEnvironmentSpec is itself a
deterministic schedule, and its occupancy moments are those of the order-2
moment recurrence run along it, exact up to the truncation rule; the
randomness enters only through which sequence is drawn. two_level_stats
averages the per-sequence answers over sampled sequences and splits the
variance of the occupancy total into a within-sequence part (mean of the
per-sequence variances) and a between-sequence part (variance of the
per-sequence means, taken about their mean). By the law of total variance
the two parts sum to the total, and with the plug-in estimators used here
the total is computed as that sum, so the identity holds as computed for any
finite sample of sequences.

two_level_stats advances all sequences of a call together. Each carries its
order-2 moment stack with one more column, the moments of the mass absorbed
so far (Caswell 2011's Markov chains with rewards), so a step of every
sequence is the two stacked products of occupancy_moments' step with its
drawn condition, each of the shape occupancy_moments takes, and one
sequence's moments are bit for bit those of occupancy_moments on its steps.
The stopping masses are read only at the steps where some sequence's rule
can hold, as in chain._recurrence. Each sequence draws its condition indices
lazily, in chunks, only as far as its own truncation rule follows it, and
from the first position a step reads, min(start, length - 1): its generator
is advanced past the positions before it, as PCG64's advance skips 64-bit
words and random() takes one per double. The steps between two reads are
taken from their operands, the bordered steps of each live sequence's drawn
conditions, gathered with one fancy index per window of at most
_GATHER_BYTES, so a step is the two products alone. The seeding contract:
sequence i is the one sample_schedule draws from
np.random.default_rng((*seed, i)), since chunked draws from a generator give
the indices of one bulk draw, and a draw of n indices is
np.searchsorted(cdf, rng.random(n), side="right") with cdf the cumulative
probabilities normalized by their last entry, which is what
Generator.choice(n_conditions, n, p=probabilities) computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math

import numpy as np

from .chain import (
    DEFAULT_MAX_HORIZON,
    DEFAULT_TAIL_TOL,
    Schedule,
    _check_truncation,
    _decay_rate,
    _integer,
    _unchecked,
    absorption_vector,
    validate_matrix,
)
from .errors import InvalidDistributionError, NonAbsorbingError, StagedwellError
from .occupancy import TargetSet, _absorbing_step, _moment_start

# Mixing probabilities are dimensionless model inputs, not printed data, so
# they are held to a much tighter sum tolerance than matrix columns.
PROBABILITY_SUM_TOL = 1e-12

# Condition indices a sequence draws the first time it needs any. Each later
# draw doubles its drawn prefix, so a sequence draws at most about twice as
# many indices as the steps it is followed for.
FIRST_DRAW = 256

# two_level_stats gathers the step operands of an unread stretch in windows
# of at most this many bytes, or of one step where a step's are more.
# In-process with BLAS on one thread (2-core x86_64), fulmar conditions at
# (0.25, 0.5, 0.25), budgets of 16 KiB, 64 KiB, 256 KiB and 1 MiB took
# 0.86, 0.80, 0.88 and 0.80 of the time of gathering each step's operands
# at that step for 12 sequences (4.8 kB of operands a step), 1.00, 0.92,
# 0.94 and 1.10 for 50, 0.99, 1.01, 0.97 and 1.08 for 200, and 0.98-1.00
# for 2000, where each budget makes one-step windows.
_GATHER_BYTES = 1 << 16


@dataclass(frozen=True, eq=False)
class RandomEnvironmentSpec:
    """Finite set of environmental conditions with i.i.d. yearly draws.

    labels, matrices and probabilities run in parallel; probabilities must
    sum to 1 within PROBABILITY_SUM_TOL.
    """

    labels: tuple[str, ...]
    matrices: tuple[np.ndarray, ...]
    probabilities: np.ndarray

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        mats = tuple(validate_matrix(m) for m in self.matrices)
        probs = np.array(self.probabilities, dtype=float)
        if not labels or len(labels) != len(mats) or probs.shape != (len(mats),):
            raise ValueError("labels, matrices and probabilities must have equal nonzero length")
        if len(set(labels)) != len(labels):
            raise ValueError(f"condition labels must be distinct, got {labels}")
        d = mats[0].shape[0]
        if any(m.shape != (d, d) for m in mats):
            raise ValueError("all condition matrices must share one shape")
        if not np.isfinite(probs).all() or (probs < 0).any():
            raise InvalidDistributionError("condition probabilities must be finite and nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            raise InvalidDistributionError(f"condition probabilities sum to {total!r}, not 1")
        probs.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "probabilities", probs)

    @classmethod
    def from_conditions(cls, conditions) -> "RandomEnvironmentSpec":
        """Build from an iterable of (label, matrix, probability) triples."""
        triples = list(conditions)
        return cls(
            labels=tuple(lab for lab, _, _ in triples),
            matrices=tuple(m for _, m, _ in triples),
            probabilities=np.array([p for _, _, p in triples], dtype=float),
        )

    @property
    def n_conditions(self) -> int:
        return len(self.matrices)

    @property
    def d(self) -> int:
        return self.matrices[0].shape[0]


def sample_schedule(spec: RandomEnvironmentSpec, length: int, rng: np.random.Generator) -> Schedule:
    """Draw one environment sequence of the given length (hold-last past it)."""
    length = _integer(length, "length", 1, "sequence length must be at least 1, got {}")
    return Schedule(spec.matrices, np.searchsorted(_cdf(spec), rng.random(length), side="right"), "hold_last")


def _cdf(spec: RandomEnvironmentSpec) -> np.ndarray:
    """The cumulative probabilities, normalized by their last entry, that
    Generator.choice(n_conditions, p=probabilities) draws from."""
    cdf = spec.probabilities.cumsum()
    cdf /= cdf[-1]
    return cdf


@dataclass(frozen=True)
class TwoLevelStats:
    """Occupancy statistics under sequence-level environmental randomness.

    held_last counts the sequences followed past their drawn length, which
    held their last condition from there on.
    """

    n_sequences: int
    mean_of_means: float
    mean_within_variance: float
    between_variance: float
    total_variance: float
    coefficient_of_variation: float
    held_last: int = 0


def _seed_entropy(seed) -> tuple[int, ...]:
    return tuple(_integer(x, "seed") for x in (seed if isinstance(seed, (tuple, list)) else (seed,)))


def two_level_stats(
    spec: RandomEnvironmentSpec,
    initial,
    target: TargetSet,
    n_sequences: int = 2000,
    seed=0,
    start: int = 0,
    tail_tol: float = DEFAULT_TAIL_TOL,
    max_horizon: int = DEFAULT_MAX_HORIZON,
    sample_length: int | None = None,
) -> TwoLevelStats:
    """Sample environment sequences; combine their exact occupancy statistics.

    Sequence i is drawn as the module docstring's seeding contract states,
    sample_length (default max_horizon) indices long and holding its last
    condition beyond them; its generator is first advanced past the
    min(start, sample_length - 1) positions no step reads. Its moments are
    those of occupancy_moments(order=2) on its steps listed with extension
    "error" (on the sampled schedule itself that engine would close the
    held tail exactly instead).
    NonAbsorbingError names the lowest sequence still alive after
    max_horizon steps. After each read of the stopping masses, the steps
    the rule cannot hold at are drawn for at once and taken from their
    operands gathered in windows of at most _GATHER_BYTES (one step where a
    step's operands are more); the steps past the drawn length reuse the
    last drawn step's. The products, their order and the draws are those of
    gathering each step's operands at that step. between_variance is the
    plug-in (divide by n) variance of the means about their mean, so equal
    means give only the square of their mean's rounding, not the
    cancellation noise of mean(m^2) - mean^2, and total_variance is
    computed as mean_within_variance + between_variance.
    """
    n_sequences = _integer(n_sequences, "n_sequences", 2, "need at least 2 sequences, got {}")
    tail_tol, max_horizon = _check_truncation(tail_tol, max_horizon)
    length = max_horizon if sample_length is None else _integer(
        sample_length, "sample_length", 1, "sequence length must be at least 1, got {}")
    start = _integer(start, "start", 0)
    d, absorptions = spec.d, [absorption_vector(U) for U in spec.matrices]
    steps = np.stack([_absorbing_step(U, a) for U, a in zip(spec.matrices, absorptions)])
    M, W, advance = _moment_start(spec, initial, target, 2, steps)
    base, skip = _seed_entropy(seed), min(start, length - 1)
    rngs = [np.random.default_rng((*base, i)) for i in range(n_sequences)]
    for rng in rngs:   # past the positions no step reads
        rng.bit_generator.advance(skip)
    cdf, rate = _cdf(spec), _decay_rate(absorptions)
    moments = np.empty((n_sequences, 3))
    live = np.arange(n_sequences)
    M = np.repeat(M[np.newaxis], n_sequences, axis=0)
    drawn = np.empty((0, n_sequences), dtype=np.intp)
    # row s of M is the moment stack of sequence live[s], its last column the
    # absorbed moments, and column s of drawn its condition indices; a
    # sequence leaves once the first d entries of its row 0 meet its own
    # stopping rule, and after a read at t the steps up to `end` that
    # _unchecked finds for the least live mass, at the worst condition's
    # rate, are taken unread, step n with row min(start + n, length - 1) -
    # skip of drawn, position skip + row of the sequence's draws: rows first
    # to last, then `last` again past the drawn length
    held = t = 0
    while True:
        mass = M[:, 0, :d].sum(axis=1)
        weight = float(t + 1) ** 2
        if mass.min() * weight < tail_tol:
            going = mass * weight >= tail_tol
            moments[live[~going]] = M[~going, :, d]
            live, M, drawn, mass = live[going], M[going], drawn[:, going], mass[going]
            if live.size == 0:
                break
        if t >= max_horizon:
            raise NonAbsorbingError(mass[0], max_horizon, context=f"sequence {live[0]}")
        end = min(t + 1 + _unchecked(float(mass.min()), t, 2, tail_tol, rate), max_horizon)
        if t <= max(length, start) - start < end:
            held = live.size
        first, last = (min(start + n, length - 1) - skip for n in (t, end - 1))
        while last >= len(drawn):
            size = min(max(2 * len(drawn), FIRST_DRAW, first + 1), length - skip) - len(drawn)
            chunk = np.searchsorted(cdf, [rngs[i].random(size) for i in live], side="right")
            drawn = np.concatenate([drawn, chunk.T])
        window = max(_GATHER_BYTES // (live.size * W[0].nbytes), 1)
        for lo in range(first, last + 1, window):
            gathered = W[drawn[lo : min(lo + window, last + 1)]]
            for j in range(len(gathered)):
                M = advance(M, j, gathered)
        for _ in range(end - t - 1 - last + first):
            M = advance(M, -1, gathered)
        t = end
    means, second = moments[:, 1], moments[:, 2]
    variances = np.maximum(second - means * means, 0.0)
    mean_of_means = float(means.mean())
    mean_within = float(variances.mean())
    between = float(((means - mean_of_means) ** 2).mean())
    total = mean_within + between
    cv = math.sqrt(total) / mean_of_means if mean_of_means != 0.0 else math.nan
    return TwoLevelStats(
        n_sequences=n_sequences,
        mean_of_means=mean_of_means,
        mean_within_variance=mean_within,
        between_variance=between,
        total_variance=total,
        coefficient_of_variation=cv,
        held_last=held,
    )


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a probability-simplex sweep.

    `probabilities[i]` is the probability of the condition named `labels[i]`.
    `stats` is None when the point failed; `error` then holds the diagnostic.
    """

    probabilities: tuple[float, float, float]
    stats: TwoLevelStats | None
    error: str | None = None
    labels: tuple[str, str, str] = field(kw_only=True)


def simplex_sweep(conditions, grid_step: float, initial, target: TargetSet, *, seed=0,
                  **options) -> list[SweepPoint]:
    """Two-level statistics over a grid of three-condition mixtures.

    `conditions` is a sequence of exactly three (label, matrix) pairs; the
    grid runs over probability triples (i, j, k)/k_steps with grid_step =
    1/k_steps. Point (i, j, l) derives its seed as (*seed, i, j, l), so any
    sub-grid of a sweep reproduces the full sweep's values; every other
    keyword (n_sequences, start, tail_tol, max_horizon, sample_length) goes
    to two_level_stats unchanged. A failing point (for example a
    non-absorbing corner) is recorded and skipped rather than aborting the
    sweep.
    """
    pairs = list(conditions)
    if len(pairs) != 3:
        raise ValueError(f"a simplex sweep needs exactly 3 conditions, got {len(pairs)}")
    grid_step = float(grid_step)
    steps = round(1.0 / grid_step) if grid_step > 0 else 0
    if steps < 1 or abs(steps * grid_step - 1.0) > 1e-9:
        raise ValueError(f"grid_step must evenly divide 1, got {grid_step}")
    labels = tuple(lab for lab, _ in pairs)
    matrices = tuple(m for _, m in pairs)
    base = _seed_entropy(seed)
    points: list[SweepPoint] = []
    for i in range(steps, -1, -1):
        for j in range(steps - i, -1, -1):
            l = steps - i - j
            weights = np.array([i, j, l], dtype=float) / steps
            spec = RandomEnvironmentSpec(labels, matrices, weights)
            triple = (weights[0], weights[1], weights[2])
            try:
                stats = two_level_stats(spec, initial, target, seed=(*base, i, j, l), **options)
            except StagedwellError as exc:
                points.append(SweepPoint(triple, None, error=f"{type(exc).__name__}: {exc}",
                                         labels=labels))
            else:
                points.append(SweepPoint(triple, stats, labels=labels))
    return points
