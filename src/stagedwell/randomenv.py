"""Random environments: i.i.d. draws of the yearly transition matrix.

Each environment sequence drawn from a RandomEnvironmentSpec is itself a
deterministic schedule, so per-sequence occupancy statistics are exact; the
randomness enters only through which sequence is drawn. two_level_stats
averages the exact per-sequence answers over sampled sequences and splits
the variance of the occupancy total into a within-sequence part (mean of the
per-sequence variances) and a between-sequence part (variance of the
per-sequence means). By the law of total variance the two parts sum to the
total, and with the plug-in estimators used here the identity holds exactly
up to roundoff for any finite sample of sequences.

two_level_stats advances all sequences of a call together as one stacked
moment recurrence, and each sequence draws its condition indices lazily, in
chunks, only as far as its own truncation rule follows it. The seeding
contract is unchanged: sequence i is the one sample_schedule draws from
np.random.default_rng((*seed, i)), since chunked draws from a generator give
the indices of one bulk draw.
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
    absorption_vector,
    validate_distribution,
    validate_matrix,
)
from .errors import InvalidDistributionError, NonAbsorbingError, StagedwellError
from .occupancy import TargetSet, _binomial_shift

# Mixing probabilities are dimensionless model inputs, not printed data, so
# they are held to a much tighter sum tolerance than matrix columns.
PROBABILITY_SUM_TOL = 1e-12

# Condition indices a sequence draws the first time it needs any. Each later
# draw doubles its drawn prefix, so a sequence draws at most about twice as
# many indices as the steps it is followed for.
FIRST_DRAW = 256


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
    length = int(length)
    if length < 1:
        raise ValueError(f"sequence length must be at least 1, got {length}")
    idx = rng.choice(spec.n_conditions, size=length, p=spec.probabilities)
    return Schedule(spec.matrices, idx, "hold_last")


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
    if isinstance(seed, (tuple, list)):
        return tuple(int(x) for x in seed)
    return (int(seed),)


def _sequence_moments(spec, v, r, n_sequences, base, start, tail_tol, max_horizon, length):
    """First and second raw occupancy moments of every sampled sequence.

    Runs the order-2 step of occupancy_moments, A = M + (L @ M) * r, then
    acc += A b and M <- A U', on stacked arrays whose row s belongs to
    sequence live[s]. A sequence leaves the live rows once its own stopping
    rule is met. It draws condition indices from default_rng((*base, i)) in
    chunks, never past `length`, and holds the last one beyond it. Returns
    the first and second moments and the number of sequences that held.
    """
    U_t = np.stack(spec.matrices).transpose(0, 2, 1)
    b = np.stack([absorption_vector(m) for m in spec.matrices])
    shift = _binomial_shift(2)
    rngs = [np.random.default_rng((*base, i)) for i in range(n_sequences)]
    moments = np.empty((n_sequences, 3))
    live = np.arange(n_sequences)
    M = np.zeros((n_sequences, 3, spec.d))
    M[:, 0] = v
    acc = np.zeros((n_sequences, 3))
    drawn = np.empty((n_sequences, 0), dtype=np.intp)
    mass = M[:, 0].sum(axis=1)
    held = 0
    t = 0
    while True:
        weight = float(t + 1) ** 2
        if mass.min() * weight < tail_tol:
            going = mass * weight >= tail_tol
            moments[live[~going]] = acc[~going]
            live, M, acc, drawn, mass = live[going], M[going], acc[going], drawn[going], mass[going]
            if live.size == 0:
                return moments[:, 1], moments[:, 2], held
        if t >= max_horizon:
            raise NonAbsorbingError(mass[0], max_horizon, context=f"sequence {live[0]}")
        if start + t == max(length, start):
            held = live.size
        n = min(start + t, length - 1)
        if n >= drawn.shape[1]:
            size = min(max(2 * drawn.shape[1], FIRST_DRAW, n + 1), length) - drawn.shape[1]
            chunk = [rngs[i].choice(spec.n_conditions, size=size, p=spec.probabilities) for i in live]
            drawn = np.concatenate([drawn, np.array(chunk, dtype=np.intp)], axis=1)
        k = drawn[:, n]
        A = M + (shift @ M) * r
        acc += (A @ b[k][:, :, None])[:, :, 0]
        M = A @ U_t[k]
        mass = M[:, 0].sum(axis=1)
        t += 1


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

    Sequence i is the schedule sample_schedule(spec, sample_length,
    np.random.default_rng((*seed, i))) draws, sample_length defaulting to
    max_horizon, with the moments occupancy_moments(order=2) gives it. The
    sequences advance together, each stopping under its own truncation rule
    and drawing condition indices only as far as that, which leaves the
    indices, and so the results, those of drawing every sequence in full.
    NonAbsorbingError names the lowest sequence still alive after
    max_horizon steps. The plug-in (divide by n) variance estimators make

        total_variance == mean_within_variance + between_variance

    an algebraic identity, not an approximation.
    """
    n_sequences = int(n_sequences)
    if n_sequences < 2:
        raise ValueError(f"need at least 2 sequences, got {n_sequences}")
    tail_tol, max_horizon = _check_truncation(tail_tol, max_horizon)
    length = max_horizon if sample_length is None else int(sample_length)
    if length < 1:
        raise ValueError(f"sequence length must be at least 1, got {length}")
    start = int(start)
    if start < 0:
        raise ValueError(f"start must be nonnegative, got {start}")
    v = validate_distribution(initial, spec.d)
    if target.d != spec.d:
        raise ValueError(f"target set is over {target.d} stages, conditions over {spec.d}")
    means, second, held = _sequence_moments(
        spec, v, target.mask, n_sequences, _seed_entropy(seed), start,
        tail_tol, max_horizon, length,
    )
    variances = np.maximum(second - means * means, 0.0)
    mean_of_means = float(means.mean())
    mean_within = float(variances.mean())
    between = max(float((means * means).mean()) - mean_of_means**2, 0.0)
    total = max(float((variances + means * means).mean()) - mean_of_means**2, 0.0)
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


def simplex_sweep(
    conditions,
    grid_step: float,
    initial,
    target: TargetSet,
    n_sequences: int = 2000,
    seed=0,
    start: int = 0,
    tail_tol: float = DEFAULT_TAIL_TOL,
    max_horizon: int = DEFAULT_MAX_HORIZON,
    sample_length: int | None = None,
) -> list[SweepPoint]:
    """Two-level statistics over a grid of three-condition mixtures.

    `conditions` is a sequence of exactly three (label, matrix) pairs; the
    grid runs over probability triples (i, j, k)/k_steps with grid_step =
    1/k_steps. Point (i, j, l) derives its seed as (*seed, i, j, l), so any
    sub-grid of a sweep reproduces the full sweep's values. A failing point
    (for example a non-absorbing corner) is recorded and skipped rather than
    aborting the sweep.
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
                stats = two_level_stats(
                    spec, initial, target,
                    n_sequences=n_sequences,
                    seed=(*base, i, j, l),
                    start=start,
                    tail_tol=tail_tol,
                    max_horizon=max_horizon,
                    sample_length=sample_length,
                )
            except StagedwellError as exc:
                points.append(SweepPoint(triple, None, error=f"{type(exc).__name__}: {exc}",
                                         labels=labels))
            else:
                points.append(SweepPoint(triple, stats, labels=labels))
    return points
