"""Joint stage/occupancy bookkeeping and lifetime occupancy statistics.

The central object is the table p(a, n): the probability of being alive at
time n, in each stage, having spent a of the elapsed steps inside a chosen
target set of stages. Occupancy is counted per step spent in the set before
the transition fires, so an individual starting inside the set at time
`start` already accrues that step. One step of the model transports the
table by

    p(., n+1) = B(n) applied to [ shift-up of the target rows of p(., n)
                                  plus the unshifted non-target rows ]

which is iterated here in vectorized form on the table kept shifted, with
the target stages ordered first so that the shift is where one of two
products writes its rows (see _target_first). Summing absorption losses over
time yields the distribution of the lifetime occupancy total, and the same
transport acting on a stack of weighted tables yields its raw moments
without ever forming the full distribution.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
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
    _as_indices,
    _check_truncation,
    _first_negligible,
    _integer,
    _kept_states,
    _recurrence,
    _segment_tail,
    validate_distribution,
)
from .errors import NegativeVarianceError

# Roundoff allowance, relative once the second moment passes 1, when deciding
# that a variance is genuinely negative rather than a victim of cancellation
# between nearly equal moments, which grows with their size.
VARIANCE_TOL = 1e-12

# A cycle's occupancy distribution is closed on the dense p*d phase x stage
# chain only up to this many states; longer cycles keep the recurrence.
MAX_CLOSED_CYCLE_STATES = 1024

# occupancy_distribution trims its band once every this many steps. Against
# no band, in-process with BLAS on one thread (2-core x86_64), trimming every
# 8, 16 and 32 steps took 0.50, 0.49 and 0.50 of the time on a d=32 chain
# with a 1000-step prefix, and 1.00, 0.98 and 0.98 on a d=4 chain of 335
# steps with little to trim.
_TRIM_EVERY = 16


@dataclass(frozen=True)
class TargetSet:
    """Subset of the d stages whose occupancy time is being counted."""

    d: int
    members: frozenset[int]
    _mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = _integer(self.d, "d", 1, "need at least one stage")
        members = frozenset(_as_indices(list(self.members), "target member").tolist())
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
        return cls(d, frozenset(range(_integer(d, "d"))))

    @property
    def mask(self) -> np.ndarray:
        """Length-d 0/1 vector marking member stages."""
        return self._mask

    @property
    def indicator(self) -> np.ndarray:
        """d x d diagonal projection onto the member stages."""
        return np.diag(self._mask)

    def __contains__(self, index) -> bool:
        return _integer(index, "index") in self.members


class OccupancyDistribution(DiscreteDistribution):
    """Distribution of total steps spent in a target set; support starts at 0."""


def _occupancy_start(chain, initial, target: TargetSet) -> np.ndarray:
    """Validated initial distribution p(0, start): every engine's input
    check, on any chain with a stage count `d`."""
    v = validate_distribution(initial, chain.d)
    if target.d != chain.d:
        raise ValueError(f"target set is over {target.d} stages, the chain over {chain.d}")
    return v


def _target_first(schedule: Schedule, initial, target: TargetSet):
    """The chain with its target stages first, its lifted table and step.

    Returns (schedule, band, order, step): the schedule over the stages
    taken in `order`, the target members and then the rest, each in the
    caller's order; the initial table in the lifted layout; and the step
    moving a lifted table by one matrix of the schedule. The closed tail
    does not depend on stage order and runs on this chain unchanged.

    In the lifted layout, with the first n_target columns the target
    stages, row 1 + a holds the mass whose occupancy is lo + a once the
    current step is counted: the target stages' mass of occupancy lo + a - 1
    and the other stages' of lo + a (lo is 0 until occupancy_distribution
    trims its band). Column d holds the mass absorbed so far at each row's
    occupancy. Row 0 is the surviving stage vector, the sum of all
    occupancy rows, which _recurrence stops on.

    step(band, k) applies matrix k's bordered step [[U', b], [0, 1]] (see
    _absorbing_step) as two products by its column blocks, split at
    n_target, both written into a new table one row longer than `band`:
    the target block one row down, which counts the next step for the mass
    it moves into the target stages, and the block of the other columns and
    the absorbed column in the same rows. Row 0's target part then moves
    back up, and the new last row's other columns are zeroed. The step
    keeps nothing between calls and leaves `band` as it was.
    """
    v = _occupancy_start(schedule, initial, target)
    order = np.argsort(target.mask == 0, kind="stable")
    v, schedule, n_target, d = v[order], schedule._permuted(order), len(target.members), schedule.d
    blocks = [(S[:, :n_target].copy(), S[:, n_target:].copy())
              for S in map(_absorbing_step, schedule.matrices, schedule._absorptions)]
    band = np.zeros((3, d + 1))
    band[0, :d], band[1, n_target:d], band[2, :n_target] = v, v[n_target:], v[:n_target]

    def step(band, k):
        n = band.shape[0]
        out = np.empty((n + 1, d + 1))
        moved, kept = blocks[k]
        np.matmul(band, moved, out=out[1:, :n_target])
        np.matmul(band, kept, out=out[:n, n_target:])
        out[0, :n_target] = out[1, :n_target]
        out[1, :n_target] = 0.0
        out[n, n_target:] = 0.0
        return out

    return schedule, band, order, step


def _unlifted(band, n_target) -> np.ndarray:
    """The table p(lo + a, .), a = 0 .. rows - 3, of a band in the lifted
    layout (see _target_first) whose row 1 holds no target mass, as every
    band the step returns: the target stages' rows come from one row
    further down than the others'."""
    return np.hstack((band[2:, :n_target], band[1:-1, n_target:-1]))


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
        t = _integer(n, "n") - self.start
        if not 0 <= t <= self.horizon:
            raise ValueError(f"time {n} outside table range {self.start}..{self.start + self.horizon}")
        return t

    def joint(self, a: int, n: int) -> np.ndarray:
        """Per-stage probabilities of (occupancy == a, alive) at time n."""
        t = self._elapsed(n)
        a = _integer(a, "a")
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
        weights = np.arange(rows.shape[0], dtype=float) ** _integer(k, "k", 0)
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
    not happened within max_horizon steps. A chain that never absorbs would
    keep about max_horizon**2 / 2 rows before that, so the stage vector,
    row 0 of the table, first takes the lifetime path (chain._kept_states),
    in O(d) memory a step, to raise there instead. The number of its states
    less one is the horizon, and the tables then take that many steps from
    `start` (see _target_first for their step and layout), un-lifted as
    they are kept.
    """
    schedule, band, order, step = _target_first(schedule, initial, target)
    states = _kept_states(schedule, band[0, :-1], start, lambda w, k: w.dot(schedule._transposes[k]), 0, tail_tol,
                          max_horizon)
    back, n_target = np.argsort(order), len(target.members)
    ks = itertools.islice(schedule.indices(start), len(states) - 1)
    tables = [_unlifted(lifted, n_target)[:, back] for lifted in itertools.accumulate(ks, step, initial=band)]
    for table in tables:
        table.flags.writeable = False
    return JointOccupancyTable(start=int(start), values=tuple(tables))


def _closed_distribution(rows, lo, atoms, period, r, tail_tol):
    """Occupancy atoms and tail_mass of table `rows` (p(lo + a, j) at the
    first step of the repeating `period`, as _closing_tail gives it) plus
    the `atoms` lost before it.

    From each stage, the number of further target visits is read off the
    visit chain censored on the target stages of the p*d phase x stage chain
    G: E = G_RN (I - G_NN)^-1 takes a non-target stage to the target stage
    it next visits, Q = G_RR + E G_NR one target visit to the next, and
    s = 1 - 1'Q is the chance of none after a visit. The table, moved to its
    next visit, is convolved directly, as one product summed along its
    anti-diagonals (no FFT, so atoms stay nonnegative), with the visit pmf
    s' Q^(k-1), k = 1, 2, ..., until the mass still to visit, the returned
    tail_mass, falls below tail_tol. Both power series, the mass still to
    visit (Q^k applied to the waiting mass) and the visit pmf, are summed
    by _segment_tail.
    """
    (_, matrices, _), d = period, r.size
    p = len(matrices)
    G = np.zeros((p, d, p, d))
    for m, H in enumerate(matrices):
        G[(m + 1) % p, :, m, :] = H
    G = G.reshape(p * d, p * d)
    R, N = np.flatnonzero(np.tile(r, p)), np.flatnonzero(np.tile(r == 0, p))
    r0, n0 = np.flatnonzero(r), np.flatnonzero(r == 0)
    rhs = np.hstack([G[np.ix_(N, R)], np.eye(N.size, n0.size)])  # block 0 comes first in N
    W = np.maximum(np.linalg.solve(np.eye(N.size) - G[np.ix_(N, N)], rhs), 0.0)
    Q = G[np.ix_(R, R)] + G[np.ix_(R, N)] @ W[:, :R.size]
    E = G[np.ix_(R, N)] @ W[:, R.size:]
    Y = rows[:, n0] @ E.T
    Y[:, :r0.size] += rows[:, r0]
    waiting, K = _segment_tail(Y.sum(axis=0), 1, lambda X, _: X.dot(Q.T), sys.maxsize,
                               lambda rows, k: _first_negligible(rows.sum(axis=1), k, 0, tail_tol))
    top = lo + rows.shape[0]
    out = np.zeros(max(atoms.size, top + K))
    out[: atoms.size] = atoms
    out[lo:top] += rows[:, n0] @ np.maximum(1.0 - E.sum(axis=0), 0.0)
    if K:
        pmf, _ = _segment_tail(np.maximum(1.0 - Q.sum(axis=0), 0.0), 1, lambda X, _: X.dot(Q), K - 1)
        # sum_i convolve(Y[:, i], pmf[:K, i]): pmf[k] . Y[a] summed along k + a
        out[lo + 1 : top + K] += _antidiagonal_sums(pmf[:K] @ Y.T)
    return out, float(waiting[K].sum())


def _antidiagonal_sums(C) -> np.ndarray:
    """Sums of C[i, j] over i + j = 0, 1, ..., sum(C.shape) - 2. Taken along
    its shorter side, C, padded with as many zero columns as it has rows,
    is read as rows one entry shorter, which moves row i right by i."""
    C = C if C.shape[0] <= C.shape[1] else C.T
    (rows, columns), width = C.shape, sum(C.shape)
    sheared = np.zeros((rows, width))
    sheared[:, :columns] = C
    return sheared.ravel()[: rows * (width - 1)].reshape(rows, width - 1).sum(axis=0)


def occupancy_distribution(
    schedule: Schedule,
    initial,
    target: TargetSet,
    start: int = 0,
    tail_tol: float = DEFAULT_TAIL_TOL,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> OccupancyDistribution:
    """Distribution of the lifetime number of steps spent in `target`.

    The table is stepped in the lifted layout (see _target_first), whose
    absorbed column gathers each occupancy's absorption losses as the steps
    go; they join the atoms where the trim cuts a row and at the end, so
    the atoms need no pass over a stored table stack. Truncation mirrors
    lifetime_distribution: the n-sum stops once surviving mass is below
    tail_tol and the neglected mass is reported as the tail (each stored
    atom is exact up to that tail).

    The table is carried as a band of rows lo, lo + 1, ... Every
    _TRIM_EVERY steps the leading and trailing rows whose combined mass fits
    a running allowance of tail_tol * t / (2 * max_horizon) at step t are
    cut off, so no more than tail_tol / 2 is cut over a run. The table's
    row 0, the surviving stage vector (see _target_first), still holds
    their mass, so the loop stops, and raises NonAbsorbingError, at the
    step and with the surviving mass of the full table. The cut mass is
    part of tail_mass: for a recurrence result tail_mass is the band's mass
    alive at the horizon plus the cut mass, so atoms plus tail_mass still
    sum to 1.

    A hold-last or cycle schedule whose mass is not yet negligible where it
    becomes homogeneous is closed there exactly by _closed_distribution
    instead, if that tail is closable (see chain._closing_tail); tail_mass
    is then the probability of an occupancy beyond the last atom plus the
    cut mass, together below tail_tol, as the visit series stops at
    tail_tol less the cut mass.
    """
    schedule, band, order, step = _target_first(schedule, initial, target)
    tail_tol, max_horizon = _check_truncation(tail_tol, max_horizon)
    n_target, d, ones = len(target.members), schedule.d, np.ones(schedule.d)
    lo, cut, steps, spent = 0, 0.0, 0, []

    def advance(band, k):
        # first cuts the edge rows that fit the allowance, keeping row 0;
        # they never all fit, as the surviving mass, at least tail_tol, is at
        # most the band's plus cut. A cut row's absorbed mass is not cut: it
        # joins the atoms at the row's occupancy.
        nonlocal lo, cut, steps
        steps += 1
        if steps % _TRIM_EVERY == 0:
            allowance = tail_tol * steps / (2 * min(max_horizon, sys.maxsize))
            mass = (band[1:, :d] @ ones).tolist()
            i = j = 0
            while cut + mass[i] <= allowance:
                cut, i = cut + mass[i], i + 1
            while cut + mass[-1 - j] <= allowance:
                cut, j = cut + mass[-1 - j], j + 1
            if i + j:
                rows = np.r_[1 : i + 1, len(mass) + 1 - j : len(mass) + 1]
                spent.append((lo - 1 + rows, band[rows, d]))
                kept = band[i : len(mass) + 1 - j]
                kept[0] = band[0]
                band, lo = kept, lo + i
        return step(band, k)

    period = schedule.prefix_length if schedule.extension == "cycle" else 1
    band, tail = _recurrence(schedule, band, start, tail_tol, max_horizon, advance,
                             closes=period * d <= MAX_CLOSED_CYCLE_STATES)
    spent.append((np.arange(lo, lo + band.shape[0] - 1), band[1:, d]))
    occupancies, losses = map(np.concatenate, zip(*spent))
    atoms = np.bincount(occupancies, losses)
    if tail is None:
        tail_mass = float(band[1:, :d].sum())
    else:
        atoms, tail_mass = _closed_distribution(_unlifted(band, n_target), lo, atoms, tail[1], target.mask[order],
                                                tail_tol - cut)
    nonzero = np.flatnonzero(atoms)
    return OccupancyDistribution(dict(zip(nonzero.tolist(), atoms[nonzero].tolist())), tail_mass=tail_mass + cut)


@functools.lru_cache(maxsize=2)
def _binomial_shift(order: int) -> np.ndarray:
    """Strictly lower-triangular matrix with L[k, i] = C(k, i), i < k.

    Rows are built by Pascal's rule, C(k, i) = C(k-1, i) + C(k-1, i-1), in
    float64: exact up to order 57, where the weights pass 2**53, and within
    2e-15 relative of math.comb up to the largest order allowed, 1029.
    The last two orders asked for are kept, read-only, so that a moment
    engine builds its table once (its step and a closed tail both read it);
    at order 1029 one table holds 8.5 MB.
    """
    if math.comb(order, order // 2) > sys.float_info.max:
        raise ValueError(f"binomial weights of order {order} overflow float64")
    pascal = np.zeros((order + 1, order + 1))
    pascal[:, 0] = 1.0
    for k in range(1, order + 1):
        pascal[k, 1 : k + 1] = pascal[k - 1, 1 : k + 1] + pascal[k - 1, :k]
    shift = np.tril(pascal, -1)
    shift.flags.writeable = False
    return shift


def _moment_start(chain, initial, target: TargetSet, order: int, steps):
    """The moment stack M of p(0, start), rows 1..order zero, the step
    operands W and the step advance(M, k) = (M + (L @ M) * r) @ steps[k],
    of a moment stack or of a batch of them, k then an index array with one
    entry per stack. advance(M, j, gathered) takes the operand gathered[j]
    instead of W[k], for operands gathered from W ahead of the steps.

    steps[k] is U_k' for each chain matrix U_k, or its _absorbing_step; M
    then has one more column, the moments of the mass absorbed so far,
    which the lift M + (L @ M) * r leaves alone.

    The step is two products. P = M @ W[k], with W[k] = [S | r[:, None] * S]
    and S = steps[k], holds M S and M (r S) side by side; read as
    2 * (order + 1) rows of M's width, it is summed by J, the identity and
    L interleaved by column, into M S + L @ (M (r S)). That is the same
    linear map, as ((L @ M) * r) @ S = L @ M @ (r S), summed in another
    order. Row 0 of J picks row 0 of M S alone, so the stage vector moves
    by the one product U' w.

    One stack takes both products through ndarray.dot: the same BLAS gemm
    as the @ operator, with the same bits, without @'s dispatch, which at
    these sizes costs more than the arithmetic. A batch keeps matmul, which
    dot does not broadcast.
    """
    steps = np.asarray(steps)
    width = steps.shape[-1]
    M = np.zeros((order + 1, width))
    M[0, : chain.d] = _occupancy_start(chain, initial, target)
    r = np.zeros(width)
    r[: chain.d] = target.mask
    W = np.concatenate((steps, r[:, np.newaxis] * steps), axis=-1)
    J = np.zeros((order + 1, 2 * order + 2))
    J[:, 0::2] = np.eye(order + 1)
    J[:, 1::2] = _binomial_shift(order)
    rows = (2 * order + 2, width)
    batch = (-1, *rows)

    def advance(M, k, W=W):
        if M.ndim == 2:
            return J.dot(M.dot(W[k]).reshape(rows))
        return J @ (M @ W[k]).reshape(batch)

    return M, W, advance


def _absorbing_step(U, b) -> np.ndarray:
    """The step of a moment stack with an absorbed column (see _moment_start):
    U' bordered by the absorption column b, which adds lifted @ b to the
    absorbed moments, and a 1, which keeps them. The absorbed moments thus
    come out of the same matrix product as the stack, so occupancy_moments
    and a batch of stacks stepped together (randomenv) compute them alike.
    """
    d = U.shape[0]
    step = np.eye(d + 1)
    step[:d, :d] = U.T
    step[:d, d] = b
    return step


def _closed_moments(M, period, r):
    """E[(a + V)^k], k = 0..order, summed over the stack M of one phase of
    the repeating `period` (as _closing_tail gives it), V being the target
    visits still to come.

    The backward per-stage moments u_k = E[V^k | stage] solve, phase by
    phase, u_k = c_k + H' u_k(next phase) with c_k = r * (1 + sum_{0<i<k}
    C(k, i) H' u_i(next phase)) (Caswell 2011's Markov chains with rewards;
    Roth & Caswell 2018 for one held matrix). Around the cycle this is one
    d x d system in I - Pi', Pi the period product, solved once per order
    and substituted back through the phases. The stack then gives
    sum_i C(k, i) M_{k-i} . u_i.
    """
    (_, matrices, product), order, d = period, M.shape[0] - 1, r.size
    p = len(matrices)
    pascal = _binomial_shift(order) + np.eye(order + 1)
    inverse = np.linalg.inv(np.eye(d) - product.T)
    u = np.zeros((order + 1, p, d))       # u[k, m]: u_k at phase m
    ahead = np.zeros((order + 1, p, d))   # ahead[k, m]: H_m' u_k(phase m + 1)
    u[0] = 1.0
    for k in range(1, order + 1):
        c = r * (1.0 + pascal[k, 1:k].dot(ahead[1:k].reshape(k - 1, p * d)).reshape(p, d))
        carried = c[p - 1]
        for m in range(p - 2, -1, -1):
            carried = c[m] + matrices[m].T @ carried
        u[k, 0] = inverse @ carried
        for m in range(p - 1, 0, -1):
            u[k, m] = c[m] + matrices[m].T @ u[k, (m + 1) % p]
        ahead[k] = [H.T @ u[k, (m + 1) % p] for m, H in enumerate(matrices)]
    ks = np.arange(order + 1)
    pairs = (M @ u[:, 0].T)[np.maximum(ks[:, None] - ks, 0), ks]   # [k, i <= k]: M_{k-i} . u_i
    return (pascal * pairs).sum(axis=1)


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
        t, k = _integer(n, "n") - self.start, _integer(k, "k")
        if not 0 <= t <= self.horizon:
            raise ValueError(f"time {n} outside table range {self.start}..{self.start + self.horizon}")
        if not 0 <= k <= self.order:
            raise ValueError(f"moment order {k} outside 0..{self.order}")
        return self.values[t, k]


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
    moments into higher ones whenever a target stage is occupied; it is
    computed as two products (see _moment_start).

    Truncation is moment-aware: because survivors at time t can still add
    occupancy totals up to about t to the k-th moment with weight t^k, the
    loop runs until the surviving mass times (t+1)^order drops below
    tail_tol, not just the mass alone. The neglected contribution to every
    reported moment is then of order tail_tol rather than
    tail_tol * horizon^order.

    A hold-last or cycle tail is evaluated by segments (see
    chain._kept_states), to the same horizon and with the same errors.
    """
    order = _integer(order, "order", 0)
    with _overflow_named(order):
        M, _, advance = _moment_start(schedule, initial, target, order, schedule._transposes)
        values = _kept_states(schedule, M, start, advance, order, tail_tol, max_horizon)
        if not np.isfinite(values[-1]).all():
            raise FloatingPointError
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
    absorption losses into one more column of the stack (_absorbing_step),
    and uses the same moment-aware stopping rule (see moment_tables), so the
    truncation error in each reported moment is of order tail_tol. A
    hold-last or cycle schedule whose weighted mass is not yet negligible
    where it becomes homogeneous is closed there exactly by _closed_moments,
    with no truncation error, if that tail is closable (see
    chain._closing_tail).
    """
    order = _integer(order, "order", 1)
    d = schedule.d
    steps = [_absorbing_step(U, b) for U, b in zip(schedule.matrices, schedule._absorptions)]
    with _overflow_named(order):
        M, _, advance = _moment_start(schedule, initial, target, order, steps)
        M, tail = _recurrence(schedule, M, start, tail_tol, max_horizon, advance, order=order, closes=True)
        acc = M[:, d]
        if tail:
            acc = acc + _closed_moments(M[:, :d], tail[1], target.mask)
        if not np.isfinite(acc).all():
            raise FloatingPointError
    return [float(x) for x in acc[1:]]


@contextlib.contextmanager
def _overflow_named(order: int):
    """Turn a float64 overflow in the moment arithmetic, or the invalid
    operation that follows one, into a ValueError naming the moment order.

    ndarray.dot reports floating-point errors only where numpy trusts its
    BLAS to flag them, so the engines also raise FloatingPointError
    themselves on a non-finite result."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise ValueError(f"occupancy moments up to order {order} overflow float64") from None


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
    if variance < -VARIANCE_TOL * max(1.0, abs(float(second_moment))):
        raise NegativeVarianceError(first_moment, second_moment)
    variance = max(variance, 0.0)
    cv = math.sqrt(variance) / first if first != 0.0 else math.nan
    return SummaryStats(mean=first, variance=variance, cv=cv)
