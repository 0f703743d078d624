"""Shared generators for randomized tests. Everything is driven by an
explicit numpy Generator so hypothesis can shrink over seeds."""

import functools
import itertools
import sys

import numpy as np

import stagedwell as sw
from stagedwell import chain


def random_substochastic(rng, d, low=0.2, high=0.95):
    """Random d x d column-substochastic matrix with column sums in [low, high]."""
    raw = rng.uniform(0.05, 1.0, size=(d, d))
    sums = rng.uniform(low, high, size=d)
    return raw / raw.sum(axis=0) * sums


def random_distribution(rng, d):
    return rng.dirichlet(np.ones(d))


def random_schedule(rng, d, n_matrices=3, length=50, extension="hold_last",
                    low=0.2, high=0.95):
    mats = [random_substochastic(rng, d, low, high) for _ in range(n_matrices)]
    seq = rng.integers(0, n_matrices, size=length)
    return sw.Schedule.explicit(mats, seq, extension)


def listed_steps(schedule, start, steps, extension="error"):
    """Steps start .. start + steps - 1 of `schedule`, listed from step 0 as
    index_at gives them and extended by `extension` (by default, not at all)."""
    return sw.Schedule.explicit(schedule.matrices, [schedule.index_at(n) for n in range(start, start + steps)],
                                extension)


def random_target(rng, d):
    members = [i for i in range(d) if rng.random() < 0.5]
    return sw.TargetSet(d, frozenset(members))


def never_entered_blocks():
    """Held matrices whose stage 0 keeps half its mass and whose other
    stages form a block it never enters, normalized by its column sums, one
    of which rounds to 1 - 1 ulp: rounding, not a stage that can die."""
    for seed, k in [(84, 2), (16, 3), (2, 4)]:
        block = np.random.default_rng(seed).random((k, k))
        block /= block.sum(axis=0)
        assert (block.sum(axis=0) == np.nextafter(1.0, 0.0)).any()
        H = np.zeros((k + 1, k + 1))
        H[0, 0], H[1:, 1:] = 0.5, block
        yield H


def squared_closing_tail(schedule, start, t0, x, order, tail_tol, max_horizon):
    """Reference for chain._closing_tail: the closing-step check that squares
    the period product until the first power's column-sum bound alone, times
    the mass, passes the stopping rule at max_horizon. It decides what the
    check decides, (t0, period, closable) or the same NonAbsorbingError, but
    a contracting period here takes one read per squaring."""
    p = schedule.prefix_length if schedule.extension == "cycle" else 1
    ks = list(itertools.islice(schedule.indices(start + t0), p))
    matrices = [schedule.matrices[k] for k in ks]
    period = ks, matrices, functools.reduce(lambda acc, H: H @ acc, matrices)
    q, rest = divmod(max_horizon - t0, p)
    power, steps, y, closable = period[2], p, x, False
    while q:
        bound = float(power.sum(axis=0).max())
        closable = closable or bound < 1.0 - 4 * (x.size + 1) * steps * sys.float_info.epsilon
        if bound <= 1.0 and chain._negligible(float(y.sum()) * bound, max_horizon, order, tail_tol):
            return t0, period, closable
        if q & 1:
            y = power @ y
        power, q, steps = power @ power, q >> 1, 2 * steps
    for H in matrices[:rest]:
        y = H @ y
    if chain._negligible(mass := float(y.sum()), max_horizon, order, tail_tol):
        return t0, period, closable
    if mass < tail_tol:
        for t, H in zip(range(t0 + 1, max_horizon), itertools.cycle(matrices)):
            x = H @ x
            if chain._negligible(float(x.sum()), t, order, tail_tol):
                return t0, period, closable
    raise sw.NonAbsorbingError(mass, max_horizon)
