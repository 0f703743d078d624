"""Shared generators for randomized tests. Everything is driven by an
explicit numpy Generator so hypothesis can shrink over seeds."""

import numpy as np

import stagedwell as sw


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
