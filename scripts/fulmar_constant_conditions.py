"""Breeding-time statistics for the built-in fulmar model, one constant
environmental condition at a time.

For every condition matrix and every starting stage this prints the mean,
variance, and coefficient of variation of the lifetime number of breeding
attempts (years spent in either breeder stage), together with the mean
lifetime. Everything here is exact (matrix recurrences, no simulation).

Usage: python3 scripts/fulmar_constant_conditions.py
"""

import numpy as np

import stagedwell as sw


def main() -> None:
    data = sw.builtin_fulmar()
    states = data.states
    target = data.target_set()  # the two breeder stages

    header = f"{'condition':12s} {'start stage':20s} {'E[life]':>9s} " \
             f"{'E[tau]':>9s} {'Var[tau]':>9s} {'CV':>7s}"
    print(header)
    print("-" * len(header))
    for name, matrix in data.conditions():
        schedule = sw.Schedule.constant(matrix)
        for j, label in enumerate(states.labels):
            v = np.zeros(states.d)
            v[j] = 1.0
            life = sw.lifetime_distribution(schedule, v).mean()
            m1, m2 = sw.occupancy_moments(schedule, v, target, order=2)
            stats = sw.summary_stats(m1, m2)
            print(f"{name:12s} {label:20s} {life:9.4f} "
                  f"{stats.mean:9.4f} {stats.variance:9.4f} {stats.cv:7.4f}")
        print()


if __name__ == "__main__":
    main()
