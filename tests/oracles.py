"""Independent reference implementations used only by the tests.

These deliberately avoid the package's recurrences. The brute-force oracle
sums over every individual path of the chain in pure Python; the phase-type
oracle evaluates the closed-form b' B^(n-1) v by explicit matrix powers; the
mean oracles close an infinite horizon with a fundamental matrix (I - G)^-1;
the moment-table oracle carries the whole occupancy table p(a, j) forward
and weights it by a^k, instead of stacking the moments.
"""

from collections import defaultdict

import numpy as np


def brute_force_joint(matrices, v, target_indices, horizon):
    """Exhaustive path sum: dict (lifetime, occupancy) -> probability.

    `matrices` drive steps 0 .. horizon-1 (column convention, plain nested
    sequences); any individual still alive at time `horizon` is killed on the
    following step. Occupancy counts the stage occupied before each
    transition, including the forced final one. Cost is O(d^horizon): keep
    d <= 3 and horizon <= 12.
    """
    d = len(v)
    in_target = [1 if j in set(target_indices) else 0 for j in range(d)]
    cols = []  # cols[t][j] = list of (next_state, prob), plus death deficit
    deaths = []
    for t in range(horizon):
        B = matrices[t]
        cols.append([[(i, B[i][j]) for i in range(d)] for j in range(d)])
        deaths.append([1.0 - sum(B[i][j] for i in range(d)) for j in range(d)])
    joint = defaultdict(float)

    def walk(t, j, prob, occ):
        if prob == 0.0:
            return
        occ += in_target[j]
        if t == horizon:
            joint[(t + 1, occ)] += prob
            return
        joint[(t + 1, occ)] += prob * deaths[t][j]
        for i, p in cols[t][j]:
            walk(t + 1, i, prob * p, occ)

    for j in range(d):
        walk(0, j, float(v[j]), 0)
    return dict(joint)


def brute_force_alive(matrices, v, target_indices, n):
    """Exhaustive path sum for the table at time n: dict (occupancy, stage)
    -> probability of being alive in `stage` at time n, having spent
    `occupancy` of the steps 0 .. n-1 in the target stages.

    `matrices` drive steps 0 .. n-1 (column convention, plain nested
    sequences). Cost is O(d^n): keep d <= 3 and n <= 8.
    """
    d = len(v)
    members = set(target_indices)
    alive = defaultdict(float)

    def walk(t, j, prob, occ):
        if prob == 0.0:
            return
        if t == n:
            alive[(occ, j)] += prob
            return
        occ += j in members
        for i in range(d):
            walk(t + 1, i, prob * matrices[t][i][j], occ)

    for j in range(d):
        walk(0, j, float(v[j]), 0)
    return dict(alive)


def brute_force_occupancy(matrices, v, target_indices, horizon):
    """Occupancy marginal of brute_force_joint: dict a -> probability."""
    occ = defaultdict(float)
    for (_, a), p in brute_force_joint(matrices, v, target_indices, horizon).items():
        occ[a] += p
    return dict(occ)


def brute_force_moment(matrices, v, target_indices, horizon, k):
    return sum(p * a**k for a, p in
               brute_force_occupancy(matrices, v, target_indices, horizon).items())


def phase_type_pmf(B, v, n_max):
    """P{lifetime = n} = b' B^(n-1) v for n = 1 .. n_max, by matrix powers."""
    B = np.asarray(B, dtype=float)
    v = np.asarray(v, dtype=float)
    b = 1.0 - B.sum(axis=0)
    return np.array([
        float(b @ np.linalg.matrix_power(B, n - 1) @ v) for n in range(1, n_max + 1)
    ])


def periodic_phase_type_pmf(period, v, n_max):
    """P{lifetime = n} for n = 1 .. n_max when the `period` matrices repeat
    forever from v: b_m' B_(s-1) ... B_0 Pi^q v for n - 1 = q p + s, m = s,
    with Pi = B_(p-1) ... B_0 raised to q by matrix powers."""
    period = [np.asarray(B, dtype=float) for B in period]
    p = len(period)
    product = np.linalg.multi_dot(period[::-1]) if p > 1 else period[0]
    pmf = []
    for n in range(1, n_max + 1):
        q, s = divmod(n - 1, p)
        x = np.linalg.matrix_power(product, q) @ np.asarray(v, dtype=float)
        for B in period[:s]:
            x = B @ x
        pmf.append(float((1.0 - period[s].sum(axis=0)) @ x))
    return np.array(pmf)


def forward_moment_table(matrices, v, target_indices, order, steps):
    """[t, k, j] = E[a^k; alive in stage j at time t] for t = 0 .. steps, k =
    0 .. order, a counting the steps before t spent in the target stages.

    Carries the full table p(a, j) forward, matrices[t] acting at step t
    (column convention), and sums a^k p(a, j) over a at each time.
    """
    v = np.asarray(v, dtype=float)
    r = np.zeros(v.size)
    r[list(target_indices)] = 1.0
    table = v[np.newaxis, :]
    out = []
    for t in range(steps + 1):
        a = np.arange(table.shape[0], dtype=float)
        out.append([(a ** k) @ table for k in range(order + 1)])
        if t < steps:
            moved = np.zeros((table.shape[0] + 1, v.size))
            moved[:-1] += table * (1.0 - r)
            moved[1:] += table * r
            table = moved @ np.asarray(matrices[t], dtype=float).T
    return np.array(out)


def hold_last_mean(prefix, held, v, w):
    """E[sum_n w' x_n] for x_0 = v, x_(n+1) = U_n x_n, the `prefix` matrices
    acting in turn and `held` forever after.

    The prefix is summed step by step and the rest closed with the
    fundamental matrix of `held`. With w = r this is the mean occupancy
    time, with w = 1 the mean lifetime.
    """
    x = np.asarray(v, dtype=float)
    total = 0.0
    for U in prefix:
        total += float(w @ x)
        x = U @ x
    return total + float(w @ np.linalg.solve(np.eye(len(x)) - held, x))


def periodic_mean(period, v, w):
    """E[sum_n w' x_n] when the `period` matrices repeat forever from v.

    Solved in one piece on the block-cyclic chain G over (phase, stage):
    block m moves to block m + 1 (mod p) by period[m], and the life starts
    in block 0.
    """
    p, d = len(period), len(v)
    G = np.zeros((p * d, p * d))
    for m, U in enumerate(period):
        n = (m + 1) % p
        G[n * d:(n + 1) * d, m * d:(m + 1) * d] = U
    x = np.zeros(p * d)
    x[:d] = v
    return float(np.tile(w, p) @ np.linalg.solve(np.eye(p * d) - G, x))
