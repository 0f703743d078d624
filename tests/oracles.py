"""Independent reference implementations used only by the tests.

These deliberately avoid the package's recurrences. The brute-force oracles
sum over every individual path of the chain, listed as numpy arrays for the
lifetime and occupancy joint and walked in pure Python otherwise; the phase-type
oracle evaluates the closed-form b' B^(n-1) v by explicit matrix powers; the
mean oracles close an infinite horizon with a fundamental matrix (I - G)^-1;
the moment-table oracle carries the whole occupancy table p(a, j) forward
and weights it by a^k, instead of stacking the moments; the block oracle
walks each simulated life one Python float at a time.
"""

from collections import defaultdict
from itertools import accumulate

import numpy as np


def brute_force_joint(matrices, v, target_indices, horizon):
    """Exhaustive path sum: dict (lifetime, occupancy) -> probability.

    `matrices` drive steps 0 .. horizon-1 (column convention, plain nested
    sequences); any individual still alive at time `horizon` is killed on the
    following step. Occupancy counts the stage occupied before each
    transition, including the forced final one. Every path of nonzero
    probability is listed, one array entry per path in the order of a
    depth-first walk: at step t each path of t steps dies or moves to each
    of the d stages, its probability the product of its initial entry and
    its transition entries, in path order. Cost is O(d^horizon): keep
    d <= 3 and horizon <= 12.
    """
    d = len(v)
    in_target = np.isin(np.arange(d), list(target_indices)).astype(int)
    joint = defaultdict(float)
    stage, prob, occ = np.arange(d), np.array(v, dtype=float), np.zeros(d, dtype=int)
    for t in range(horizon + 1):
        live = prob != 0.0
        stage, prob = stage[live], prob[live]
        occ = occ[live] + in_target[stage]
        if t < horizon:
            B = np.array(matrices[t], dtype=float)
            died = prob * (1.0 - B.sum(axis=0))[stage]
        else:
            died = prob
        sums = np.bincount(occ, weights=died)
        for a in np.unique(occ).tolist():
            joint[(t + 1, a)] += float(sums[a])
        if t < horizon:   # path p moving to stage i becomes path p * d + i
            prob = (prob[:, None] * B[:, stage].T).ravel()
            stage, occ = np.tile(np.arange(d), stage.size), occ.repeat(d)
    return dict(joint)


def walked_joint(matrices, v, target_indices, horizon):
    """brute_force_joint by a depth-first walk over the same paths, one
    Python call per path step: the reference the path arrays are checked
    against. Keep d <= 3 and horizon <= 8."""
    d = len(v)
    in_target = [1 if j in set(target_indices) else 0 for j in range(d)]
    joint = defaultdict(float)

    def walk(t, j, prob, occ):
        if prob == 0.0:
            return
        occ += in_target[j]
        if t == horizon:
            joint[(t + 1, occ)] += prob
            return
        joint[(t + 1, occ)] += prob * (1.0 - sum(matrices[t][i][j] for i in range(d)))
        for i in range(d):
            walk(t + 1, i, prob * matrices[t][i][j], occ)

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


def simulated_block(schedule, v, target_indices, seed, block, start, steps, width=1000):
    """Lifetimes and occupancies of every row of block `block` of a seeded
    simulation from time `start`, as two lists indexed by row.

    The block's uniforms are drawn at once, default_rng((seed, block))
    .random((steps + 1, width)): row 0 is the draw that picks the initial
    stages, row t + 1 the draw of step t. Each life is then walked in
    plain Python: from stage j, a uniform u moves it to the first stage i
    with u below the cumulative sum of column j of the matrix at time
    start + t up to row i, and to absorption if there is none; the initial
    stage is the first whose cumulative v exceeds u, the last if none does.
    Raises AssertionError if a life outlasts the `steps` drawn.
    """
    d = len(v)
    members = set(target_indices)
    draws = np.random.default_rng((seed, block)).random((steps + 1, width)).tolist()
    cumulative_v = list(accumulate(float(x) for x in v))
    columns = {}   # time -> cumulative sums of each column of its matrix
    lifetimes, occupancies = [], []
    for r in range(width):
        u = draws[0][r]
        j = next((i for i, c in enumerate(cumulative_v) if u < c), d - 1)
        t = occupancy = 0
        while j < d:
            assert t < steps, f"row {r} outlives the {steps} steps drawn"
            if start + t not in columns:
                m = schedule.matrix_at(start + t).tolist()
                columns[start + t] = [list(accumulate(m[i][k] for i in range(d))) for k in range(d)]
            occupancy += j in members
            u = draws[t + 1][r]
            j = next((i for i, c in enumerate(columns[start + t][j]) if u < c), d)
            t += 1
        lifetimes.append(t)
        occupancies.append(occupancy)
    return lifetimes, occupancies
