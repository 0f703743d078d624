"""Closed-form answers computed apart from stagedwell, from the raw inputs.

Everything here uses numpy and the JSON module only. Matrices are
column-oriented, as in the scenario files: entry (i, j) is the probability
of moving from stage j to stage i, and a column's deficit from 1 is death.
`r` is the 0/1 mask of the target stages and `v` the entry distribution.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def read_scenario(path: Path) -> dict:
    """The parts of a scenario file the oracles need, parsed with json alone."""
    raw = json.loads(Path(path).read_text())
    states = list(raw["states"])
    matrices = {name: np.array(body, dtype=float) for name, body in raw["matrices"].items()}
    if raw.get("orientation") == "row-stochastic-convention":
        matrices = {name: m.T for name, m in matrices.items()}
    r = np.array([1.0 if s in raw["target_set"] else 0.0 for s in states])
    return {
        "states": states,
        "matrices": matrices,
        "schedule": raw["schedule"],
        "v": np.array(raw["initial"], dtype=float),
        "r": r,
    }


def fundamental(U: np.ndarray) -> np.ndarray:
    """N = (I - U)^-1, the expected visits to each stage."""
    return np.linalg.inv(np.eye(len(U)) - U)


def constant_moments(U, v, r, order: int) -> list[float]:
    """Raw moments E[tau^k], k = 1..order, under one matrix held forever.

    k = 1, 2 use E[tau] = r'Nv and E[tau^2] = r'Nv + 2 r'(N - I) R N v.
    Higher orders follow the Markov-chain-with-rewards recursion on the
    per-stage moments u_k = (I - U')^-1 [r * (1 + sum_{i<k} C(k, i) U' u_i)].
    """
    d = len(U)
    N = fundamental(U)
    m1 = float(r @ N @ v)
    m2 = m1 + 2.0 * float(r @ (N - np.eye(d)) @ np.diag(r) @ N @ v)
    out = [m1, m2][:order]
    u = [np.ones(d)]
    A = np.eye(d) - U.T
    for k in range(1, order + 1):
        rhs = r * (1.0 + sum(math.comb(k, i) * (U.T @ u[i]) for i in range(1, k)))
        u.append(np.linalg.solve(A, rhs))
        if k > 2:
            out.append(float(v @ u[k]))
    return out


def hold_last_mean(steps, held, v, w) -> float:
    """E[sum_n w' Phi_n v] when `steps` act in turn and `held` repeats after.

    With w = r this is the mean occupancy time, with w = 1 the mean
    lifetime: explicit products over the listed steps, closed with
    (I - held)^-1 for the infinite tail.
    """
    x = np.array(v, dtype=float)
    total = 0.0
    for U in steps:
        total += float(w @ x)
        x = U @ x
    return total + float(w @ fundamental(held) @ x)


def periodic_mean(period, v, w) -> float:
    """E[sum_n w' Phi_n v] for matrices repeating with the given period.

    Sums over one period and closes with (I - Pi)^-1, Pi the period product.
    """
    d = len(v)
    phis = [np.eye(d)]
    for U in period:
        phis.append(U @ phis[-1])
    closure = np.linalg.solve(np.eye(d) - phis[-1], v)
    return float(sum(w @ phi @ closure for phi in phis[:-1]))


def forward_moment_vectors(step_matrix, v, r, times):
    """Per-stage (E[alive in j at t], E[occupancy so far; alive in j at t]).

    Plain forward recursion w <- U w, a <- U (a + r*w), returned at each t
    in `times` (ascending).
    """
    w = np.array(v, dtype=float)
    a = np.zeros_like(w)
    out = {}
    wanted = set(times)
    for t in range(max(times) + 1):
        if t in wanted:
            out[t] = (w.copy(), a.copy())
        U = step_matrix(t)
        a = U @ (a + r * w)
        w = U @ w
    return out


def iid_sequence_stats(matrices, probs, v, w) -> tuple[float, float]:
    """Mean and variance over environment sequences of E[sum_n w'Phi_n v | seq].

    Each step draws matrix k with probability probs[k], independently. The
    mean is w'(I - Ubar)^-1 v with Ubar = sum p_k U_k. The second moment is
    (w(x)w + 2 w(x)q)'(I - K)^-1 (v(x)v) with K = sum p_k U_k(x)U_k and
    q = (Ubar N)' w, which sums E[(w'Phi_n v)(w'Phi_m v)] over all n, m.
    """
    d = len(v)
    Ubar = sum(p * U for p, U in zip(probs, matrices))
    N = fundamental(Ubar)
    mean = float(w @ N @ v)
    K = sum(p * np.kron(U, U) for p, U in zip(probs, matrices))
    q = (Ubar @ N).T @ w
    second = float((np.kron(w, w) + 2.0 * np.kron(w, q)) @ np.linalg.solve(np.eye(d * d) - K, np.kron(v, v)))
    return mean, max(second - mean * mean, 0.0)


def tv_bound(pmf: dict, tail_mass: float, n: int, failure_prob: float = 1e-6) -> float:
    """Total-variation distance an n-sample histogram stays under, w.p. 1 - failure_prob.

    E[TV] <= 1/2 sum_a sqrt(p_a (1 - p_a) / n); one sample moves TV by at
    most 1/n, so by McDiarmid TV exceeds its mean by more than
    sqrt(ln(1/failure_prob) / 2n) with probability at most failure_prob.
    The analytic tail mass is charged as unmatched.
    """
    mean_bound = 0.5 * sum(math.sqrt(p * (1.0 - p) / n) for p in pmf.values())
    return mean_bound + math.sqrt(math.log(1.0 / failure_prob) / (2.0 * n)) + tail_mass


def tv_distance(pmf: dict, tail_mass: float, counts: dict, n: int) -> float:
    """Total variation between an analytic pmf (plus its tail) and a histogram."""
    keys = set(pmf) | set(counts)
    return 0.5 * (sum(abs(pmf.get(a, 0.0) - counts.get(a, 0) / n) for a in keys) + tail_mass)
