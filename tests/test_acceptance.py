"""End-to-end acceptance checks at pinned tolerances.

Each test is one gate: it checks a closed form, an independent oracle, or a
cross-implementation identity, and enforces a wall-clock budget. Run with
``pytest -v tests/test_acceptance.py`` for one pass/fail line per gate;
``-s`` additionally shows the measured errors and timings.
"""

import time

import numpy as np
import pytest

import stagedwell as sw
from helpers import random_distribution, random_substochastic
from oracles import (
    brute_force_occupancy,
    hold_last_mean,
    periodic_mean,
    phase_type_pmf,
)


def _finish(t0: float, cap: float, label: str) -> None:
    elapsed = time.perf_counter() - t0
    print(f"{label}: elapsed {elapsed:.2f}s (budget {cap:g}s)")
    assert elapsed < cap, f"{label} exceeded its {cap}s budget ({elapsed:.2f}s)"


def test_fulmar_absorption_vectors():
    """Embedded dataset: per-condition absorption probabilities, to 1e-9."""
    t0 = time.perf_counter()
    expected = {
        "U_f": (0.08, 0.07, 0.09, 0.10),
        "U_o": (0.08, 0.07, 0.08, 0.10),
        "U_u": (0.08, 0.06, 0.07, 0.10),
    }
    data = sw.builtin_fulmar()
    worst = 0.0
    for name, b in expected.items():
        got = sw.absorption_vector(data.matrices[name])
        worst = max(worst, float(np.max(np.abs(got - np.asarray(b)))))
        assert np.allclose(got, b, rtol=0, atol=1e-9), (name, got)
    print(f"absorption vectors: max |error| {worst:.3e}")
    _finish(t0, 1.0, "fulmar absorption")


def test_geometric_closed_form():
    """d=2 one-way chain: occupancy atoms 0.5^(a+1), mean 1, E[tau^2]=3, var 2."""
    t0 = time.perf_counter()
    schedule = sw.Schedule.constant([[0.0, 0.0], [0.5, 0.5]])
    v = [1.0, 0.0]
    target = sw.TargetSet(2, frozenset({1}))

    dist = sw.occupancy_distribution(schedule, v, target, tail_tol=1e-12)
    worst = 0.0
    for a in range(50):
        err = abs(dist.pmf(a) - 0.5 ** (a + 1))
        worst = max(worst, err)
        assert err <= 1e-9, a

    m1, m2 = sw.occupancy_moments(schedule, v, target, order=2, tail_tol=1e-12)
    stats = sw.summary_stats(m1, m2)
    assert m1 == pytest.approx(1.0, rel=0, abs=1e-9)
    assert m2 == pytest.approx(3.0, rel=0, abs=1e-9)
    assert stats.variance == pytest.approx(2.0, rel=0, abs=1e-9)
    print(f"geometric: max atom error {worst:.3e}, "
          f"moment errors {abs(m1 - 1):.3e} {abs(m2 - 3):.3e}")
    _finish(t0, 1.0, "geometric closed form")


def test_phase_type_agreement():
    """Homogeneous lifetimes match explicit matrix powering, 1e-12 per atom."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202403)
    worst = 0.0
    for trial in range(25):
        d = int(rng.integers(1, 6))
        B = random_substochastic(rng, d)
        v = random_distribution(rng, d)
        dist = sw.lifetime_distribution(sw.Schedule.constant(B), v)
        oracle = phase_type_pmf(B, v, dist.max_support())
        for n in range(1, dist.max_support() + 1):
            err = abs(dist.pmf(n) - oracle[n - 1])
            worst = max(worst, err)
            assert err <= 1e-12, (trial, n)
    print(f"phase-type: 25 chains, max |error| {worst:.3e}")
    _finish(t0, 5.0, "phase-type agreement")


def test_full_state_occupancy_equals_lifetime():
    """With every stage targeted, occupancy time is the lifetime, 1e-12."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(77011)
    worst = 0.0
    for trial in range(25):
        d = int(rng.integers(2, 6))
        mats = [random_substochastic(rng, d) for _ in range(50)]
        schedule = sw.Schedule.explicit(mats, list(range(50)))
        v = random_distribution(rng, d)
        life = sw.lifetime_distribution(schedule, v)
        occ = sw.occupancy_distribution(schedule, v, sw.TargetSet.all_states(d))
        support = set(life.probs) | set(occ.probs)
        for n in support:
            err = abs(occ.pmf(n) - life.pmf(n))
            worst = max(worst, err)
            assert err <= 1e-12, (trial, n)
        assert abs(occ.tail_mass - life.tail_mass) <= 1e-12, trial
    print(f"full-target collapse: 25 schedules, max |error| {worst:.3e}")
    _finish(t0, 5.0, "full-state collapse")


def test_brute_force_path_enumeration():
    """Exhaustive path sums reproduce the distribution and two moments, 1e-12.
    The paths are walked once per trial; the moments are read off the
    enumerated distribution."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(55901)
    worst_atom = worst_moment = 0.0
    for trial in range(100):
        d = int(rng.integers(1, 4))
        horizon = int(rng.integers(3, 13))
        mats = []
        for _ in range(horizon):
            m = rng.uniform(0.05, 1.0, (d, d))
            mats.append(m / m.sum(axis=0) * rng.uniform(0.3, 0.9, d))
        v = random_distribution(rng, d)
        members = frozenset(int(j) for j in range(d) if rng.random() < 0.5)
        target = sw.TargetSet(d, members)
        # absorption forced at the horizon by a permanently held zero matrix
        schedule = sw.Schedule.explicit(mats + [np.zeros((d, d))],
                                        list(range(horizon + 1)))

        dist = sw.occupancy_distribution(schedule, v, target)
        listed = [m.tolist() for m in mats]
        expected = brute_force_occupancy(listed, v, members, horizon)
        for a in set(expected) | set(dist.probs):
            err = abs(dist.pmf(a) - expected.get(a, 0.0))
            worst_atom = max(worst_atom, err)
            assert err <= 1e-12, (trial, a)

        m1, m2 = sw.occupancy_moments(schedule, v, target, order=2)
        for k, got in ((1, m1), (2, m2)):
            err = abs(got - sum(p * a**k for a, p in expected.items()))
            worst_moment = max(worst_moment, err)
            assert err <= 1e-12, (trial, k)
    print(f"brute force: 100 scenarios, max atom error {worst_atom:.3e}, "
          f"max moment error {worst_moment:.3e}")
    _finish(t0, 30.0, "brute-force oracle")


def test_closed_tails_against_fundamental_matrices():
    """Hold-last (d=32, 1000-step prefix) and cycle (d=16, period 12) chains,
    closed where they turn homogeneous: means match the fundamental-matrix
    oracles to 1e-10 relative, with tail_mass below tail_tol."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(60613)
    mats = [random_substochastic(rng, 32, low=0.97, high=0.99) for _ in range(9)]
    seq = rng.integers(0, 9, size=1000)
    steps = [mats[k] for k in seq]
    cases = [("hold-last", sw.Schedule.explicit(mats, seq), 0,
              lambda v, w: hold_last_mean(steps[:-1], steps[-1], v, w))]
    period = [random_substochastic(rng, 16, low=0.97, high=0.99) for _ in range(12)]
    for start in (0, 5):
        cases.append((f"cycle from {start}", sw.Schedule.periodic(period, range(12)), start,
                      lambda v, w, s=start: periodic_mean(period[s:] + period[:s], v, w)))
    worst = 0.0
    for label, schedule, start, mean in cases:
        d = schedule.d
        v = random_distribution(rng, d)
        members = frozenset(int(j) for j in rng.choice(d, size=d // 2, replace=False))
        r = np.array([1.0 if j in members else 0.0 for j in range(d)])
        target = sw.TargetSet(d, members)
        expected = mean(v, r)
        dist = sw.occupancy_distribution(schedule, v, target, start=start)
        first = sw.occupancy_moments(schedule, v, target, start=start, order=2)[0]
        assert dist.tail_mass <= sw.DEFAULT_TAIL_TOL, label
        for got in (dist.mean(), first):
            err = abs(got - expected) / expected
            worst = max(worst, err)
            assert err <= 1e-10, (label, got, expected)
    print(f"closed tails: {len(cases)} chains, max relative error {worst:.3e}")
    _finish(t0, 10.0, "closed tails")


def test_monte_carlo_concordance():
    """A million favourable-condition trajectories agree with the analytics."""
    t0 = time.perf_counter()
    config = sw.builtin_fulmar_scenario()
    schedule = config.build_schedule()
    target = config.target_set()
    analytic = sw.occupancy_distribution(schedule, config.initial, target)
    empirical = sw.empirical_distribution(schedule, config.initial, target,
                                          n_samples=1_000_000, seed=7)
    tv = sw.total_variation(analytic, empirical.occupancy_counts,
                            empirical.n_samples)
    z = abs(empirical.mean - analytic.mean()) / empirical.std_error
    print(f"monte carlo: tv {tv:.5f}, mean {empirical.mean:.5f} vs "
          f"{analytic.mean():.5f} ({z:.2f} standard errors)")
    assert tv < 0.01
    assert z < 4.0
    _finish(t0, 60.0, "monte carlo concordance")


def test_variance_decomposition_identity():
    """total variance = mean within-variance + between-variance, to 1e-9."""
    t0 = time.perf_counter()
    fulmar = sw.builtin_fulmar()
    config = sw.builtin_fulmar_scenario()
    target2 = sw.TargetSet(2, frozenset({1}))
    def fulmar_spec(probabilities):
        return sw.RandomEnvironmentSpec.from_conditions(
            [(lab, m, p) for (lab, m), p in zip(fulmar.conditions(), probabilities)])

    cases = [
        (fulmar_spec((0.5, 0.3, 0.2)), config.initial, config.target_set(), 17),
        (fulmar_spec((0.2, 0.2, 0.6)), config.initial, config.target_set(), 2),
        (sw.RandomEnvironmentSpec(
            ("G", "H"),
            ([[0.0, 0.0], [0.5, 0.5]], [[0.1, 0.0], [0.4, 0.6]]),
            (0.25, 0.75)),
         [1.0, 0.0], target2, 3),
        (sw.RandomEnvironmentSpec(
            ("G",), ([[0.0, 0.0], [0.5, 0.5]],), (1.0,)),
         [0.5, 0.5], target2, 5),
    ]
    worst = 0.0
    for i, (spec, v, target, m) in enumerate(cases):
        stats = sw.two_level_stats(spec, v, target, n_sequences=m,
                                   seed=(31, i), sample_length=300)
        gap = abs(stats.total_variance
                  - (stats.mean_within_variance + stats.between_variance))
        worst = max(worst, gap)
        assert gap <= 1e-9, (i, gap)
    print(f"variance decomposition: {len(cases)} specs, max |gap| {worst:.3e}")
    _finish(t0, 5.0, "variance decomposition")


def test_condition_ordering_and_sweep_corners():
    """Mean breeder-time orders favourable > ordinary > unfavourable, and the
    degenerate sweep corners reproduce the three constant-environment means."""
    t0 = time.perf_counter()
    config = sw.builtin_fulmar_scenario()
    conditions = sw.builtin_fulmar().conditions()
    target = config.target_set()
    v = config.initial

    analytic = []
    for _, matrix in conditions:
        schedule = sw.Schedule.constant(matrix)
        analytic.append(sw.occupancy_moments(schedule, v, target, order=1)[0])
    print("analytic means: " + ", ".join(f"{m:.6f}" for m in analytic))
    assert analytic[0] > analytic[1] > analytic[2]

    # independent trajectory cross-check of the same ordering
    empirical = []
    for _, matrix in conditions:
        schedule = sw.Schedule.constant(matrix)
        summary = sw.empirical_distribution(schedule, v, target,
                                            n_samples=20_000, seed=11)
        empirical.append(summary)
        z = abs(summary.mean - analytic[len(empirical) - 1]) / summary.std_error
        assert z < 5.0, (len(empirical) - 1, z)
    assert empirical[0].mean > empirical[1].mean > empirical[2].mean

    # degenerate corners of the mixture simplex collapse to the constants
    points = sw.simplex_sweep(conditions, 1.0, v, target,
                              n_sequences=2000, seed=5, sample_length=2000)
    assert len(points) == 3
    for point in points:
        assert point.error is None, point.error
        idx = point.probabilities.index(1.0)
        se = (max(point.stats.between_variance, 0.0)
              / point.stats.n_sequences) ** 0.5
        diff = abs(point.stats.mean_of_means - analytic[idx])
        print(f"corner {point.probabilities}: |diff| {diff:.3e}, "
              f"3 se {3 * se:.3e}")
        assert diff <= max(3.0 * se, 1e-9), (idx, diff, se)
    _finish(t0, 120.0, "condition ordering")


def test_mass_conservation():
    """Joint tables keep exactly the surviving mass: sum_a,j p_j(a,n) equals
    1' B(n-1)...B(0) v for every n <= 100, to 1e-10, on 50 random schedules."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(88412)
    worst = 0.0
    for trial in range(50):
        d = int(rng.integers(2, 6))
        length = int(rng.integers(20, 41))
        mats = [random_substochastic(rng, d, low=0.85, high=0.95)
                for _ in range(length)]
        schedule = sw.Schedule.explicit(mats, list(range(length)))
        v = random_distribution(rng, d)
        target = sw.TargetSet(d, frozenset(
            int(j) for j in range(d) if rng.random() < 0.5))
        table = sw.evolve_joint(schedule, v, target)
        assert len(table.values) > 100, trial

        product = np.asarray(v, dtype=float)
        for n in range(101):
            err = abs(table.mass(n) - float(product.sum()))
            worst = max(worst, err)
            assert err <= 1e-10, (trial, n)
            product = schedule.matrix_at(n) @ product
    print(f"mass conservation: 50 schedules, max |error| {worst:.3e}")
    _finish(t0, 10.0, "mass conservation")
