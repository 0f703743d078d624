import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stagedwell as sw
from helpers import random_distribution, random_substochastic, random_target


def two_condition_spec(rng, d=3, p=0.4):
    mats = (random_substochastic(rng, d), random_substochastic(rng, d))
    return sw.RandomEnvironmentSpec(("wet", "dry"), mats, np.array([p, 1.0 - p]))


class TestRandomEnvironmentSpec:
    def test_from_conditions(self):
        rng = np.random.default_rng(0)
        m = random_substochastic(rng, 2)
        spec = sw.RandomEnvironmentSpec.from_conditions(
            [("a", m, 0.25), ("b", m, 0.75)])
        assert spec.labels == ("a", "b")
        assert spec.n_conditions == 2
        assert spec.d == 2

    def test_rejects_bad_probability_sum(self):
        rng = np.random.default_rng(0)
        m = random_substochastic(rng, 2)
        with pytest.raises(sw.InvalidDistributionError):
            sw.RandomEnvironmentSpec(("a", "b"), (m, m), np.array([0.5, 0.6]))

    def test_rejects_negative_probability(self):
        rng = np.random.default_rng(0)
        m = random_substochastic(rng, 2)
        with pytest.raises(sw.InvalidDistributionError):
            sw.RandomEnvironmentSpec(("a", "b"), (m, m), np.array([1.5, -0.5]))

    def test_rejects_mismatched_lengths(self):
        rng = np.random.default_rng(0)
        m = random_substochastic(rng, 2)
        with pytest.raises(ValueError):
            sw.RandomEnvironmentSpec(("a",), (m, m), np.array([0.5, 0.5]))

    def test_validates_matrices(self):
        with pytest.raises(sw.ColumnSumError):
            sw.RandomEnvironmentSpec(("a",), ([[1.5]],), np.array([1.0]))


class TestSampleSchedule:
    def test_deterministic_given_generator_state(self):
        rng = np.random.default_rng(8)
        spec = two_condition_spec(rng)
        a = sw.sample_schedule(spec, 50, np.random.default_rng(1))
        b = sw.sample_schedule(spec, 50, np.random.default_rng(1))
        assert np.array_equal(a.sequence, b.sequence)

    def test_draw_frequencies_match_probabilities(self):
        rng = np.random.default_rng(5)
        spec = two_condition_spec(rng, p=0.3)
        sched = sw.sample_schedule(spec, 100_000, np.random.default_rng(2))
        freq = np.bincount(sched.sequence, minlength=2) / 100_000
        assert abs(freq[0] - 0.3) < 0.01

    def test_degenerate_probabilities_give_constant_sequence(self):
        rng = np.random.default_rng(5)
        mats = (random_substochastic(rng, 2), random_substochastic(rng, 2))
        spec = sw.RandomEnvironmentSpec(("a", "b"), mats, np.array([0.0, 1.0]))
        sched = sw.sample_schedule(spec, 200, np.random.default_rng(0))
        assert set(np.unique(sched.sequence)) == {1}


class TestTwoLevelStats:
    def test_decomposition_identity(self):
        rng = np.random.default_rng(12)
        spec = two_condition_spec(rng)
        v = random_distribution(rng, 3)
        target = sw.TargetSet(3, frozenset({0, 1}))
        stats = sw.two_level_stats(spec, v, target, n_sequences=40, seed=3,
                                   sample_length=300)
        gap = stats.total_variance - (stats.mean_within_variance + stats.between_variance)
        assert abs(gap) < 1e-9
        assert stats.n_sequences == 40

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 7))
    def test_identity_holds_for_any_spec_and_m(self, seed, n_sequences):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        n_cond = int(rng.integers(2, 4))
        mats = tuple(random_substochastic(rng, d) for _ in range(n_cond))
        probs = rng.dirichlet(np.ones(n_cond))
        spec = sw.RandomEnvironmentSpec(
            tuple(f"c{i}" for i in range(n_cond)), mats, probs / probs.sum())
        target = sw.TargetSet(d, frozenset({0}))
        stats = sw.two_level_stats(spec, random_distribution(rng, d), target,
                                   n_sequences=n_sequences, seed=seed,
                                   sample_length=200)
        gap = stats.total_variance - (stats.mean_within_variance + stats.between_variance)
        assert abs(gap) < 1e-9

    def test_degenerate_spec_has_no_between_variance(self):
        rng = np.random.default_rng(19)
        m = random_substochastic(rng, 3)
        spec = sw.RandomEnvironmentSpec(("only",), (m,), np.array([1.0]))
        v = random_distribution(rng, 3)
        target = sw.TargetSet(3, frozenset({1}))
        stats = sw.two_level_stats(spec, v, target, n_sequences=10, seed=0,
                                   sample_length=200)
        assert stats.between_variance <= 1e-12
        assert stats.total_variance == pytest.approx(stats.mean_within_variance, abs=1e-12)
        # and the mean collapses to the constant-schedule value
        m1, m2 = sw.occupancy_moments(sw.Schedule.constant(m), v, target, order=2)
        assert stats.mean_of_means == pytest.approx(m1, abs=1e-9)
        assert stats.mean_within_variance == pytest.approx(m2 - m1 * m1, abs=1e-9)

    def test_requires_two_sequences(self):
        rng = np.random.default_rng(1)
        spec = two_condition_spec(rng)
        with pytest.raises(ValueError):
            sw.two_level_stats(spec, random_distribution(rng, 3),
                               sw.TargetSet.none(3), n_sequences=1)

    @pytest.mark.parametrize("kwargs", [{"start": -1}, {"sample_length": 0},
                                        {"target": sw.TargetSet.none(2)}])
    def test_rejects_bad_arguments(self, kwargs):
        rng = np.random.default_rng(1)
        spec = two_condition_spec(rng)
        kwargs = {"target": sw.TargetSet.none(3), **kwargs}
        with pytest.raises(ValueError):
            sw.two_level_stats(spec, random_distribution(rng, 3), n_sequences=3, **kwargs)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(14)
        spec = two_condition_spec(rng)
        v = random_distribution(rng, 3)
        target = sw.TargetSet(3, frozenset({2}))
        a = sw.two_level_stats(spec, v, target, n_sequences=8, seed=77, sample_length=150)
        b = sw.two_level_stats(spec, v, target, n_sequences=8, seed=77, sample_length=150)
        assert a == b

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3),
           st.integers(0, 12), st.integers(1, 6), st.integers(2, 6))
    def test_matches_per_sequence_reference(self, seed, d, n_cond, start, length, n_sequences):
        # the seeding contract: sequence i is sample_schedule(spec, length,
        # default_rng((*seed, i))), its moments those of occupancy_moments.
        # Column sums >= 0.2 keep every life past 6 steps at tail_tol 1e-12,
        # so each sequence reaches its hold-last extension.
        rng = np.random.default_rng(seed)
        mats = tuple(random_substochastic(rng, d) for _ in range(n_cond))
        probs = rng.dirichlet(np.ones(n_cond))
        spec = sw.RandomEnvironmentSpec(
            tuple(f"c{i}" for i in range(n_cond)), mats, probs / probs.sum())
        v = random_distribution(rng, d)
        target = random_target(rng, d)
        entropy = (seed, 5)
        stats = sw.two_level_stats(spec, v, target, n_sequences=n_sequences, seed=entropy,
                                   start=start, sample_length=length)
        means = np.empty(n_sequences)
        variances = np.empty(n_sequences)
        for i in range(n_sequences):
            sched = sw.sample_schedule(spec, length, np.random.default_rng((*entropy, i)))
            m1, m2 = sw.occupancy_moments(sched, v, target, start=start, order=2)
            means[i] = m1
            variances[i] = max(m2 - m1 * m1, 0.0)
        mean = means.mean()
        expected = {
            "mean_of_means": mean,
            "mean_within_variance": variances.mean(),
            "between_variance": max((means * means).mean() - mean**2, 0.0),
            "total_variance": max((variances + means * means).mean() - mean**2, 0.0),
        }
        for field, value in expected.items():
            assert getattr(stats, field) == pytest.approx(value, rel=1e-12, abs=1e-15), field

    def test_non_absorbing_error_names_lowest_failing_sequence(self):
        # each sequence holds its first draw: the identity never absorbs,
        # the zero matrix kills everyone in one step
        spec = sw.RandomEnvironmentSpec(("id", "kill"), (np.eye(2), np.zeros((2, 2))),
                                        np.array([0.5, 0.5]))
        seed = 4
        firsts = [int(np.random.default_rng((seed, i)).choice(2, size=1, p=spec.probabilities)[0])
                  for i in range(6)]
        expected = firsts.index(0)
        assert expected > 0
        with pytest.raises(sw.NonAbsorbingError) as info:
            sw.two_level_stats(spec, [1.0, 0.0], sw.TargetSet.none(2), n_sequences=6,
                               seed=seed, sample_length=1, max_horizon=50)
        assert info.value.context == f"sequence {expected}"
        assert info.value.horizon == 50

    def test_counts_sequences_that_held_their_last_condition(self):
        # a first draw of the zero matrix ends a life in one step; a life
        # that first draws the other condition outlives a one-draw sequence
        spec = sw.RandomEnvironmentSpec(("live", "kill"), (0.5 * np.eye(2), np.zeros((2, 2))),
                                        np.array([0.5, 0.5]))
        firsts = [int(np.random.default_rng((4, i)).choice(2, size=1, p=spec.probabilities)[0])
                  for i in range(20)]
        target = sw.TargetSet(2, frozenset({0}))
        short = sw.two_level_stats(spec, [1.0, 0.0], target, n_sequences=20, seed=4,
                                   sample_length=1)
        assert 0 < short.held_last == firsts.count(0) < 20
        late = sw.two_level_stats(spec, [1.0, 0.0], target, n_sequences=20, seed=4, start=3,
                                  sample_length=1)
        assert late.held_last == 20
        full = sw.two_level_stats(spec, [1.0, 0.0], target, n_sequences=20, seed=4)
        assert full.held_last == 0

    def test_non_absorbing_sequence_reports_index(self):
        spec = sw.RandomEnvironmentSpec(("id",), (np.eye(2),), np.array([1.0]))
        with pytest.raises(sw.NonAbsorbingError) as info:
            sw.two_level_stats(spec, [1.0, 0.0], sw.TargetSet.none(2),
                               n_sequences=3, seed=0, max_horizon=40)
        assert "sequence 0" in str(info.value)


class TestSimplexSweep:
    def _conditions(self, rng, d=2):
        return [(name, random_substochastic(rng, d)) for name in ("f", "o", "u")]

    def test_unit_grid_gives_corners(self):
        rng = np.random.default_rng(30)
        points = sw.simplex_sweep(self._conditions(rng), 1.0,
                                  random_distribution(rng, 2),
                                  sw.TargetSet(2, frozenset({0})),
                                  n_sequences=4, seed=0, sample_length=150)
        assert [p.probabilities for p in points] == [
            (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
        assert all(p.stats is not None for p in points)

    def test_grid_point_count(self):
        rng = np.random.default_rng(31)
        points = sw.simplex_sweep(self._conditions(rng), 0.25,
                                  random_distribution(rng, 2),
                                  sw.TargetSet(2, frozenset({0})),
                                  n_sequences=2, seed=0, sample_length=100)
        # step 1/4 gives C(6, 2) = 15 grid points, each summing to 1
        assert len(points) == 15
        for p in points:
            assert sum(p.probabilities) == pytest.approx(1.0, abs=1e-12)

    def test_requires_three_conditions(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            sw.simplex_sweep(self._conditions(rng)[:2], 0.5,
                             [1.0, 0.0], sw.TargetSet.none(2))

    def test_rejects_uneven_grid_step(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            sw.simplex_sweep(self._conditions(rng), 0.3,
                             [1.0, 0.0], sw.TargetSet.none(2))

    def test_failing_point_is_recorded_not_fatal(self):
        rng = np.random.default_rng(33)
        conditions = [
            ("ok1", random_substochastic(rng, 2)),
            ("ok2", random_substochastic(rng, 2)),
            ("never_dies", np.eye(2)),
        ]
        points = sw.simplex_sweep(conditions, 1.0, [1.0, 0.0],
                                  sw.TargetSet(2, frozenset({0})),
                                  n_sequences=3, seed=0,
                                  sample_length=100, max_horizon=100)
        by_prob = {p.probabilities: p for p in points}
        corner = by_prob[(0.0, 0.0, 1.0)]
        assert corner.stats is None
        assert "NonAbsorbing" in corner.error
        assert by_prob[(1.0, 0.0, 0.0)].stats is not None

    def test_sub_grid_reproduces_full_sweep_values(self):
        rng = np.random.default_rng(34)
        conditions = self._conditions(rng)
        v = random_distribution(rng, 2)
        target = sw.TargetSet(2, frozenset({1}))
        coarse = sw.simplex_sweep(conditions, 1.0, v, target,
                                  n_sequences=5, seed=4, sample_length=120)
        fine = sw.simplex_sweep(conditions, 0.5, v, target,
                                n_sequences=5, seed=4, sample_length=120)
        fine_by_prob = {p.probabilities: p for p in fine}
        for pt in coarse:
            # corner seeds derive from the integer grid coordinates, which
            # differ between step sizes, so compare the shared exact corners
            # by probability only when coordinates coincide: (1,0,0) at step 1
            # is (2,0,0) at step 1/2, so equality holds only for the means of
            # degenerate corners, which are deterministic across seeds
            match = fine_by_prob[pt.probabilities]
            assert match.stats.mean_of_means == pytest.approx(
                pt.stats.mean_of_means, abs=1e-9)
