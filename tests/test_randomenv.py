import math
import tracemalloc
from unittest import mock

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

    def test_rejects_duplicate_labels(self):
        m = random_substochastic(np.random.default_rng(0), 2)
        with pytest.raises(ValueError, match=r"condition labels must be distinct, got \('a', 'a'\)"):
            sw.RandomEnvironmentSpec(("a", "a"), (m, m), np.array([0.5, 0.5]))

    def test_rejects_mismatched_matrix_shapes(self):
        with pytest.raises(ValueError, match="all condition matrices must share one shape"):
            sw.RandomEnvironmentSpec(("a", "b"), (np.zeros((2, 2)), np.zeros((3, 3))), np.array([0.5, 0.5]))


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

    def test_rejects_zero_length(self):
        spec = two_condition_spec(np.random.default_rng(8))
        with pytest.raises(ValueError, match="sequence length must be at least 1, got 0"):
            sw.sample_schedule(spec, 0, np.random.default_rng(1))

    def test_degenerate_probabilities_give_constant_sequence(self):
        rng = np.random.default_rng(5)
        mats = (random_substochastic(rng, 2), random_substochastic(rng, 2))
        spec = sw.RandomEnvironmentSpec(("a", "b"), mats, np.array([0.0, 1.0]))
        sched = sw.sample_schedule(spec, 200, np.random.default_rng(0))
        assert set(np.unique(sched.sequence)) == {1}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 400))
    def test_draws_are_those_of_generator_choice(self, seed, k, n):
        # the seeding contract: the indices Generator.choice draws from the
        # same generator, zero weights included
        rng = np.random.default_rng(seed)
        p = rng.random(k) * (rng.random(k) < 0.7)
        p[rng.integers(k)] += 0.5
        p /= p.sum()
        spec = sw.RandomEnvironmentSpec(tuple(map(str, range(k))), [np.eye(2) / 2] * k, p)
        sched = sw.sample_schedule(spec, n, np.random.default_rng(seed))
        assert np.array_equal(sched.sequence, np.random.default_rng(seed).choice(k, n, p=spec.probabilities))


def per_sequence_reference(spec, v, target, n_sequences, seed, start, length, steps=2000):
    """Each sequence's first two occupancy moments (rows 0 and 1) and the
    step its stopping rule first holds at, by the seeding contract: sequence
    i is sample_schedule(spec, length, default_rng((*seed, i))), listed for
    `steps` steps with extension "error", its moments those of
    occupancy_moments and its stopping step the horizon of moment_tables."""
    moments, stops = np.empty((2, n_sequences)), np.empty(n_sequences, dtype=int)
    for i in range(n_sequences):
        sched = sw.sample_schedule(spec, length, np.random.default_rng((*seed, i)))
        listed = sw.Schedule(sched.matrices, sched.sequence[np.minimum(np.arange(steps), length - 1)], "error")
        moments[:, i] = sw.occupancy_moments(listed, v, target, start=start, order=2)
        stops[i] = sw.moment_tables(listed, v, target, start=start, order=2).horizon
    return moments, stops


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

    def test_an_advanced_generator_draws_the_tail_of_a_bulk_draw(self):
        # a late start skips the positions no step reads by advancing each
        # sequence's generator: one 64-bit word per double
        bulk = np.random.default_rng((3, 1)).random(5000)
        rng = np.random.default_rng((3, 1))
        rng.bit_generator.advance(3000)
        assert rng.random(2000).tolist() == bulk[3000:].tolist()

    def test_a_late_start_draws_only_the_positions_it_reads(self):
        # drawing from position 0 holds 50 000 indices and as many doubles
        # a sequence, 16 MB at the peak for these 8, where skipping them
        # takes 0.11 MB; the statistics are those of the seeding contract's
        # bulk draws all the same
        n_sequences, seed, start = 8, (6,), 50_000
        rng = np.random.default_rng(17)
        spec = two_condition_spec(rng)
        v, target = random_distribution(rng, 3), sw.TargetSet(3, frozenset({0, 2}))
        tracemalloc.start()
        try:
            stats = sw.two_level_stats(spec, v, target, n_sequences=n_sequences, seed=seed, start=start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        (means, second), _ = per_sequence_reference(spec, v, target, n_sequences, seed, start,
                                                    sw.DEFAULT_MAX_HORIZON, steps=start + 2000)
        assert stats.mean_of_means == means.mean()
        variances = np.maximum(second - means * means, 0.0)
        assert stats.mean_within_variance == pytest.approx(variances.mean(), rel=1e-12)
        assert stats.between_variance == pytest.approx(((means - means.mean()) ** 2).mean(), rel=1e-12, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3),
           st.integers(0, 12), st.integers(1, 6), st.integers(2, 6))
    def test_matches_per_sequence_reference(self, seed, d, n_cond, start, length, n_sequences):
        # the seeding contract: sequence i is sample_schedule(spec, length,
        # default_rng((*seed, i))), its moments those of occupancy_moments.
        # Column sums >= 0.2 keep every life past 6 steps at tail_tol 1e-12,
        # so each sequence reaches its hold-last extension. occupancy_moments
        # would close that extension exactly, so the reference lists it out
        # for 2000 steps (within 0.95**t) and runs the recurrence, as
        # two_level_stats does.
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
        (means, second), _ = per_sequence_reference(spec, v, target, n_sequences, entropy, start, length)
        variances = np.maximum(second - means * means, 0.0)
        mean = means.mean()
        expected = {
            "mean_of_means": mean,
            "mean_within_variance": variances.mean(),
            "between_variance": ((means - mean) ** 2).mean(),
            "total_variance": variances.mean() + ((means - mean) ** 2).mean(),
        }
        for field, value in expected.items():
            assert getattr(stats, field) == pytest.approx(value, rel=1e-12, abs=1e-15), field

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_sequence_reference_with_more_stages_than_conditions(self, seed):
        # d = 8 stages and K = 5 conditions, so each sequence's bordered
        # (d + 1) x (d + 1) step is gathered where d != K, and the stopping
        # mass sums a row of 8, where numpy's pairwise sum begins to unroll
        d, n_cond, start, length, n_sequences = 8, 5, 3, 7, 6
        rng = np.random.default_rng((seed, 13))
        mats = tuple(random_substochastic(rng, d) for _ in range(n_cond))
        spec = sw.RandomEnvironmentSpec(tuple(f"c{i}" for i in range(n_cond)), mats,
                                        rng.dirichlet(np.ones(n_cond)))
        v = random_distribution(rng, d)
        target = sw.TargetSet(d, frozenset({1, 4, 6}))
        stats = sw.two_level_stats(spec, v, target, n_sequences=n_sequences, seed=seed,
                                   start=start, sample_length=length)
        (means, second), _ = per_sequence_reference(spec, v, target, n_sequences, (seed,), start, length)
        variances = np.maximum(second - means * means, 0.0)
        mean = means.mean()
        # each sequence's moments are occupancy_moments' bit for bit, so the
        # mean of means sums the same floats in the same order
        assert stats.mean_of_means == mean
        assert stats.mean_within_variance == pytest.approx(variances.mean(), rel=1e-12)
        between = ((means - mean) ** 2).mean()
        assert stats.between_variance == pytest.approx(between, rel=1e-12, abs=1e-15)
        assert stats.total_variance == pytest.approx(variances.mean() + between, rel=1e-12)

    @pytest.mark.parametrize("condition", range(3))
    def test_one_condition_matches_constant_schedule(self, condition):
        # every sequence is the constant schedule, so the means agree and
        # the between-sequence variance is only the rounding of their mean
        fulmar, config = sw.builtin_fulmar(), sw.builtin_fulmar_scenario()
        label, U = fulmar.conditions()[condition]
        spec = sw.RandomEnvironmentSpec((label,), (U,), np.array([1.0]))
        stats = sw.two_level_stats(spec, config.initial, config.target_set(),
                                   n_sequences=200, seed=4)
        m1, _ = sw.occupancy_moments(sw.Schedule.constant(U), config.initial,
                                     config.target_set(), order=2)
        assert stats.mean_of_means == pytest.approx(m1, rel=1e-10)
        assert stats.between_variance <= 1e-12 * stats.mean_of_means**2

    @pytest.mark.parametrize("condition", range(3))
    def test_one_condition_has_no_between_variance(self, condition):
        # the means are equal floats, so their spread about their mean is far
        # below the cancellation noise (about 1e-16 * mean^2) of
        # mean(m^2) - mean^2, and the variance split holds as computed
        fulmar, config = sw.builtin_fulmar(), sw.builtin_fulmar_scenario()
        label, U = fulmar.conditions()[condition]
        spec = sw.RandomEnvironmentSpec((label,), (U,), np.array([1.0]))
        stats = sw.two_level_stats(spec, config.initial, config.target_set(),
                                   n_sequences=200, seed=4)
        assert stats.between_variance <= 1e-20 * stats.mean_of_means**2
        assert stats.total_variance == stats.mean_within_variance + stats.between_variance

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
        # every life ends at step 1, the one drawn step, so the loop ends at
        # the read that would have found the holders
        kill = sw.RandomEnvironmentSpec(("kill",), (np.zeros((2, 2)),), np.array([1.0]))
        ended = sw.two_level_stats(kill, [1.0, 0.0], target, n_sequences=3, sample_length=1)
        assert (ended.mean_of_means, ended.held_last) == (1.0, 0)

    def test_non_absorbing_sequence_reports_index(self):
        spec = sw.RandomEnvironmentSpec(("id",), (np.eye(2),), np.array([1.0]))
        with pytest.raises(sw.NonAbsorbingError) as info:
            sw.two_level_stats(spec, [1.0, 0.0], sw.TargetSet.none(2),
                               n_sequences=3, seed=0, max_horizon=40)
        assert "sequence 0" in str(info.value)


def stretches(run):
    """run()'s result and the sampler's unread stretches [t, end), as
    _unchecked sets them."""
    with mock.patch.object(sw.randomenv, "_unchecked", side_effect=sw.chain._unchecked) as unchecked:
        result = run()
    return result, [(c.args[1], c.args[1] + 1 + sw.chain._unchecked(*c.args)) for c in unchecked.call_args_list]


class TestGatheredWindows:
    """The sampler steps each unread stretch from operands gathered in
    windows of at most _GATHER_BYTES; each sequence's moments stay those of
    occupancy_moments on its own steps, bit for bit."""

    @staticmethod
    def spec(rng, d, sums):
        mats = tuple(random_substochastic(rng, d, *bounds) for bounds in sums)
        return sw.RandomEnvironmentSpec(tuple(f"c{i}" for i in range(len(mats))), mats,
                                        rng.dirichlet(np.ones(len(mats))))

    def test_a_large_batch_steps_one_operand_at_a_time(self):
        d, n_sequences, seed = 7, 100, (4, 1)
        rng = np.random.default_rng(21)
        spec = self.spec(rng, d, [(0.2, 0.9)] * 3)
        v, target = random_distribution(rng, d), random_target(rng, d)
        # a step's operands, one bordered (d + 1) x 2(d + 1) matrix a sequence, pass the budget
        assert n_sequences * (d + 1) * 2 * (d + 1) * 8 > sw.randomenv._GATHER_BYTES
        stats = sw.two_level_stats(spec, v, target, n_sequences=n_sequences, seed=seed, sample_length=50)
        moments, stops = per_sequence_reference(spec, v, target, n_sequences, seed, 0, 50)
        assert stats.mean_of_means == moments[0].mean()
        assert stats.held_last == (stops > 50).sum()

    def test_a_window_across_the_drawn_length_counts_the_held_sequences(self):
        d, n_sequences, seed, start, length = 4, 12, (8,), 2, 128
        rng = np.random.default_rng(54)
        spec = self.spec(rng, d, [(0.5, 0.7), (0.9, 0.99)])
        v, target = random_distribution(rng, d), random_target(rng, d)
        stats, spans = stretches(lambda: sw.two_level_stats(spec, v, target, n_sequences=n_sequences, seed=seed,
                                                            start=start, sample_length=length))
        # step t = length - 1 - start reads the last drawn condition, and the
        # steps after it hold it, inside one stretch, one window at this batch size
        boundary = length - 1 - start
        assert any(t < boundary < end - 1 for t, end in spans)
        moments, stops = per_sequence_reference(spec, v, target, n_sequences, seed, start, length)
        assert stats.mean_of_means == moments[0].mean()
        held = int((stops > length - start).sum())
        assert 0 < stats.held_last == held < n_sequences

    def test_a_length_past_max_horizon_raises_with_the_mass_of_the_drawn_steps(self):
        # sequence 0 draws different conditions at its indices 9 and 10, so
        # the error's mass shows that the last step, t = 8, reads index 10
        d, n_sequences, seed, start, max_horizon = 3, 5, (11,), 2, 9
        rng = np.random.default_rng(26)
        spec = self.spec(rng, d, [(0.3, 0.5), (0.9, 0.99)])
        v, target = random_distribution(rng, d), random_target(rng, d)
        with pytest.raises(sw.NonAbsorbingError) as info:
            sw.two_level_stats(spec, v, target, n_sequences=n_sequences, seed=seed, start=start,
                               max_horizon=max_horizon, sample_length=1000)
        sched = sw.sample_schedule(spec, 1000, np.random.default_rng((*seed, 0)))
        assert sched.sequence[9] != sched.sequence[10]
        with pytest.raises(sw.NonAbsorbingError) as reference:
            sw.occupancy_moments(sw.Schedule(sched.matrices, sched.sequence, "error"), v, target, start=start,
                                 max_horizon=max_horizon)
        assert info.value.context == "sequence 0"
        assert info.value.surviving_mass == reference.value.surviving_mass

    def test_a_stretch_past_the_first_draw_draws_again_before_it_steps(self):
        d, n_sequences, seed = 2, 4, (9, 9)
        rng = np.random.default_rng(23)
        spec = self.spec(rng, d, [(0.95, 0.97)] * 2)
        v, target = random_distribution(rng, d), random_target(rng, d)
        stats, spans = stretches(lambda: sw.two_level_stats(spec, v, target, n_sequences=n_sequences, seed=seed))
        assert spans[0][1] - spans[0][0] > 2 * sw.randomenv.FIRST_DRAW   # a third chunk too
        moments, _ = per_sequence_reference(spec, v, target, n_sequences, seed, 0, sw.DEFAULT_MAX_HORIZON,
                                            steps=4000)
        assert stats.mean_of_means == moments[0].mean()


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

    def test_other_options_reach_every_point_unchanged(self):
        rng = np.random.default_rng(35)
        conditions = self._conditions(rng, d=3)
        labels, matrices = zip(*conditions)
        v, target = random_distribution(rng, 3), sw.TargetSet(3, frozenset({0, 2}))
        options = dict(n_sequences=3, start=2, tail_tol=1e-9, max_horizon=400, sample_length=60)
        points = sw.simplex_sweep(conditions, 0.5, v, target, seed=7, **options)
        assert len(points) == 6
        for pt in points:
            i, j, l = (round(2 * p) for p in pt.probabilities)
            spec = sw.RandomEnvironmentSpec(labels, matrices, np.array(pt.probabilities))
            assert pt.stats == sw.two_level_stats(spec, v, target, seed=(7, i, j, l), **options)
        # start and tail_tol each change a point, so the equality shows they reach it
        for default in (dict(start=0), dict(tail_tol=sw.DEFAULT_TAIL_TOL)):
            assert points != sw.simplex_sweep(conditions, 0.5, v, target, seed=7, **{**options, **default})

    def test_seed_is_keyword_only_and_unknown_options_raise(self):
        rng = np.random.default_rng(2)
        args = (self._conditions(rng), 0.5, [1.0, 0.0], sw.TargetSet.none(2))
        with pytest.raises(TypeError):
            sw.simplex_sweep(*args, 3)
        with pytest.raises(TypeError, match="n_sequence"):
            sw.simplex_sweep(*args, n_sequence=3)

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
