import dataclasses
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

import stagedwell as sw
from stagedwell.chain import _first_negligible, _negligible
from stagedwell.scenario import RandomSchedule
from helpers import (listed_steps, never_entered_blocks, random_distribution, random_schedule,
                     random_substochastic, squared_closing_tail)
from oracles import periodic_phase_type_pmf, phase_type_pmf

U_F = (
    (0.828, 0.0, 0.0, 0.0),
    (0.06624, 0.72912, 0.62244, 0.40176),
    (0.02576, 0.18228, 0.24206, 0.15624),
    (0.0, 0.0186, 0.0455, 0.342),
)


class TestValidateMatrix:
    def test_accepts_zero_matrix(self):
        m = sw.validate_matrix(np.zeros((3, 3)))
        assert m.shape == (3, 3)
        assert not m.flags.writeable

    def test_returns_a_copy(self):
        src = np.array([[0.5]])
        m = sw.validate_matrix(src)
        src[0, 0] = 0.9
        assert m[0, 0] == 0.5

    def test_rejects_nonsquare(self):
        with pytest.raises(sw.NonSquareMatrixError):
            sw.validate_matrix(np.zeros((2, 3)))

    def test_rejects_vector(self):
        with pytest.raises(sw.NonSquareMatrixError):
            sw.validate_matrix([0.5, 0.5])

    def test_rejects_negative_entry(self):
        with pytest.raises(sw.NegativeEntryError) as info:
            sw.validate_matrix([[0.2, 0.0], [-0.1, 0.3]])
        assert (info.value.row, info.value.col) == (1, 0)
        assert info.value.value == -0.1

    def test_rejects_excess_column_sum(self):
        with pytest.raises(sw.ColumnSumError) as info:
            sw.validate_matrix([[0.6, 0.0], [0.5, 0.2]])
        assert info.value.column == 0
        assert info.value.total == pytest.approx(1.1)

    def test_rejects_nan(self):
        with pytest.raises(sw.NonFiniteEntryError):
            sw.validate_matrix([[float("nan")]])

    def test_tolerates_roundoff_level_excess(self):
        sw.validate_matrix([[1.0 + 1e-10]])

    def test_rejects_excess_above_tolerance(self):
        with pytest.raises(sw.ColumnSumError):
            sw.validate_matrix([[1.0 + 1e-8]])

    def test_all_errors_share_base_classes(self):
        for exc in (sw.NonSquareMatrixError, sw.NegativeEntryError, sw.ColumnSumError):
            assert issubclass(exc, sw.MatrixValidationError)
            assert issubclass(exc, ValueError)
            assert issubclass(exc, sw.StagedwellError)


class TestValidateDistribution:
    def test_accepts_point_mass(self):
        v = sw.validate_distribution([1.0, 0.0, 0.0])
        assert not v.flags.writeable

    def test_rejects_wrong_length(self):
        with pytest.raises(sw.InvalidDistributionError):
            sw.validate_distribution([1.0, 0.0], d=3)

    def test_rejects_negative(self):
        with pytest.raises(sw.InvalidDistributionError):
            sw.validate_distribution([1.2, -0.2])

    @pytest.mark.parametrize("raw", [[{}, 1.0], "abc", [[1.0], [0.0, 0.0]], [10**400, 0.0]])
    def test_rejects_non_numeric(self, raw):
        with pytest.raises(sw.InvalidDistributionError, match="not a numeric vector"):
            sw.validate_distribution(raw)

    def test_rejects_bad_sum(self):
        with pytest.raises(sw.InvalidDistributionError):
            sw.validate_distribution([0.5, 0.4])

    def test_rejects_a_matrix(self):
        with pytest.raises(sw.InvalidDistributionError, match=r"expected a 1-d vector, got shape \(1, 2\)"):
            sw.validate_distribution([[0.5, 0.5]])

    @pytest.mark.parametrize("raw", [[float("nan"), 1.0], [float("inf"), 0.0]], ids=["nan", "inf"])
    def test_rejects_non_finite(self, raw):
        with pytest.raises(sw.InvalidDistributionError, match="entries must be finite"):
            sw.validate_distribution(raw)


class TestAbsorptionVector:
    def test_zero_matrix_kills_everyone(self):
        assert_allclose(sw.absorption_vector(np.zeros((2, 2))), [1.0, 1.0])

    def test_fulmar_favourable(self):
        b = sw.absorption_vector(sw.validate_matrix(U_F))
        assert_allclose(b, [0.08, 0.07, 0.09, 0.10], rtol=0, atol=1e-9)

    def test_stochastic_column_has_no_absorption(self):
        m = np.array([[0.3, 0.0], [0.7, 0.5]])
        b = sw.absorption_vector(m)
        assert b[0] == pytest.approx(0.0, abs=1e-15)
        assert b[1] == pytest.approx(0.5)

    def test_clamps_roundoff_negatives(self):
        b = sw.absorption_vector(sw.validate_matrix([[1.0 + 1e-10]]))
        assert b[0] == 0.0


class TestSchedule:
    def test_constant(self):
        s = sw.Schedule.constant([[0.5]])
        for n in (0, 1, 7, 10**6):
            assert s.matrix_at(n)[0, 0] == 0.5

    def test_hold_last(self):
        a, b = [[0.2]], [[0.7]]
        s = sw.Schedule.explicit([a, b], [0, 1])
        assert s.matrix_at(0)[0, 0] == 0.2
        assert s.matrix_at(1)[0, 0] == 0.7
        assert s.matrix_at(50)[0, 0] == 0.7

    def test_cycle(self):
        s = sw.Schedule.periodic([[[0.2]], [[0.7]]], [0, 1])
        got = [s.matrix_at(n)[0, 0] for n in range(5)]
        assert got == [0.2, 0.7, 0.2, 0.7, 0.2]

    def test_error_extension(self):
        s = sw.Schedule.explicit([[[0.5]]], [0, 0], extension="error")
        s.matrix_at(1)
        with pytest.raises(sw.ScheduleExhaustedError) as info:
            s.matrix_at(2)
        assert info.value.time_index == 2
        assert info.value.prefix_length == 2

    @pytest.mark.parametrize("sequence, entry, position",
                             [([0, 1], 1, 1), ([-1, 0], -1, 0), ([0, -2], -2, 1), ([0, 5], 5, 1)])
    def test_rejects_bad_sequence_index(self, sequence, entry, position):
        # the message names the first entry out of range, negative ones too
        with pytest.raises(ValueError) as info:
            sw.Schedule.explicit([[[0.5]]], sequence)
        assert str(info.value) == f"sequence entry {entry} at position {position} is outside the matrix indices 0..0"

    def test_rejects_unknown_extension(self):
        with pytest.raises(ValueError):
            sw.Schedule.explicit([[[0.5]]], [0], extension="wrap")

    def test_rejects_negative_time(self):
        s = sw.Schedule.constant([[0.5]])
        with pytest.raises(ValueError):
            s.matrix_at(-1)

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError):
            sw.Schedule.explicit([np.zeros((2, 2)), np.zeros((3, 3))], [0, 1])

    def test_rejects_no_matrices(self):
        with pytest.raises(ValueError, match="a schedule needs at least one matrix"):
            sw.Schedule((), [0])

    @pytest.mark.parametrize("sequence", [[], [[0]]], ids=["empty", "2-d"])
    def test_rejects_a_sequence_that_is_not_a_nonempty_list(self, sequence):
        with pytest.raises(ValueError, match="sequence must be a non-empty 1-d list of matrix indices"):
            sw.Schedule.explicit([[[0.5]]], sequence)

    def test_absorption_at_matches_matrix_at(self):
        rng = np.random.default_rng(11)
        s = random_schedule(rng, d=3, n_matrices=2, length=6)
        for n in range(10):
            assert_allclose(
                s.absorption_at(n), sw.absorption_vector(s.matrix_at(n)), rtol=0, atol=0
            )

    @pytest.mark.parametrize("sequence, named", [([0.7, 1.9], "0.7"), (["1", "0"], "'1'"),
                                                  ([0, 1.5], "1.5"), ([0, None], "None")])
    def test_rejects_non_integral_entries(self, sequence, named):
        with pytest.raises(ValueError, match=f"sequence entry {named} is not an integer"):
            sw.Schedule.explicit([[[0.2]], [[0.7]]], sequence)

    def test_accepts_integral_floats_and_numpy_integers(self):
        for sequence in ([0.0, 1.0], np.array([0, 1], dtype=np.int64), [np.int32(0), 1]):
            s = sw.Schedule.explicit([[[0.2]], [[0.7]]], sequence)
            assert s.sequence.tolist() == [0, 1]

    @pytest.mark.parametrize("extension", ["hold_last", "cycle", "error"])
    @pytest.mark.parametrize("start", [0, 2, 3, 6, 7, 20, 2 * sw.chain.INDEX_CHUNK + 15])
    @pytest.mark.parametrize("length", [3, sw.chain.INDEX_CHUNK + 6])
    def test_indices_follow_index_at(self, extension, start, length):
        # a cycle is followed through its first pass, across a chunk
        # boundary when it is longer than a chunk, and on into its replay,
        # from a start inside the first period and from one past it
        sequence = [2, 0, 1] if length == 3 else np.random.default_rng(length).integers(0, 3, length)
        s = sw.Schedule.explicit([[[0.2]], [[0.7]], [[0.5]]], sequence, extension)
        expected = []
        for n in range(start, start + 2 * length + 12):
            try:
                expected.append(s.index_at(n))
            except sw.ScheduleExhaustedError:
                break
        stream = s.indices(start)
        assert [next(stream) for _ in expected] == expected
        if extension == "error":
            with pytest.raises(sw.ScheduleExhaustedError) as drawn:
                next(stream)
            with pytest.raises(sw.ScheduleExhaustedError) as direct:
                s.index_at(max(start, length))
            assert str(drawn.value) == str(direct.value)

    def test_indices_reject_a_negative_start_when_drawn(self):
        stream = sw.Schedule.constant([[0.5]]).indices(-1)
        with pytest.raises(ValueError, match="nonnegative"):
            next(stream)

    @pytest.mark.parametrize("extension, start", [("hold_last", 1000), ("cycle", 1000), ("cycle", 3 * 2500 + 1000)])
    def test_indices_cross_chunk_boundaries(self, extension, start):
        # 2500 entries, not a multiple of INDEX_CHUNK; a cycle wraps at 2500
        # and then replays its first pass
        rng = np.random.default_rng(2)
        s = sw.Schedule.explicit([[[0.2]], [[0.7]]], rng.integers(0, 2, 2500), extension)
        stream = s.indices(start)
        assert [next(stream) for _ in range(5600)] == [s.index_at(n) for n in range(start, start + 5600)]

    def test_a_long_cycle_converts_only_what_is_read(self):
        s = sw.Schedule.periodic([[[0.2]], [[0.7]]], np.random.default_rng(3).integers(0, 2, 10**6))
        tracemalloc.start()
        try:
            first = next(s.indices(5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first == s.index_at(5)
        assert peak < 2**20

    def test_validates_matrices_on_construction(self):
        with pytest.raises(sw.ColumnSumError):
            sw.Schedule.constant([[0.6, 0.0], [0.5, 0.2]])


class TestTransitionOperator:
    def test_identity_at_equal_times(self):
        s = sw.Schedule.constant([[0.5]])
        assert_allclose(sw.transition_operator(s, 3, 3), np.eye(1))

    def test_single_step_is_the_matrix(self):
        rng = np.random.default_rng(5)
        s = random_schedule(rng, d=3, n_matrices=3, length=4)
        assert_allclose(sw.transition_operator(s, 3, 2), s.matrix_at(2))

    def test_scalar_powers(self):
        s = sw.Schedule.constant([[0.5]])
        assert sw.transition_operator(s, 3, 0)[0, 0] == pytest.approx(0.125, rel=1e-15)

    def test_order_of_factors(self):
        a = np.array([[0.0, 0.5], [0.5, 0.0]])
        b = np.array([[0.5, 0.0], [0.0, 0.25]])
        s = sw.Schedule.explicit([a, b], [0, 1], extension="error")
        # time 0 applies a, time 1 applies b: phi = b @ a
        assert_allclose(sw.transition_operator(s, 2, 0), b @ a)

    def test_rejects_reversed_times(self):
        s = sw.Schedule.constant([[0.5]])
        with pytest.raises(ValueError):
            sw.transition_operator(s, 1, 2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_composition(self, seed, d):
        rng = np.random.default_rng(seed)
        s = random_schedule(rng, d=d, n_matrices=3, length=12)
        n, m, k = 9, 5, 2
        assert_allclose(
            sw.transition_operator(s, n, m) @ sw.transition_operator(s, m, k),
            sw.transition_operator(s, n, k),
            rtol=0, atol=1e-12,
        )


class TestLifetimeDistribution:
    def test_immediate_death(self):
        s = sw.Schedule.constant(np.zeros((2, 2)))
        dist = sw.lifetime_distribution(s, [0.3, 0.7])
        assert dist.probs == {1: 1.0}
        assert dist.tail_mass == 0.0

    def test_geometric(self):
        s = sw.Schedule.constant([[0.5]])
        dist = sw.lifetime_distribution(s, [1.0])
        for n in range(1, 20):
            assert dist.pmf(n) == pytest.approx(0.5**n, rel=1e-12)
        # moments summed from the stored atoms carry the truncated tail,
        # weighted by n (mean) or n^2 (variance): allow ~tail * N^2
        assert dist.mean() == pytest.approx(2.0, abs=1e-9)
        assert dist.variance() == pytest.approx(2.0, abs=1e-8)

    def test_fulmar_first_step_hazard(self):
        s = sw.Schedule.constant(U_F)
        dist = sw.lifetime_distribution(s, [1.0, 0.0, 0.0, 0.0])
        assert dist.pmf(1) == pytest.approx(0.08, abs=1e-12)

    def test_tail_below_tolerance_and_normalized(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            d = int(rng.integers(1, 5))
            s = random_schedule(rng, d=d, n_matrices=3, length=30)
            v = random_distribution(rng, d)
            dist = sw.lifetime_distribution(s, v, tail_tol=1e-10)
            assert 0.0 <= dist.tail_mass < 1e-10
            assert dist.total() == pytest.approx(1.0, abs=1e-10)
            assert all(0.0 < p <= 1.0 for p in dist.probs.values())

    def test_support_starts_at_one(self):
        s = sw.Schedule.constant([[0.5]])
        dist = sw.lifetime_distribution(s, [1.0])
        assert min(dist.support()) == 1

    def test_non_absorbing_schedule_raises(self):
        s = sw.Schedule.constant(np.eye(2))
        with pytest.raises(sw.NonAbsorbingError) as info:
            sw.lifetime_distribution(s, [1.0, 0.0], max_horizon=500)
        assert info.value.horizon == 500
        assert info.value.surviving_mass == pytest.approx(1.0)

    def test_start_offset_consumes_later_matrices(self):
        rng = np.random.default_rng(23)
        mats = [random_substochastic(rng, 3) for _ in range(6)]
        v = random_distribution(rng, 3)
        full = sw.Schedule.explicit(mats, range(6))
        shifted = sw.Schedule.explicit(mats[2:], range(4))
        a = sw.lifetime_distribution(full, v, start=2)
        b = sw.lifetime_distribution(shifted, v)
        assert a.support() == b.support()
        for n in a.support():
            assert a.pmf(n) == pytest.approx(b.pmf(n), rel=0, abs=1e-15)

    def test_matches_phase_type_powering(self):
        rng = np.random.default_rng(41)
        B = random_substochastic(rng, 3, high=0.9)
        v = random_distribution(rng, 3)
        dist = sw.lifetime_distribution(sw.Schedule.constant(B), v)
        direct = phase_type_pmf(B, v, dist.max_support())
        for n in range(1, dist.max_support() + 1):
            assert dist.pmf(n) == pytest.approx(direct[n - 1], rel=0, abs=1e-13)

    @pytest.mark.parametrize("p, start", [(1, 0), (5, 3), (70, 0), (3, 11)])
    def test_cycle_matches_phase_type_powering(self, p, start):
        # the tail after the first period is evaluated by segments, here
        # several of them whether a period divides the segment length or not
        rng = np.random.default_rng(10 * p + start)
        period = [random_substochastic(rng, 3, low=0.85, high=0.95) for _ in range(p)]
        v = random_distribution(rng, 3)
        dist = sw.lifetime_distribution(sw.Schedule.periodic(period, range(p)), v, start=start)
        assert dist.max_support() > p + 2 * max(p, sw.chain.SEGMENT)   # three segments or more
        rotated = period[start % p:] + period[: start % p]
        direct = periodic_phase_type_pmf(rotated, v, dist.max_support())
        assert_allclose(dist.to_array()[1:], direct, rtol=1e-11, atol=0)
        assert dist.tail_mass < sw.DEFAULT_TAIL_TOL <= dist.tail_mass + direct[-1]

    def test_rejects_bad_truncation_controls(self):
        s = sw.Schedule.constant([[0.5]])
        with pytest.raises(ValueError):
            sw.lifetime_distribution(s, [1.0], tail_tol=0.0)
        with pytest.raises(ValueError):
            sw.lifetime_distribution(s, [1.0], max_horizon=0)


class TestIndexStream:
    """The driver reads a schedule from any start exactly as index_at lists it."""

    @pytest.mark.parametrize("extension, start", [
        ("cycle", 7), ("cycle", 6), ("cycle", 3), ("hold_last", 10), ("hold_last", 2),
    ])
    def test_engines_from_a_late_start(self, extension, start):
        rng = np.random.default_rng(start)
        s = random_schedule(rng, d=3, n_matrices=3, length=3, extension=extension, high=0.9)
        v = random_distribution(rng, 3)
        target = sw.TargetSet(3, frozenset({0, 2}))
        flat = listed_steps(s, start, 3000)
        # lifetimes and tables close the tail by segments: to the bit, the
        # same steps listed from `start` take the same closing path (the
        # rest of the prefix held, or the period rotated to `start`), and
        # the fully listed steps, stepped one by one, agree to rounding
        rest = 3 if extension == "cycle" else max(3 - start, 1)
        same_path = listed_steps(s, start, rest, extension)
        got = sw.lifetime_distribution(s, v, start=start)
        want = sw.lifetime_distribution(same_path, v)
        assert got.probs == want.probs and got.tail_mass == want.tail_mass
        stepped = sw.lifetime_distribution(flat, v)
        assert got.support() == stepped.support()
        assert_allclose(list(got.probs.values()), list(stepped.probs.values()), rtol=1e-12, atol=0)
        assert got.tail_mass == pytest.approx(stepped.tail_mass, rel=1e-12, abs=0)
        tables = sw.moment_tables(s, v, target, start=start, order=2).values
        np.testing.assert_array_equal(tables, sw.moment_tables(same_path, v, target, order=2).values)
        stepped = sw.moment_tables(flat, v, target, order=2).values
        assert tables.shape == stepped.shape
        assert_allclose(tables, stepped, rtol=1e-12, atol=0)
        for a, b in zip(sw.evolve_joint(s, v, target, start=start).values,
                        sw.evolve_joint(flat, v, target).values, strict=True):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("start", [1, 4, 9])
    def test_error_schedule_raises_what_index_at_raises(self, start):
        s = sw.Schedule.explicit([[[0.9]]], [0, 0, 0, 0], extension="error")
        with pytest.raises(sw.ScheduleExhaustedError) as direct:
            s.index_at(max(start, 4))
        target = sw.TargetSet(1, frozenset({0}))
        for engine in (lambda: sw.lifetime_distribution(s, [1.0], start=start),
                       lambda: sw.occupancy_distribution(s, [1.0], target, start=start),
                       lambda: sw.occupancy_moments(s, [1.0], target, start=start),
                       lambda: sw.evolve_joint(s, [1.0], target, start=start),
                       lambda: sw.transition_operator(s, start + 5, start)):
            with pytest.raises(sw.ScheduleExhaustedError) as drawn:
                engine()
            assert str(drawn.value) == str(direct.value)


class TestStateSpace:
    def test_index_lookup(self):
        space = sw.StateSpace(("egg", "chick", "adult"))
        assert space.index("chick") == 1
        assert space.d == 3

    def test_unknown_label(self):
        space = sw.StateSpace(("egg",))
        with pytest.raises(sw.UnknownLabelError):
            space.index("larva")

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            sw.StateSpace(("a", "a"))

    def test_rejects_no_stages(self):
        with pytest.raises(ValueError, match="a state space needs at least one stage"):
            sw.StateSpace(())

    def test_numbered(self):
        assert sw.StateSpace.numbered(2).labels == ("s0", "s1")


def _integer_rule_cases():
    """(call, message) pairs: each passes one count, time or index argument
    the public API refuses, a value that is not an integer or, where that
    check is new, one below its bound."""
    sched = sw.Schedule.explicit([[[0.5, 0.0], [0.3, 0.4]], [[0.2, 0.1], [0.6, 0.5]]], [0, 1, 0], "cycle")
    v, target = [0.6, 0.4], sw.TargetSet(2, frozenset({1}))
    spec = sw.RandomEnvironmentSpec(("a", "b"), sched.matrices, [0.5, 0.5])
    dist = sw.lifetime_distribution(sched, v)
    joint = sw.evolve_joint(sched, v, target)
    table = sw.moment_tables(sched, v, target, order=2)
    return {
        "start": (lambda: sw.occupancy_moments(sched, v, target, start=2.7), "start 2.7 is not an integer"),
        "start-bool": (lambda: sw.moment_tables(sched, v, target, start=True), "start True is not an integer"),
        "order": (lambda: sw.occupancy_moments(sched, v, target, order=2.9), "order 2.9 is not an integer"),
        "table-order": (lambda: sw.moment_tables(sched, v, target, order=1.5), "order 1.5 is not an integer"),
        "max_horizon": (lambda: sw.lifetime_distribution(sched, v, max_horizon=100.5),
                        "max_horizon 100.5 is not an integer"),
        "n_sequences": (lambda: sw.two_level_stats(spec, v, target, n_sequences=5.9), "n_sequences 5.9 is not an integer"),
        "sample_length": (lambda: sw.two_level_stats(spec, v, target, n_sequences=2, sample_length=3.5),
                          "sample_length 3.5 is not an integer"),
        "seed": (lambda: sw.two_level_stats(spec, v, target, n_sequences=2, seed=1.5), "seed 1.5 is not an integer"),
        "seed-tuple": (lambda: sw.simplex_sweep([("a", sched.matrices[0]), ("b", sched.matrices[1]),
                                                 ("c", sched.matrices[0])], 0.5, v, target, n_sequences=2,
                                                seed=(1, 0.5)), "seed 0.5 is not an integer"),
        "two-level-start": (lambda: sw.two_level_stats(spec, v, target, n_sequences=2, start=0.5),
                            "start 0.5 is not an integer"),
        "length": (lambda: sw.sample_schedule(spec, 3.5, np.random.default_rng(0)), "length 3.5 is not an integer"),
        "n_samples": (lambda: sw.empirical_distribution(sched, v, target, n_samples=10.7),
                      "n_samples 10.7 is not an integer"),
        "first_index": (lambda: sw.empirical_distribution(sched, v, target, n_samples=10, first_index=0.5),
                        "first_index 0.5 is not an integer"),
        "step_cap": (lambda: sw.empirical_distribution(sched, v, target, n_samples=10, step_cap=-5),
                     "step_cap must be nonnegative, got -5"),
        "sample-seed": (lambda: sw.empirical_distribution(sched, v, target, n_samples=10, seed=1.5),
                        "seed 1.5 is not an integer"),
        "trajectory-start": (lambda: sw.simulate_trajectory(sched, v, target, np.random.default_rng(0), start=1.5),
                             "start 1.5 is not an integer"),
        "trajectory-step_cap": (lambda: sw.simulate_trajectory(sched, v, target, np.random.default_rng(0), step_cap=9.5),
                                "step_cap 9.5 is not an integer"),
        "total_variation": (lambda: sw.total_variation(dist, {1: 3}, 3.5), "n_samples 3.5 is not an integer"),
        "index_at": (lambda: sched.index_at("3"), "n '3' is not an integer"),
        "indices": (lambda: next(sched.indices(1.5)), "start 1.5 is not an integer"),
        "transition_operator": (lambda: sw.transition_operator(sched, 2.5), "n 2.5 is not an integer"),
        "numbered": (lambda: sw.StateSpace.numbered(2.5), "d 2.5 is not an integer"),
        "target-d": (lambda: sw.TargetSet(2.5, frozenset({0})), "d 2.5 is not an integer"),
        "all_states": (lambda: sw.TargetSet.all_states(2.5), "d 2.5 is not an integer"),
        "contains": (lambda: 1.5 in target, "index 1.5 is not an integer"),
        "pmf": (lambda: dist.pmf(1.5), "n 1.5 is not an integer"),
        "to_array": (lambda: dist.to_array(2.5), "length 2.5 is not an integer"),
        "to_array-negative": (lambda: dist.to_array(-1), "length must be nonnegative, got -1"),
        "moment": (lambda: dist.moment(1.5), "k 1.5 is not an integer"),
        "moment-negative": (lambda: dist.moment(-1), "k must be nonnegative, got -1"),
        "joint": (lambda: joint.joint(0.5, 1), "a 0.5 is not an integer"),
        "mass": (lambda: joint.mass(1.5), "n 1.5 is not an integer"),
        "moment_vector": (lambda: joint.moment_vector(1.5, 1), "k 1.5 is not an integer"),
        "moment_vector-negative": (lambda: joint.moment_vector(-1, 1), "k must be nonnegative, got -1"),
        "vector": (lambda: table.vector(1, 0.5), "n 0.5 is not an integer"),
        "vector-k": (lambda: table.vector(np.float64(1.5), 0), "k 1.5 is not an integer"),
        "scenario-start": (lambda: dataclasses.replace(sw.builtin_fulmar_scenario(), start=2.5),
                           "start 2.5 is not an integer"),
        "scenario-max_horizon": (lambda: dataclasses.replace(sw.builtin_fulmar_scenario(), max_horizon=np.int64(0)),
                                 "max_horizon must be at least 1, got 0"),
        "random-schedule-length": (lambda: RandomSchedule({"a": 1.0}, 10.5), "length 10.5 is not an integer"),
    }


class TestIntegerRule:
    """Every count, time and index argument of the public API takes
    integers, numpy integers and integral floats, and refuses anything
    else, bools included, with a ValueError naming the argument, rather
    than truncating it."""

    @pytest.mark.parametrize("case", list(_integer_rule_cases()))
    def test_non_integral_argument_raises(self, case):
        call, message = _integer_rule_cases()[case]
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    def test_integral_values_give_the_int_answer(self):
        sched = sw.Schedule.explicit([[[0.5, 0.0], [0.3, 0.4]], [[0.2, 0.1], [0.6, 0.5]]], [0, 1, 0], "cycle")
        v, target = [0.6, 0.4], sw.TargetSet(2, frozenset({1}))
        expected = sw.occupancy_moments(sched, v, target, start=2, order=3, max_horizon=500)
        for kind in (np.int64, np.int32, float, np.float64):
            got = sw.occupancy_moments(sched, v, target, start=kind(2), order=kind(3), max_horizon=kind(500))
            assert got == expected
        assert sched.index_at(4.0) == sched.index_at(np.uint8(4)) == sched.index_at(4)
        # a small numpy start is converted before step counts are added to it
        long = sw.Schedule.explicit([[[0.5]], [[0.6]]], [0] * 300 + [1])
        assert sw.lifetime_distribution(long, [1.0], start=np.uint8(250)) == sw.lifetime_distribution(long, [1.0], start=250)
        tables = [sw.moment_tables(long, [1.0], sw.TargetSet(1, {0}), start=start) for start in (np.uint8(250), 250)]
        assert tables[0].start == 250 and np.array_equal(tables[0].values, tables[1].values)

    @pytest.mark.parametrize("values", [[True, False], [0, True], [0.0, True], np.array([True, False])],
                             ids=["bools", "int-and-bool", "float-and-bool", "bool-array"])
    def test_bools_are_not_sequence_entries(self, values):
        with pytest.raises(ValueError, match="sequence entry True is not an integer"):
            sw.Schedule.explicit([[[0.2]], [[0.7]]], values)

    def test_float_arrays_are_judged_by_value(self):
        mats = [[[0.2]], [[0.7]]]
        assert sw.Schedule.explicit(mats, np.array([1.0, 0.0])).sequence.tolist() == [1, 0]
        for bad, named in ((np.array([0.0, 0.5]), "0.5"), (np.array([np.nan]), "nan"),
                           (np.array([1.0], dtype=np.float32) / 3, "0.3333333432674408")):
            with pytest.raises(ValueError, match=f"^sequence entry {named} is not an integer$"):
                sw.Schedule.explicit(mats, bad)

    @pytest.mark.parametrize("members", [{True}, {0, True}, {np.True_}], ids=["bool", "int-and-bool", "numpy-bool"])
    def test_bools_are_not_target_members(self, members):
        with pytest.raises(ValueError, match="target member True is not an integer"):
            sw.TargetSet(2, members)

    def test_range_messages_are_unchanged(self):
        sched = sw.Schedule.constant([[0.5]])
        with pytest.raises(ValueError, match=r"^time index must be nonnegative, got -1$"):
            sched.index_at(-1)
        with pytest.raises(ValueError, match=r"^time index must be nonnegative, got -2$"):
            next(sched.indices(-2.0))
        with pytest.raises(ValueError, match=r"^max_horizon must be at least 1, got 0$"):
            sw.lifetime_distribution(sched, [1.0], max_horizon=np.int64(0))
        with pytest.raises(ValueError, match=r"^order must be at least 1, got 0$"):
            sw.occupancy_moments(sched, [1.0], sw.TargetSet(1, frozenset()), order=0.0)
        with pytest.raises(ValueError, match=r"^order must be nonnegative, got -1$"):
            sw.moment_tables(sched, [1.0], sw.TargetSet(1, frozenset()), order=-1)
        with pytest.raises(ValueError, match=r"^need 0 <= m <= n, got m=3, n=2$"):
            sw.transition_operator(sched, 2, 3.0)


class TestStoppingRule:
    @pytest.mark.parametrize("t, order", [(0, 0), (9, 4), (2660, 90), (2661, 90), (113, 150), (10**6, 200)])
    def test_one_mass_is_judged_by_the_scalar_rule(self, t, order):
        # a segment start hands _first_negligible one mass; it ends the
        # tail there exactly when _negligible holds, also at NaN, where
        # (t+1)**order overflows (the last three cases) and one ulp either
        # side of the rule's edge
        tol = 1e-12
        try:
            edge = tol / float(t + 1) ** order
        except OverflowError:
            edge = sys.float_info.min
        masses = (math.nan, 0.0, 1.0, edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1.0))
        held = [_negligible(m, t, order, tol) for m in masses]
        assert held[:3] == [True, True, False] and True in held[3:] and False in held[3:]
        for m, rule in zip(masses, held):
            assert _first_negligible(np.array([m]), t, order, tol) == (0 if rule else None)


def _decided(check, schedule, start, x, order, tail_tol, max_horizon):
    """What a closing-step check decides where `schedule` turns homogeneous
    after `start`: the tail's first step, phases, closability and period
    product, or the NonAbsorbingError's horizon and surviving mass."""
    t0 = schedule.prefix_length if schedule.extension == "cycle" else max(schedule.prefix_length - 1 - start, 0)
    try:
        t0, (ks, _, product), closable = check(schedule, start, t0, x, order, tail_tol, max_horizon)
    except sw.NonAbsorbingError as exc:
        return "raised", exc.horizon, exc.surviving_mass
    except OverflowError as exc:   # past 2**1000 squarings, a tail that no read shows closable
        return "overflow", str(exc)
    return t0, ks, closable, product.tobytes()


class TestClosingCheck:
    """chain._closing_tail decides as the loop that squared the period
    product until the first power's bound alone passed the rule
    (helpers.squared_closing_tail), and a contracting period at its first
    read."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3), st.integers(1, 5),
           st.sampled_from(["hold_last", "cycle"]), st.integers(0, 8),
           st.sampled_from(["none", "sums to 1", "immortal", "never entered"]), st.integers(0, 90),
           st.integers(0, 14), st.sampled_from([1e-12, 1e-6, 0.5]),
           st.sampled_from([1, 2, 7, 60, 2000, sw.DEFAULT_MAX_HORIZON, 10**400]))
    @example(0, 2, 1, 1, "hold_last", 0, "none", 0, 0, 1e-12, 1)
    @example(0, 2, 1, 1, "hold_last", 0, "none", 90, 0, 1e-12, 10**400)
    @example(0, 2, 2, 3, "cycle", 5, "sums to 1", 3, 0, 1e-12, 10**400)
    @example(0, 2, 1, 1, "hold_last", 0, "immortal", 0, 0, 1e-12, 1)
    @example(0, 1, 1, 1, "hold_last", 0, "never entered", 4, 0, 1e-12, 10**400)
    @example(0, 2, 1, 1, "hold_last", 0, "never entered", 0, 0, 1e-12, 10**400)
    @example(1, 1, 1, 1, "cycle", 0, "never entered", 0, 3, 1e-6, 60)
    @example(2, 1, 1, 1, "hold_last", 2, "never entered", 90, 0, 1e-12, 1)
    def test_decides_as_the_squaring_loop(self, seed, d, n_matrices, prefix, extension, start, column, order,
                                          scale, tail_tol, max_horizon):
        rng = np.random.default_rng(seed)
        if column == "never entered":   # d picks the block; its own d is one more than the block's
            H = list(never_entered_blocks())[d % 3]
            mats, x = [H] * n_matrices, np.eye(H.shape[0])[0]
        else:
            mats = [random_substochastic(rng, d, low=0.3, high=0.999) for _ in range(n_matrices)]
            j = int(rng.integers(d))
            if column != "none":
                for m in mats:
                    m[:, j] = np.eye(d)[j if column == "immortal" else (j + 1) % d]
            x = random_distribution(rng, d)
            # a stage that never dies is stepped to max_horizon once its mass
            # is below tail_tol, at the default 10**5 steps; at 10**400 the
            # squarings overflow first
            assume(column == "none" or column == "sums to 1" and d > 1 or max_horizon != sw.DEFAULT_MAX_HORIZON)
        schedule = sw.Schedule.explicit(mats, rng.integers(0, n_matrices, size=prefix), extension)
        t0 = schedule.prefix_length if extension == "cycle" else max(prefix - 1 - start, 0)
        assume(t0 < max_horizon)
        args = (schedule, start, x * 10.0**-scale, order, tail_tol, max_horizon)
        # squared some 400 times on the way to max_horizon 10**400, a
        # never-entered block's column sums round above 1 and its powers
        # overflow, in both checks alike
        with np.errstate(over="ignore", invalid="ignore"):
            assert _decided(sw.chain._closing_tail, *args) == _decided(squared_closing_tail, *args)

    @pytest.mark.parametrize("engine", ["lifetime_distribution", "occupancy_distribution", "occupancy_moments"])
    def test_a_contracting_period_is_decided_at_its_first_read(self, engine):
        # the built-in fulmar's held matrix has every column sum below 0.95:
        # one read of the stopping rule decides the tail; the squaring loop
        # takes one for each power it reads
        config = sw.builtin_fulmar()
        schedule, reads = config.build_schedule(None), {}
        closing = sw.chain._closing_tail

        def counted(*args):
            for check in (closing, squared_closing_tail):
                with mock.patch.object(sw.chain, "_negligible", wraps=sw.chain._negligible) as rule:
                    reads[check] = _decided(check, *args[:2], *args[3:])
                reads[check, "reads"] = rule.call_count
            return closing(*args)

        kw = dict(start=config.start, tail_tol=config.tail_tol, max_horizon=config.max_horizon)
        with mock.patch.object(sw.chain, "_closing_tail", counted):
            if engine == "lifetime_distribution":
                sw.lifetime_distribution(schedule, config.initial, **kw)
            else:
                getattr(sw, engine)(schedule, config.initial, config.target_set(), **kw)
        assert reads[closing] == reads[squared_closing_tail]
        assert reads[closing][2]   # closable
        assert reads[closing, "reads"] == 1 < reads[squared_closing_tail, "reads"]

    def test_a_bound_within_the_rounding_margin_falls_through_to_the_squarings(self):
        # one stage keeping 1 - 1e-6 of its mass for 10**6 steps: the mass
        # times the bound raised to them is just below tail_tol, but times
        # the bound rounded up by the margin 4 (d + 1) eps first, it is not,
        # so the first read does not decide, and the squarings give the
        # squaring loop's answer
        b, q, tol = 1.0 - 1e-6, 10**6, 1e-12
        mass = tol / b**q * (1.0 - 5e-10)
        assert mass * b**q < tol <= mass * (b + 8 * sys.float_info.epsilon) ** q
        args = (sw.Schedule.constant([[b]]), 0, np.array([mass]), 0, tol, q)
        with mock.patch.object(sw.chain, "_negligible", wraps=sw.chain._negligible) as rule:
            decided = _decided(sw.chain._closing_tail, *args)
        assert rule.call_count > 1
        assert decided == _decided(squared_closing_tail, *args)
        assert decided[2]   # closable
