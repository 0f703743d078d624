import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import stagedwell as sw
from helpers import random_distribution, random_schedule, random_substochastic
from oracles import phase_type_pmf

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

    @pytest.mark.parametrize("raw", [[{}, 1.0], "abc", [[1.0], [0.0, 0.0]]])
    def test_rejects_non_numeric(self, raw):
        with pytest.raises(sw.InvalidDistributionError, match="not a numeric vector"):
            sw.validate_distribution(raw)

    def test_rejects_bad_sum(self):
        with pytest.raises(sw.InvalidDistributionError):
            sw.validate_distribution([0.5, 0.4])


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

    def test_rejects_bad_sequence_index(self):
        with pytest.raises(ValueError):
            sw.Schedule.explicit([[[0.5]]], [0, 1])

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

    def test_absorption_at_matches_matrix_at(self):
        rng = np.random.default_rng(11)
        s = random_schedule(rng, d=3, n_matrices=2, length=6)
        for n in range(10):
            assert_allclose(
                s.absorption_at(n), sw.absorption_vector(s.matrix_at(n)), rtol=0, atol=0
            )

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

    def test_rejects_bad_truncation_controls(self):
        s = sw.Schedule.constant([[0.5]])
        with pytest.raises(ValueError):
            sw.lifetime_distribution(s, [1.0], tail_tol=0.0)
        with pytest.raises(ValueError):
            sw.lifetime_distribution(s, [1.0], max_horizon=0)


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

    def test_numbered(self):
        assert sw.StateSpace.numbered(2).labels == ("s0", "s1")
