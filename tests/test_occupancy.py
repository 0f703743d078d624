import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import stagedwell as sw
from helpers import random_distribution, random_schedule, random_substochastic, random_target
from oracles import brute_force_moment, brute_force_occupancy

# Two-stage chain where stage 1 is the target: from stage 0 move to 1 or die
# (half/half), from stage 1 stay or die. tau is 0 with prob 1/2 and
# geometric above that: P{tau=a} = 0.5^(a+1) for a >= 1, E=1, E[tau^2]=3.
GEOM_B = ((0.0, 0.0), (0.5, 0.5))
GEOM_V = (1.0, 0.0)


def geom_setup():
    return sw.Schedule.constant(GEOM_B), sw.TargetSet(2, frozenset({1}))


class TestTargetSet:
    def test_mask_and_indicator(self):
        t = sw.TargetSet(3, frozenset({0, 2}))
        assert_allclose(t.mask, [1.0, 0.0, 1.0])
        assert_allclose(t.indicator, np.diag([1.0, 0.0, 1.0]))
        assert 0 in t and 1 not in t

    def test_from_labels(self):
        space = sw.StateSpace(("egg", "chick", "adult"))
        t = sw.TargetSet.from_labels(space, ["adult", "egg"])
        assert t.members == frozenset({0, 2})

    def test_unknown_label(self):
        space = sw.StateSpace(("egg",))
        with pytest.raises(sw.UnknownLabelError):
            sw.TargetSet.from_labels(space, ["adult"])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sw.TargetSet(2, frozenset({2}))

    def test_none_and_all(self):
        assert sw.TargetSet.none(3).members == frozenset()
        assert sw.TargetSet.all_states(3).members == frozenset({0, 1, 2})


class TestEvolveJoint:
    def test_initial_table(self):
        sched, target = geom_setup()
        table = sw.evolve_joint(sched, GEOM_V, target)
        assert_allclose(table.joint(0, 0), GEOM_V)
        assert table.start == 0

    def test_one_step_by_hand(self):
        # death or move happens after the step's occupancy is counted, so all
        # surviving mass at time 1 sits at a=1 only if stage 0 were in the
        # target; here stage 0 is not, so survivors carry a=0... but they
        # moved INTO stage 1 without having occupied it yet.
        sched, target = geom_setup()
        table = sw.evolve_joint(sched, GEOM_V, target)
        assert_allclose(table.joint(0, 1), [0.0, 0.5])
        assert_allclose(table.joint(1, 1), [0.0, 0.0])

    def test_mass_decay(self):
        sched, target = geom_setup()
        table = sw.evolve_joint(sched, GEOM_V, target)
        for n in range(10):
            assert table.mass(n) == pytest.approx(0.5**n, rel=1e-12)

    def test_out_of_triangle_is_zero(self):
        sched, target = geom_setup()
        table = sw.evolve_joint(sched, GEOM_V, target)
        assert_allclose(table.joint(5, 2), np.zeros(2))

    def test_marginal_sums_to_mass(self):
        rng = np.random.default_rng(3)
        sched = random_schedule(rng, d=3, length=20)
        v = random_distribution(rng, 3)
        target = sw.TargetSet(3, frozenset({1}))
        table = sw.evolve_joint(sched, v, target)
        for n in (0, 3, 11):
            assert table.occupancy_marginal(n).sum() == pytest.approx(table.mass(n), rel=1e-12)

    def test_mass_matches_transition_operator(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            d = int(rng.integers(1, 5))
            sched = random_schedule(rng, d=d, length=30)
            v = random_distribution(rng, d)
            table = sw.evolve_joint(sched, v, random_target(rng, d))
            for n in (0, 7, 19):
                expected = float(sw.transition_operator(sched, n).sum(axis=0) @ v)
                assert table.mass(n) == pytest.approx(expected, abs=1e-12)

    def test_non_absorbing_raises(self):
        sched = sw.Schedule.constant(np.eye(2))
        with pytest.raises(sw.NonAbsorbingError):
            sw.evolve_joint(sched, [1.0, 0.0], sw.TargetSet.none(2), max_horizon=50)


class TestOccupancyDistribution:
    def test_empty_target_is_point_mass_at_zero(self):
        sched, _ = geom_setup()
        dist = sw.occupancy_distribution(sched, GEOM_V, sw.TargetSet.none(2))
        assert set(dist.probs) == {0}
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_geometric_atoms(self):
        sched, target = geom_setup()
        dist = sw.occupancy_distribution(sched, GEOM_V, target)
        assert dist.pmf(0) == pytest.approx(0.5, abs=1e-14)
        for a in range(1, 25):
            assert dist.pmf(a) == pytest.approx(0.5 ** (a + 1), rel=1e-12)
        assert dist.total() == pytest.approx(1.0, abs=1e-12)

    def test_full_target_collapses_to_lifetime(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            d = int(rng.integers(1, 5))
            sched = random_schedule(rng, d=d, length=40)
            v = random_distribution(rng, d)
            life = sw.lifetime_distribution(sched, v)
            occ = sw.occupancy_distribution(sched, v, sw.TargetSet.all_states(d))
            assert set(occ.probs) == set(life.probs)
            for n, p in life.probs.items():
                assert occ.pmf(n) == pytest.approx(p, rel=0, abs=1e-12)
            assert occ.tail_mass == pytest.approx(life.tail_mass, abs=1e-15)

    def test_matches_brute_force_small(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            d = int(rng.integers(1, 4))
            horizon = int(rng.integers(3, 8))
            mats = [np.asarray(m) for m in
                    (rng.uniform(0.05, 1.0, (d, d)) for _ in range(horizon))]
            mats = [m / m.sum(axis=0) * rng.uniform(0.3, 0.9, d) for m in mats]
            v = random_distribution(rng, d)
            members = frozenset(int(i) for i in range(d) if rng.random() < 0.5)
            # force absorption at the horizon with a zero matrix held forever
            sched = sw.Schedule.explicit(mats + [np.zeros((d, d))], list(range(horizon + 1)))
            dist = sw.occupancy_distribution(sched, v, sw.TargetSet(d, members))
            expected = brute_force_occupancy([m.tolist() for m in mats], v, members, horizon)
            for a, p in expected.items():
                assert dist.pmf(a) == pytest.approx(p, rel=0, abs=1e-12), (a, d, horizon)

    def test_start_offset(self):
        rng = np.random.default_rng(4)
        mats = [np.asarray(m) for m in
                (rng.dirichlet(np.ones(3), size=3).T * 0.8 for _ in range(6))]
        v = random_distribution(rng, 3)
        target = sw.TargetSet(3, frozenset({0, 2}))
        full = sw.Schedule.explicit(mats, range(6))
        shifted = sw.Schedule.explicit(mats[2:], range(4))
        a = sw.occupancy_distribution(full, v, target, start=2)
        b = sw.occupancy_distribution(shifted, v, target)
        assert a.support() == b.support()
        for key in a.support():
            assert a.pmf(key) == pytest.approx(b.pmf(key), rel=0, abs=1e-15)


class TestMoments:
    def test_geometric_first_two(self):
        sched, target = geom_setup()
        m1, m2 = sw.occupancy_moments(sched, GEOM_V, target, order=2)
        assert m1 == pytest.approx(1.0, abs=1e-9)
        assert m2 == pytest.approx(3.0, abs=1e-9)

    def test_empty_target_moments_vanish(self):
        sched, _ = geom_setup()
        moments = sw.occupancy_moments(sched, GEOM_V, sw.TargetSet.none(2), order=3)
        assert_allclose(moments, np.zeros(3), atol=1e-12)

    def test_full_target_gives_lifetime_moments(self):
        s = sw.Schedule.constant([[0.5]])
        m1, m2 = sw.occupancy_moments(s, [1.0], sw.TargetSet.all_states(1), order=2)
        assert m1 == pytest.approx(2.0, abs=1e-9)
        assert m2 == pytest.approx(6.0, abs=1e-9)

    def test_agrees_with_distribution_sum(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            d = int(rng.integers(1, 5))
            sched = random_schedule(rng, d=d, length=30)
            v = random_distribution(rng, d)
            target = random_target(rng, d)
            dist = sw.occupancy_distribution(sched, v, target)
            moments = sw.occupancy_moments(sched, v, target, order=3)
            horizon = dist.max_support() + 1
            for k, m in enumerate(moments, start=1):
                assert abs(m - dist.moment(k)) < 10 * 1e-12 * horizon**k

    def test_matches_brute_force(self):
        rng = np.random.default_rng(101)
        d, horizon = 2, 6
        mats = [rng.uniform(0.05, 1.0, (d, d)) for _ in range(horizon)]
        mats = [m / m.sum(axis=0) * 0.8 for m in mats]
        v = random_distribution(rng, d)
        members = frozenset({1})
        sched = sw.Schedule.explicit(mats + [np.zeros((d, d))], list(range(horizon + 1)))
        m1, m2 = sw.occupancy_moments(sched, v, sw.TargetSet(d, members), order=2)
        assert m1 == pytest.approx(
            brute_force_moment([m.tolist() for m in mats], v, members, horizon, 1), abs=1e-12)
        assert m2 == pytest.approx(
            brute_force_moment([m.tolist() for m in mats], v, members, horizon, 2), abs=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4))
    def test_moment_tables_match_joint_tables(self, seed, d, order):
        rng = np.random.default_rng(seed)
        sched = random_schedule(rng, d=d, length=15)
        v = random_distribution(rng, d)
        target = random_target(rng, d)
        joint = sw.evolve_joint(sched, v, target, tail_tol=1e-10)
        table = sw.moment_tables(sched, v, target, order=order, tail_tol=1e-10)
        for n in range(0, min(joint.horizon, table.horizon) + 1, 7):
            for k in range(order + 1):
                assert_allclose(
                    table.vector(k, n), joint.moment_vector(k, n), rtol=0, atol=1e-10)

    def test_moment_table_zeroth_is_survival(self):
        sched, target = geom_setup()
        table = sw.moment_tables(sched, GEOM_V, target, order=0)
        assert table.vector(0, 3).sum() == pytest.approx(0.125, rel=1e-12)

    def test_high_order_past_the_float_range_of_the_weight(self):
        # (t+1)**90 leaves float64 near t = 2660; the moments themselves fit
        fulmar = sw.builtin_fulmar_scenario()
        args = (fulmar.build_schedule(), fulmar.initial, fulmar.target_set())
        high = sw.occupancy_moments(*args, order=90)
        assert np.isfinite(high).all()
        assert high[:4] == pytest.approx(sw.occupancy_moments(*args, order=4), rel=1e-10)

    def test_high_order_geometric_against_direct_sums(self):
        # one stage surviving with q = 0.99: occupancy of the whole life is
        # the lifetime, P(n) = (1-q) q^(n-1). (t+1)**80 leaves float64 near
        # t = 7000, before the bulk of the 80th moment (n near 8000)
        q, order = 0.99, 80
        got = sw.occupancy_moments(sw.Schedule.constant([[q]]), [1.0], sw.TargetSet.all_states(1),
                                   order=order)
        n = np.arange(1.0, 100_001.0)
        log_p = (n - 1) * np.log(q) + np.log1p(-q)
        expected = [np.exp(k * np.log(n) + log_p).sum() for k in range(1, order + 1)]
        assert got == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("order", [200, 1100])
    def test_overflowing_order_is_named(self, order):
        # order 200 overflows the moments; order 1100 already its binomial weights
        fulmar = sw.builtin_fulmar_scenario()
        with pytest.raises(ValueError, match=f"order {order} overflow"):
            sw.occupancy_moments(fulmar.build_schedule(), fulmar.initial, fulmar.target_set(),
                                 order=order)

    def test_order_validation(self):
        sched, target = geom_setup()
        with pytest.raises(ValueError):
            sw.occupancy_moments(sched, GEOM_V, target, order=0)
        with pytest.raises(ValueError):
            sw.moment_tables(sched, GEOM_V, target, order=-1)


ENGINES = {
    "lifetime_distribution": lambda s, v, target, **kw: sw.lifetime_distribution(s, v, **kw),
    "evolve_joint": sw.evolve_joint,
    "occupancy_distribution": sw.occupancy_distribution,
    "moment_tables": sw.moment_tables,
    "occupancy_moments": sw.occupancy_moments,
}


def _payload(result):
    """What an engine result says, less its start time."""
    if isinstance(result, sw.DiscreteDistribution):
        return result.probs, result.tail_mass
    if isinstance(result, sw.JointOccupancyTable):
        return [tab.tolist() for tab in result.values]
    if isinstance(result, sw.MomentTable):
        return result.values.tolist()
    return result


@pytest.mark.parametrize("engine", ENGINES)
def test_engine_truncation_target_and_start_contract(engine):
    run = ENGINES[engine]
    rng = np.random.default_rng(29)
    mats = [random_substochastic(rng, 3) for _ in range(6)]
    v = random_distribution(rng, 3)
    target = sw.TargetSet(3, frozenset({1}))
    sched = sw.Schedule.explicit(mats, range(6))
    for bad in ({"tail_tol": 0.0}, {"tail_tol": 1.0}, {"max_horizon": 0}):
        with pytest.raises(ValueError):
            run(sched, v, target, **bad)
    with pytest.raises(sw.NonAbsorbingError) as info:
        run(sw.Schedule.constant(np.eye(2)), [1.0, 0.0], sw.TargetSet(2, frozenset({0})),
            max_horizon=50)
    assert info.value.horizon == 50
    if engine != "lifetime_distribution":
        with pytest.raises(ValueError, match="target set is over 2 stages"):
            run(sched, v, sw.TargetSet(2, frozenset({0})))
    # entering at time 2 meets the same matrices as the schedule without its first two
    shifted = run(sched, v, target, start=2)
    assert _payload(shifted) == _payload(run(sw.Schedule.explicit(mats[2:], range(4)), v, target))


class TestSummaryStats:
    def test_geometric_values(self):
        s = sw.summary_stats(1.0, 3.0)
        assert s.mean == 1.0
        assert s.variance == 2.0
        assert s.cv == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_zero_mean_has_nan_cv(self):
        s = sw.summary_stats(0.0, 0.0)
        assert s.variance == 0.0
        assert math.isnan(s.cv)

    def test_deterministic_total(self):
        s = sw.summary_stats(2.0, 4.0)
        assert s.variance == 0.0
        assert s.cv == 0.0

    def test_tiny_negative_clamped(self):
        s = sw.summary_stats(1.0, 1.0 - 1e-15)
        assert s.variance == 0.0

    def test_genuinely_negative_raises(self):
        with pytest.raises(sw.NegativeVarianceError):
            sw.summary_stats(1.0, 0.9)
