import dataclasses
import itertools
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

import stagedwell as sw
from helpers import random_distribution, random_schedule, random_substochastic, random_target
from oracles import (brute_force_alive, brute_force_joint, brute_force_moment, brute_force_occupancy,
                     forward_moment_table, walked_joint)

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

    def test_rejects_no_stages(self):
        with pytest.raises(ValueError, match="need at least one stage"):
            sw.TargetSet(0, frozenset())

    @pytest.mark.parametrize("member, named", [(1.7, "1.7"), ("1", "'1'"), (None, "None")])
    def test_rejects_non_integral_members(self, member, named):
        with pytest.raises(ValueError, match=f"target member {named} is not an integer"):
            sw.TargetSet(3, {0, member})

    def test_accepts_integral_floats_and_numpy_integers(self):
        assert sw.TargetSet(3, {2.0, np.int64(0)}).members == frozenset({0, 2})

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

    def test_rejects_a_time_out_of_range(self):
        sched, target = geom_setup()
        table = sw.evolve_joint(sched, GEOM_V, target, start=3)
        with pytest.raises(ValueError, match=rf"time {4 + table.horizon} outside table range 3\.\.{3 + table.horizon}"):
            table.joint(0, 4 + table.horizon)

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

    def test_immortal_stage_raises_before_keeping_tables(self):
        # stage 1 never dies, so keeping every table to max_horizon would
        # hold about max_horizon**2 / 2 rows (200 MB here) before raising
        tracemalloc.start()
        try:
            with pytest.raises(sw.NonAbsorbingError) as info:
                sw.evolve_joint(sw.Schedule.constant([[0.5, 0.0], [0.0, 1.0]]), [0.0, 1.0],
                                sw.TargetSet(2, frozenset({1})), max_horizon=5000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info.value.horizon == 5000
        assert peak < 10 * 2**20

    def test_reads_the_closing_step_once(self):
        # the stage vector's pass reads the tail and counts the steps; the
        # tables are then stepped that many times without another check
        data = sw.builtin_fulmar()
        target = sw.TargetSet.from_labels(data.states, ("successful breeder", "failed breeder"))
        with mock.patch.object(sw.chain, "_closing_tail", wraps=sw.chain._closing_tail) as closing:
            table = sw.evolve_joint(sw.Schedule.constant(data.matrices["U_f"]), (1.0, 0.0, 0.0, 0.0), target)
        assert closing.call_count == 1
        assert table.mass(table.horizon) < sw.DEFAULT_TAIL_TOL <= table.mass(table.horizon - 1)

    @pytest.mark.parametrize("members", [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)],
                             ids=lambda m: "".join(map(str, m)) or "none")
    def test_matches_brute_force_entry_by_entry(self, members):
        # the tables come back in the caller's stage order whichever stages
        # are counted, however the transport orders them internally
        rng = np.random.default_rng(41)
        sched = random_schedule(rng, d=3, n_matrices=3, length=5, high=0.9)
        v = random_distribution(rng, 3)
        table = sw.evolve_joint(sched, v, sw.TargetSet(3, frozenset(members)), start=1)
        for n in range(7):
            alive = brute_force_alive([sched.matrix_at(1 + t).tolist() for t in range(n)], v, members, n)
            for a in range(n + 1):
                for j in range(3):
                    assert table.joint(a, 1 + n)[j] == pytest.approx(alive.get((a, j), 0.0), rel=0, abs=1e-15), \
                        (members, n, a, j)


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
            # force absorption at the horizon with a zero matrix held forever
            sched = sw.Schedule.explicit(mats + [np.zeros((d, d))], list(range(horizon + 1)))
            for members in itertools.chain.from_iterable(
                    itertools.combinations(range(d), k) for k in range(d + 1)):
                dist = sw.occupancy_distribution(sched, v, sw.TargetSet(d, frozenset(members)))
                expected = brute_force_occupancy([m.tolist() for m in mats], v, members, horizon)
                for a, p in expected.items():
                    assert dist.pmf(a) == pytest.approx(p, rel=0, abs=1e-12), (a, d, horizon, members)

    def test_brute_force_lists_the_paths_it_would_walk(self):
        # the oracle's path arrays against a depth-first walk, to the bit,
        # zero entries (paths it drops) included
        rng = np.random.default_rng(78)
        for _ in range(40):
            d, horizon = int(rng.integers(1, 4)), int(rng.integers(1, 8))
            mats = [rng.uniform(0.0, 1.0, (d, d)) * (rng.random((d, d)) < 0.8) for _ in range(horizon)]
            mats = [(m / max(m.sum(axis=0).max(), 1.0) * rng.uniform(0.3, 1.0)).tolist() for m in mats]
            v = random_distribution(rng, d)
            members = [j for j in range(d) if rng.random() < 0.5]
            assert brute_force_joint(mats, v, members, horizon) == walked_joint(mats, v, members, horizon)

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

    def test_moment_table_rejects_a_time_or_order_out_of_range(self):
        sched, target = geom_setup()
        table = sw.moment_tables(sched, GEOM_V, target, order=2, start=2)
        with pytest.raises(ValueError, match=rf"time 1 outside table range 2\.\.{2 + table.horizon}"):
            table.vector(0, 1)
        with pytest.raises(ValueError, match=r"moment order 3 outside 0\.\.2"):
            table.vector(3, 2)

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

    def test_moment_tables_overflow_is_named(self):
        # fulmar's stack overflows from order 114 on; this runs under the
        # suite's warnings-as-errors, so no numpy overflow warning may escape
        fulmar = sw.builtin_fulmar_scenario()
        with pytest.raises(ValueError, match="order 200 overflow"):
            sw.moment_tables(fulmar.build_schedule(), fulmar.initial, fulmar.target_set(), order=200)

    def test_binomial_shift_against_math_comb(self):
        from stagedwell.occupancy import _binomial_shift
        # exact while the weights are integers float64 holds; rounded a little above
        for order, rows, rel in ((57, range(58), 0.0), (1029, (100, 514, 1000, 1029), 2e-15)):
            L = _binomial_shift(order)
            assert np.array_equal(L, np.tril(L, -1))
            for k in rows:
                exact = np.array([float(math.comb(k, i)) for i in range(k)])
                assert_allclose(L[k, :k], exact, rtol=rel, atol=0)

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


def _written_out(schedule, steps):
    """The same chain with its first `steps` matrices listed and no extension,
    so that every engine steps it by the recurrence."""
    return sw.Schedule.explicit(schedule.matrices, [schedule.index_at(n) for n in range(steps)], "error")


class TestClosedTail:
    """Hold-last and cycle schedules are closed where they turn homogeneous;
    the reference is the recurrence on the tail written out in full."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 15), st.integers(0, 25),
           st.integers(1, 4), st.sampled_from(["hold_last", "cycle"]),
           st.sampled_from(["random", "empty", "full"]), st.booleans())
    def test_matches_the_written_out_recurrence(self, seed, d, prefix, start, order, extension,
                                                members, zero_held):
        rng = np.random.default_rng(seed)
        mats = [random_substochastic(rng, d, high=0.9) for _ in range(3)] + [np.zeros((d, d))]
        seq = rng.integers(0, 3, size=prefix)
        if zero_held:
            seq[-1] = 3
        sched = sw.Schedule.explicit(mats, seq, extension)
        v = random_distribution(rng, d)
        target = {"random": random_target(rng, d), "empty": sw.TargetSet.none(d),
                  "full": sw.TargetSet.all_states(d)}[members]
        # mass falls at least 0.9-fold a step: gone to 1e-15 * (t+1)^-4 well within this
        reference = _written_out(sched, start + 1200)

        closed = sw.occupancy_distribution(sched, v, target, start=start)
        exact = sw.occupancy_distribution(reference, v, target, start=start, tail_tol=1e-15)
        assert closed.tail_mass <= sw.DEFAULT_TAIL_TOL
        assert closed.total() == pytest.approx(1.0, abs=1e-12)
        for a in set(closed.probs) | set(exact.probs):
            assert abs(closed.pmf(a) - exact.pmf(a)) <= 1e-12, a
            assert closed.pmf(a) >= 0.0

        moments = sw.occupancy_moments(sched, v, target, start=start, order=order)
        expected = sw.occupancy_moments(reference, v, target, start=start, order=order, tail_tol=1e-15)
        assert moments == pytest.approx(expected, rel=1e-10, abs=0)

    def test_closed_moments_carry_no_truncation_error(self):
        # one stage surviving with 1/2: at tail_tol 0.5 the recurrence would
        # stop after four steps with mean 1.875; the closed tail is exact
        got = sw.occupancy_moments(sw.Schedule.constant([[0.5]]), [1.0], sw.TargetSet.all_states(1),
                                   order=2, tail_tol=0.5)
        assert got == pytest.approx([2.0, 6.0], rel=1e-15)

    @pytest.mark.parametrize("schedule", [
        sw.Schedule.explicit([[[0.5, 0.0], [0.3, 0.5]], np.eye(2)], [0, 0, 1]),
        sw.Schedule.periodic([[[0.0, 1.0], [1.0, 0.0]], np.eye(2)], [0, 1]),
        sw.Schedule.constant([[0.999, 0.0], [0.0, 0.999]]),   # absorbs, but not within 60 steps
    ], ids=["held identity", "permutation cycle", "slow"])
    @pytest.mark.parametrize("engine", ["occupancy_distribution", "occupancy_moments", "lifetime_distribution",
                                        "moment_tables"])
    def test_non_absorbing(self, schedule, engine):
        with pytest.raises(sw.NonAbsorbingError) as info:
            ENGINES[engine](schedule, [1.0, 0.0], sw.TargetSet(2, frozenset({0})), max_horizon=60)
        assert info.value.horizon == 60

    @pytest.mark.parametrize("extension, length, start", [("hold_last", 6, 2), ("cycle", 4, 1)])
    @pytest.mark.parametrize("engine", ["occupancy_distribution", "occupancy_moments", "lifetime_distribution",
                                        "moment_tables"])
    def test_max_horizon_at_the_hand_off(self, extension, length, start, engine):
        # max_horizon just before, at and after t0, where the recurrence
        # hands over to the closed tail, and at the written-out recurrence's
        # last step and one before: raised where, and only where, it raises
        rng = np.random.default_rng(length)
        sched = random_schedule(rng, d=3, length=length, extension=extension, low=0.85, high=0.95)
        v, target = random_distribution(rng, 3), sw.TargetSet(3, frozenset({0, 2}))
        t0 = length - 1 - start if extension == "hold_last" else length
        kw = {"order": 3} if "moment" in engine else {}
        last = sw.moment_tables(_written_out(sched, start + 2000), v, target, start=start,
                                order=kw.get("order", 0)).horizon
        for max_horizon in (t0 - 1, t0, t0 + 1, last - 1, last):
            raised = []
            for schedule in (sched, _written_out(sched, start + max_horizon + 1)):
                try:
                    ENGINES[engine](schedule, v, target, start=start, max_horizon=max_horizon, **kw)
                    raised.append(None)
                except sw.NonAbsorbingError as exc:
                    raised.append(exc.horizon)
            assert raised == [max_horizon if max_horizon < last else None] * 2, max_horizon

    def test_immortal_stage_off_the_path_keeps_the_recurrence(self):
        # stage 1 never dies but is never entered: I - H is singular, so the
        # tail is not closed, and the results are the recurrence's bit for bit
        schedules = [sw.Schedule.constant([[0.5, 0.0], [0.0, 1.0]])]
        # so is a never-entered block normalized by its column sums, one of
        # which rounds to 1 - 1 ulp: that is rounding, not a stage that can
        # die, and closing such a tail was a singular solve (LinAlgError)
        for seed, k in [(84, 2), (16, 3), (2, 4)]:
            block = np.random.default_rng(seed).random((k, k))
            block /= block.sum(axis=0)
            assert (block.sum(axis=0) == np.nextafter(1.0, 0.0)).any()
            H = np.zeros((k + 1, k + 1))
            H[0, 0], H[1:, 1:] = 0.5, block
            schedules.append(sw.Schedule.constant(H))
        for sched in schedules:
            v, target = np.eye(sched.d)[0], sw.TargetSet(sched.d, frozenset({0}))
            reference = _written_out(sched, 200)
            assert sw.occupancy_distribution(sched, v, target) == sw.occupancy_distribution(reference, v, target)
            assert sw.occupancy_moments(sched, v, target, order=3) == \
                sw.occupancy_moments(reference, v, target, order=3)

    @pytest.mark.parametrize("max_horizon, closes", [(1, False), (sw.DEFAULT_MAX_HORIZON, True)])
    def test_a_decay_the_squarings_cannot_show_is_stepped(self, max_horizon, closes):
        # stage 0 passes all its mass on to stage 1, which keeps half: the
        # held matrix's column 0 sums to 1, and its square shows the decay.
        # At max_horizon 1 the closing-step check reads the matrix alone, so
        # the tail is stepped, not closed; at the default it is closed
        sched, v = sw.Schedule.constant([[0.0, 0.0], [1.0, 0.5]]), [0.0, 1.0]
        target = sw.TargetSet(2, frozenset({1}))
        closed = sw.occupancy._closed_distribution
        with mock.patch.object(sw.occupancy, "_closed_distribution", wraps=closed) as closing:
            dist = sw.occupancy_distribution(sched, v, target, tail_tol=0.6, max_horizon=max_horizon)
        assert closing.called == closes
        assert dist == sw.occupancy_distribution(_written_out(sched, 2), v, target, tail_tol=0.6,
                                                 max_horizon=max_horizon)
        assert (dist.probs, dist.tail_mass) == ({1: 0.5}, 0.5)

    def test_long_cycle_keeps_the_recurrence(self, monkeypatch):
        rng = np.random.default_rng(8)
        sched = random_schedule(rng, d=3, length=6, extension="cycle")
        v, target = random_distribution(rng, 3), sw.TargetSet(3, frozenset({1}))
        monkeypatch.setattr(sw.occupancy, "MAX_CLOSED_CYCLE_STATES", 17)
        assert sw.occupancy_distribution(sched, v, target) == \
            sw.occupancy_distribution(_written_out(sched, 2000), v, target)

    @pytest.mark.parametrize("extension, length, start", [
        ("hold_last", 1, 0), ("hold_last", 4, 9), ("cycle", 1, 0), ("cycle", 5, 2), ("cycle", 70, 0),
        ("cycle", 3, 13),
    ])
    def test_moment_tables_match_the_forward_table(self, extension, length, start):
        # the tail is evaluated by segments: one step or a period dividing
        # the segment length or not, a period longer than one, and a start
        # past the prefix; every kept step is checked
        rng = np.random.default_rng(100 * length + start)
        sched = random_schedule(rng, d=3, n_matrices=4, length=length, extension=extension, low=0.8, high=0.92)
        v = random_distribution(rng, 3)
        table = sw.moment_tables(sched, v, sw.TargetSet(3, frozenset({0, 2})), start=start, order=3)
        assert table.horizon > length + 3 * max(length, sw.chain.SEGMENT)
        expected = forward_moment_table([sched.matrix_at(start + t) for t in range(table.horizon)], v, (0, 2),
                                        3, table.horizon)
        assert_allclose(table.values, expected, rtol=1e-10, atol=0)
        weighted = table.values[:, 0].sum(axis=1) * (np.arange(table.horizon + 1) + 1.0) ** 3
        assert weighted[-1] < sw.DEFAULT_TAIL_TOL <= weighted[:-1].min()

    def test_above_the_segment_cap_keeps_the_recurrence(self, monkeypatch):
        rng = np.random.default_rng(9)
        sched = random_schedule(rng, d=3, length=4, extension="cycle")
        v, target = random_distribution(rng, 3), sw.TargetSet(3, frozenset({0}))
        closed = sw.occupancy_distribution(sched, v, target)
        monkeypatch.setattr(sw.chain, "MAX_SEGMENT_STATES", 2)
        reference = _written_out(sched, 3000)
        assert sw.lifetime_distribution(sched, v) == sw.lifetime_distribution(reference, v)
        np.testing.assert_array_equal(sw.moment_tables(sched, v, target, order=3).values,
                                      sw.moment_tables(reference, v, target, order=3).values)
        # the visit series, over 4 phase x target states, now takes one-step segments
        stepped = sw.occupancy_distribution(sched, v, target)
        assert stepped.support() == closed.support()
        assert_allclose(list(stepped.probs.values()), list(closed.probs.values()), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("schedule", [
        sw.Schedule.constant(np.diag([0.1, 0.99])),
        sw.Schedule.periodic([np.diag([0.1, 0.99]), np.diag([0.2, 0.98])], [0, 1, 0]),
    ], ids=["hold_last", "cycle"])
    def test_weighted_mass_that_dips_and_rises_again(self, schedule):
        # mass * (t+1)^4 falls below tail_tol near t = 20, where the
        # recurrence stops, and is above it again at max_horizon = 400
        v, target = [1.0, 1e-18], sw.TargetSet.all_states(2)
        reference = _written_out(schedule, 400)
        table = sw.moment_tables(schedule, v, target, order=4, max_horizon=400)
        expected = sw.moment_tables(reference, v, target, order=4, max_horizon=400)
        assert table.horizon == expected.horizon < 25
        assert_allclose(table.values, expected.values, rtol=1e-12, atol=0)
        moments = sw.occupancy_moments(schedule, v, target, order=4, max_horizon=400)
        assert moments == pytest.approx(sw.occupancy_moments(reference, v, target, order=4, max_horizon=400),
                                        rel=1e-8)

    @pytest.mark.parametrize("case", ["constant", "hold_last prefix", "cycle of 5", "error", "above the cap"])
    def test_lifetime_walks_the_steps_of_the_zeroth_moment_table(self, case, monkeypatch):
        # the lifetime atoms are the zeroth moments, step by step, against
        # each step's absorption vector, the closing tail included
        rng = np.random.default_rng(31)
        length, extension, start = {"constant": (1, "hold_last", 0), "hold_last prefix": (6, "hold_last", 2),
                                    "cycle of 5": (5, "cycle", 3), "error": (400, "error", 1),
                                    "above the cap": (4, "cycle", 0)}[case]
        sched = random_schedule(rng, d=3, length=length, extension=extension, low=0.8, high=0.93)
        if case == "above the cap":
            monkeypatch.setattr(sw.chain, "MAX_SEGMENT_STATES", 2)
        v = random_distribution(rng, 3)
        dist = sw.lifetime_distribution(sched, v, start=start)
        values = sw.moment_tables(sched, v, sw.TargetSet.none(3), start=start, order=0).values
        assert dist.tail_mass == pytest.approx(values[-1, 0].sum(), rel=1e-14)
        atoms = [values[n - 1, 0] @ sched.absorption_at(start + n - 1) for n in range(1, len(values))]
        assert max(dist.probs) == len(values) - 1 > 100
        assert_allclose(dist.to_array(len(values))[1:], atoms, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("extension", ["hold_last", "cycle"])
    def test_empty_target_closes_with_an_empty_visit_series(self, extension):
        # no target stage: the censored visit chain has no states at all
        rng = np.random.default_rng(12)
        sched = random_schedule(rng, d=3, length=5, extension=extension)
        dist = sw.occupancy_distribution(sched, random_distribution(rng, 3), sw.TargetSet.none(3))
        assert dist.support() == [0] and dist.tail_mass == 0.0
        assert dist.pmf(0) == pytest.approx(1.0, rel=1e-12)


def _joint_atoms(schedule, v, target, **kw):
    """Occupancy atoms and tail from evolve_joint's full tables: each step's
    table with the target rows moved up one, against that step's absorption
    vector, and the mass alive at the last table."""
    table = sw.evolve_joint(schedule, v, target, **kw)
    atoms = np.zeros(table.horizon + 1)
    for t, rows in enumerate(table.values[:-1]):
        lifted = np.zeros((t + 2, table.d))
        lifted[1:] += rows * target.mask
        lifted[:-1] += rows * (1.0 - target.mask)
        atoms[: t + 2] += lifted @ schedule.absorption_at(table.start + t)
    return atoms, table.mass(table.start + table.horizon)


class TestBand:
    """occupancy_distribution steps only the rows of its table that carry
    mass; the reference is evolve_joint, which keeps every row."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 60), st.integers(0, 25),
           st.sampled_from(["hold_last", "cycle"]), st.sampled_from(["random", "empty", "full"]), st.booleans())
    # a life that ends inside the prefix: a recurrence result, with a
    # tail_mass of 1.015e-12 between tail_tol and 1.5 tail_tol
    @example(seed=3, d=3, prefix=51, start=0, extension="hold_last", members="random", zero_held=False)
    def test_closed_chains_within_tail_mass_of_the_full_table(self, seed, d, prefix, start, extension, members,
                                                              zero_held):
        # TestClosedTail's chains with prefixes long enough to trim, under a
        # max_horizon small enough that the allowance cuts visible mass
        rng = np.random.default_rng(seed)
        mats = [random_substochastic(rng, d, high=0.9) for _ in range(3)] + [np.zeros((d, d))]
        seq = rng.integers(0, 3, size=prefix)
        if zero_held:
            seq[-1] = 3
        sched = sw.Schedule.explicit(mats, seq, extension)
        v = random_distribution(rng, d)
        target = {"random": random_target(rng, d), "empty": sw.TargetSet.none(d),
                  "full": sw.TargetSet.all_states(d)}[members]
        closed = sw.occupancy._closed_distribution
        with mock.patch.object(sw.occupancy, "_closed_distribution", wraps=closed) as closing:
            banded = sw.occupancy_distribution(sched, v, target, start=start, max_horizon=400)
        atoms, tail = _joint_atoms(sched, v, target, start=start, tail_tol=1e-15, max_horizon=400)
        # the README's bound: tail_tol for a closed result, 1.5 tail_tol for
        # one whose life ends before the tail is closed
        assert banded.tail_mass <= (1.0 if closing.called else 1.5) * sw.DEFAULT_TAIL_TOL
        assert banded.total() == pytest.approx(1.0, abs=1e-12)
        reference = np.zeros(max(atoms.size, banded.max_support() + 1))
        reference[: atoms.size] = atoms
        # the reference is exact up to its own tail; 1e-14 is for rounding
        assert np.abs(banded.to_array(reference.size) - reference).max() <= banded.tail_mass + tail + 1e-14

    @pytest.mark.parametrize("d", [16, 32])
    def test_wide_chains_within_tail_mass_of_the_full_table(self, d):
        # the hypothesis cases above stop at d = 4; here the step's two
        # products write strided column blocks as wide as long_horizon's
        rng = np.random.default_rng(d)
        mats = [random_substochastic(rng, d, low=0.85, high=0.95) for _ in range(3)]
        sched = sw.Schedule.explicit(mats, rng.integers(0, 3, size=400), "error")
        v, target = random_distribution(rng, d), sw.TargetSet(d, frozenset(range(0, d, 3)))
        banded = sw.occupancy_distribution(sched, v, target, max_horizon=400)
        atoms, _ = _joint_atoms(sched, v, target, max_horizon=400)
        assert 0.0 < banded.tail_mass <= 1.5 * sw.DEFAULT_TAIL_TOL
        assert banded.total() == pytest.approx(1.0, abs=1e-12)
        assert len(banded.probs) < np.count_nonzero(atoms)   # the band was trimmed
        assert np.abs(banded.to_array(atoms.size) - atoms).max() <= banded.tail_mass + 1e-14

    @pytest.mark.parametrize("members", [(0,), (1, 2), (0, 2)])
    def test_a_trimmed_band_stays_within_tail_mass(self, members):
        # 150 time-varying steps, then a zero matrix: nothing survives it, so
        # the full table's atoms sum to 1 and the tail is the cut mass alone
        rng = np.random.default_rng(12)
        mats = [random_substochastic(rng, 3, low=0.88, high=0.92) for _ in range(3)] + [np.zeros((3, 3))]
        sched = sw.Schedule.explicit(mats, np.append(rng.integers(0, 3, size=150), 3))
        v, target = random_distribution(rng, 3), sw.TargetSet(3, frozenset(members))
        banded = sw.occupancy_distribution(sched, v, target, max_horizon=1000)
        atoms, tail = _joint_atoms(sched, v, target, max_horizon=1000)
        assert tail == 0.0
        assert 0.0 < banded.tail_mass <= sw.DEFAULT_TAIL_TOL / 2
        assert len(banded.probs) < np.count_nonzero(atoms)
        assert banded.total() == pytest.approx(1.0, abs=1e-12)
        assert banded.max_support() < atoms.size
        assert np.abs(banded.to_array(atoms.size) - atoms).max() <= banded.tail_mass

    def test_a_max_horizon_beyond_float64_trims_as_the_largest_index(self):
        # the trim allowance divides by max_horizon, which a JSON or CLI
        # integer can make too large for a float
        rng = np.random.default_rng(12)
        mats = [random_substochastic(rng, 3, low=0.88, high=0.92) for _ in range(3)] + [np.zeros((3, 3))]
        sched = sw.Schedule.explicit(mats, np.append(rng.integers(0, 3, size=150), 3))
        v, target = random_distribution(rng, 3), sw.TargetSet(3, frozenset({0, 2}))
        huge = sw.occupancy_distribution(sched, v, target, max_horizon=10**400)
        assert huge.total() == pytest.approx(1.0, abs=1e-12)
        largest = sw.occupancy_distribution(sched, v, target, max_horizon=sys.maxsize)
        assert (huge.probs, huge.tail_mass) == (largest.probs, largest.tail_mass)

    @pytest.mark.parametrize("extension, prefix", [("error", 200), ("hold_last", 60)])
    def test_a_coarse_tolerance_cuts_much_and_keeps_the_contract(self, extension, prefix):
        # at tail_tol = 1e-3 the band cuts a good share of the surviving
        # mass, yet the loop stops, or raises with the surviving mass, where
        # the full table does, and a closed result stays within tail_tol
        rng = np.random.default_rng(3)
        mats = [random_substochastic(rng, 3, low=0.88, high=0.92) for _ in range(3)]
        sched = sw.Schedule.explicit(mats, rng.integers(0, 3, size=prefix), extension)
        v, target, tol = random_distribution(rng, 3), sw.TargetSet(3, frozenset({0, 2})), 1e-3
        last = sw.lifetime_distribution(_written_out(sched, 200), v, tail_tol=tol).max_support()
        assert 4 * sw.occupancy._TRIM_EVERY < last < 200   # trimmed a few times; past a held prefix's end
        with pytest.raises(sw.NonAbsorbingError) as banded:
            sw.occupancy_distribution(sched, v, target, tail_tol=tol, max_horizon=last - 1)
        with pytest.raises(sw.NonAbsorbingError) as full:
            sw.lifetime_distribution(sched, v, tail_tol=tol, max_horizon=last - 1)
        assert banded.value.surviving_mass == pytest.approx(full.value.surviving_mass, rel=1e-12)
        dist = sw.occupancy_distribution(sched, v, target, tail_tol=tol, max_horizon=last)
        assert dist.total() == pytest.approx(1.0, abs=1e-12)
        assert dist.tail_mass <= (tol if extension == "hold_last" else 1.5 * tol)

    @pytest.mark.parametrize("members", [{0}, {1}], ids=["never counted", "always counted"])
    def test_immortal_stage_raises_at_max_horizon_in_linear_time(self, members):
        # stage 1 never dies and holds all the mass, so nothing is closed and
        # the table is stepped to max_horizon; every row but one is an exact
        # zero, which the band drops, so that takes a fraction of a second
        # where the full table's quadratic cost took seconds
        with pytest.raises(sw.NonAbsorbingError) as info:
            sw.occupancy_distribution(sw.Schedule.constant([[0.5, 0.0], [0.0, 1.0]]), [0.0, 1.0],
                                      sw.TargetSet(2, frozenset(members)), max_horizon=20_000)
        assert info.value.horizon == 20_000


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


def _outcome(run):
    """What a call gives, to the bit: its payload, or its error's type and
    message."""
    try:
        result = run()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, sw.TwoLevelStats):
        return dataclasses.astuple(result)
    if isinstance(result, sw.MomentTable):
        return result.values.shape, result.values.tobytes()
    return _payload(result)


def _every_step_checked(run):
    """_outcome of run with the stopping rule evaluated at every step."""
    with mock.patch.object(sw.chain, "_unchecked", lambda *args: 0), \
            mock.patch.object(sw.randomenv, "_unchecked", lambda *args: 0):
        return _outcome(run)


def _steps_drawn(run):
    """(_outcome of run, the schedule steps it drew from Schedule.indices)."""
    drawn, indices = 0, sw.Schedule.indices

    def counted(schedule, start=0):
        nonlocal drawn
        for k in indices(schedule, start):
            drawn += 1
            yield k

    with mock.patch.object(sw.Schedule, "indices", counted):
        return _outcome(run), drawn


class TestSkippedChecks:
    """The stepping loop and the sampler read the stopping mass only where
    the rule can hold; reading it at every step gives the same results bit
    for bit, and the same errors."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3), st.integers(1, 8),
           st.sampled_from(sw.chain.EXTENSIONS), st.integers(0, 4), st.integers(0, 4),
           st.sampled_from([60, sw.DEFAULT_MAX_HORIZON]), st.sampled_from(["none", "death", "immortal"]))
    def test_every_engine_matches_checking_every_step(self, seed, d, n_matrices, prefix, extension, start,
                                                      order, max_horizon, column):
        rng = np.random.default_rng(seed)
        mats = [random_substochastic(rng, d, low=0.3, high=0.97) for _ in range(n_matrices)]
        j = int(rng.integers(d))
        for m in mats:
            if column == "death":      # floor 0: a step can absorb everything
                m[:, j] = 0.0
            elif column == "immortal":
                m[:, j] = np.eye(d)[j]
        if column == "immortal":       # no closed tail: the recurrence runs to max_horizon
            max_horizon = 60
        sched = sw.Schedule.explicit(mats, rng.integers(0, n_matrices, size=prefix), extension)
        v, target = random_distribution(rng, d), random_target(rng, d)
        kw = dict(start=start, max_horizon=max_horizon)
        runs = [lambda name=name: ENGINES[name](sched, v, target, **kw)
                for name in ("lifetime_distribution", "occupancy_distribution", "evolve_joint")]
        runs.append(lambda: sw.moment_tables(sched, v, target, order=order, **kw))
        runs.append(lambda: sw.occupancy_moments(sched, v, target, order=max(order, 1), **kw))
        spec = sw.RandomEnvironmentSpec(tuple(map(str, range(n_matrices))), mats,
                                        rng.dirichlet(np.ones(n_matrices)))
        runs.append(lambda: sw.two_level_stats(spec, v, target, n_sequences=3, seed=seed, start=start,
                                               max_horizon=max_horizon, sample_length=prefix))
        for run in runs:
            assert _outcome(run) == _every_step_checked(run)

    @pytest.mark.parametrize("max_horizon", [60, 2000, sw.DEFAULT_MAX_HORIZON])
    def test_immortal_stage_raises_as_when_checking_every_step(self, max_horizon):
        # stage 1 never dies, so the held matrix cannot be closed; every
        # exact engine raises at the tail's first step, step 0, having drawn
        # only the held matrix, while the sampler keeps its own loop and
        # steps to max_horizon (too slow at the default)
        sched = sw.Schedule.constant([[0.5, 0.0], [0.3, 1.0]])
        target = sw.TargetSet(2, frozenset({0}))
        spec = sw.RandomEnvironmentSpec(("a", "b"), (sched.matrices[0], [[0.9, 0.0], [0.05, 1.0]]), [0.5, 0.5])
        for name in ENGINES:
            run = lambda: ENGINES[name](sched, [1.0, 0.0], target, max_horizon=max_horizon)
            got, drawn = _steps_drawn(run)
            assert got[0] == "NonAbsorbingError"
            assert got == _every_step_checked(run)
            assert drawn == 1, name
        if max_horizon < sw.DEFAULT_MAX_HORIZON:
            run = lambda: sw.two_level_stats(spec, [1.0, 0.0], target, n_sequences=2, max_horizon=max_horizon)
            got = _outcome(run)
            assert got[0] == "NonAbsorbingError"
            assert got == _every_step_checked(run)

    @pytest.mark.parametrize("engine", ["lifetime_distribution", "moment_tables"])
    def test_segmented_tail_raises_if_the_check_missed(self, engine):
        # 0.999**50 of the mass is alive at max_horizon, so _closing_tail
        # raises at the closing step; with it patched to return the held
        # tail without a check, the segmented tail must find that itself
        # and raise as the recurrence would
        def unchecked(schedule, start, t0, *rest):
            return t0, ([0], list(schedule.matrices), schedule.matrices[0]), True

        with mock.patch.object(sw.chain, "_closing_tail", unchecked), \
                pytest.raises(sw.NonAbsorbingError) as info:
            ENGINES[engine](sw.Schedule.constant([[0.999]]), [1.0], sw.TargetSet(1, frozenset()), max_horizon=50)
        assert info.value.horizon == 50
        assert info.value.surviving_mass == pytest.approx(0.999**50, rel=1e-12)

    @pytest.mark.parametrize("max_horizon", [60, sw.DEFAULT_MAX_HORIZON])
    def test_fulmar_order_90(self, max_horizon):
        # the weight (t+1)**90 leaves float64 near t = 2600, and the rule then
        # waits for the mass to leave the normal range, within the prefix
        data = sw.builtin_fulmar()
        target = sw.TargetSet.from_labels(data.states, ("successful breeder", "failed breeder"))
        sched = sw.Schedule.explicit(list(data.matrices.values()),
                                     np.random.default_rng(90).integers(0, 3, size=9000), "error")
        for engine in (sw.occupancy_moments, sw.moment_tables):
            run = lambda: engine(sched, (1.0, 0.0, 0.0, 0.0), target, order=90, max_horizon=max_horizon)
            assert _outcome(run) == _every_step_checked(run)


SAMPLING_ENGINES = {
    "simulate_trajectory": lambda s, v, target: sw.simulate_trajectory(
        s, v, target, np.random.default_rng(0)),
    "empirical_distribution": lambda s, v, target: sw.empirical_distribution(
        s, v, target, n_samples=10),
    "two_level_stats": lambda s, v, target: sw.two_level_stats(
        sw.RandomEnvironmentSpec(("a", "b"), s.matrices[:2], [0.5, 0.5]), v, target,
        n_sequences=2),
}


@pytest.mark.parametrize("engine", SAMPLING_ENGINES)
def test_sampling_engines_share_the_input_check(engine):
    run = SAMPLING_ENGINES[engine]
    rng = np.random.default_rng(31)
    sched = sw.Schedule.explicit([random_substochastic(rng, 3) for _ in range(2)], [0, 1])
    v = random_distribution(rng, 3)
    target = sw.TargetSet(3, frozenset({1}))
    run(sched, v, target)
    with pytest.raises(ValueError, match="target set is over"):
        run(sched, v, sw.TargetSet(4, frozenset({0})))
    with pytest.raises(sw.InvalidDistributionError):
        run(sched, np.append(v, 0.0), target)


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

    def test_cancellation_grows_with_the_moments(self):
        # a deterministic occupancy of 301 steps comes out of the moment
        # recurrence with m2 - m1^2 = -4.9e-10: roundoff at that size
        assert sw.summary_stats(301.0, 301.0**2 - 5e-10).variance == 0.0
        with pytest.raises(sw.NegativeVarianceError):
            sw.summary_stats(301.0, 301.0**2 * (1 - 1e-6))
