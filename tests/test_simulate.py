from collections import Counter
from pathlib import Path
import time

import numpy as np
import pytest

import stagedwell as sw
from helpers import listed_steps, random_distribution, random_schedule, random_target
from oracles import simulated_block

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GEOM_B = ((0.0, 0.0), (0.5, 0.5))


def geom_setup():
    return sw.Schedule.constant(GEOM_B), sw.TargetSet(2, frozenset({1}))


class TestIndexStream:
    """Lives read a schedule from any start exactly as index_at lists it."""

    @pytest.mark.parametrize("extension, start", [
        ("cycle", 7), ("cycle", 6), ("cycle", 3), ("hold_last", 10), ("hold_last", 2),
    ])
    def test_late_start_matches_the_listed_steps(self, extension, start):
        rng = np.random.default_rng(start)
        sched = random_schedule(rng, d=3, n_matrices=3, length=3, extension=extension, low=0.7, high=0.9)
        v = random_distribution(rng, 3)
        target = sw.TargetSet(3, frozenset({1}))
        listed = listed_steps(sched, start, 400)
        assert (sw.empirical_distribution(sched, v, target, 1500, seed=4, start=start)
                == sw.empirical_distribution(listed, v, target, 1500, seed=4))

    @pytest.mark.parametrize("start", [1, 4, 9])
    def test_error_schedule_raises_what_index_at_raises(self, start):
        sched = sw.Schedule.explicit([[[0.9]]], [0, 0, 0, 0], extension="error")
        with pytest.raises(sw.ScheduleExhaustedError) as direct:
            sched.index_at(max(start, 4))
        target = sw.TargetSet(1, frozenset({0}))
        with pytest.raises(sw.ScheduleExhaustedError) as drawn:
            sw.empirical_distribution(sched, [1.0], target, 50, start=start)
        assert str(drawn.value) == str(direct.value)

    def test_step_cap_comes_before_any_index(self):
        # one row steps as scalars from the first step, fifty as arrays
        sched = sw.Schedule.explicit([[[0.9]]], [0], extension="error")
        for n in (1, 50):
            with pytest.raises(sw.NonTerminatingError):
                sw.empirical_distribution(sched, [1.0], sw.TargetSet(1, frozenset()), n, start=-1, step_cap=0)


def one_outcome(schedule, v, target, seed, index, **kwargs):
    """(lifetime, occupancy) of trajectory `index` of a run seeded `seed`."""
    summary = sw.empirical_distribution(schedule, v, target, 1, seed=seed, first_index=index, **kwargs)
    (lifetime,), (occupancy,) = summary.lifetime_counts, summary.occupancy_counts
    return lifetime, occupancy


def kernel_rows(schedule, v, target, seed, block, rows, start=0, step_cap=sw.DEFAULT_MAX_HORIZON):
    """The block kernel's (lifetimes, occupancies) of `rows`, as lists."""
    thresholds, inc, vcum = sw.simulate._prepare(schedule, v, target)
    got = sw.simulate._simulate_rows(schedule, thresholds, inc, vcum, start, np.random.default_rng((seed, block)),
                                     np.asarray(rows), step_cap)
    return got[0].tolist(), got[1].tolist()


class TestOneTrajectory:
    """A one-sample run is one trajectory's outcome: the life of row g % BLOCK
    of block g // BLOCK, whichever rows are simulated beside it."""

    @pytest.mark.parametrize("n", [1, sw.simulate.BLOCK])
    def test_certain_death_in_one_step(self, n):
        sched = sw.Schedule.constant(np.zeros((2, 2)))
        summary = sw.empirical_distribution(sched, [0.0, 1.0], sw.TargetSet(2, frozenset({1})), n, seed=3)
        assert summary.lifetime_counts == {1: n}
        assert summary.occupancy_counts == {1: n}   # started in the target stage

    def test_same_seed_and_index_same_outcome(self):
        sched, target = geom_setup()
        outcomes = [one_outcome(sched, [1.0, 0.0], target, seed, 7) for seed in range(50)]
        assert outcomes == [one_outcome(sched, [1.0, 0.0], target, seed, 7) for seed in range(50)]
        assert len(set(outcomes)) > 3

    def test_occupancy_counts_every_step_after_the_first(self):
        # from stage 0, outside the target, a life moves to the target stage
        # 1 or dies, and stage 1 only stays or dies: every step but the
        # first is spent in the target, in either phase of the kernel
        sched, target = geom_setup()
        for rows in (range(sw.simulate.BLOCK), [4], [0, 500, 999]):
            lifetimes, occupancies = kernel_rows(sched, [1.0, 0.0], target, 6, 0, list(rows))
            assert min(lifetimes) >= 1
            assert occupancies == [n - 1 for n in lifetimes]
            if len(rows) == sw.simulate.BLOCK:
                assert max(lifetimes) > sw.simulate._SCALAR_ROWS // 2   # some lives reach the scalar phase

    def test_occupancy_never_exceeds_lifetime(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = int(rng.integers(1, 5))
            sched = random_schedule(rng, d=d, length=10)
            v = random_distribution(rng, d)
            target = random_target(rng, d)
            lifetimes, occupancies = kernel_rows(sched, v, target, int(rng.integers(100)), 0,
                                                 range(sw.simulate.BLOCK))
            assert all(1 <= n for n in lifetimes)
            assert all(0 <= a <= n for a, n in zip(occupancies, lifetimes))

    @pytest.mark.parametrize("n", [1, sw.simulate.BLOCK])
    def test_step_cap_counts_the_steps_lived(self, n):
        # every life moves 0 -> 1 -> 2 and dies: three steps exactly
        shift = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        sched, target = sw.Schedule.constant(shift), sw.TargetSet(3, frozenset({1}))
        summary = sw.empirical_distribution(sched, [1.0, 0.0, 0.0], target, n, step_cap=3)
        assert summary.lifetime_counts == {3: n}
        assert summary.occupancy_counts == {1: n}
        with pytest.raises(sw.NonTerminatingError) as info:
            sw.empirical_distribution(sched, [1.0, 0.0, 0.0], target, n, step_cap=2)
        assert info.value.step_cap == 2

    def test_one_sample_is_its_walked_row(self):
        rng = np.random.default_rng(12)
        sched = random_schedule(rng, d=3, length=6, low=0.6, high=0.9)
        v = random_distribution(rng, 3)
        target = sw.TargetSet(3, frozenset({0, 2}))
        walked = {block: simulated_block(sched, v, target.members, 9, block, 4, steps=400) for block in (0, 1, 2)}
        for g in (0, 1, 999, 1000, 1001, 2345):
            lifetimes, occupancies = walked[g // sw.simulate.BLOCK]
            row = g % sw.simulate.BLOCK
            assert one_outcome(sched, v, target, 9, g, start=4) == (lifetimes[row], occupancies[row])

    def test_outcomes_do_not_depend_on_the_rows_beside_them(self):
        config = sw.builtin_fulmar_scenario()
        schedule, v, target = config.build_schedule(), config.initial, config.target_set()
        whole = kernel_rows(schedule, v, target, 11, 4, range(sw.simulate.BLOCK))
        rng = np.random.default_rng(13)
        for size in (1, 5, 40, 700):
            rows = np.sort(rng.choice(sw.simulate.BLOCK, size, replace=False))
            assert kernel_rows(schedule, v, target, 11, 4, rows) == tuple([w[r] for r in rows] for w in whole)

    def test_pinned_outcomes_on_random_explicit_schedule(self):
        # (lifetime, occupancy) of trajectories 0 .. 9 of seed 0 from time 2:
        # the seeding contract, frozen; lives run past the 8-step prefix
        # into the held last matrix
        rng = np.random.default_rng(2024)
        sched = random_schedule(rng, d=3, length=8, low=0.8, high=0.95)
        v = random_distribution(rng, 3)
        target = sw.TargetSet(3, frozenset({0, 2}))
        expected = [(2, 2), (7, 7), (2, 0), (17, 13), (6, 5), (6, 6), (13, 6), (12, 3), (8, 2), (10, 5)]
        assert [one_outcome(sched, v, target, 0, g, start=2) for g in range(10)] == expected
        lifetimes, occupancies = simulated_block(sched, v, target.members, 0, 0, 2, steps=400)
        assert list(zip(lifetimes[:10], occupancies[:10])) == expected


class TestEmpiricalDistribution:
    def test_counts_sum_to_samples(self):
        sched, target = geom_setup()
        summary = sw.empirical_distribution(sched, [1.0, 0.0], target,
                                            n_samples=500, seed=9)
        assert sum(summary.occupancy_counts.values()) == 500
        assert sum(summary.lifetime_counts.values()) == 500

    def test_deterministic_given_seed(self):
        sched, target = geom_setup()
        a = sw.empirical_distribution(sched, [1.0, 0.0], target, n_samples=200, seed=5)
        b = sw.empirical_distribution(sched, [1.0, 0.0], target, n_samples=200, seed=5)
        assert a == b

    def test_split_runs_merge_to_the_full_run(self):
        sched, target = geom_setup()
        full = sw.empirical_distribution(sched, [1.0, 0.0], target, n_samples=500, seed=11)
        first = sw.empirical_distribution(sched, [1.0, 0.0], target, n_samples=200, seed=11)
        second = sw.empirical_distribution(sched, [1.0, 0.0], target,
                                           n_samples=300, seed=11, first_index=200)
        merged = first.merge(second)
        assert merged == full
        assert merged.mean == full.mean
        assert merged.variance == full.variance
        assert merged.std_error == full.std_error

    def test_mean_within_sampling_error(self):
        sched, target = geom_setup()
        summary = sw.empirical_distribution(sched, [1.0, 0.0], target,
                                            n_samples=20000, seed=2)
        # E[tau] = 1, Var = 2: keep 4 standard errors of slack
        assert abs(summary.mean - 1.0) < 4 * summary.std_error

    def test_split_inside_a_block_merges_bit_exactly(self):
        sched, target = geom_setup()
        full = sw.empirical_distribution(sched, [1.0, 0.0], target, n_samples=2500, seed=4)
        first = sw.empirical_distribution(sched, [1.0, 0.0], target, n_samples=1234, seed=4)
        second = sw.empirical_distribution(sched, [1.0, 0.0], target,
                                           n_samples=1266, seed=4, first_index=1234)
        assert first.merge(second) == full
        assert first.merge(second).variance == full.variance

    def test_one_late_trajectory_is_its_row_of_a_larger_run(self):
        rng = np.random.default_rng(5)
        sched = random_schedule(rng, d=3, length=6, low=0.6, high=0.9)
        v = random_distribution(rng, 3)
        target = sw.TargetSet(3, frozenset({1}))
        one = sw.empirical_distribution(sched, v, target, n_samples=1, seed=8,
                                        start=3, first_index=1500)
        upto = sw.empirical_distribution(sched, v, target, n_samples=1500, seed=8, start=3)
        past = sw.empirical_distribution(sched, v, target, n_samples=1501, seed=8, start=3)
        assert one.lifetime_counts == dict(Counter(past.lifetime_counts)
                                           - Counter(upto.lifetime_counts))
        assert one.occupancy_counts == dict(Counter(past.occupancy_counts)
                                            - Counter(upto.occupancy_counts))
        # the documented contract, one scalar step at a time: row 500 of
        # block 1 reads entry 500 of each random(1000) drawn from (seed, 1)
        gen = np.random.default_rng((8, 1))
        stage = min(int(np.searchsorted(np.cumsum(v), gen.random(1000)[500], side="right")), 2)
        lifetime = occupancy = 0
        while stage < 3:
            occupancy += stage in target
            u = gen.random(1000)[500]
            stage = int((u >= np.cumsum(sched.matrix_at(3 + lifetime)[:, stage])).sum())
            lifetime += 1
        assert one.lifetime_counts == {lifetime: 1}
        assert one.occupancy_counts == {occupancy: 1}

    def test_counts_are_python_ints(self):
        sched, target = geom_setup()
        summary = sw.empirical_distribution(sched, [1.0, 0.0], target, n_samples=1500, seed=1)
        for counts in (summary.occupancy_counts, summary.lifetime_counts):
            assert all(type(k) is int and type(c) is int for k, c in counts.items())

    def test_never_dying_block_hits_step_cap(self):
        sched = sw.Schedule.constant(np.eye(2))
        with pytest.raises(sw.NonTerminatingError) as info:
            sw.empirical_distribution(sched, [1.0, 0.0], sw.TargetSet.none(2),
                                      n_samples=10, step_cap=50)
        assert info.value.step_cap == 50

    def test_never_dying_life_stops_at_the_default_cap(self):
        sched = sw.Schedule.constant(np.eye(2))
        began = time.perf_counter()
        with pytest.raises(sw.NonTerminatingError) as info:
            sw.empirical_distribution(sched, [1.0, 0.0], sw.TargetSet.none(2), n_samples=1)
        assert info.value.step_cap == sw.DEFAULT_MAX_HORIZON
        assert time.perf_counter() - began < 30.0

    def test_lives_outrunning_an_error_schedule(self):
        sched = sw.Schedule.explicit([[[0.0, 0.0], [0.9, 0.9]]], [0, 0, 0], extension="error")
        with pytest.raises(sw.ScheduleExhaustedError):
            sw.empirical_distribution(sched, [1.0, 0.0], sw.TargetSet(2, frozenset({1})),
                                      n_samples=100, seed=3)

    def test_bad_sample_range(self):
        sched, target = geom_setup()
        with pytest.raises(ValueError):
            sw.empirical_distribution(sched, [1.0, 0.0], target, n_samples=0)
        with pytest.raises(ValueError):
            sw.empirical_distribution(sched, [1.0, 0.0], target, n_samples=5, first_index=-1)

    def test_single_sample_variance_is_zero(self):
        sched, target = geom_setup()
        summary = sw.empirical_distribution(sched, [1.0, 0.0], target, n_samples=1, seed=0)
        assert summary.variance == 0.0


class TestBlockKernel:
    """Every row of a block, stepped as arrays and then as scalars, is the
    life the whole-block reference walks one float at a time."""

    @pytest.mark.parametrize("source", ["builtin:fulmar", "fulmar_explicit_sequence.json"])
    @pytest.mark.parametrize("first, n", [(0, 1000), (137, 863), (3000, 9)], ids=["whole", "tail", "few"])
    def test_every_row_is_the_walked_life(self, source, first, n):
        config = (sw.builtin_fulmar_scenario() if source == "builtin:fulmar"
                  else sw.load_scenario(SCENARIOS / source))
        schedule, v, target = config.build_schedule(), config.initial, config.target_set()
        start, seed, block = 3, 5, first // sw.simulate.BLOCK
        lifetimes, occupancies = simulated_block(schedule, v, target.members, seed, block, start, steps=600)
        rows = np.arange(first % sw.simulate.BLOCK, first % sw.simulate.BLOCK + n)
        lifetimes, occupancies = [lifetimes[r] for r in rows], [occupancies[r] for r in rows]
        lives = sorted(lifetimes)
        if n > sw.simulate._SCALAR_ROWS:   # the block steps as arrays, then as scalars while lives still end
            assert len(set(lives[-sw.simulate._SCALAR_ROWS:])) > 2
        thresholds, inc, vcum = sw.simulate._prepare(schedule, v, target)
        got = sw.simulate._simulate_rows(schedule, thresholds, inc, vcum, start, np.random.default_rng((seed, block)),
                                         rows, sw.DEFAULT_MAX_HORIZON)
        assert got[0].tolist() == lifetimes
        assert got[1].tolist() == occupancies
        summary = sw.empirical_distribution(schedule, v, target, n, seed=seed, start=start, first_index=first)
        assert summary.lifetime_counts == dict(sorted(Counter(lifetimes).items()))
        assert summary.occupancy_counts == dict(sorted(Counter(occupancies).items()))

    @pytest.mark.parametrize("immortal", [1.0, 0.01], ids=["array-steps", "scalar-steps"])
    def test_lives_outlasting_the_cap_raise_in_either_phase(self, immortal):
        # stage 1 never dies, stage 0 halves at each step: with 1% of the
        # block in stage 1, about ten rows outlive the rest and reach the
        # cap as scalars; with all of it, a thousand rows reach it as arrays
        sched = sw.Schedule.constant([[0.5, 0.0], [0.0, 1.0]])
        with pytest.raises(sw.NonTerminatingError) as info:
            sw.empirical_distribution(sched, [1.0 - immortal, immortal], sw.TargetSet.none(2),
                                      n_samples=1000, seed=2, step_cap=60)
        assert info.value.step_cap == 60


class TestTotalVariation:
    def test_zero_against_itself(self):
        dist = sw.OccupancyDistribution({0: 0.25, 1: 0.75}, tail_mass=0.0)
        counts = {0: 25, 1: 75}
        assert sw.total_variation(dist, counts, 100) == pytest.approx(0.0, abs=1e-15)

    def test_disjoint_supports(self):
        dist = sw.OccupancyDistribution({0: 1.0}, tail_mass=0.0)
        assert sw.total_variation(dist, {5: 10}, 10) == pytest.approx(1.0)

    def test_tail_counts_as_unmatched(self):
        dist = sw.OccupancyDistribution({0: 0.9}, tail_mass=0.1)
        assert sw.total_variation(dist, {0: 10}, 10) == pytest.approx(0.1)

    def test_small_for_large_geometric_sample(self):
        sched, target = geom_setup()
        dist = sw.occupancy_distribution(sched, [1.0, 0.0], target)
        summary = sw.empirical_distribution(sched, [1.0, 0.0], target,
                                            n_samples=20000, seed=21)
        tv = sw.total_variation(dist, summary.occupancy_counts, summary.n_samples)
        assert tv < 5.0 / np.sqrt(20000)
