"""The four benchmark workloads: inputs, operations and output checks.

A workload builds its inputs from the seed in its constructor, offers one
round of operations at a time, records what each operation returned, and
after the timed phase checks those results against `oracles`, which never
calls stagedwell. Operations look stagedwell functions up at call time
(`sw.name(...)`, `cli.main(...)`) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import stagedwell as sw
from stagedwell import cli

import oracles

TAIL_TOL = sw.DEFAULT_TAIL_TOL


class Op(NamedTuple):
    key: tuple
    run: Callable[[], object]
    work: int
    kind: str = "interp"  # which host-speed reading rescales it (hostspeed.KINDS)


def _close(x: float, ref: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(x - ref) <= rel * abs(ref) + abs_tol


def _same(a, b) -> bool:
    if isinstance(a, sw.MomentTable):
        return a.order == b.order and np.array_equal(a.values, b.values)
    return a == b


class Workload:
    name = ""
    work_unit = ""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.first: dict = {}
        self.mismatched: set = set()

    def warm_up(self) -> None:
        """Touch every code path once on a small input."""

    def round_ops(self, k: int) -> list[Op]:
        raise NotImplementedError

    def record(self, op: Op, result) -> None:
        """Keep the first result of each operation; later ones must equal it."""
        first = self.first.setdefault(op.key, result)
        if first is not result and not _same(first, result):
            self.mismatched.add(op.key)

    def check(self) -> list[str]:
        errors = [f"{key}: result changed between rounds" for key in sorted(self.mismatched, key=str)]
        for key, result in self.first.items():
            errors += [f"{key}: {e}" for e in self.check_one(key, result)]
        return errors

    def check_one(self, key, result) -> list[str]:
        return []

    def describe(self) -> dict:
        return {}


# ---------------------------------------------------------------- cli_exact

SCENARIOS = {
    "fulmar": None,
    "geometric": "scenarios/two_state_geometric.json",
    "explicit": "scenarios/fulmar_explicit_sequence.json",
    "random": "scenarios/fulmar_random_environment.json",
}
COMMANDS = (
    ("validate",),
    ("lifetime",),
    ("occupancy", "--format", "csv"),
    ("occupancy", "--format", "json"),
    ("moments", "--order", "2"),
    ("moments", "--order", "4"),
)
# Entry years 1..19 of the explicit sequence (year 0 is in COMMANDS), as
# scripts/fulmar_entry_year.py tabulates them.
ENTRY_YEARS = range(1, 20)
# A realised random schedule's mean lies within this many between-sequence
# standard deviations of the i.i.d. mean.
RANDOM_REALISATION_SDS = 8.0


def _invoke(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        status = exc.code
    if status != 0:
        raise RuntimeError(f"exit status {status}: {err.getvalue().strip()}")
    return out.getvalue()


def _parse_distribution(text: str, fmt: str) -> tuple[dict, float]:
    if fmt == "json":
        doc = json.loads(text)
        return {int(a): float(p) for a, p in doc["probs"].items()}, float(doc["tail_mass"])
    probs, tail = {}, math.nan
    for line in text.splitlines()[1:]:
        key, value = line.split(",")
        if key == "tail_mass":
            tail = float(value)
        else:
            probs[int(key)] = float(value)
    return probs, tail


def _parse_moments(text: str) -> list[float]:
    rows = [line.split(",") for line in text.splitlines()[1:]]
    return [float(value) for key, value in rows if key.isdigit()]


class CliExact(Workload):
    """In-process `stagedwell` CLI invocations on the shipped scenarios."""

    name = "cli_exact"
    work_unit = "invocations"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.paths = {
            key: ("builtin:fulmar" if rel is None else str(root / rel)) for key, rel in SCENARIOS.items()
        }
        self.ops = []
        for key in SCENARIOS:
            for command in COMMANDS:
                self.ops.append(self._op(key, command, 0))
        for start in ENTRY_YEARS:
            self.ops.append(self._op("explicit", ("moments", "--order", "2"), start))

    def _op(self, key, command, start) -> Op:
        argv = [*command, "--scenario", self.paths[key]]
        if key == "random" and command[0] != "validate":
            argv += ["--seed", str(self.seed)]
        if start:
            argv += ["--start", str(start)]
        return Op((key, command, start), lambda: _invoke(argv), 1)

    def warm_up(self):
        for command in COMMANDS:
            _invoke([*command, "--scenario", "builtin:fulmar"])

    def round_ops(self, k):
        return self.ops

    def _reference(self, key) -> dict:
        if key == "fulmar":
            config = sw.builtin_fulmar_scenario()
            matrices = {name: np.array(m) for name, m in config.matrices.items()}
            r = np.array([1.0 if s in config.target_labels else 0.0 for s in config.states.labels])
            return {"matrices": matrices, "schedule": {"kind": "constant", "matrix": "U_f"},
                    "v": np.array(config.initial), "r": r, "states": list(config.states.labels)}
        return oracles.read_scenario(self.root / SCENARIOS[key])

    def check(self):
        self.refs = {key: self._reference(key) for key in SCENARIOS}
        return super().check()

    def check_one(self, key, text):
        scenario, command, start = key
        ref = self.refs[scenario]
        kind = ref["schedule"]["kind"]
        v, r = ref["v"], ref["r"]
        ones = np.ones_like(v)
        mats = ref["matrices"]
        errors = []

        def mean_of(w) -> tuple[float, float]:
            """(reference mean, tolerance) of sum_n w'Phi_n v for this scenario."""
            if kind == "constant":
                return float(w @ oracles.fundamental(mats[ref["schedule"]["matrix"]]) @ v), 0.0
            if kind == "explicit":
                seq = [mats[name] for name in ref["schedule"]["sequence"]]
                return oracles.hold_last_mean(seq[start:], seq[-1], v, w), 0.0
            names = list(ref["schedule"]["probabilities"])
            probs = [ref["schedule"]["probabilities"][n] for n in names]
            mean, var = oracles.iid_sequence_stats([mats[n] for n in names], probs, v, w)
            return mean, RANDOM_REALISATION_SDS * math.sqrt(var)

        if command[0] == "validate":
            lines = text.splitlines()
            head = f"scenario OK: {len(ref['states'])} stages, {len(mats)} matrices"
            if not lines or not lines[0].startswith(head):
                errors.append(f"validate header {lines[:1]!r}, expected {head!r}")
            for name, m in mats.items():
                prefix = f"{name}: column sums ["
                line = next((ln for ln in lines if ln.startswith(prefix)), None)
                if line is None:
                    errors.append(f"no column sums for {name}")
                    continue
                sums = [float(x) for x in line[len(prefix):line.index("]")].split(",")]
                if not np.allclose(sums, m.sum(axis=0), rtol=0, atol=1e-9):
                    errors.append(f"{name} column sums {sums}")
            return errors

        if command[0] in ("lifetime", "occupancy"):
            probs, tail = _parse_distribution(text, command[-1] if command[0] == "occupancy" else "csv")
            total = sum(probs.values()) + tail
            if not _close(total, 1.0, 0.0, 1e-9):
                errors.append(f"atoms plus tail_mass sum to {total!r}")
            mean = sum(a * p for a, p in probs.items())
            ref_mean, tol = mean_of(ones if command[0] == "lifetime" else r)
            if not _close(mean, ref_mean, 1e-8, tol):
                errors.append(f"mean {mean!r}, reference {ref_mean!r} +- {tol:g}")
            if scenario == "geometric":
                shift = 1 if command[0] == "lifetime" else 0  # lifetime = occupancy + 1 here
                bad = [a for a, p in probs.items() if not _close(p, 0.5 ** (a - shift + 1), 1e-10, 1e-15)]
                if bad:
                    errors.append(f"atoms at {bad[:5]} differ from 0.5^(a+1)")
            return errors

        moments = _parse_moments(text)
        order = int(command[-1])
        if len(moments) != order:
            return [f"{len(moments)} moments printed, expected {order}"]
        if kind == "constant":
            expected = oracles.constant_moments(mats[ref["schedule"]["matrix"]], v, r, order)
            bad = [k + 1 for k, (x, y) in enumerate(zip(moments, expected)) if not _close(x, y, 1e-8)]
            if bad:
                errors.append(f"moments {bad} differ from the closed form: {moments} vs {expected}")
        else:
            ref_mean, tol = mean_of(r)
            if not _close(moments[0], ref_mean, 1e-8, tol):
                errors.append(f"first moment {moments[0]!r}, reference {ref_mean!r} +- {tol:g}")
        return errors

    def describe(self):
        return {
            "scenarios": {k: (v or "builtin:fulmar") for k, v in SCENARIOS.items()},
            "commands": [" ".join(c) for c in COMMANDS],
            "entry_years": [0, *ENTRY_YEARS],
            "random_realisation_seed": self.seed,
            "ops_per_round": len(self.ops),
        }


# ------------------------------------------------------------- long_horizon

# Every matrix of a chain has one survival value for all its stages, so
# the surviving mass, and with it every engine's step count, is the same
# for every seed; the seed moves only the transition structure.
PERIODIC_D = 16
PERIODIC_SURVIVAL = np.linspace(0.98, 0.99, 12)   # one period, shuffled by seed
EXPLICIT_D = 32
EXPLICIT_SURVIVAL = np.linspace(0.98, 0.99, 9)    # the middle one, 0.985, is held
EXPLICIT_REPEATS = 111                            # prefix = 9 * 111 + 1 = 1000 steps
LONG_ORDER = 4
TABLE_CHECK_TIMES = (0, 1, 10, 100, 999, 1000, 1500)


def _chain_matrix(rng, d: int, survival: float) -> np.ndarray:
    """Stage-structured column-substochastic matrix: mostly stay or advance
    one stage, with sparse random jumps; every column sums to `survival`."""
    weights = rng.random((d, d)) ** 6
    idx = np.arange(d)
    weights[idx, idx] += 1.0
    weights[idx[1:], idx[:-1]] += 1.0
    return weights / weights.sum(axis=0) * survival


def _chain_inputs(rng, d: int):
    target = np.zeros(d)
    target[rng.choice(d, size=d // 2, replace=False)] = 1.0
    v = rng.dirichlet(np.ones(d))
    return target, v / v.sum()


class LongHorizon(Workload):
    """Library analyses of seed-generated chains that live thousands of steps."""

    name = "long_horizon"
    work_unit = "analyses"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        rng = np.random.default_rng((seed, 1))
        survival = rng.permutation(PERIODIC_SURVIVAL)
        self.periodic = [_chain_matrix(rng, PERIODIC_D, s) for s in survival]
        r_p, v_p = _chain_inputs(rng, PERIODIC_D)

        mats = [_chain_matrix(rng, EXPLICIT_D, s) for s in EXPLICIT_SURVIVAL]
        held = len(mats) // 2
        prefix = rng.permutation(np.repeat(np.arange(len(mats)), EXPLICIT_REPEATS))
        self.explicit_mats, self.explicit_seq = mats, np.append(prefix, held)
        r_e, v_e = _chain_inputs(rng, EXPLICIT_D)

        self.chains = {
            "periodic": (sw.Schedule.periodic(self.periodic, range(len(self.periodic))), v_p, r_p),
            "explicit": (sw.Schedule.explicit(mats, self.explicit_seq, "hold_last"), v_e, r_e),
        }
        self.targets = {k: sw.TargetSet(len(r), frozenset(np.flatnonzero(r).tolist()))
                        for k, (_, _, r) in self.chains.items()}
        self.ops = []
        for key, (schedule, v, _) in self.chains.items():
            target = self.targets[key]
            self.ops += [
                Op((key, "lifetime"), lambda s=schedule, v=v: sw.lifetime_distribution(s, v), 1),
                Op((key, "distribution"),
                   lambda s=schedule, v=v, t=target: sw.occupancy_distribution(s, v, t), 1, "array"),
                Op((key, "moments"),
                   lambda s=schedule, v=v, t=target: sw.occupancy_moments(s, v, t, order=LONG_ORDER), 1),
                Op((key, "tables"),
                   lambda s=schedule, v=v, t=target: sw.moment_tables(s, v, t, order=LONG_ORDER), 1),
            ]

    def warm_up(self):
        data = sw.builtin_fulmar()
        schedule = sw.Schedule.constant(data.matrices["U_f"])
        target = sw.TargetSet.from_labels(data.states, ("successful breeder", "failed breeder"))
        v = (1.0, 0.0, 0.0, 0.0)
        sw.lifetime_distribution(schedule, v)
        sw.occupancy_distribution(schedule, v, target)
        sw.occupancy_moments(schedule, v, target, order=LONG_ORDER)
        sw.moment_tables(schedule, v, target, order=LONG_ORDER)

    def round_ops(self, k):
        return self.ops

    def _step_matrix(self, key):
        if key == "periodic":
            return lambda t: self.periodic[t % len(self.periodic)]
        seq = self.explicit_seq
        return lambda t: self.explicit_mats[seq[min(t, len(seq) - 1)]]

    def _mean(self, key, w) -> float:
        _, v, _ = self.chains[key]
        if key == "periodic":
            return oracles.periodic_mean(self.periodic, v, w)
        seq = [self.explicit_mats[i] for i in self.explicit_seq]
        return oracles.hold_last_mean(seq, seq[-1], v, w)

    def check_one(self, key, result):
        chain, analysis = key
        _, v, r = self.chains[chain]
        errors = []
        if analysis in ("lifetime", "distribution"):
            total = result.total()
            if not _close(total, 1.0, 0.0, 1e-9):
                errors.append(f"atoms plus tail_mass sum to {total!r}")
            ref = self._mean(chain, np.ones_like(v) if analysis == "lifetime" else r)
            if not _close(result.mean(), ref, 1e-8):
                errors.append(f"mean {result.mean()!r}, reference {ref!r}")
        elif analysis == "moments":
            ref = self._mean(chain, r)
            if len(result) != LONG_ORDER or not _close(result[0], ref, 1e-8):
                errors.append(f"first moment {result[:1]}, reference {ref!r}")
        else:
            times = [t for t in TABLE_CHECK_TIMES if t <= result.horizon]
            expected = oracles.forward_moment_vectors(self._step_matrix(chain), v, r, times)
            for t in times:
                for k, ref in enumerate(expected[t]):
                    got = result.values[t, k]
                    if np.linalg.norm(got - ref) > 1e-9 * np.linalg.norm(ref):
                        errors.append(f"moment {k} vector at t={t} differs from the forward recursion")
            mass = float(result.values[-1, 0].sum())
            if mass >= TAIL_TOL:
                errors.append(f"table stops with surviving mass {mass!r} at t={result.horizon}")
        return errors

    def describe(self):
        return {
            "periodic": {"d": PERIODIC_D, "period": len(PERIODIC_SURVIVAL),
                         "survival": [0.98, 0.99], "start": 0},
            "explicit_hold_last": {"d": EXPLICIT_D, "matrices": len(EXPLICIT_SURVIVAL),
                                   "prefix_steps": int(self.explicit_seq.size),
                                   "survival": [0.98, 0.99], "held_survival": 0.985},
            "analyses": ["lifetime_distribution", "occupancy_distribution",
                         f"occupancy_moments(order={LONG_ORDER})", f"moment_tables(order={LONG_ORDER})"],
            "ops_per_round": len(self.ops),
        }


# ----------------------------------------------------------------- env_sweep

SWEEP_SCENARIO = "scenarios/fulmar_random_environment.json"
SWEEP_GRID_STEPS = 4          # grid step 0.25: 15 points per round
SWEEP_SEQUENCES = 12          # environment sequences per grid point
POINT_SES = 8.0               # per-point bound on |mean_of_means - exact|
POOLED_Z = 5.0                # bound on the pooled z-score over all points


class EnvSweep(Workload):
    """Grid points of the fulmar condition simplex, as `stagedwell env-sweep` runs them."""

    name = "env_sweep"
    work_unit = "sequences"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.config = sw.load_scenario(root / SWEEP_SCENARIO)
        pairs = self.config.conditions()
        self.labels = tuple(name for name, _ in pairs)
        self.matrices = tuple(m for _, m in pairs)
        self.target = self.config.target_set()
        n = SWEEP_GRID_STEPS
        self.points = [(i, j, n - i - j) for i in range(n, -1, -1) for j in range(n - i, -1, -1)]
        # about half of a point's time is bulk index draws, half per-step calls
        self.ops = [Op(point, self._point_op(point), SWEEP_SEQUENCES, "mixed") for point in self.points]

    def _point_op(self, point):
        config = self.config
        weights = np.array(point, dtype=float) / SWEEP_GRID_STEPS

        def run():
            spec = sw.RandomEnvironmentSpec(self.labels, self.matrices, weights)
            # the CLI's call: sequences drawn max_horizon long, per-point seed (*seed, i, j, l)
            return sw.two_level_stats(
                spec, config.initial, self.target,
                n_sequences=SWEEP_SEQUENCES, seed=(self.seed, *point),
                start=config.start, tail_tol=config.tail_tol, max_horizon=config.max_horizon,
            )

        return run

    def warm_up(self):
        spec = sw.RandomEnvironmentSpec(self.labels, self.matrices, np.array([0.4, 0.4, 0.2]))
        sw.two_level_stats(spec, self.config.initial, self.target, n_sequences=2, seed=(self.seed,))

    def round_ops(self, k):
        return self.ops

    def check(self):
        ref = oracles.read_scenario(self.root / SWEEP_SCENARIO)
        mats = list(ref["matrices"].values())
        self.exact = {p: oracles.iid_sequence_stats(mats, np.array(p) / SWEEP_GRID_STEPS, ref["v"], ref["r"])
                      for p in self.points}
        errors = super().check()
        seen = [p for p in self.points if p in self.first]
        z_num = sum(self.first[p].mean_of_means - self.exact[p][0] for p in seen)
        z_den = math.sqrt(sum(self.exact[p][1] / SWEEP_SEQUENCES for p in seen))
        if z_den > 0 and abs(z_num / z_den) > POOLED_Z:
            errors.append(f"pooled z-score {z_num / z_den:.2f} of the sweep means exceeds {POOLED_Z}")
        return errors

    def check_one(self, point, stats):
        mean, between = self.exact[point]
        errors = []
        if stats.n_sequences != SWEEP_SEQUENCES:
            errors.append(f"n_sequences {stats.n_sequences}")
        parts = stats.mean_within_variance + stats.between_variance
        if not _close(stats.total_variance, parts, 1e-9, 1e-12):
            errors.append(f"total variance {stats.total_variance!r} != within + between {parts!r}")
        tol = POINT_SES * math.sqrt(between / SWEEP_SEQUENCES) + 1e-9 * abs(mean)
        if abs(stats.mean_of_means - mean) > tol:
            errors.append(f"mean_of_means {stats.mean_of_means!r}, exact {mean!r} +- {tol:g}")
        return errors

    def describe(self):
        return {
            "scenario": SWEEP_SCENARIO,
            "grid_step": 1.0 / SWEEP_GRID_STEPS,
            "grid_points": len(self.points),
            "sequences_per_point": SWEEP_SEQUENCES,
            "sequence_length": self.config.max_horizon,
            "point_seed": "(seed, i, j, l)",
        }


# --------------------------------------------------------------- monte_carlo

MC_BLOCK = 1000               # trajectories per operation
MC_EXPLICIT = "scenarios/fulmar_explicit_sequence.json"
MEAN_Z = 5.0


class MonteCarlo(Workload):
    """Blocks of simulated fulmar lives under constant and time-varying conditions."""

    name = "monte_carlo"
    work_unit = "trajectories"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        builtin = sw.builtin_fulmar_scenario()
        explicit = sw.load_scenario(root / MC_EXPLICIT)
        self.cases = {
            "constant": (builtin.build_schedule(), builtin.initial, builtin.target_set()),
            "explicit": (explicit.build_schedule(), explicit.initial, explicit.target_set()),
        }
        self.pooled = {key: [Counter(), Counter(), 0] for key in self.cases}
        self.bad_blocks: list[str] = []

    def warm_up(self):
        for schedule, v, target in self.cases.values():
            sw.empirical_distribution(schedule, v, target, n_samples=20, seed=self.seed)

    def round_ops(self, k):
        ops = []
        for key, (schedule, v, target) in self.cases.items():
            def run(s=schedule, v=v, t=target, first=k * MC_BLOCK):
                return sw.empirical_distribution(s, v, t, n_samples=MC_BLOCK, seed=self.seed,
                                                 first_index=first)
            ops.append(Op((key, k), run, MC_BLOCK))
        return ops

    def record(self, op, summary):
        occ, life, _ = pooled = self.pooled[op.key[0]]
        if summary.n_samples != MC_BLOCK or sum(summary.occupancy_counts.values()) != MC_BLOCK:
            self.bad_blocks.append(f"{op.key}: block holds {summary.n_samples} samples")
        occ.update(summary.occupancy_counts)
        life.update(summary.lifetime_counts)
        pooled[2] += summary.n_samples

    def check(self):
        errors = list(self.bad_blocks)
        builtin = sw.builtin_fulmar_scenario()
        builtin_r = np.array([1.0 if s in builtin.target_labels else 0.0 for s in builtin.states.labels])
        v = np.array(builtin.initial)
        explicit = oracles.read_scenario(self.root / MC_EXPLICIT)
        seq = [explicit["matrices"][name] for name in explicit["schedule"]["sequence"]]
        U_f = np.array(sw.builtin_fulmar().matrices["U_f"])
        refs = {
            "constant": lambda w: float(w @ oracles.fundamental(U_f) @ v),
            "explicit": lambda w: oracles.hold_last_mean(seq, seq[-1], explicit["v"], w),
        }
        rs = {"constant": builtin_r, "explicit": explicit["r"]}
        for key, (occ, life, n) in self.pooled.items():
            if n < 2:
                continue
            for label, counts, w in (("occupancy", occ, rs[key]), ("lifetime", life, np.ones(4))):
                mean = sum(a * c for a, c in counts.items()) / n
                var = sum(c * (a - mean) ** 2 for a, c in counts.items()) / (n - 1)
                z = (mean - refs[key](w)) / math.sqrt(var / n)
                if abs(z) > MEAN_Z:
                    errors.append(f"{key} {label} mean {mean!r} is {z:.2f} standard errors off")
            schedule, v0, target = self.cases[key]
            analytic = sw.occupancy_distribution(schedule, v0, target)
            tv = oracles.tv_distance(analytic.probs, analytic.tail_mass, occ, n)
            bound = oracles.tv_bound(analytic.probs, analytic.tail_mass, n)
            if tv > bound:
                errors.append(f"{key}: total variation {tv:.4g} over {n} samples exceeds {bound:.4g}")
        return errors

    def describe(self):
        return {
            "schedules": {"constant": "builtin:fulmar (U_f)", "explicit": MC_EXPLICIT},
            "block_trajectories": MC_BLOCK,
            "seeding": "empirical_distribution(seed=<seed>, first_index=round * block)",
        }


WORKLOADS = {w.name: w for w in (CliExact, LongHorizon, EnvSweep, MonteCarlo)}
