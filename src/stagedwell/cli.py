"""Command line driver.

Subcommands take a scenario file (or the literal name builtin:fulmar),
optional overrides, and write one result table to stdout or --out. All
diagnostics go to stderr; exit status is 0 on success, 1 for any model or
I/O error, 2 for usage errors. Every subcommand is deterministic given the
scenario file, the flags and the seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .chain import lifetime_distribution
from .errors import StagedwellError
from .occupancy import occupancy_distribution, occupancy_moments, summary_stats
from .randomenv import simplex_sweep, two_level_stats
from .scenario import (
    ScenarioConfig,
    builtin_fulmar_scenario,
    export_results,
    format_number,
    load_scenario,
)
from .simulate import empirical_distribution, total_variation

BUILTIN_NAME = "builtin:fulmar"


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _pos_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _unit_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {value}")
    return value


def _grid_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser, with_seed: bool = True) -> None:
    parser.add_argument("--scenario", required=True,
                        help=f"scenario JSON file, or {BUILTIN_NAME}")
    parser.add_argument("--target", default=None,
                        help="override target stages (comma-separated labels; empty for none)")
    parser.add_argument("--start", type=_nonneg_int, default=None,
                        help="override the entry time")
    parser.add_argument("--tail-tol", type=_unit_float, default=None,
                        help="override the truncation tail tolerance")
    parser.add_argument("--max-horizon", type=_pos_int, default=None,
                        help="override the horizon cap")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    if with_seed:
        parser.add_argument("--seed", type=_nonneg_int, default=0)


def _load_config(args) -> ScenarioConfig:
    if args.scenario == BUILTIN_NAME:
        config = builtin_fulmar_scenario()
    else:
        config = load_scenario(args.scenario)
    updates = {}
    if args.target is not None:
        updates["target_labels"] = tuple(
            s.strip() for s in args.target.split(",") if s.strip()
        )
    if args.start is not None:
        updates["start"] = args.start
    if args.tail_tol is not None:
        updates["tail_tol"] = args.tail_tol
    if args.max_horizon is not None:
        updates["max_horizon"] = args.max_horizon
    if updates:
        config = dataclasses.replace(config, **updates)
    config.target_set()  # surface bad target labels before any computation
    return config


def _write_text(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _realized_schedule(config: ScenarioConfig, seed: int):
    """Concrete schedule; a random scenario yields one sampled realization."""
    if config.is_random():
        print(
            f"note: random schedule, analyzing one sampled realization (seed {seed})",
            file=sys.stderr,
        )
        return config.build_schedule(np.random.default_rng((int(seed),)))
    return config.build_schedule()


def _fmt_vector(v) -> str:
    return "[" + ", ".join(format_number(float(x)) for x in v) + "]"


def cmd_validate(args) -> int:
    config = _load_config(args)
    lines = [
        f"scenario OK: {config.states.d} stages, {len(config.matrices)} matrices, "
        f"schedule kind {type(config.schedule_spec).__name__}",
        "states: " + ", ".join(config.states.labels),
    ]
    for name, matrix in config.matrices.items():
        sums = matrix.sum(axis=0)
        lines.append(
            f"{name}: column sums {_fmt_vector(sums)}; absorption {_fmt_vector(1.0 - sums)}"
        )
    lines.append("target_set: " + (", ".join(config.target_labels) or "(empty)"))
    lines.append("initial: " + _fmt_vector(config.initial))
    lines.append(f"start {config.start}, tail_tol {format_number(config.tail_tol)}, "
                 f"max_horizon {config.max_horizon}")
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def cmd_lifetime(args) -> int:
    config = _load_config(args)
    schedule = _realized_schedule(config, args.seed)
    dist = lifetime_distribution(
        schedule, config.initial,
        tail_tol=config.tail_tol, max_horizon=config.max_horizon, start=config.start,
    )
    export_results(dist, args.format, args.out)
    return 0


def cmd_occupancy(args) -> int:
    config = _load_config(args)
    schedule = _realized_schedule(config, args.seed)
    dist = occupancy_distribution(
        schedule, config.initial, config.target_set(),
        start=config.start, tail_tol=config.tail_tol, max_horizon=config.max_horizon,
    )
    export_results(dist, args.format, args.out)
    return 0


def cmd_moments(args) -> int:
    config = _load_config(args)
    schedule = _realized_schedule(config, args.seed)
    moments = occupancy_moments(
        schedule, config.initial, config.target_set(),
        start=config.start, order=args.order,
        tail_tol=config.tail_tol, max_horizon=config.max_horizon,
    )
    metadata = []
    if args.order >= 2:
        stats = summary_stats(moments[0], moments[1])
        metadata = [("mean", stats.mean), ("variance", stats.variance), ("cv", stats.cv)]
    export_results(moments, args.format, args.out, metadata=metadata)
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args)
    schedule = _realized_schedule(config, args.seed)
    target = config.target_set()
    # the analytic run first: a chain that never absorbs fails at its own
    # max_horizon instead of simulating up to the simulator's step cap
    analytic = occupancy_distribution(
        schedule, config.initial, target,
        start=config.start, tail_tol=config.tail_tol, max_horizon=config.max_horizon,
    )
    summary = empirical_distribution(
        schedule, config.initial, target,
        n_samples=args.samples, seed=args.seed, start=config.start,
        step_cap=config.max_horizon,
    )
    tv = total_variation(analytic, summary.occupancy_counts, summary.n_samples)
    err = abs(summary.mean - analytic.mean())
    metadata = [
        ("tv_distance", tv),
        ("analytic_mean", analytic.mean()),
        ("mean_abs_error", err),
        ("mean_error_std_errors", err / summary.std_error if summary.std_error > 0 else float("nan")),
    ]
    export_results(summary, args.format, args.out, metadata=metadata)
    return 0


def cmd_env_sweep(args) -> int:
    config = _load_config(args)
    conditions = config.conditions()
    # a random scenario's schedule.length bounds every sampled sequence
    length = config.schedule_spec.length if config.is_random() else None
    points = simplex_sweep(
        conditions, args.grid_step, config.initial, config.target_set(),
        n_sequences=args.samples, seed=args.seed, start=config.start,
        tail_tol=config.tail_tol, max_horizon=config.max_horizon,
        sample_length=length,
    )
    drawn = config.max_horizon if length is None else length
    for pt in points:
        where = _fmt_vector(pt.probabilities)
        if pt.error is not None:
            print(f"warning: grid point {where} failed: {pt.error}", file=sys.stderr)
        elif pt.stats.held_last:
            print(
                f"warning: grid point {where}: {pt.stats.held_last} of {pt.stats.n_sequences} "
                f"sequences outlived the drawn length {drawn} and held their last condition",
                file=sys.stderr,
            )
    export_results(points, args.format, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stagedwell",
        description="Lifetime and occupancy-time statistics for stage-structured models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file and report per-matrix diagnostics")
    _add_common(p, with_seed=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("lifetime", help="distribution of steps lived")
    _add_common(p)
    p.set_defaults(func=cmd_lifetime)

    p = sub.add_parser("occupancy", help="distribution of steps spent in the target set")
    _add_common(p)
    p.set_defaults(func=cmd_occupancy)

    p = sub.add_parser("moments", help="raw occupancy moments and summary statistics")
    _add_common(p)
    p.add_argument("--order", type=_pos_int, default=2, help="highest moment order")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("simulate", help="Monte Carlo check against the analytic distribution")
    _add_common(p)
    p.add_argument("--samples", type=_pos_int, default=2000, help="number of trajectories")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("env-sweep", help="two-level statistics over a simplex of condition mixes")
    _add_common(p)
    p.add_argument("--samples", type=_pos_int, default=2000, help="environment sequences per grid point")
    p.add_argument("--grid-step", type=_grid_float, default=0.05)
    p.set_defaults(func=cmd_env_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StagedwellError, ValueError, OSError) as exc:
        # one line, whatever line breaks the message quotes from the input
        message = str(exc).replace("\r", "\\r").replace("\n", "\\n")
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
