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
import functools
import sys

import numpy as np

from .chain import absorption_vector, lifetime_distribution
from .errors import StagedwellError
from .occupancy import occupancy_distribution, occupancy_moments, summary_stats
from .randomenv import simplex_sweep
from .scenario import (
    ScenarioConfig,
    _schedule_json,
    _write_text,
    builtin_fulmar_scenario,
    export_results,
    format_number,
    load_scenario,
)
from .simulate import empirical_distribution, total_variation

BUILTIN_NAME = "builtin:fulmar"


def _checked(cast, holds, wanted):
    """An argparse type: cast the text, then require holds(value)."""
    def check(text: str):
        value = cast(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must {wanted}, got {value}")
        return value
    check.__name__ = cast.__name__  # argparse names it in "invalid int value: 'x'"
    return check


_nonneg_int = _checked(int, lambda x: x >= 0, "be nonnegative")
_pos_int = _checked(int, lambda x: x >= 1, "be positive")
_unit_float = _checked(float, lambda x: 0.0 < x < 1.0, "lie in (0, 1)")
_grid_float = _checked(float, lambda x: 0.0 < x <= 1.0, "lie in (0, 1]")


def _add_common(parser: argparse.ArgumentParser, analyzes: bool = True) -> None:
    """The flags every subcommand takes; --format and --seed only where it
    analyzes the scenario, which validate does not."""
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
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    if analyzes:
        parser.add_argument("--format", choices=("csv", "json"), default="csv")
        parser.add_argument("--seed", type=_nonneg_int, default=0)


def _load_config(args) -> tuple[ScenarioConfig, dict]:
    """The scenario with the command line's overrides, and the truncation
    keywords every engine takes from it."""
    if args.scenario == BUILTIN_NAME:
        config = builtin_fulmar_scenario()
    else:
        config = load_scenario(args.scenario)
    updates = {}
    if args.target is not None:
        updates["target_labels"] = tuple(
            s.strip() for s in args.target.split(",") if s.strip()
        )
    for name in ("start", "tail_tol", "max_horizon"):
        if getattr(args, name) is not None:
            updates[name] = getattr(args, name)
    if updates:
        config = dataclasses.replace(config, **updates)
    return config, dict(start=config.start, tail_tol=config.tail_tol, max_horizon=config.max_horizon)


def _prologue(args):
    """_load_config's scenario, its schedule (a random scenario's is one
    sampled realization, noted on stderr) and truncation keywords."""
    config, truncation = _load_config(args)
    rng = np.random.default_rng((int(args.seed),)) if config.is_random() else None
    schedule = config.build_schedule(rng)
    if rng is not None:
        print(f"note: random schedule, analyzing one sampled realization of {schedule.prefix_length} steps "
              f"(seed {args.seed}); a life that outlives it holds the last drawn condition", file=sys.stderr)
    return config, schedule, truncation


def _fmt_vector(v) -> str:
    return "[" + ", ".join(format_number(float(x)) for x in v) + "]"


def cmd_validate(args) -> int:
    config, _ = _load_config(args)
    lines = [
        f"scenario OK: {config.states.d} stages, {len(config.matrices)} matrices, "
        f"schedule kind {_schedule_json(config.schedule_spec)['kind']}",
        "states: " + ", ".join(config.states.labels),
    ]
    for name, matrix in config.matrices.items():
        lines.append(f"{name}: column sums {_fmt_vector(matrix.sum(axis=0))}; "
                     f"absorption {_fmt_vector(absorption_vector(matrix))}")
    lines.append("target_set: " + (", ".join(config.target_labels) or "(empty)"))
    lines.append("initial: " + _fmt_vector(config.initial))
    lines.append(f"start {config.start}, tail_tol {format_number(config.tail_tol)}, "
                 f"max_horizon {config.max_horizon}")
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def cmd_lifetime(args) -> int:
    config, schedule, truncation = _prologue(args)
    export_results(lifetime_distribution(schedule, config.initial, **truncation), args.format, args.out)
    return 0


def cmd_occupancy(args) -> int:
    config, schedule, truncation = _prologue(args)
    dist = occupancy_distribution(schedule, config.initial, config.target_set(), **truncation)
    export_results(dist, args.format, args.out)
    return 0


def cmd_moments(args) -> int:
    config, schedule, truncation = _prologue(args)
    moments = occupancy_moments(schedule, config.initial, config.target_set(), order=args.order, **truncation)
    metadata = []
    if args.order >= 2:
        stats = summary_stats(moments[0], moments[1])
        metadata = [("mean", stats.mean), ("variance", stats.variance), ("cv", stats.cv)]
    export_results(moments, args.format, args.out, metadata=metadata)
    return 0


def cmd_simulate(args) -> int:
    config, schedule, truncation = _prologue(args)
    target = config.target_set()
    # the analytic run first: a chain that never absorbs fails at its own
    # max_horizon instead of simulating up to the simulator's step cap
    analytic = occupancy_distribution(schedule, config.initial, target, **truncation)
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
    config, truncation = _load_config(args)
    # a random scenario's schedule.length bounds every sampled sequence
    length = config.schedule_spec.length if config.is_random() else None
    points = simplex_sweep(
        config.conditions(), args.grid_step, config.initial, config.target_set(),
        n_sequences=args.samples, seed=args.seed, sample_length=length, **truncation,
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: building it costs
    more than a small analysis, and main reuses it on every call. Parsing
    leaves it unchanged; callers must not add to it."""
    parser = argparse.ArgumentParser(
        prog="stagedwell",
        description="Lifetime and occupancy-time statistics for stage-structured models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
        ("validate", cmd_validate, "check a scenario file and report per-matrix diagnostics"),
        ("lifetime", cmd_lifetime, "distribution of steps lived"),
        ("occupancy", cmd_occupancy, "distribution of steps spent in the target set"),
        ("moments", cmd_moments, "raw occupancy moments and summary statistics"),
        ("simulate", cmd_simulate, "Monte Carlo check against the analytic distribution"),
        ("env-sweep", cmd_env_sweep, "two-level statistics over a simplex of condition mixes"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, analyzes=func is not cmd_validate)
        p.set_defaults(func=func)
    sub.choices["moments"].add_argument("--order", type=_pos_int, default=2, help="highest moment order")
    sub.choices["simulate"].add_argument("--samples", type=_pos_int, default=2000, help="number of trajectories")
    sweep = sub.choices["env-sweep"]
    sweep.add_argument("--samples", type=_checked(int, lambda x: x >= 2, "be at least 2"), default=2000,
                       help="environment sequences per grid point")
    sweep.add_argument("--grid-step", type=_grid_float, default=0.05)
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
