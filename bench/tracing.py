"""Spans and counts around calls into stagedwell's public functions.

The tracer replaces module attributes of stagedwell (the names the CLI,
the random-environment code and the benchmark itself call through) with
timing wrappers while it is installed, and puts the originals back when it
is removed. Nothing inside stagedwell is edited.

A span records its name, start, end, parent span and the benchmark
operation it belongs to. Work the tracer does for itself (binding
arguments, counting recurrence steps) is timed and subtracted from every
open span, so span durations cover the program alone.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from weakref import WeakSet

import numpy as np

import stagedwell
from stagedwell import chain, cli, randomenv, scenario

ENGINES = {
    "lifetime_distribution": "chain.lifetime",
    "occupancy_distribution": "occupancy.distribution",
    "occupancy_moments": "occupancy.moments",
    "moment_tables": "occupancy.tables",
}

# Unit of every per-layer metric, in report order; bench/README.md says
# what each measures and which end-to-end metric it should move.
LAYER_UNITS = {
    "scenario.parse_ms": "ms",
    "scenario.export_csv_ms": "ms",
    "scenario.export_json_ms": "ms",
    "cli.self_ms": "ms",
    "chain.schedule_build_ms": "ms",
    "chain.lifetime_us_per_step": "us",
    "occupancy.distribution_us_per_step": "us",
    "occupancy.moments2_us_per_step": "us",
    "occupancy.moments4_us_per_step": "us",
    "occupancy.tables_us_per_step": "us",
    "occupancy.table_mb": "MB",
    "occupancy.steps_per_op": "count",
    "randomenv.sample_schedule_ms": "ms",
    "randomenv.two_level_ms_per_sequence": "ms",
    "randomenv.draws_per_sequence": "count",
    "randomenv.draw_use_ratio": "ratio",
    "simulate.us_per_trajectory": "us",
    "simulate.us_per_step": "us",
    "simulate.steps_per_trajectory": "count",
    "trace.overhead_pct": "%",
}


def count_steps(schedule, initial, start, tail_tol, order, max_horizon) -> int:
    """Recurrence steps an engine takes, from the documented stopping rule.

    Engines step until surviving mass * (t + 1)^order < tail_tol (order 0
    for the distributions), so the count follows from the surviving-mass
    recursion alone.
    """
    w = np.array(initial, dtype=float)
    mass = float(w.sum())
    t = 0
    while mass * float(t + 1) ** order >= tail_tol and t < max_horizon:
        w = schedule.matrix_at(start + t) @ w
        t += 1
        mass = float(w.sum())
    return t


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.op = None
        self.spans: list[tuple] = []
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.sampled = WeakSet()
        self._stack: list[list] = []
        self._bookkeeping = 0.0
        self._next_id = 0
        self._steps_cache: dict = {}
        self._patches = self._build_patches()

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> None:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, parent, name, self.clock(), self._bookkeeping, 0.0])

    def _close(self) -> None:
        sid, parent, name, t0, book0, child = self._stack.pop()
        t1 = self.clock()
        duration = (t1 - t0) - (self._bookkeeping - book0)
        self.time[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][5] += duration
        self.spans.append((sid, parent, self.op, name, t0, t1))

    def _wrap(self, fn, name_of, after=None):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            b0 = tracer.clock()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            name = name_of(bound.arguments)
            tracer._bookkeeping += tracer.clock() - b0
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                b0 = tracer.clock()
                after(name, bound.arguments, result)
                tracer._bookkeeping += tracer.clock() - b0
            return result

        return traced

    # -- counts ------------------------------------------------------------

    def _engine_done(self, name, a, result):
        schedule = a["schedule"]
        order = int(a.get("order", 0))  # the distributions stop on mass alone
        steps = self._steps(schedule, a["initial"], int(a["start"]), float(a["tail_tol"]),
                            order, int(a["max_horizon"]))
        self.counts["steps:" + name] += steps
        self.counts["steps"] += steps
        if schedule in self.sampled:
            self.counts["sampled_steps"] += steps
        if name == "occupancy.tables":
            self.counts["table_bytes_max"] = max(self.counts["table_bytes_max"], result.values.nbytes)

    def _steps(self, schedule, initial, start, tail_tol, order, max_horizon) -> int:
        if schedule in self.sampled:  # drawn once, never seen again
            return count_steps(schedule, initial, start, tail_tol, order, max_horizon)
        key = (
            schedule.extension, schedule.sequence.tobytes(),
            tuple(m.tobytes() for m in schedule.matrices),
            np.asarray(initial, dtype=float).tobytes(), start, tail_tol, order, max_horizon,
        )
        if key not in self._steps_cache:
            self._steps_cache[key] = count_steps(schedule, initial, start, tail_tol, order, max_horizon)
        return self._steps_cache[key]

    def _sampled(self, name, a, result):
        self.counts["draws"] += result.sequence.size
        self.sampled.add(result)

    def _two_level_done(self, name, a, result):
        self.counts["sequences"] += result.n_sequences

    def _simulated(self, name, a, result):
        self.counts["trajectories"] += result.n_samples
        self.counts["sim_steps"] += sum(n * c for n, c in result.lifetime_counts.items())

    # -- installation ------------------------------------------------------

    def _build_patches(self):
        def fixed(label):
            return lambda a: label

        def engine_name(fname):
            base = ENGINES[fname]
            if fname == "occupancy_moments":
                return lambda a: f"{base}{int(a['order'])}"
            return fixed(base)

        patches = []

        def patch(owner, attr, name_of, after=None):
            original = getattr(owner, attr)
            patches.append((owner, attr, original, self._wrap(original, name_of, after)))

        patch(cli, "main", fixed("cli.main"))
        patch(cli, "load_scenario", fixed("scenario.parse"))
        patch(cli, "builtin_fulmar_scenario", fixed("scenario.parse"))
        patch(cli, "export_results", lambda a: "scenario.export_" + str(a["fmt"]))
        patch(chain.Schedule, "__init__", fixed("chain.schedule_build"))
        for owner in (stagedwell, cli, randomenv):
            for fname in ENGINES:
                if hasattr(owner, fname):
                    patch(owner, fname, engine_name(fname), self._engine_done)
        for owner in (stagedwell, randomenv, scenario):
            patch(owner, "sample_schedule", fixed("randomenv.sample_schedule"), self._sampled)
        patch(stagedwell, "two_level_stats", fixed("randomenv.two_level"), self._two_level_done)
        patch(stagedwell, "empirical_distribution", fixed("simulate.empirical"), self._simulated)
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- report ------------------------------------------------------------

    def layer_metrics(self, n_ops: int, overhead_pct: float) -> dict:
        t, calls, c = self.time, self.calls, self.counts

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        def per_call(name, scale=1e3):
            return ratio(t[name], calls[name], scale)

        def per_step(name):
            return ratio(t[name], c["steps:" + name], 1e6)

        values = {
            "scenario.parse_ms": per_call("scenario.parse"),
            "scenario.export_csv_ms": per_call("scenario.export_csv"),
            "scenario.export_json_ms": per_call("scenario.export_json"),
            "cli.self_ms": ratio(self.self_time["cli.main"], calls["cli.main"], 1e3),
            "chain.schedule_build_ms": per_call("chain.schedule_build"),
            "chain.lifetime_us_per_step": per_step("chain.lifetime"),
            "occupancy.distribution_us_per_step": per_step("occupancy.distribution"),
            "occupancy.moments2_us_per_step": per_step("occupancy.moments2"),
            "occupancy.moments4_us_per_step": per_step("occupancy.moments4"),
            "occupancy.tables_us_per_step": per_step("occupancy.tables"),
            "occupancy.table_mb": c["table_bytes_max"] / 1e6,
            "occupancy.steps_per_op": ratio(c["steps"], n_ops),
            "randomenv.sample_schedule_ms": per_call("randomenv.sample_schedule"),
            "randomenv.two_level_ms_per_sequence": ratio(t["randomenv.two_level"], c["sequences"], 1e3),
            "randomenv.draws_per_sequence": ratio(c["draws"], calls["randomenv.sample_schedule"]),
            "randomenv.draw_use_ratio": ratio(c["sampled_steps"], c["draws"]),
            "simulate.us_per_trajectory": ratio(t["simulate.empirical"], c["trajectories"], 1e6),
            "simulate.us_per_step": ratio(t["simulate.empirical"], c["sim_steps"], 1e6),
            "simulate.steps_per_trajectory": ratio(c["sim_steps"], c["trajectories"]),
            "trace.overhead_pct": overhead_pct,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}

    def take(self) -> tuple[dict, dict]:
        """Hand over the span time accumulated since the last take."""
        taken = (self.time, self.self_time)
        self.time, self.self_time = defaultdict(float), defaultdict(float)
        return taken

    def add_scaled(self, taken: tuple[dict, dict], speed: float) -> None:
        """Add taken span time back, rescaled by the host speed."""
        for totals, part in zip((self.time, self.self_time), taken):
            for name, seconds in part.items():
                totals[name] += seconds * speed

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start_s": t0, "end_s": t1}) + "\n")
