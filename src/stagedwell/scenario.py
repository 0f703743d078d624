"""Scenario files, result export, and the built-in example scenario.

A scenario is a JSON object tying together a stage space, named transition
matrices, a schedule over those names, an initial stage distribution and a
target stage set, plus optional truncation controls:

    {
      "states": ["juvenile", "adult"],
      "matrices": {"M": [[0.2, 0.0], [0.5, 0.6]]},
      "schedule": {"kind": "constant", "matrix": "M"},
      "initial": [1.0, 0.0],
      "target_set": ["adult"],
      "start": 0,
      "tail_tol": 1e-12,
      "max_horizon": 100000
    }

Schedule kinds: "constant" (one matrix forever); "explicit" with a
"sequence" of matrix names and an "extension" of "hold_last", "cycle" or
"error"; "random" with a "probabilities" object of per-name draw weights and
an optional "length". Matrices are column-oriented by default; a file
holding row-oriented matrices (rows = source stage) can say
"orientation": "row-stochastic-convention" and is transposed on load.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chain import (
    DEFAULT_MAX_HORIZON,
    DEFAULT_TAIL_TOL,
    EXTENSIONS,
    DiscreteDistribution,
    LifetimeDistribution,
    Schedule,
    StateSpace,
    validate_distribution,
    validate_matrix,
)
from .datasets import FULMAR_BREEDING_STATES, builtin_fulmar
from .errors import (
    InvalidDistributionError,
    MatrixValidationError,
    ScenarioError,
    ScenarioParseError,
    UnknownLabelError,
    UnknownMatrixError,
)
from .occupancy import TargetSet
from .randomenv import (PROBABILITY_SUM_TOL, RandomEnvironmentSpec, SweepPoint, TwoLevelStats,
                        sample_schedule)
from .simulate import EmpiricalSummary

COLUMN_CONVENTION = "column-stochastic-convention"
ROW_CONVENTION = "row-stochastic-convention"

_TOP_LEVEL_KEYS = {
    "states", "matrices", "schedule", "initial", "target_set",
    "start", "tail_tol", "max_horizon", "orientation", "name", "notes",
}


@dataclass(frozen=True)
class ConstantSchedule:
    matrix: str


@dataclass(frozen=True)
class ExplicitSchedule:
    sequence: tuple[str, ...]
    extension: str = "hold_last"


@dataclass(frozen=True)
class RandomSchedule:
    probabilities: dict[str, float]
    length: int | None = None


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Fully validated scenario, ready to hand to the engines."""

    states: StateSpace
    matrices: dict[str, np.ndarray]
    schedule_spec: ConstantSchedule | ExplicitSchedule | RandomSchedule
    initial: np.ndarray
    target_labels: tuple[str, ...]
    start: int = 0
    tail_tol: float = DEFAULT_TAIL_TOL
    max_horizon: int = DEFAULT_MAX_HORIZON

    def __eq__(self, other):
        if not isinstance(other, ScenarioConfig):
            return NotImplemented
        return (
            self.states == other.states
            and list(self.matrices) == list(other.matrices)
            and all(np.array_equal(self.matrices[k], other.matrices[k]) for k in self.matrices)
            and self.schedule_spec == other.schedule_spec
            and np.array_equal(self.initial, other.initial)
            and self.target_labels == other.target_labels
            and self.start == other.start
            and self.tail_tol == other.tail_tol
            and self.max_horizon == other.max_horizon
        )

    def target_set(self) -> TargetSet:
        return TargetSet.from_labels(self.states, self.target_labels)

    def is_random(self) -> bool:
        return isinstance(self.schedule_spec, RandomSchedule)

    def random_spec(self) -> RandomEnvironmentSpec:
        if not self.is_random():
            raise ScenarioError("scenario schedule is deterministic, not random")
        names = list(self.schedule_spec.probabilities)
        return RandomEnvironmentSpec(
            labels=tuple(names),
            matrices=tuple(self.matrices[n] for n in names),
            probabilities=np.array([self.schedule_spec.probabilities[n] for n in names]),
        )

    def build_schedule(self, rng: np.random.Generator | None = None) -> Schedule:
        """Concrete schedule for this scenario.

        A random scenario needs a generator and yields one sampled
        realization of length `length` (default max_horizon).
        """
        spec = self.schedule_spec
        if isinstance(spec, ConstantSchedule):
            return Schedule.constant(self.matrices[spec.matrix])
        if isinstance(spec, ExplicitSchedule):
            names = list(self.matrices)
            seq = [names.index(n) for n in spec.sequence]
            return Schedule.explicit(tuple(self.matrices.values()), seq, spec.extension)
        if rng is None:
            raise ScenarioError("a random scenario needs a random generator to realize a schedule")
        length = spec.length if spec.length is not None else self.max_horizon
        return sample_schedule(self.random_spec(), length, rng)

    def conditions(self) -> list[tuple[str, np.ndarray]]:
        """(name, matrix) pairs: a random schedule's conditions in the order
        its probabilities name them, else every matrix in file order."""
        if self.is_random():
            spec = self.random_spec()
            return list(zip(spec.labels, spec.matrices))
        return list(self.matrices.items())


def _known_keys(raw: dict, keys: set, loc: str) -> None:
    if unknown := sorted(set(raw) - keys):
        raise ScenarioParseError(loc, f"unknown keys {unknown}")


def _require(raw: dict, key: str):
    if key not in raw:
        raise ScenarioParseError(key, "required field is missing")
    return raw[key]


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document from a JSON string.

    Any problem raises a ScenarioError subclass naming the first offending
    field (locations are dotted key paths, 0-based where indexed).
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from None
    if not isinstance(raw, dict):
        raise ScenarioParseError("$", "top level must be a JSON object")
    _known_keys(raw, _TOP_LEVEL_KEYS, "$")

    states_raw = _require(raw, "states")
    if not isinstance(states_raw, list) or not all(isinstance(s, str) for s in states_raw):
        raise ScenarioParseError("states", "must be a list of stage label strings")
    try:
        states = StateSpace(tuple(states_raw))
    except ValueError as exc:
        raise ScenarioParseError("states", str(exc)) from None
    d = states.d

    orientation = raw.get("orientation", COLUMN_CONVENTION)
    if orientation not in (COLUMN_CONVENTION, ROW_CONVENTION):
        raise ScenarioParseError(
            "orientation", f"must be {COLUMN_CONVENTION!r} or {ROW_CONVENTION!r}, got {orientation!r}"
        )

    matrices_raw = _require(raw, "matrices")
    if not isinstance(matrices_raw, dict) or not matrices_raw:
        raise ScenarioParseError("matrices", "must be a non-empty object of named matrices")
    matrices: dict[str, np.ndarray] = {}
    for name, body in matrices_raw.items():
        loc = f"matrices.{name}"
        try:
            arr = np.array(body, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ScenarioParseError(loc, f"not a numeric matrix: {exc}") from None
        if arr.shape != (d, d):
            raise ScenarioParseError(loc, f"expected shape ({d}, {d}) to match states, got {arr.shape}")
        if orientation == ROW_CONVENTION:
            arr = arr.T
        try:
            matrices[name] = validate_matrix(arr)
        except MatrixValidationError as exc:
            raise ScenarioParseError(loc, str(exc)) from None

    schedule_raw = _require(raw, "schedule")
    if not isinstance(schedule_raw, dict):
        raise ScenarioParseError("schedule", "must be an object with a 'kind'")
    kind = schedule_raw.get("kind")
    if kind == "constant":
        _known_keys(schedule_raw, {"kind", "matrix"}, "schedule")
        name = schedule_raw.get("matrix")
        if not isinstance(name, str):
            raise ScenarioParseError("schedule.matrix", "constant schedule needs a matrix name")
        if name not in matrices:
            raise UnknownMatrixError(name, matrices)
        schedule_spec: ConstantSchedule | ExplicitSchedule | RandomSchedule = ConstantSchedule(name)
    elif kind == "explicit":
        _known_keys(schedule_raw, {"kind", "sequence", "extension"}, "schedule")
        seq = schedule_raw.get("sequence")
        if not isinstance(seq, list) or not seq or not all(isinstance(s, str) for s in seq):
            raise ScenarioParseError("schedule.sequence", "must be a non-empty list of matrix names")
        for s in seq:
            if s not in matrices:
                raise UnknownMatrixError(s, matrices)
        extension = schedule_raw.get("extension", "hold_last")
        if extension not in EXTENSIONS:
            raise ScenarioParseError("schedule.extension", f"must be one of {list(EXTENSIONS)}, got {extension!r}")
        schedule_spec = ExplicitSchedule(tuple(seq), extension)
    elif kind == "random":
        _known_keys(schedule_raw, {"kind", "probabilities", "length"}, "schedule")
        probs = schedule_raw.get("probabilities")
        if not isinstance(probs, dict) or not probs:
            raise ScenarioParseError("schedule.probabilities", "must be a non-empty object of per-matrix weights")
        for name in probs:
            if name not in matrices:
                raise UnknownMatrixError(name, matrices)
        weights = []
        for name, w in probs.items():
            if not isinstance(w, (int, float)) or isinstance(w, bool) or w < 0 or not math.isfinite(w):
                raise ScenarioParseError(f"schedule.probabilities.{name}", f"weight must be a nonnegative number, got {w!r}")
            weights.append(float(w))
        if abs(sum(weights) - 1.0) > PROBABILITY_SUM_TOL:
            raise InvalidDistributionError(f"schedule.probabilities sum to {sum(weights)!r}, not 1")
        length = schedule_raw.get("length")
        if length is not None and (not isinstance(length, int) or isinstance(length, bool) or length < 1):
            raise ScenarioParseError("schedule.length", f"must be a positive integer, got {length!r}")
        schedule_spec = RandomSchedule({n: float(w) for n, w in probs.items()}, length)
    else:
        raise ScenarioParseError("schedule.kind", f"must be 'constant', 'explicit' or 'random', got {kind!r}")

    initial_raw = _require(raw, "initial")
    try:
        initial = validate_distribution(initial_raw, d)
    except InvalidDistributionError as exc:
        raise InvalidDistributionError(f"initial: {exc}") from None

    target_raw = _require(raw, "target_set")
    if not isinstance(target_raw, list) or not all(isinstance(s, str) for s in target_raw):
        raise ScenarioParseError("target_set", "must be a list of stage labels (possibly empty)")
    for lab in target_raw:
        if lab not in states.labels:
            raise UnknownLabelError(lab, states.labels)

    start = raw.get("start", 0)
    if not isinstance(start, int) or isinstance(start, bool) or start < 0:
        raise ScenarioParseError("start", f"must be a nonnegative integer, got {start!r}")
    tail_tol = raw.get("tail_tol", DEFAULT_TAIL_TOL)
    if not isinstance(tail_tol, (int, float)) or isinstance(tail_tol, bool) or not 0 < float(tail_tol) < 1:
        raise ScenarioParseError("tail_tol", f"must be a number in (0, 1), got {tail_tol!r}")
    max_horizon = raw.get("max_horizon", DEFAULT_MAX_HORIZON)
    if not isinstance(max_horizon, int) or isinstance(max_horizon, bool) or max_horizon < 1:
        raise ScenarioParseError("max_horizon", f"must be a positive integer, got {max_horizon!r}")

    return ScenarioConfig(
        states=states,
        matrices=matrices,
        schedule_spec=schedule_spec,
        initial=initial,
        target_labels=tuple(target_raw),
        start=start,
        tail_tol=float(tail_tol),
        max_horizon=max_horizon,
    )


def load_scenario(path) -> ScenarioConfig:
    """Parse a scenario from a file path."""
    return parse_scenario(Path(path).read_text())


def dump_scenario(config: ScenarioConfig) -> str:
    """Serialize a config back to scenario JSON (column convention).

    parse_scenario(dump_scenario(c)) == c for every valid config.
    """
    spec = config.schedule_spec
    if isinstance(spec, ConstantSchedule):
        schedule: dict = {"kind": "constant", "matrix": spec.matrix}
    elif isinstance(spec, ExplicitSchedule):
        schedule = {"kind": "explicit", "sequence": list(spec.sequence), "extension": spec.extension}
    else:
        schedule = {"kind": "random", "probabilities": dict(spec.probabilities)}
        if spec.length is not None:
            schedule["length"] = spec.length
    doc = {
        "states": list(config.states.labels),
        "matrices": {name: m.tolist() for name, m in config.matrices.items()},
        "schedule": schedule,
        "initial": config.initial.tolist(),
        "target_set": list(config.target_labels),
        "start": config.start,
        "tail_tol": config.tail_tol,
        "max_horizon": config.max_horizon,
    }
    return json.dumps(doc, indent=2) + "\n"


def builtin_fulmar_scenario() -> ScenarioConfig:
    """Southern Fulmar under constant favourable conditions.

    One pre-breeder recruited at time 0; target set = breeding stages, so the
    occupancy total is the lifetime number of breeding attempts.
    """
    data = builtin_fulmar()
    return ScenarioConfig(
        states=data.states,
        matrices=dict(data.matrices),
        schedule_spec=ConstantSchedule("U_f"),
        initial=validate_distribution((1.0, 0.0, 0.0, 0.0)),
        target_labels=FULMAR_BREEDING_STATES,
    )


def format_number(x) -> str:
    """Numbers for CSV cells: ints plain, floats at 12 significant digits
    with a decimal point (or exponent) always present."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    xf = float(x)
    if math.isnan(xf):
        return "nan"
    if math.isinf(xf):
        return "inf" if xf > 0 else "-inf"
    s = f"{xf:.12g}"
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _json_ready(x):
    """A JSON-ready copy of x: floats at full precision (None if not finite), keys as strings."""
    if isinstance(x, dict):
        return {str(k): _json_ready(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_json_ready(v) for v in x]
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    return x


def _export_parts(result) -> tuple[str, list, dict]:
    """(CSV header, CSV rows, JSON document) of any exportable result, with
    raw values; both formats are rendered from these."""
    if isinstance(result, DiscreteDistribution):
        lifetime = isinstance(result, LifetimeDistribution)
        probs = sorted(result.probs.items())
        header = ("n" if lifetime else "a") + ",probability"
        doc = {"kind": "lifetime" if lifetime else "occupancy", "probs": dict(probs),
               "tail_mass": result.tail_mass}
        return header, probs + [("tail_mass", result.tail_mass)], doc
    if isinstance(result, EmpiricalSummary):
        counts = sorted(result.occupancy_counts.items())
        summary = {"mean": result.mean, "variance": result.variance, "std_error": result.std_error}
        doc = {
            "n_samples": result.n_samples,
            "occupancy_counts": dict(counts),
            "lifetime_counts": dict(sorted(result.lifetime_counts.items())),
            **summary,
        }
        return "tau,count", counts + [("n_samples", result.n_samples), *summary.items()], doc
    # a two-level result's columns and the TwoLevelStats fields they hold;
    # a sweep row has the first four
    two_level = {"mean": "mean_of_means", "cv": "coefficient_of_variation",
                 "within_var": "mean_within_variance", "between_var": "between_variance",
                 "total_var": "total_variance", "n_sequences": "n_sequences"}
    if isinstance(result, TwoLevelStats):
        record = {col: getattr(result, name) for col, name in two_level.items()}
        return ",".join(record), [tuple(record.values())], record
    if isinstance(result, list) and result and isinstance(result[0], SweepPoint):
        stats = list(two_level)[:4]
        columns = [f"p_{lab}" for lab in result[0].labels] + stats
        grid = []
        for pt in result:
            entry = {f"p_{lab}": p for lab, p in zip(pt.labels, pt.probabilities)}
            if pt.stats is None:
                entry["error"] = pt.error
            else:
                entry.update((col, getattr(pt.stats, two_level[col])) for col in stats)
            grid.append(entry)
        rows = [tuple(entry.get(col, math.nan) for col in columns) for entry in grid]
        return ",".join(columns), rows, {"grid": grid}
    if isinstance(result, list) and all(isinstance(x, (int, float)) for x in result):
        moments = [(k, float(x)) for k, x in enumerate(result, start=1)]
        return "k,moment", moments, {"moments": dict(moments)}
    raise ScenarioError(f"cannot export a result of type {type(result).__name__}")


def export_results(result, fmt: str = "csv", destination=None, metadata=()) -> None:
    """Write a result to a path, open file, or stdout (destination None).

    fmt "csv": a header line plus one row per record, numbers at 12
    significant digits; distribution exports end with a tail_mass row and
    metadata key/value pairs are appended as trailing rows. fmt "json": one
    object with the same content, floats at full (repr) precision, so that
    the exported atoms of a distribution sum as the engine's do.
    """
    metadata = [tuple(item) for item in metadata]
    if fmt == "csv":
        header, rows, _ = _export_parts(result)
        text = header + "\n" + "".join(
            ",".join(x if isinstance(x, str) else format_number(x) for x in row) + "\n"
            for row in rows + metadata
        )
    elif fmt == "json":
        _, _, doc = _export_parts(result)
        if metadata:
            doc["metadata"] = dict(metadata)
        text = json.dumps(_json_ready(doc), indent=2, allow_nan=False) + "\n"
    else:
        raise ScenarioError(f"unknown export format {fmt!r} (expected 'csv' or 'json')")
    _write_text(text, destination)


def _write_text(text: str, destination) -> None:
    """Write text to stdout (destination None), an open file or a path."""
    if destination is None:
        sys.stdout.write(text)
    elif hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text)
