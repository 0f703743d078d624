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

Schedule kinds: "constant" (one matrix forever, read as a one-name
"hold_last" explicit schedule); "explicit" with a "sequence" of matrix names
and an "extension" of "hold_last", "cycle" or "error"; "random" with a
"probabilities" object of per-name draw weights and an optional "length".
Matrices are column-oriented by default; a file holding row-oriented
matrices (rows = source stage) can say "orientation":
"row-stochastic-convention" and is transposed on load.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
import re
import sys
from dataclasses import InitVar, dataclass, field
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
    _check_truncation,
    _Checked,
    _integer,
    validate_distribution,
    validate_matrix,
)
from .errors import (
    InvalidDistributionError,
    MatrixValidationError,
    ScenarioError,
    ScenarioParseError,
    UnknownMatrixError,
)
from .occupancy import TargetSet
from .randomenv import RandomEnvironmentSpec, SweepPoint, TwoLevelStats, sample_schedule
from .simulate import EmpiricalSummary

COLUMN_CONVENTION = "column-stochastic-convention"
ROW_CONVENTION = "row-stochastic-convention"

_TOP_LEVEL_KEYS = {
    "states", "matrices", "schedule", "initial", "target_set",
    "start", "tail_tol", "max_horizon", "orientation", "name", "notes",
}


@dataclass(frozen=True)
class ExplicitSchedule:
    """Matrix names for the first steps, then the extension; a constant
    schedule is one name held ("hold_last")."""

    sequence: tuple[str, ...]
    extension: str = "hold_last"

    def __post_init__(self):
        if not self.sequence or not all(isinstance(s, str) for s in self.sequence):
            raise ScenarioParseError("schedule.sequence", "must be a non-empty list of matrix names")
        if self.extension not in EXTENSIONS:
            raise ScenarioParseError("schedule.extension", f"must be one of {list(EXTENSIONS)}, got {self.extension!r}")


@dataclass(frozen=True)
class RandomSchedule:
    probabilities: dict[str, float]
    length: int | None = None

    def __post_init__(self):
        for name, w in self.probabilities.items():
            try:  # a JSON integer beyond float64 overflows here, not in the conversion below
                ok = isinstance(w, numbers.Real) and not isinstance(w, bool) and 0 <= float(w) < math.inf
            except OverflowError:
                ok = False
            if not ok:
                raise ScenarioParseError(f"schedule.probabilities.{name}", f"weight must be a nonnegative number, got {w!r}")
        object.__setattr__(self, "probabilities", {n: float(w) for n, w in self.probabilities.items()})
        object.__setattr__(self, "length", None if self.length is None else _integer(self.length, "length", 1))


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """A scenario ready to hand to the engines. Every construction, by
    parse_scenario, builtin_fulmar or dataclasses.replace, checks that the
    matrices are valid (parse_scenario, which has checked them already and
    located any error, says so by _checked), the schedule names known
    matrices, `initial` is a distribution, the target labels are stages, a
    random schedule's weights make a RandomEnvironmentSpec, and start,
    tail_tol and max_horizon are in range. The schedules and the spec built
    from it take its matrices as they are."""

    states: StateSpace
    matrices: dict[str, np.ndarray]
    schedule_spec: ExplicitSchedule | RandomSchedule
    initial: np.ndarray
    target_labels: tuple[str, ...]
    start: int = 0
    tail_tol: float = DEFAULT_TAIL_TOL
    max_horizon: int = DEFAULT_MAX_HORIZON
    _checked: InitVar[bool] = field(default=False, kw_only=True)
    _target: TargetSet = field(init=False, repr=False)
    _spec: RandomEnvironmentSpec | None = field(init=False, repr=False)

    def __post_init__(self, _checked):
        if not _checked:
            object.__setattr__(self, "matrices", {name: validate_matrix(m) for name, m in self.matrices.items()})
        spec = self.schedule_spec
        weights = spec.probabilities if isinstance(spec, RandomSchedule) else None
        names = spec.sequence if weights is None else tuple(weights)
        for name in names:
            if name not in self.matrices:
                raise UnknownMatrixError(name, self.matrices)
        object.__setattr__(self, "_spec", None if weights is None else RandomEnvironmentSpec(
            names, _Checked(self.matrices[n] for n in names), np.array(list(weights.values()))))
        try:
            object.__setattr__(self, "initial", validate_distribution(self.initial, self.states.d))
        except InvalidDistributionError as exc:
            raise InvalidDistributionError(f"initial: {exc}") from None
        self._check_run()

    def _check_run(self, target: bool = True):
        """Check and set what the command line overrides: the target labels
        (if `target`), start, tail_tol and max_horizon."""
        if target:
            object.__setattr__(self, "_target", TargetSet.from_labels(self.states, self.target_labels))
        object.__setattr__(self, "start", _integer(self.start, "start", 0))
        tail_tol, max_horizon = _check_truncation(self.tail_tol, self.max_horizon)
        object.__setattr__(self, "tail_tol", tail_tol)
        object.__setattr__(self, "max_horizon", max_horizon)

    def _overridden(self, **run) -> "ScenarioConfig":
        """dataclasses.replace for what _check_run checks, checking that
        alone again, and the target only if it is replaced."""
        moved = copy.copy(self)
        moved.__dict__.update(run)
        moved._check_run(target="target_labels" in run)
        return moved

    def __eq__(self, other):
        """Equal when dump_scenario writes both alike: the matrices, their
        order and a random schedule's probabilities in their order included,
        and -0.0 apart from 0.0."""
        if not isinstance(other, ScenarioConfig):
            return NotImplemented
        return dump_scenario(self) == dump_scenario(other)

    def target_set(self) -> TargetSet:
        return self._target

    def is_random(self) -> bool:
        return self._spec is not None

    def random_spec(self) -> RandomEnvironmentSpec:
        if self._spec is None:
            raise ScenarioError("scenario schedule is deterministic, not random")
        return self._spec

    def build_schedule(self, rng: np.random.Generator | None = None) -> Schedule:
        """Concrete schedule for this scenario.

        An explicit schedule holds the matrices its sequence names, in
        file order. A random scenario needs a generator and yields one
        sampled realization of length `length` (default max_horizon), cut
        at start + max_horizon + 1 steps. The engines and the simulator,
        run with this config's start and max_horizon, raise before the
        hold from step start + max_horizon, so they stop, close and raise
        as on the full length. A caller who analyzes the realization with
        a larger max_horizon must `dataclasses.replace` the config first.
        """
        spec = self.schedule_spec
        if isinstance(spec, ExplicitSchedule):
            used = [n for n in self.matrices if n in spec.sequence]
            seq = [used.index(n) for n in spec.sequence]
            return Schedule(_Checked(self.matrices[n] for n in used), seq, spec.extension)
        if rng is None:
            raise ScenarioError("a random scenario needs a random generator to realize a schedule")
        length = spec.length if spec.length is not None else self.max_horizon
        return sample_schedule(self._spec, min(length, self.start + self.max_horizon + 1), rng)

    def conditions(self) -> list[tuple[str, np.ndarray]]:
        """(name, matrix) pairs: a random schedule's conditions in the order
        its probabilities name them, else every matrix in file order."""
        if self._spec is not None:
            return list(zip(self._spec.labels, self._spec.matrices))
        return list(self.matrices.items())


def _known_keys(raw: dict, keys: set, loc: str) -> None:
    if unknown := sorted(set(raw) - keys):
        raise ScenarioParseError(loc, f"unknown keys {unknown}")


def _require(raw: dict, key: str):
    if key not in raw:
        raise ScenarioParseError(key, "required field is missing")
    return raw[key]


def _count(value, loc: str, least: int) -> int:
    """value as an int of at least `least` by chain._integer's rule, or a
    ScenarioParseError at loc."""
    try:
        return _integer(value, loc, least)
    except ValueError:
        kind = "nonnegative" if least == 0 else "positive"
        raise ScenarioParseError(loc, f"must be a {kind} integer, got {value!r}") from None


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document from a JSON string.

    A problem raises a ScenarioError subclass naming the first offending
    field (locations are dotted key paths, 0-based where indexed), except
    that a bad `initial`, and random-schedule weights that do not sum to 1,
    raise InvalidDistributionError, which is not a ScenarioError.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from None
    except (RecursionError, ValueError) as exc:  # nested too deeply; an integer past int's digit limit
        raise ScenarioParseError("$", str(exc)) from None
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
        except (TypeError, ValueError, OverflowError) as exc:
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
        schedule_spec: ExplicitSchedule | RandomSchedule = ExplicitSchedule((name,))
    elif kind == "explicit":
        _known_keys(schedule_raw, {"kind", "sequence", "extension"}, "schedule")
        seq = schedule_raw.get("sequence")  # anything but a list is no sequence
        schedule_spec = ExplicitSchedule(tuple(seq) if isinstance(seq, list) else (),
                                         schedule_raw.get("extension", "hold_last"))
    elif kind == "random":
        _known_keys(schedule_raw, {"kind", "probabilities", "length"}, "schedule")
        probs = schedule_raw.get("probabilities")
        if not isinstance(probs, dict) or not probs:
            raise ScenarioParseError("schedule.probabilities", "must be a non-empty object of per-matrix weights")
        length = schedule_raw.get("length")
        schedule_spec = RandomSchedule(probs, None if length is None else _count(length, "schedule.length", 1))
    else:
        raise ScenarioParseError("schedule.kind", f"must be 'constant', 'explicit' or 'random', got {kind!r}")

    initial = _require(raw, "initial")
    target_raw = _require(raw, "target_set")
    if not isinstance(target_raw, list) or not all(isinstance(s, str) for s in target_raw):
        raise ScenarioParseError("target_set", "must be a list of stage labels (possibly empty)")
    start = _count(raw.get("start", 0), "start", 0)
    tail_tol = raw.get("tail_tol", DEFAULT_TAIL_TOL)
    if not isinstance(tail_tol, (int, float)) or isinstance(tail_tol, bool) or not 0 < tail_tol < 1:
        raise ScenarioParseError("tail_tol", f"must be a number in (0, 1), got {tail_tol!r}")
    max_horizon = _count(raw.get("max_horizon", DEFAULT_MAX_HORIZON), "max_horizon", 1)

    return ScenarioConfig(
        states=states,
        matrices=matrices,
        schedule_spec=schedule_spec,
        initial=initial,
        target_labels=tuple(target_raw),
        start=start,
        tail_tol=tail_tol,
        max_horizon=max_horizon,
        _checked=True,
    )


def load_scenario(path) -> ScenarioConfig:
    """Parse a scenario from a file path."""
    return parse_scenario(Path(path).read_text())


def dump_scenario(config: ScenarioConfig) -> str:
    """Serialize a config back to scenario JSON (column convention).

    parse_scenario(dump_scenario(c)) == c for every valid config.
    """
    doc = {
        "states": list(config.states.labels),
        "matrices": {name: np.asarray(m).tolist() for name, m in config.matrices.items()},
        "schedule": _schedule_json(config.schedule_spec),
        "initial": config.initial.tolist(),
        "target_set": list(config.target_labels),
        "start": config.start,
        "tail_tol": config.tail_tol,
        "max_horizon": config.max_horizon,
    }
    return json.dumps(doc, indent=2) + "\n"


def _schedule_json(spec: ExplicitSchedule | RandomSchedule) -> dict:
    """A schedule as its scenario file writes it, a one-name hold_last
    sequence as the constant kind."""
    if isinstance(spec, RandomSchedule):
        length = {} if spec.length is None else {"length": spec.length}
        return {"kind": "random", "probabilities": dict(spec.probabilities), **length}
    if len(spec.sequence) == 1 and spec.extension == "hold_last":
        return {"kind": "constant", "matrix": spec.sequence[0]}
    return {"kind": "explicit", "sequence": list(spec.sequence), "extension": spec.extension}


def builtin_fulmar() -> ScenarioConfig:
    """Southern Fulmar under constant favourable conditions.

    Four stages (pre-breeder, successful breeder, failed breeder,
    non-breeder) with one transition matrix per sea-ice condition, after the
    published rates of Jenouvrier, Peron and Weimerskirch (2015): U_f
    (favourable), U_o (ordinary) and U_u (unfavourable), validated, in that
    order. Columns hold the outgoing probabilities of a stage; the deficit
    of each column from 1 is that stage's yearly mortality. One pre-breeder
    recruited at time 0; target set = breeders of either outcome, so the
    occupancy total is the lifetime number of breeding attempts.
    """
    matrices = {
        "U_f": ((0.828, 0.0, 0.0, 0.0),
                (0.06624, 0.72912, 0.62244, 0.40176),
                (0.02576, 0.18228, 0.24206, 0.15624),
                (0.0, 0.0186, 0.0455, 0.342)),
        "U_o": ((0.9016, 0.0, 0.0, 0.0),
                (0.011408, 0.66737, 0.49312, 0.1809),
                (0.006992, 0.18823, 0.24288, 0.0891),
                (0.0, 0.0744, 0.184, 0.63)),
        "U_u": ((0.9154, 0.0, 0.0, 0.0),
                (0.002392, 0.4873, 0.25147, 0.0468),
                (0.002208, 0.1895, 0.23213, 0.0432),
                (0.0, 0.2632, 0.4464, 0.81)),
    }
    return ScenarioConfig(
        states=StateSpace((
            "pre-breeder",
            "successful breeder",
            "failed breeder",
            "non-breeder",
        )),
        matrices=matrices,
        schedule_spec=ExplicitSchedule(("U_f",)),
        initial=(1.0, 0.0, 0.0, 0.0),
        target_labels=("successful breeder", "failed breeder"),
    )


builtin_fulmar_scenario = builtin_fulmar


def format_number(x) -> str:
    """Numbers for CSV cells: ints plain, floats at 12 significant digits
    with a decimal point (or exponent) always present."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    s = f"{float(x):.12g}"
    # "nan", "inf" and "-inf" take no point
    return s if "." in s or "e" in s or "n" in s else s + ".0"


def _export_parts(result) -> tuple[str, list, dict]:
    """(CSV header, CSV row blocks, JSON document) of any exportable result,
    with raw values; both formats are rendered from these. Each block is
    rendered on its own (_csv_lines), so rows of one shape, such as a
    distribution's atoms, make one block."""
    if isinstance(result, DiscreteDistribution):
        lifetime = isinstance(result, LifetimeDistribution)
        probs = sorted(result.probs.items())
        header = ("n" if lifetime else "a") + ",probability"
        doc = {"kind": "lifetime" if lifetime else "occupancy", "probs": dict(probs),
               "tail_mass": result.tail_mass}
        return header, [probs, [("tail_mass", result.tail_mass)]], doc
    if isinstance(result, EmpiricalSummary):
        counts = sorted(result.occupancy_counts.items())
        summary = {"mean": result.mean, "variance": result.variance, "std_error": result.std_error}
        doc = {
            "n_samples": result.n_samples,
            "occupancy_counts": dict(counts),
            "lifetime_counts": dict(sorted(result.lifetime_counts.items())),
            **summary,
        }
        return "tau,count", [counts, [("n_samples", result.n_samples), *summary.items()]], doc
    # a two-level result's columns and the TwoLevelStats fields they hold;
    # a sweep row has the first four
    two_level = {"mean": "mean_of_means", "cv": "coefficient_of_variation",
                 "within_var": "mean_within_variance", "between_var": "between_variance",
                 "total_var": "total_variance", "n_sequences": "n_sequences"}
    if isinstance(result, TwoLevelStats):
        record = {col: getattr(result, name) for col, name in two_level.items()}
        return ",".join(record), [[tuple(record.values())]], record
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
        return ",".join(columns), [rows], {"grid": grid}
    if isinstance(result, list) and all(isinstance(x, (int, float)) for x in result):
        moments = [(k, float(x)) for k, x in enumerate(result, start=1)]
        return "k,moment", [moments], {"moments": dict(moments)}
    raise ScenarioError(f"cannot export a result of type {type(result).__name__}")


def _csv_lines(rows: list) -> str:
    """Rows as CSV lines, each cell as format_number writes it and strings
    as they are. Where there are 8 rows or more (for fewer the template
    costs more than it saves), all of one length, each column's cells share
    one int or float type and the floats are in the last of two or more
    columns, every row is written by one %-template, and the float cells
    written without a point, exponent, nan or inf get their ".0" from one
    substitution over the text; other rows are written a cell at a time."""
    if len(rows) >= 8 and len(set(map(len, rows))) == 1:
        formats = {int: "%d", np.int64: "%d", float: "%.12g", np.float64: "%.12g"}
        types = [set(map(type, column)) for column in zip(*rows)]
        cells = [formats.get(kind.pop()) if len(kind) == 1 else None for kind in types]
        if len(cells) > 1 and None not in cells and "%.12g" not in cells[:-1]:
            text = "".join(map((",".join(cells) + "\n").__mod__, rows))
            return re.sub(r",(-?\d+)\n", r",\1.0\n", text) if cells[-1] == "%.12g" else text
    return "".join(",".join(x if isinstance(x, str) else format_number(x) for x in row) + "\n" for row in rows)


def _json_text(x, indent: str = "\n") -> str:
    """x as json.dumps(x, indent=2) writes it, but with a float that is not
    finite as null and every key as str(key), as JSON export wants it;
    `indent` is the line break and indentation of x's own line. A dict of
    finite floats under int keys is written one %-template per entry."""
    if isinstance(x, (dict, list, tuple)):
        if not x:
            return "{}" if isinstance(x, dict) else "[]"
        inner = indent + "  "
        if not isinstance(x, dict):
            return "[" + ",".join(inner + _json_text(v, inner) for v in x) + indent + "]"
        values = list(x.values())
        if set(map(type, x)) == {int} and set(map(type, values)) == {float} and all(map(math.isfinite, values)):
            return "{" + ",".join(map((inner + '"%d": %r').__mod__, x.items())) + indent + "}"
        return "{" + ",".join(f"{inner}{json.dumps(str(k))}: {_json_text(v, inner)}" for k, v in x.items()) + indent + "}"
    if isinstance(x, float):
        return float.__repr__(x) if math.isfinite(x) else "null"
    return json.dumps(x)   # a string, int, bool or None; json's TypeError for a type it cannot write


def export_results(result, fmt: str = "csv", destination=None, metadata=()) -> None:
    """Write a result to a path, open file, or stdout (destination None).

    fmt "csv": a header line plus one row per record, numbers at 12
    significant digits; distribution exports end with a tail_mass row and
    metadata key/value pairs are appended as trailing rows. fmt "json": one
    object with the same content, indented by 2, floats at full (repr)
    precision, so that the exported atoms of a distribution sum as the
    engine's do, and null for a float that is not finite.
    """
    metadata = [tuple(item) for item in metadata]
    if fmt == "csv":
        header, blocks, _ = _export_parts(result)
        text = header + "\n" + "".join(map(_csv_lines, blocks + [metadata]))
    elif fmt == "json":
        _, _, doc = _export_parts(result)
        if metadata:
            doc["metadata"] = dict(metadata)
        text = _json_text(doc) + "\n"
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
