import dataclasses
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

import stagedwell as sw
from stagedwell.scenario import (
    ExplicitSchedule,
    RandomSchedule,
    format_number,
)
from helpers import reference_export

DATA = Path(__file__).parent / "data"
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = {
    "states": ["juvenile", "adult"],
    "matrices": {"M": [[0.2, 0.0], [0.5, 0.6]]},
    "schedule": {"kind": "constant", "matrix": "M"},
    "initial": [1.0, 0.0],
    "target_set": ["adult"],
}


def minimal_text(**overrides):
    doc = dict(MINIMAL)
    doc.update(overrides)
    return json.dumps(doc)


class TestParseScenario:
    def test_minimal(self):
        config = sw.parse_scenario(minimal_text())
        assert config.states.labels == ("juvenile", "adult")
        assert config.schedule_spec == ExplicitSchedule(("M",))
        assert config.target_labels == ("adult",)
        assert config.target_set().members == frozenset({1})
        assert config.start == 0
        assert config.tail_tol == 1e-12
        assert config.max_horizon == 100000

    def test_defaults_overridable(self):
        config = sw.parse_scenario(minimal_text(start=3, tail_tol=1e-9, max_horizon=50))
        assert (config.start, config.tail_tol, config.max_horizon) == (3, 1e-9, 50)

    def test_malformed_json(self):
        with pytest.raises(sw.ScenarioParseError) as info:
            sw.parse_scenario("{not json")
        assert "line 1" in str(info.value)

    def test_json_nested_past_the_recursion_limit(self):
        with pytest.raises(sw.ScenarioParseError) as info:
            sw.parse_scenario("[" * 100000 + "]" * 100000)
        assert info.value.location == "$"

    def test_integer_past_the_digit_limit(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this Python converts integer strings of any length")
        with pytest.raises(sw.ScenarioParseError) as info:
            sw.parse_scenario('{"start": ' + "9" * (limit + 1) + "}")
        assert info.value.location == "$"

    def test_missing_field(self):
        doc = dict(MINIMAL)
        del doc["initial"]
        with pytest.raises(sw.ScenarioParseError) as info:
            sw.parse_scenario(json.dumps(doc))
        assert "initial" in str(info.value)

    def test_unknown_top_level_key(self):
        with pytest.raises(sw.ScenarioParseError) as info:
            sw.parse_scenario(minimal_text(taregt_set=["adult"]))
        assert "taregt_set" in str(info.value)

    @pytest.mark.parametrize("schedule, key", [
        ({"kind": "constant", "matrix": "M", "extension": "cycle"}, "extension"),
        ({"kind": "explicit", "sequence": ["M"], "extention": "cycle"}, "extention"),
        ({"kind": "explicit", "sequence": ["M"], "length": 10}, "length"),
        ({"kind": "random", "probabilities": {"M": 1.0}, "lenght": 10}, "lenght"),
    ], ids=["constant", "explicit misspelled", "explicit length", "random misspelled"])
    def test_unknown_schedule_key(self, schedule, key):
        with pytest.raises(sw.ScenarioParseError) as info:
            sw.parse_scenario(minimal_text(schedule=schedule))
        assert (info.value.location, info.value.detail) == ("schedule", f"unknown keys [{key!r}]")

    def test_unknown_matrix_in_schedule(self):
        with pytest.raises(sw.UnknownMatrixError):
            sw.parse_scenario(minimal_text(schedule={"kind": "constant", "matrix": "Q"}))

    def test_unknown_matrix_in_explicit_sequence(self):
        with pytest.raises(sw.UnknownMatrixError) as info:
            sw.parse_scenario(minimal_text(schedule={"kind": "explicit", "sequence": ["M", "Q"]}))
        assert "'Q'" in str(info.value)

    @pytest.mark.parametrize("sequence", [[], ["M", 3]], ids=["empty", "not a string"])
    def test_explicit_sequence_must_list_matrix_names(self, sequence):
        with pytest.raises(sw.ScenarioParseError) as info:
            sw.parse_scenario(minimal_text(schedule={"kind": "explicit", "sequence": sequence}))
        assert (info.value.location, info.value.detail) == \
            ("schedule.sequence", "must be a non-empty list of matrix names")

    @pytest.mark.parametrize("states, detail", [
        ([], "a state space needs at least one stage"),
        (["adult", "adult"], "stage labels must be distinct, got ('adult', 'adult')"),
    ], ids=["empty", "duplicate"])
    def test_states_a_state_space_rejects(self, states, detail):
        with pytest.raises(sw.ScenarioParseError) as info:
            sw.parse_scenario(minimal_text(states=states))
        assert (info.value.location, info.value.detail) == ("states", detail)

    def test_unknown_target_label(self):
        with pytest.raises(sw.UnknownLabelError):
            sw.parse_scenario(minimal_text(target_set=["larva"]))

    def test_invalid_initial(self):
        with pytest.raises(sw.InvalidDistributionError):
            sw.parse_scenario(minimal_text(initial=[0.9, 0.3]))

    def test_invalid_matrix_names_location(self):
        bad = dict(MINIMAL, matrices={"M": [[1.2, 0.0], [0.5, 0.6]]})
        with pytest.raises(sw.ScenarioParseError) as info:
            sw.parse_scenario(json.dumps(bad))
        assert "matrices.M" in str(info.value)

    def test_explicit_schedule(self):
        config = sw.parse_scenario(minimal_text(
            matrices={"A": [[0.5]], "B": [[0.25]]},
            states=["only"],
            initial=[1.0],
            target_set=[],
            schedule={"kind": "explicit", "sequence": ["B", "A", "B"], "extension": "cycle"},
        ))
        assert config.schedule_spec == ExplicitSchedule(("B", "A", "B"), "cycle")
        sched = config.build_schedule()
        assert sched.matrix_at(0)[0, 0] == 0.25
        assert sched.matrix_at(1)[0, 0] == 0.5
        assert sched.matrix_at(3)[0, 0] == 0.25  # cycles

    def test_bad_extension(self):
        with pytest.raises(sw.ScenarioParseError):
            sw.parse_scenario(minimal_text(
                schedule={"kind": "explicit", "sequence": ["M"], "extension": "loop"}))

    def test_random_schedule(self):
        config = sw.parse_scenario(minimal_text(
            matrices={"A": [[0.5]], "B": [[0.25]]},
            states=["only"], initial=[1.0], target_set=[],
            schedule={"kind": "random", "probabilities": {"A": 0.25, "B": 0.75}, "length": 64},
        ))
        assert config.schedule_spec == RandomSchedule({"A": 0.25, "B": 0.75}, 64)
        assert config.is_random()
        spec = config.random_spec()
        assert spec.labels == ("A", "B")
        sched = config.build_schedule(np.random.default_rng(0))
        assert sched.prefix_length == 64

    def test_bad_orientation(self):
        with pytest.raises(sw.ScenarioParseError) as info:
            sw.parse_scenario(minimal_text(orientation="rows"))
        assert info.value.location == "orientation"
        assert "got 'rows'" in info.value.detail

    def test_schedule_must_be_an_object(self):
        with pytest.raises(sw.ScenarioParseError) as info:
            sw.parse_scenario(minimal_text(schedule="M"))
        assert (info.value.location, info.value.detail) == ("schedule", "must be an object with a 'kind'")

    def test_random_probabilities_must_be_nonempty(self):
        with pytest.raises(sw.ScenarioParseError) as info:
            sw.parse_scenario(minimal_text(schedule={"kind": "random", "probabilities": {}}))
        assert info.value.location == "schedule.probabilities"

    def test_random_probabilities_name_known_matrices(self):
        with pytest.raises(sw.UnknownMatrixError) as info:
            sw.parse_scenario(minimal_text(schedule={"kind": "random", "probabilities": {"M": 0.5, "Q": 0.5}}))
        assert info.value.name == "Q"

    @pytest.mark.parametrize("weight", [True, "1", -1, 10**400, -10**400],
                             ids=["true", "string", "negative", "beyond float64", "below -float64"])
    def test_random_weight_must_be_a_nonnegative_number(self, weight):
        with pytest.raises(sw.ScenarioParseError) as info:
            sw.parse_scenario(minimal_text(schedule={"kind": "random", "probabilities": {"M": weight}}))
        assert info.value.location == "schedule.probabilities.M"
        assert info.value.detail == f"weight must be a nonnegative number, got {weight!r}"

    @pytest.mark.parametrize("length", [0, True, 2.5], ids=["zero", "true", "fraction"])
    def test_random_length_must_be_a_positive_integer(self, length):
        with pytest.raises(sw.ScenarioParseError) as info:
            sw.parse_scenario(minimal_text(
                schedule={"kind": "random", "probabilities": {"M": 1.0}, "length": length}))
        assert (info.value.location, info.value.detail) == (
            "schedule.length", f"must be a positive integer, got {length!r}")

    def test_random_spec_of_a_deterministic_scenario(self):
        with pytest.raises(sw.ScenarioError, match="scenario schedule is deterministic, not random"):
            sw.parse_scenario(minimal_text()).random_spec()

    def test_never_equal_to_another_type(self):
        config = sw.parse_scenario(minimal_text())
        assert config.__eq__(5) is NotImplemented
        assert config != 5

    def test_random_probabilities_must_sum_to_one(self):
        with pytest.raises(sw.InvalidDistributionError):
            sw.parse_scenario(minimal_text(
                schedule={"kind": "random", "probabilities": {"M": 0.9}}))

    def test_random_build_requires_generator(self):
        config = sw.parse_scenario(minimal_text(
            schedule={"kind": "random", "probabilities": {"M": 1.0}}))
        with pytest.raises(sw.ScenarioError):
            config.build_schedule()

    def test_constant_is_a_one_name_held_explicit_schedule(self):
        constant = sw.parse_scenario(minimal_text())
        explicit = sw.parse_scenario(minimal_text(schedule={"kind": "explicit", "sequence": ["M"]}))
        assert constant == explicit
        assert sw.dump_scenario(constant) == sw.dump_scenario(explicit)
        assert json.loads(sw.dump_scenario(explicit))["schedule"] == MINIMAL["schedule"]

    def test_unknown_kind(self):
        with pytest.raises(sw.ScenarioParseError):
            sw.parse_scenario(minimal_text(schedule={"kind": "markov"}))

    def test_row_orientation_transposes(self):
        config = sw.parse_scenario(minimal_text(
            orientation="row-stochastic-convention",
            matrices={"M": [[0.2, 0.5], [0.0, 0.6]]},
        ))
        assert_allclose(config.matrices["M"], [[0.2, 0.0], [0.5, 0.6]])

    def test_empty_target_set_allowed(self):
        config = sw.parse_scenario(minimal_text(target_set=[]))
        assert config.target_set().members == frozenset()

    def test_round_trip(self):
        for text in (
            minimal_text(),
            minimal_text(start=2, tail_tol=1e-10, max_horizon=500),
            minimal_text(matrices={"A": [[0.5]], "B": [[0.25]]}, states=["only"],
                         initial=[1.0], target_set=["only"],
                         schedule={"kind": "explicit", "sequence": ["A", "B"],
                                   "extension": "error"}),
            minimal_text(schedule={"kind": "random", "probabilities": {"M": 1.0},
                                   "length": 12}),
        ):
            config = sw.parse_scenario(text)
            assert sw.parse_scenario(sw.dump_scenario(config)) == config

    def test_equality_is_that_of_the_dumped_scenario(self):
        # reordered weights name the conditions in another order, which
        # conditions() and env-sweep's columns follow
        matrices = {"A": [[0.5]], "B": [[0.25]], "C": [[0.1]]}
        base = dict(matrices=matrices, states=["only"], initial=[1.0], target_set=["only"])
        one = sw.parse_scenario(minimal_text(**base, schedule={
            "kind": "random", "probabilities": {"A": 0.5, "B": 0.3, "C": 0.2}}))
        other = sw.parse_scenario(minimal_text(**base, schedule={
            "kind": "random", "probabilities": {"C": 0.2, "B": 0.3, "A": 0.5}}))
        assert [name for name, _ in one.conditions()] != [name for name, _ in other.conditions()]
        assert one != other
        assert one == sw.parse_scenario(sw.dump_scenario(one))
        # numpy integers are held as the ints the dump writes
        assert dataclasses.replace(one, start=np.int64(3), max_horizon=np.int32(50)) == \
            dataclasses.replace(one, start=3, max_horizon=50.0)
        spec = one.schedule_spec
        assert dataclasses.replace(one, schedule_spec=RandomSchedule(spec.probabilities, np.int64(10))) == \
            dataclasses.replace(one, schedule_spec=RandomSchedule(spec.probabilities, 10))
        signed = sw.parse_scenario(minimal_text(matrices={"M": [[-0.0, 0.0], [0.5, 0.6]]}))
        assert signed != sw.parse_scenario(minimal_text(matrices={"M": [[0.0, 0.0], [0.5, 0.6]]}))

    @pytest.mark.parametrize("text, location, detail", [
        ("[]", "$", "top level must be a JSON object"),
        (minimal_text(states="adult"), "states", "must be a list of stage label strings"),
        (minimal_text(matrices={}), "matrices", "must be a non-empty object of named matrices"),
        (minimal_text(matrices={"M": [["x", 0.0], [0.5, 0.6]]}), "matrices.M",
         "not a numeric matrix: could not convert string to float: 'x'"),
        (minimal_text(schedule={"kind": "constant", "matrix": 3}), "schedule.matrix",
         "constant schedule needs a matrix name"),
        (minimal_text(target_set="adult"), "target_set", "must be a list of stage labels (possibly empty)"),
        (minimal_text(start=-1), "start", "must be a nonnegative integer, got -1"),
        (minimal_text(tail_tol=1.5), "tail_tol", "must be a number in (0, 1), got 1.5"),
        (minimal_text(max_horizon=0), "max_horizon", "must be a positive integer, got 0"),
        (minimal_text(tail_tol=10**400), "tail_tol", f"must be a number in (0, 1), got {10**400}"),
        (minimal_text(matrices={"M": [[10**400, 0.0], [0.5, 0.6]]}), "matrices.M",
         "not a numeric matrix: int too large to convert to float"),
    ], ids=["top level", "states", "matrices", "matrix entry", "constant name", "target_set", "start",
            "tail_tol", "max_horizon", "tail_tol beyond float64", "matrix entry beyond float64"])
    def test_rejection_location_and_detail(self, text, location, detail):
        with pytest.raises(sw.ScenarioParseError) as info:
            sw.parse_scenario(text)
        assert (info.value.location, info.value.detail) == (location, detail)

    # a null length means no length
    @pytest.mark.parametrize("location, kind, value", [
        (location, kind, value)
        for location, kind in (("start", "nonnegative"), ("max_horizon", "positive"), ("schedule.length", "positive"))
        for value in (2.5, True, "3", None, -1) if not (location == "schedule.length" and value is None)])
    def test_integer_fields_keep_their_messages(self, location, kind, value):
        if location == "schedule.length":
            text = minimal_text(schedule={"kind": "random", "probabilities": {"M": 1.0}, "length": value})
        else:
            text = minimal_text(**{location: value})
        with pytest.raises(sw.ScenarioParseError) as info:
            sw.parse_scenario(text)
        assert (info.value.location, info.value.detail) == (location, f"must be a {kind} integer, got {value!r}")

    def test_integral_floats_are_integers(self):
        # README: integral floats such as 2.0 are accepted for every count,
        # time and index argument, the scenario's included
        config = sw.parse_scenario(minimal_text(
            start=2.0, max_horizon=1e5, schedule={"kind": "random", "probabilities": {"M": 1.0}, "length": 64.0}))
        fields = (config.start, config.max_horizon, config.schedule_spec.length)
        assert fields == (2, 100000, 64) and all(type(x) is int for x in fields)
        dumped = json.loads(sw.dump_scenario(config))
        assert (dumped["start"], dumped["max_horizon"], dumped["schedule"]["length"]) == (2, 100000, 64)
        assert sw.parse_scenario(sw.dump_scenario(config)) == config

    def test_weights_off_one_name_the_condition_probabilities(self):
        with pytest.raises(sw.InvalidDistributionError, match=r"^condition probabilities sum to 0\.9, not 1$"):
            sw.parse_scenario(minimal_text(schedule={"kind": "random", "probabilities": {"M": 0.9}}))

    @pytest.mark.parametrize("source", ["builtin:fulmar"] + sorted(p.name for p in SCENARIOS.glob("*.json")))
    def test_shipped_scenarios_round_trip(self, source):
        config = sw.builtin_fulmar() if source == "builtin:fulmar" else sw.load_scenario(SCENARIOS / source)
        assert sw.parse_scenario(sw.dump_scenario(config)) == config


def two_condition_config():
    """A parsed two-stage scenario drawing from two matrices."""
    return sw.parse_scenario(minimal_text(
        matrices={"A": [[0.2, 0.0], [0.5, 0.6]], "B": [[0.4, 0.0], [0.3, 0.5]]},
        schedule={"kind": "random", "probabilities": {"A": 0.5, "B": 0.5}},
    ))


class TestConfigChecksItself:
    """A ScenarioConfig holds and checks its fields however it is built,
    dataclasses.replace included."""

    @pytest.mark.parametrize("change", [
        dict(initial=[1.0, 0.0]),
        dict(initial=(1.0, 0.0)),
        dict(matrices={"A": [[0.2, 0.0], [0.5, 0.6]], "B": [[0.4, 0.0], [0.3, 0.5]]}),
        dict(schedule_spec=RandomSchedule({"A": np.float32(0.5), "B": np.float32(0.5)})),
    ], ids=["list initial", "tuple initial", "list matrices", "float32 weights"])
    def test_equal_to_the_parsed_config(self, change):
        config = two_condition_config()
        changed = dataclasses.replace(config, **change)
        assert changed == config
        assert changed.random_spec().probabilities.tolist() == [0.5, 0.5]

    def test_float32_tail_tol_is_held_as_its_float(self):
        config = two_condition_config()
        changed = dataclasses.replace(config, tail_tol=np.float32(1e-10))
        assert type(changed.tail_tol) is float and changed.tail_tol == float(np.float32(1e-10))
        assert changed != dataclasses.replace(config, tail_tol=1e-10)

    @pytest.mark.parametrize("change, error, message", [
        (dict(target_labels=("zz",)), sw.UnknownLabelError, "unknown state label 'zz'"),
        (dict(tail_tol=5.0), ValueError, "tail_tol must lie in (0, 1), got 5.0"),
        (dict(schedule_spec=RandomSchedule({"A": 0.5, "Q": 0.5})), sw.UnknownMatrixError,
         "unknown matrix name 'Q'"),
        (dict(schedule_spec=RandomSchedule({"A": 0.5, "B": 0.6})), sw.InvalidDistributionError,
         "condition probabilities sum to 1.1, not 1"),
        (dict(initial=[0.9, 0.3]), sw.InvalidDistributionError, "initial: entries sum to 1.2, not 1"),
        # matrices handed to the config, a matrix no schedule names too
        (dict(matrices={"A": [[0.2, 0.0], [0.9, 0.6]], "B": [[0.4, 0.0], [0.3, 0.5]]}), sw.ColumnSumError,
         "column 0 sums to 1.1"),
        (dict(matrices={"A": [[0.2, 0.0], [0.5, 0.6]], "B": [[0.4, 0.0], [0.3, 0.5]], "C": [[-0.1]]}),
         sw.NegativeEntryError, "entry (0, 0) is negative: -0.1"),
    ], ids=["target label", "tail_tol", "probability name", "weights", "initial", "matrix", "unused matrix"])
    def test_replace_checks_the_fields(self, change, error, message):
        with pytest.raises(error) as info:
            dataclasses.replace(two_condition_config(), **change)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("schedule", [ExplicitSchedule(("Q",)), ExplicitSchedule(("A", "Q"))],
                             ids=["constant", "explicit"])
    def test_every_schedule_kind_names_known_matrices(self, schedule):
        with pytest.raises(sw.UnknownMatrixError, match="'Q'"):
            dataclasses.replace(two_condition_config(), schedule_spec=schedule)

    @pytest.mark.parametrize("build, location, detail", [
        (lambda: ExplicitSchedule(("A",), "bogus"), "schedule.extension",
         "must be one of ['hold_last', 'cycle', 'error'], got 'bogus'"),
        (lambda: ExplicitSchedule(()), "schedule.sequence", "must be a non-empty list of matrix names"),
        (lambda: RandomSchedule({"A": -1.0}), "schedule.probabilities.A",
         "weight must be a nonnegative number, got -1.0"),
    ], ids=["extension", "empty sequence", "negative weight"])
    def test_schedule_kinds_check_their_fields_as_parse_does(self, build, location, detail):
        with pytest.raises(sw.ScenarioParseError) as info:
            build()
        assert (info.value.location, info.value.detail) == (location, detail)

    def test_cached_target_set_and_spec_follow_the_fields(self):
        config = two_condition_config()
        assert config.target_set() is config.target_set()
        assert config.random_spec() is config.random_spec()
        changed = dataclasses.replace(config, target_labels=("juvenile",),
                                      schedule_spec=RandomSchedule({"B": 0.25, "A": 0.75}))
        assert changed.target_set().members == frozenset({0})
        assert changed.random_spec().labels == ("B", "A")
        assert [name for name, _ in changed.conditions()] == ["B", "A"]
        assert not dataclasses.replace(config, schedule_spec=ExplicitSchedule(("B",))).is_random()


def _outcome(run):
    """A call's result as comparable values, or its error's type and message."""
    try:
        result = run()
    except sw.StagedwellError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, (sw.JointOccupancyTable, sw.MomentTable)):
        return [np.asarray(x).tobytes() for x in result.values]
    return result


class TestRandomRealization:
    """A random scenario's realization is cut at start + max_horizon + 1
    steps. Run with the config's start and max_horizon, every engine and the
    simulator give on it what they give on the full length."""

    @pytest.mark.parametrize("start, max_horizon", [(0, sw.DEFAULT_MAX_HORIZON), (3, 50), (0, 300), (4, 450),
                                                    (0, 600)])
    def test_engines_stop_close_and_raise_as_on_the_full_length(self, start, max_horizon):
        shipped = sw.load_scenario(SCENARIOS / "fulmar_random_environment.json")
        config = dataclasses.replace(shipped, start=start, max_horizon=max_horizon)
        cut = config.build_schedule(np.random.default_rng(1))
        full = sw.sample_schedule(config.random_spec(), shipped.schedule_spec.length, np.random.default_rng(1))
        assert cut.prefix_length == min(5000, start + max_horizon + 1)
        v, target, kw = config.initial, config.target_set(), dict(start=start, max_horizon=max_horizon)
        runs = [
            lambda s: sw.lifetime_distribution(s, v, **kw),
            lambda s: sw.occupancy_distribution(s, v, target, **kw),
            lambda s: sw.evolve_joint(s, v, target, **kw),
            lambda s: sw.moment_tables(s, v, target, order=2, **kw),
            lambda s: sw.occupancy_moments(s, v, target, order=4, **kw),
            lambda s: sw.empirical_distribution(s, v, target, n_samples=50, seed=1, start=start,
                                                step_cap=max_horizon),
        ]
        for engine in runs:
            assert _outcome(lambda: engine(cut)) == _outcome(lambda: engine(full))


class TestBuiltinFulmar:
    def test_states_and_keys(self):
        data = sw.builtin_fulmar()
        assert data.states.labels == (
            "pre-breeder", "successful breeder", "failed breeder", "non-breeder")
        assert list(data.matrices) == ["U_f", "U_o", "U_u"]

    def test_matrices_match_printed_decimal_strings(self):
        printed = json.loads((DATA / "fulmar_printed.json").read_text())
        data = sw.builtin_fulmar()
        assert tuple(printed["states"]) == data.states.labels
        for name, rows in printed["matrices"].items():
            got = data.matrices[name]
            for i, row in enumerate(rows):
                for j, cell in enumerate(row):
                    assert float(cell) == got[i, j], (name, i, j)
                    # embedded constants are the printed decimals themselves
                    if "." in cell:
                        assert repr(float(got[i, j])) == cell, (name, i, j)

    def test_all_validate(self):
        for m in sw.builtin_fulmar().matrices.values():
            assert not m.flags.writeable
            assert (m >= 0).all()
            assert (m.sum(axis=0) <= 1 + 1e-9).all()

    def test_scenario_wrapper(self):
        config = sw.builtin_fulmar_scenario()
        assert config.schedule_spec == ExplicitSchedule(("U_f",))
        assert config.target_set().members == frozenset({1, 2})
        assert_allclose(config.initial, [1.0, 0.0, 0.0, 0.0])

    def test_schedule_is_the_constant_one(self):
        built = sw.builtin_fulmar().build_schedule()
        reference = sw.Schedule.constant(sw.builtin_fulmar().matrices["U_f"])
        assert len(built.matrices) == len(reference.matrices) == 1
        assert np.array_equal(built.matrices[0], reference.matrices[0])
        assert built.sequence.tolist() == reference.sequence.tolist()
        assert built.extension == reference.extension

    def test_conditions_order(self):
        names = [n for n, _ in sw.builtin_fulmar().conditions()]
        assert names == ["U_f", "U_o", "U_u"]

    def test_one_scenario_under_two_names(self):
        assert sw.builtin_fulmar() == sw.builtin_fulmar_scenario()
        assert isinstance(sw.builtin_fulmar(), sw.ScenarioConfig)
        assert [n for n, _ in sw.builtin_fulmar_scenario().conditions()] == ["U_f", "U_o", "U_u"]


class TestFormatNumber:
    def test_floats_keep_a_point(self):
        assert format_number(1.0) == "1.0"
        assert format_number(0.5) == "0.5"
        assert format_number(0.0) == "0.0"

    def test_ints_are_plain(self):
        assert format_number(3) == "3"
        assert format_number(np.int64(7)) == "7"
        assert format_number(True) == "1"

    def test_twelve_significant_digits(self):
        assert format_number(1 / 3) == "0.333333333333"
        assert format_number(2.5e-13) == "2.5e-13"

    def test_nan(self):
        for x in (float("nan"), -float("nan"), np.float32("nan")):
            assert format_number(x) == "nan"

    def test_infinities(self):
        assert format_number(float("inf")) == "inf"
        assert format_number(float("-inf")) == "-inf"


# floats a 12-digit cell writes without a point (1.0, 0.99999999999995,
# -0.0, 123456789012.0), subnormals, the edges of the range, and the rest
FLOATS = st.sampled_from([1.0, 0.99999999999995, -0.0, 0.0, 5e-324, 1e-310, sys.float_info.min, 1e300, -1e300,
                          123456789012.0, 1e12, -7.0, 0.5, 1 / 3, 2.5e-13]) | st.floats()
NUMBERS = FLOATS | FLOATS.map(np.float64) | st.integers(-10**15, 10**15) | st.integers(-5, 5).map(np.int64) \
    | st.booleans()
TEXT = st.text(max_size=6)   # commas, line breaks, non-ASCII


def _columns(size=30):
    """A column of plain floats, of numpy floats, or of any numbers."""
    return st.lists(FLOATS, max_size=size) | st.lists(FLOATS.map(np.float64), max_size=size) \
        | st.lists(NUMBERS, max_size=size)


@st.composite
def _distributions(draw):
    values = draw(_columns())
    keys = draw(st.lists(st.integers(0, 10**6), min_size=len(values), max_size=len(values), unique=True))
    if draw(st.booleans()):
        keys = list(map(np.int64, keys))
    cls = draw(st.sampled_from([sw.LifetimeDistribution, sw.OccupancyDistribution, sw.DiscreteDistribution]))
    return cls(dict(zip(keys, values)), tail_mass=draw(NUMBERS))


def _counts():
    return st.dictionaries(st.integers(0, 400), st.integers(1, 10**6) | st.integers(1, 9).map(np.int64), max_size=20)


def _two_level():
    return st.builds(sw.TwoLevelStats, st.integers(2, 10**6), NUMBERS, NUMBERS, NUMBERS, NUMBERS, NUMBERS)


@st.composite
def _sweeps(draw):
    labels = draw(st.tuples(TEXT, TEXT, TEXT))
    point = st.builds(lambda p, stats, error: sw.SweepPoint(p, stats, None if stats else error, labels=labels),
                      st.tuples(NUMBERS, NUMBERS, NUMBERS), st.none() | _two_level(), TEXT)
    return draw(st.lists(point, min_size=1, max_size=12))


EXPORTABLE = st.one_of(
    _distributions(),
    _columns().filter(lambda xs: all(isinstance(x, (int, float)) for x in xs)),   # a moments list
    st.builds(sw.EmpiricalSummary, st.integers(1, 10**6), _counts(), _counts()),
    _two_level(),
    _sweeps(),
)
METADATA = st.lists(st.tuples(TEXT, NUMBERS | TEXT | st.none() | st.lists(FLOATS, max_size=2)), max_size=12)


def _written(write, result, fmt, metadata):
    """The text a writer gives, or the error it raises."""
    try:
        return write(result, fmt, metadata)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _exported(result, fmt, metadata):
    text = io.StringIO()
    sw.export_results(result, fmt, text, metadata=metadata)
    return text.getvalue()


class TestRenderingReference:
    """export_results writes the text of rendering one cell at a time
    (helpers.reference_export), for every exportable result, with and
    without metadata."""

    ATOMS = {n: x for n, x in enumerate([0.25, 1.0, 0.99999999999995, -0.0, 5e-324, 1e300, 123456789012.0, 0.5], 1)}

    @settings(max_examples=400, deadline=None)
    @given(EXPORTABLE, METADATA, st.sampled_from(["csv", "json"]))
    # 8 atoms or more: a template per row, with ".0" added to 4 of them
    @example(sw.LifetimeDistribution(ATOMS, tail_mass=1e-13), [("mean", 1.5), ("cv", math.nan)], "csv")
    @example(sw.LifetimeDistribution(ATOMS, tail_mass=math.inf), [("mean", 1.5), ("cv", math.nan)], "json")
    # a column of ints and floats, numpy and bool cells; a label whose line
    # break follows what reads as an integral last cell
    @example(sw.OccupancyDistribution({**ATOMS, 9: 1, 10: np.float64(0.5)}, tail_mass=0.0),
             [("b", True), ("é", np.int64(3))], "csv")
    @example([0.5], [(f"k{i}", float(i)) for i in range(7)] + [("n,3\nx", 0.5)], "csv")
    @example(sw.EmpiricalSummary(40, {a: 4 for a in range(10)}, {1: 40}), [], "csv")
    @example(sw.EmpiricalSummary(40, {a: np.int64(4) for a in range(10)}, {1: 40}), [], "json")
    @example([1.0, 2, np.float64(3.5)], [("mean", 1.0), ("none", None), ("empty", []), ("pair", [0.5, 1.0])], "json")
    @example([sw.SweepPoint((1.0, 0.0, 0.0), sw.TwoLevelStats(2, 1.0, 0.5, 0.0, 0.5, 0.7), labels=("é", "b", "c")),
              sw.SweepPoint((0.0, 1.0, 0.0), None, error="NonAbsorbingError: stuck", labels=("é", "b", "c"))],
             [], "json")
    def test_matches_the_reference(self, result, metadata, fmt):
        assert _written(_exported, result, fmt, metadata) == _written(reference_export, result, fmt, metadata)


class TestExportResults:
    def test_point_mass_occupancy_csv(self):
        sched = sw.Schedule.constant([[0.0]])
        dist = sw.occupancy_distribution(sched, [1.0], sw.TargetSet.none(1))
        buf = io.StringIO()
        sw.export_results(dist, "csv", buf)
        assert buf.getvalue() == "a,probability\n0,1.0\ntail_mass,0.0\n"

    def test_lifetime_csv_uses_n_column(self):
        sched = sw.Schedule.constant([[0.0]])
        dist = sw.lifetime_distribution(sched, [1.0])
        buf = io.StringIO()
        sw.export_results(dist, "csv", buf)
        assert buf.getvalue() == "n,probability\n1,1.0\ntail_mass,0.0\n"

    def test_moments_csv_with_metadata(self):
        buf = io.StringIO()
        sw.export_results([1.0, 3.0], "csv", buf, metadata=[("mean", 1.0)])
        lines = buf.getvalue().splitlines()
        assert lines == ["k,moment", "1,1.0", "2,3.0", "mean,1.0"]

    def test_two_level_csv_header(self):
        stats = sw.TwoLevelStats(4, 1.5, 0.5, 0.25, 0.75, 0.57735026919)
        buf = io.StringIO()
        sw.export_results(stats, "csv", buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "mean,cv,within_var,between_var,total_var,n_sequences"
        assert lines[1].startswith("1.5,0.57735026919,0.5,0.25,0.75,4")

    def test_sweep_csv_header_and_failed_point(self):
        stats = sw.TwoLevelStats(2, 1.0, 0.5, 0.0, 0.5, 0.7)
        points = [
            sw.SweepPoint((1.0, 0.0, 0.0), stats, labels=("U_f", "U_o", "U_u")),
            sw.SweepPoint((0.0, 1.0, 0.0), None, error="NonAbsorbingError: stuck",
                          labels=("U_f", "U_o", "U_u")),
        ]
        buf = io.StringIO()
        sw.export_results(points, "csv", buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "p_U_f,p_U_o,p_U_u,mean,cv,within_var,between_var"
        assert lines[1] == "1.0,0.0,0.0,1.0,0.7,0.5,0.0"
        assert lines[2] == "0.0,1.0,0.0,nan,nan,nan,nan"

    def test_empirical_csv(self):
        summary = sw.EmpiricalSummary(4, {0: 1, 2: 3}, {1: 4})
        buf = io.StringIO()
        sw.export_results(summary, "csv", buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "tau,count"
        assert lines[1] == "0,1"
        assert lines[2] == "2,3"
        assert "n_samples,4" in lines
        assert "mean,1.5" in lines

    def test_json_keeps_full_precision(self):
        # floats round-trip exactly, so the exported atoms sum as the
        # engine's do; CSV stays at 12 significant digits
        dist = sw.OccupancyDistribution({0: 1 / 3, 1: 2 / 3 - 1e-13}, tail_mass=1e-13)
        buf = io.StringIO()
        sw.export_results(dist, "json", buf)
        doc = json.loads(buf.getvalue())
        assert doc["kind"] == "occupancy"
        assert doc["probs"] == {"0": 1 / 3, "1": 2 / 3 - 1e-13}
        assert doc["tail_mass"] == 1e-13

    def test_json_lifetime_kind(self):
        dist = sw.LifetimeDistribution({1: 1.0}, tail_mass=0.0)
        buf = io.StringIO()
        sw.export_results(dist, "json", buf)
        assert json.loads(buf.getvalue())["kind"] == "lifetime"

    def test_writes_to_path(self, tmp_path):
        out = tmp_path / "dist.csv"
        dist = sw.OccupancyDistribution({0: 1.0}, tail_mass=0.0)
        sw.export_results(dist, "csv", out)
        assert out.read_text().startswith("a,probability\n")

    def test_unsupported_result_type(self):
        with pytest.raises(sw.ScenarioError, match="cannot export a result of type dict"):
            sw.export_results({"mean": 1.0}, "csv", io.StringIO())

    def test_unknown_format(self):
        with pytest.raises(sw.ScenarioError):
            sw.export_results([1.0], "yaml", io.StringIO())

    def test_load_scenario_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(minimal_text())
        config = sw.load_scenario(path)
        assert config.states.d == 2
